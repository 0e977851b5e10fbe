"""Cones in index space: membership, ray hulls, and nef/effective
lattice-point estimation for graded systems.

A ConeRep is one representation for every cone: the halfspace
intersection {<a, x> >= 0} over primitive integer normals a, the full space
having none.  Halfspace files, epigraphs {(x, y) : y >= max of linear forms}
and ray spans all become such normals on construction, a ray span by one
integer double description of the dual cone, so membership is always exact;
generators and extreme rays are read off one double description of the
normals, and pointedness off the lineality of that same description.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product as iterprod
from math import prod

from .errors import RankMismatch, WorkLimitExceeded
from .newton import _dot, primitive

# Largest number of rays the dual of a double description may hold.  A
# step costs up to the product of the dual rays on either side of the new
# input ray, times the dual's size: the 3,373 nef points of a 12-ray rank-6
# cone within radius 3 peak at 991 rays and take 8 s (Python 3.11, 2 shared
# vCPUs), and a 14-ray rank-7 cone passes 1,000 rays in 1 s, 2,000 in 5 s.
MAX_DUAL_RAYS = 1000
# Largest number of indices in a lattice window: a `system cones` sweep of
# a rank-3 ceiling at radius 49 (970,299 indices) takes 6.4 s and 183 MB.
MAX_WINDOW_INDICES = 1_000_000


@dataclass(frozen=True)
class ConeRep:
    """Closed convex cone with vertex at the origin.

    ``halfspaces`` is the exact inequality description used for membership;
    the cone is the full space exactly when it is empty.  One double
    description of the normals, computed once per cone, gives the rest:
    the cone is ``pointed`` when it finds no lineality; its ``generators``
    are its primitive extreme rays, then each lineality vector and its
    negative; its ``rays`` are the generators of a pointed cone and empty
    otherwise.
    """

    rank: int
    halfspaces: tuple[tuple[int, ...], ...] = ()

    @property
    def fullspace(self) -> bool:
        return not self.halfspaces

    @cached_property
    def _description(self):
        """(generators, lineality basis) of the cone: the dual of its normals."""
        return _double_description(self.halfspaces, self.rank)

    @property
    def pointed(self) -> bool:
        return not self._description[1]

    @property
    def generators(self) -> tuple[tuple[int, ...], ...]:
        return self._description[0]

    @property
    def rays(self) -> tuple[tuple[int, ...], ...]:
        return self.generators if self.pointed else ()

    @staticmethod
    def from_halfspaces(rank: int, normals) -> ConeRep:
        hs = tuple(primitive(a) for a in normals)
        if any(len(a) != rank for a in hs):
            raise RankMismatch("halfspace normal of wrong rank")
        return ConeRep(rank, hs)

    @staticmethod
    def epigraph(forms) -> ConeRep:
        """Cone {(x, y) : y >= max over forms of <form, x>}.

        The zero form is appended when missing, so the boundary function is
        nonnegative, convex and positively homogeneous by construction.
        """
        fs = [tuple(form) for form in forms]
        if not fs:
            raise ValueError("need at least one linear form")
        n = len(fs[0])
        if any(len(f) != n for f in fs):
            raise RankMismatch("forms of mixed arity")
        if (0,) * n not in fs:
            fs.append((0,) * n)
        return ConeRep.from_halfspaces(n + 1, (tuple(-c for c in f) + (1,) for f in fs))

    def contains(self, v) -> bool:
        vt = tuple(v)
        if len(vt) != self.rank:
            raise RankMismatch(f"vector of length {len(vt)} in rank {self.rank}")
        return all(_dot(a, vt) >= 0 for a in self.halfspaces)


def abs_sum_cone() -> ConeRep:
    """The cone {(x1, x2, y) : y >= |x1| + |x2|} as an epigraph of four forms."""
    return ConeRep.epigraph([(1, 1), (1, -1), (-1, 1), (-1, -1)])


def ray_hull(points, rank: int) -> ConeRep:
    """Closed convex cone spanned by integer points: its halfspaces are the
    generators of the dual cone {a : <a, r> >= 0 for every ray r}, so
    membership is exact for every rank and span.  No points span the zero
    cone, whose halfspaces are the +-e_i; positively spanning inputs return
    the full space."""
    pts = [tuple(p) for p in points]
    if any(len(p) != rank for p in pts):
        raise RankMismatch("point of wrong rank")
    return ConeRep(rank, _double_description(pts, rank)[0])


def _double_description(points, rank: int):
    """(generators, lineality basis) of the dual cone {a : <a, p> >= 0 for
    every point p}; its generators are its sorted primitive extreme rays,
    then each lineality vector and its negative.  One exact integer double
    description (Motzkin et al. 1953) in any rank, with the adjacency test
    of Fukuda and Prodon (1996); a dual of more than ``MAX_DUAL_RAYS`` rays
    is refused as soon as it arises."""
    rays = sorted({primitive(p) for p in points if any(x != 0 for x in p)})
    # dual lineality basis, and dual extreme rays with the bitmask of the
    # input rays each is tight on
    lineality = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    extreme: list[tuple[tuple[int, ...], int]] = []
    for k, r in enumerate(rays):
        bit = 1 << k
        i = next((i for i, w in enumerate(lineality) if _dot(w, r) != 0), None)
        if i is not None:
            pivot = lineality.pop(i)
            lr = _dot(pivot, r)
            if lr < 0:
                pivot, lr = tuple(-x for x in pivot), -lr

            def project(v):
                vr = _dot(v, r)
                return primitive(tuple(lr * a - vr * b for a, b in zip(v, pivot)))

            lineality = [project(w) for w in lineality]
            extreme = [(project(e), t | bit) for e, t in extreme] + [(pivot, bit - 1)]
        else:
            signed = [(e, t, _dot(e, r)) for e, t in extreme]
            # p and n are adjacent when no third ray is tight on every input
            # ray that both are tight on, which needs at least `shared` of them
            shared = rank - len(lineality) - 2
            positive = [(p, tp, dp) for p, tp, dp in signed if dp > 0]
            negative = [(n, tn, dn) for n, tn, dn in signed if dn < 0]
            extreme = [(e, t | bit if d == 0 else t) for e, t, d in signed if d >= 0]
            for p, tp, dp in positive:
                for n, tn, dn in negative:
                    both = tp & tn
                    if both.bit_count() >= shared and not any(
                            t & both == both and t != tp and t != tn for _, t, _ in signed):
                        extreme.append((primitive(tuple(dp * b - dn * a for a, b in zip(p, n))),
                                        both | bit))
        if len(extreme) > MAX_DUAL_RAYS:
            raise WorkLimitExceeded(f"a double description of {len(extreme)} dual rays is "
                                    f"over the limit of {MAX_DUAL_RAYS}")
    generators = tuple(sorted(e for e, _ in extreme)) + tuple(
        v for w in lineality for v in (w, tuple(-x for x in w)))
    return generators, tuple(lineality)


# -- lattice estimation of nef / effective cones ------------------------------


def lattice_window(bounds):
    """All integer vectors of the box given by per-coordinate (lo, hi)
    bounds, in lexicographic order.  A box of more than
    ``MAX_WINDOW_INDICES`` indices is refused before any is listed."""
    ranges = [range(lo, hi + 1) for lo, hi in bounds]
    size = prod(map(len, ranges))
    if size > MAX_WINDOW_INDICES:
        raise WorkLimitExceeded(f"a window of {size} indices is over the limit of "
                                f"{MAX_WINDOW_INDICES}")
    return iterprod(*ranges)


def nef_eff_points(system, radius: int) -> tuple[list, list]:
    """The nef and the eff points of the window ||v||_inf <= radius, in one
    sweep that evaluates each index once."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    nef, eff = [], []
    for v in lattice_window([(-radius, radius)] * system.rank):
        ideal = system.eval(v)
        if ideal.is_unit:
            nef.append(v)
        if not ideal.is_zero:
            eff.append(v)
    return nef, eff


def nef_points(system, radius: int) -> list[tuple[int, ...]]:
    """Indices v with ||v||_inf <= radius where the system's ideal is the unit."""
    return nef_eff_points(system, radius)[0]


def eff_points(system, radius: int) -> list[tuple[int, ...]]:
    """Indices v with ||v||_inf <= radius where the system's ideal is nonzero."""
    return nef_eff_points(system, radius)[1]

