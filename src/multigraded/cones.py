"""Cones in index space: membership, ray hulls (rank <= 3), and nef/effective
lattice-point estimation for graded systems.

A ConeRep is one representation for every cone: the halfspace
intersection {<a, x> >= 0} over primitive integer normals a, the full space
having none.  Halfspace files, epigraphs {(x, y) : y >= max of linear forms}
and ray spans all become such normals on construction, a ray span by one
integer double description of the dual cone, so membership is always exact;
pointedness, generators and extreme rays are derived from the normals.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iterprod

from .errors import RankMismatch, UnsupportedDimension
from .newton import _dot, _rank, primitive


@dataclass(frozen=True)
class ConeRep:
    """Closed convex cone with vertex at the origin.

    ``halfspaces`` is the exact inequality description used for membership;
    the cone is the full space exactly when it is empty.  The cone is
    ``pointed`` when its normals have full rank.  Its ``generators`` are
    its primitive extreme rays, then each lineality vector and its
    negative: the ray hull of the normals, whose dual is the cone.  Its
    ``rays`` are the generators of a pointed cone and empty otherwise.
    """

    rank: int
    halfspaces: tuple[tuple[int, ...], ...] = ()

    @property
    def fullspace(self) -> bool:
        return not self.halfspaces

    @property
    def pointed(self) -> bool:
        return _rank(self.halfspaces) == self.rank

    @property
    def generators(self) -> tuple[tuple[int, ...], ...]:
        return ray_hull(self.halfspaces, self.rank).halfspaces

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
    """Closed convex cone spanned by integer points (rank <= 3).

    One exact integer double description (Motzkin et al. 1953; Fukuda and
    Prodon 1996) of the dual cone {a : <a, r> >= 0 for every ray r}: the
    halfspaces are its sorted extreme rays followed by each lineality
    vector and its negative, so membership is exact for every rank and
    span.  No points span the zero cone, whose halfspaces are the +-e_i;
    positively spanning inputs return the full space.
    """
    pts = [tuple(p) for p in points]
    if any(len(p) != rank for p in pts):
        raise RankMismatch("point of wrong rank")
    if rank > 3:
        raise UnsupportedDimension("ray hulls are limited to rank <= 3")
    rays = sorted({primitive(p) for p in pts if any(x != 0 for x in p)})
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
            continue
        signed = [(e, t, _dot(e, r)) for e, t in extreme]
        # in rank <= 3 two dual rays are adjacent when the dual has at most
        # two, or else when some input ray is tight on both (a shared facet)
        all_adjacent = len(extreme) <= 2
        extreme = [(e, t | bit if d == 0 else t) for e, t, d in signed if d >= 0]
        for p, tp, dp in signed:
            for n, tn, dn in signed:
                if dp > 0 > dn and (all_adjacent or tp & tn):
                    extreme.append(
                        (primitive(tuple(dp * b - dn * a for a, b in zip(p, n))), (tp & tn) | bit))
    hs = tuple(sorted(e for e, _ in extreme)) + tuple(
        v for w in lineality for v in (w, tuple(-x for x in w)))
    return ConeRep(rank, hs)


# -- lattice estimation of nef / effective cones ------------------------------


def lattice_window(rank: int, radius: int):
    """All integer vectors with sup-norm <= radius, in lexicographic order."""
    return iterprod(*(range(-radius, radius + 1) for _ in range(rank)))


def nef_eff_points(system, radius: int) -> tuple[list, list]:
    """The nef and the eff points of the window ||v||_inf <= radius, in one
    sweep that evaluates each index once."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    nef, eff = [], []
    for v in lattice_window(system.rank, radius):
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

