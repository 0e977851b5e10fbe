"""Cones in index space: membership, ray hulls (rank <= 3), nef/effective
lattice-point estimation for graded systems, and exact cone comparison.

A ConeRep is one of: a halfspace intersection {<a, x> >= 0}, a ray span,
the epigraph {(x, y) : y >= max of linear forms}, or the full space.
Rays are stored as primitive integer vectors.  Ray spans are converted to
halfspaces on construction so that membership is always an exact test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product as iterprod

from .errors import RankMismatch, UnsupportedDimension
from .newton import _cross3, _dot, _rank, primitive


@dataclass(frozen=True)
class ConeRep:
    """Closed convex cone with vertex at the origin.

    ``halfspaces`` is the exact inequality description used for membership
    (empty for the full space); ``rays`` is a generating set when known;
    ``forms`` is set only for epigraph cones.  ``pointed`` is None when
    pointedness was not determined; a full-rank rank-3 hull that is not
    pointed has no rays.
    """

    rank: int
    halfspaces: tuple[tuple[int, ...], ...] = ()
    rays: tuple[tuple[int, ...], ...] = ()
    forms: tuple[tuple, ...] | None = None
    fullspace: bool = False
    pointed: bool | None = None

    @staticmethod
    def from_halfspaces(rank: int, normals) -> ConeRep:
        hs = tuple(tuple(a) for a in normals)
        if any(len(a) != rank for a in hs):
            raise RankMismatch("halfspace normal of wrong rank")
        return ConeRep(rank, halfspaces=hs, fullspace=not hs)

    @staticmethod
    def epigraph(forms) -> ConeRep:
        """Cone {(x, y) : y >= max over forms of <form, x>}.

        The zero form is appended when missing, so the boundary function is
        nonnegative, convex and positively homogeneous by construction.
        """
        fs = [tuple(Fraction(c) for c in form) for form in forms]
        if not fs:
            raise ValueError("need at least one linear form")
        n = len(fs[0])
        if any(len(f) != n for f in fs):
            raise RankMismatch("forms of mixed arity")
        if (Fraction(0),) * n not in fs:
            fs.append((Fraction(0),) * n)
        hs = tuple(primitive(tuple(-c for c in f) + (1,)) for f in fs)
        return ConeRep(n + 1, halfspaces=hs, forms=tuple(fs))

    @staticmethod
    def full(rank: int) -> ConeRep:
        return ConeRep(rank, fullspace=True)

    def contains(self, v) -> bool:
        vt = tuple(v)
        if len(vt) != self.rank:
            raise RankMismatch(f"vector of length {len(vt)} in rank {self.rank}")
        if self.fullspace:
            return True
        return all(_dot(a, vt) >= 0 for a in self.halfspaces)


def _perp2(u):
    return (-u[1], u[0])


def _sort_rays_ccw(rays):
    from functools import cmp_to_key

    def half(u):
        return 0 if (u[1] > 0 or (u[1] == 0 and u[0] > 0)) else 1

    def cmp(u, v):
        hu, hv = half(u), half(v)
        if hu != hv:
            return -1 if hu < hv else 1
        s = u[0] * v[1] - u[1] * v[0]
        return -1 if s > 0 else (1 if s < 0 else 0)

    return sorted(rays, key=cmp_to_key(cmp))


def ray_hull(points, rank: int | None = None) -> ConeRep:
    """Closed convex cone spanned by integer points, with minimal rays.

    Rank 2 works by angular sort; rank 3 by exact pair-cross-product facet
    enumeration.  Positively spanning inputs return a full-space cone.  For
    full-rank rank-3 cones that are not pointed the halfspace description
    is exact and the ray list is empty.
    """
    pts = [tuple(p) for p in points]
    if not pts:
        raise ValueError("need at least one point")
    if rank is None:
        rank = len(pts[0])
    if any(len(p) != rank for p in pts):
        raise RankMismatch("points of mixed rank")
    if rank > 3:
        raise UnsupportedDimension("ray hulls are limited to rank <= 3")
    rays = sorted({primitive(p) for p in pts if any(x != 0 for x in p)})
    if not rays:
        # cone {0}: intersection of all coordinate halfspaces both ways
        axes = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
        hs = tuple(axes + [tuple(-x for x in a) for a in axes])
        return ConeRep(rank, halfspaces=hs, rays=(), pointed=True)
    if rank == 1:
        if (1,) in rays and (-1,) in rays:
            return ConeRep.full(1)
        return ConeRep(1, halfspaces=(rays[0],), rays=tuple(rays), pointed=True)

    span = _rank(rays)
    if rank == 2:
        return _ray_hull_2(rays) if span == 2 else _ray_hull_line(rays, 2)
    if span == 1:
        return _ray_hull_line(rays, 3)
    if span == 2:
        return _ray_hull_planar_3(rays)
    return _ray_hull_3(rays)


def _ray_hull_line(rays, rank: int) -> ConeRep:
    """All rays on one line through the origin: a ray or a line."""
    u = rays[0]
    normals = []
    if rank == 2:
        normals = [primitive(_perp2(u))]
    else:
        basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        for e in basis:
            n = _cross3(u, e)
            if any(x != 0 for x in n):
                normals.append(primitive(n))
        normals = [n for i, n in enumerate(normals) if _rank(normals[: i + 1]) > _rank(normals[:i])]
    hs = [n for n in normals] + [tuple(-x for x in n) for n in normals]
    opposite = tuple(-x for x in u)
    if opposite in rays:
        return ConeRep(rank, halfspaces=tuple(hs), rays=(u, opposite), pointed=False)
    return ConeRep(rank, halfspaces=tuple(hs + [u]), rays=(u,), pointed=True)


def _ray_hull_2(rays) -> ConeRep:
    ordered = _sort_rays_ccw(rays)
    n = len(ordered)
    gap_over = None
    gap_pi = None
    for i in range(n):
        u, v = ordered[i], ordered[(i + 1) % n]
        s = u[0] * v[1] - u[1] * v[0]
        if s < 0:
            gap_over = i
        elif s == 0 and n > 1:
            gap_pi = i
    if n == 1:
        u = ordered[0]
        hs = (primitive(_perp2(u)), primitive(tuple(-x for x in _perp2(u))), u)
        return ConeRep(2, halfspaces=hs, rays=(u,), pointed=True)
    if gap_over is not None:
        lo = ordered[(gap_over + 1) % n]
        hi = ordered[gap_over]
        hs = (primitive(_perp2(lo)), primitive(tuple(-x for x in _perp2(hi))))
        return ConeRep(2, halfspaces=hs, rays=tuple(sorted({lo, hi})), pointed=True)
    if gap_pi is not None:
        u = ordered[gap_pi]
        normal = primitive(_perp2(u))
        if not all(_dot(normal, r) >= 0 for r in rays):
            normal = tuple(-x for x in normal)
        gens = sorted({u, tuple(-x for x in u), normal})
        return ConeRep(2, halfspaces=(normal,), rays=tuple(gens), pointed=False)
    return ConeRep.full(2)


def _ray_hull_planar_3(rays) -> ConeRep:
    """All rays in a plane through the origin; hull computed in the plane."""
    u = rays[0]
    v = next(r for r in rays if _rank([u, r]) == 2)
    nu = primitive(_cross3(u, v))
    g = [[_dot(u, u), _dot(u, v)], [_dot(v, u), _dot(v, v)]]
    det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    coords = []
    for r in rays:
        s = Fraction(_dot(r, u) * g[1][1] - _dot(r, v) * g[0][1], det)
        t = Fraction(g[0][0] * _dot(r, v) - g[1][0] * _dot(r, u), det)
        coords.append(primitive((s, t)))
    flat = _ray_hull_2(sorted(set(coords)))

    # the dual basis of (u, v, nu) is (v x nu, nu x u, u x v) / det(u, v, nu),
    # and det(u, v, nu) = <u x v, nu> > 0
    du, dv = _cross3(v, nu), _cross3(nu, u)

    def lift_normal(n2):
        # A with <A,u> = n2[0], <A,v> = n2[1], <A,nu> = 0, up to a positive factor
        return primitive(tuple(n2[0] * a + n2[1] * b for a, b in zip(du, dv)))

    def lift_ray(r2):
        return primitive(tuple(r2[0] * a + r2[1] * b for a, b in zip(u, v)))

    hs = [lift_normal(n) for n in flat.halfspaces] + [nu, tuple(-x for x in nu)]
    lifted = tuple(sorted(lift_ray(r) for r in flat.rays)) if not flat.fullspace else tuple(
        sorted(lift_ray(r) for r in coords)
    )
    return ConeRep(3, halfspaces=tuple(hs), rays=lifted, pointed=flat.pointed)


def _ray_hull_3(rays) -> ConeRep:
    candidates = set()
    for p, q in combinations(rays, 2):
        n = _cross3(p, q)
        if any(x != 0 for x in n):
            candidates.add(primitive(n))
            candidates.add(primitive(tuple(-x for x in n)))
    valid = [n for n in sorted(candidates) if all(_dot(n, r) >= 0 for r in rays)]
    if not valid:
        return ConeRep.full(3)
    facets = []
    for n in valid:
        tight = [r for r in rays if _dot(n, r) == 0]
        if _rank(tight) == 2:
            facets.append(n)
    pointed = _rank(facets) == 3 if facets else False
    if not pointed:
        # a cone with a line has no extreme rays: leave the ray list empty
        hs = facets if facets else valid
        return ConeRep(3, halfspaces=tuple(hs), pointed=False)
    extreme = []
    for r in rays:
        tight = [n for n in facets if _dot(n, r) == 0]
        if _rank(tight) == 2:
            extreme.append(r)
    return ConeRep(3, halfspaces=tuple(facets), rays=tuple(sorted(extreme)), pointed=True)


# -- lattice estimation of nef / effective cones ------------------------------


def lattice_window(rank: int, radius: int):
    """All integer vectors with sup-norm <= radius, in lexicographic order."""
    return iterprod(*(range(-radius, radius + 1) for _ in range(rank)))


def nef_points(system, radius: int) -> list[tuple[int, ...]]:
    """Indices v with ||v||_inf <= radius where the system's ideal is the unit."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    return [v for v in lattice_window(system.rank, radius) if system.eval(v).is_unit]


def eff_points(system, radius: int) -> list[tuple[int, ...]]:
    """Indices v with ||v||_inf <= radius where the system's ideal is nonzero."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    return [v for v in lattice_window(system.rank, radius) if not system.eval(v).is_zero]


# -- comparison ----------------------------------------------------------------


def halton(index: int, base: int) -> Fraction:
    """Deterministic low-discrepancy rational sequence in (0, 1)."""
    result = Fraction(0)
    f = Fraction(1, base)
    i = index
    while i > 0:
        result += f * (i % base)
        i //= base
        f /= base
    return result


@dataclass(frozen=True)
class ConeCompareReport:
    samples_tested: int
    sample_disagreements: tuple[tuple, ...]
    lattice_tested: int
    lattice_disagreements: tuple[tuple, ...]

    @property
    def agrees(self) -> bool:
        return not self.sample_disagreements and not self.lattice_disagreements


_HALTON_BASES = (2, 3, 5)


def cone_compare(estimated: ConeRep, expected: ConeRep, samples: int = 64,
                 radius: int | None = None) -> ConeCompareReport:
    """Membership agreement over deterministic rational directions, plus an
    exact lattice-point comparison within the given radius."""
    if estimated.rank != expected.rank:
        raise RankMismatch("cones of different rank")
    rank = estimated.rank
    bases = _HALTON_BASES[:rank]
    sample_bad = []
    for i in range(1, samples + 1):
        v = tuple(2 * halton(i, b) - 1 for b in bases)
        if estimated.contains(v) != expected.contains(v):
            sample_bad.append(v)
    lattice_bad = []
    tested = 0
    if radius is not None:
        for v in lattice_window(rank, radius):
            tested += 1
            if estimated.contains(v) != expected.contains(v):
                lattice_bad.append(v)
    return ConeCompareReport(samples, tuple(sample_bad), tested, tuple(lattice_bad))


def abs_sum_cone() -> ConeRep:
    """The cone {(x1, x2, y) : y >= |x1| + |x2|} as an epigraph of four forms."""
    return ConeRep.epigraph([(1, 1), (1, -1), (-1, 1), (-1, -1)])
