"""Independent reference computations for the correctness checks.

Nothing here imports the library: each function recomputes a quantity by
a route of its own (plain domination filters, column scans, cone volumes
over facets), so a check built on it does not share code with the route
being timed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from math import ceil


def dominates(v, w) -> bool:
    return all(a >= b for a, b in zip(v, w))


def antichain(points) -> list[tuple[int, ...]]:
    """Minimal elements under componentwise <=, lex sorted (quadratic filter)."""
    pts = sorted(set(map(tuple, points)))
    return [p for p in pts if not any(q != p and dominates(p, q) for q in pts)]


def ord0(gens) -> int:
    return min(sum(g) for g in gens)


def dyadic(n: int) -> list[Fraction]:
    """1/2, 1/4, 3/4, 1/8, 3/8, ...: the first n dyadic rationals of (0, 1)."""
    out, level = [], 1
    while len(out) < n:
        out.extend(Fraction(j, 2**level) for j in range(1, 2**level, 2))
        level += 1
    return out[:n]


def kink_slopes(n_kinks: int, j: int) -> tuple[Fraction, Fraction]:
    """Closed-form one-sided slopes of s -> ord0(r, s) at the crossing through
    the j-th kink e_j of the kinked boundary, for any r > 0.

    ord0 = s + x/2 where r f(x/r) + x/2 = s, so d ord0/ds = 1 + 1/(2 f' + 1).
    Increasing s moves the crossing left, so the left slope in s takes f'
    right of e_j and the right slope takes f' left of e_j.  Each hinge term
    i adds -2^-(i+3) to f' left of e_i.
    """
    eps = dyadic(n_kinks)
    weights = [Fraction(1, 2 ** (i + 3)) for i in range(n_kinks)]
    e = eps[j]
    right_of = Fraction(-2) - sum(w for x, w in zip(eps, weights) if x > e)
    left_of = Fraction(-2) - sum(w for x, w in zip(eps, weights) if x >= e)
    return 1 + 1 / (2 * right_of + 1), 1 + 1 / (2 * left_of + 1)


def on_polygon_boundary(q, polygon) -> bool:
    """True iff point q lies on an edge of the closed polygon."""
    n = len(polygon)
    for i in range(n):
        (x1, y1), (x2, y2) = polygon[i], polygon[(i + 1) % n]
        cross = (x2 - x1) * (q[1] - y1) - (y2 - y1) * (q[0] - x1)
        if cross == 0 and min(x1, x2) <= q[0] <= max(x1, x2) \
                and min(y1, y2) <= q[1] <= max(y1, y2):
            return True
    return False


def colength(gens, k: int) -> int:
    """Monomials outside a cofinite ideal, counted column by column."""
    pures = [min(g[i] for g in gens if all(g[j] == 0 for j in range(k) if j != i))
             for i in range(k)]
    if k == 2:
        return sum(min(g[1] for g in gens if g[0] <= x) for x in range(pures[0]))
    return sum(
        min(g[2] for g in gens if g[0] <= x and g[1] <= y)
        for x in range(pures[0]) for y in range(pures[1])
    )


def _det3(u, v, w):
    return (u[0] * (v[1] * w[2] - v[2] * w[1]) - u[1] * (v[0] * w[2] - v[2] * w[0])
            + u[2] * (v[0] * w[1] - v[1] * w[0]))


def _ccw_in_xy(points):
    """Convex planar polygon points (projected to x, y) in counterclockwise order."""
    cx = sum(p[0] for p in points) / len(points)
    cy = sum(p[1] for p in points) / len(points)

    def half(p):
        dx, dy = p[0] - cx, p[1] - cy
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    def cmp(p, q):
        if half(p) != half(q):
            return half(p) - half(q)
        cross = (p[0] - cx) * (q[1] - cy) - (p[1] - cy) * (q[0] - cx)
        return -1 if cross > 0 else (1 if cross < 0 else 0)

    return sorted(points, key=cmp_to_key(cmp))


def covolume_3d(vertices, facets) -> Fraction:
    """Volume of orthant minus P as the sum, over facets <a, x> >= c with
    c > 0, of the cone from the origin over the facet: fan triangles
    |det(p, q, r)| / 6.  For a cofinite ideal such facets have strictly
    positive normals, so their cones tile the complement."""
    total = Fraction(0)
    for a, c in facets:
        if c <= 0:
            continue
        face = [v for v in vertices if sum(x * y for x, y in zip(a, v)) == c]
        ring = _ccw_in_xy(face)
        for i in range(1, len(ring) - 1):
            total += abs(_det3(ring[0], ring[i], ring[i + 1]))
    return total / 6


def lattice_ideal_errors(gens, halfspaces, k: int) -> str | None:
    """Check that gens are exactly the minimal lattice points of
    {x >= 0 : <a, x> >= c} (strictly positive normals), by a column scan.

    Every generator must lie in the region with no lattice point of the
    region just below it; and the lowest lattice point of every column
    under the pure powers must dominate some generator.
    """
    def inside(p):
        return all(p_i >= 0 for p_i in p) and \
            all(sum(x * y for x, y in zip(a, p)) >= c for a, c in halfspaces)

    for g in gens:
        if not inside(g):
            return f"generator {g} outside the region"
        for i in range(k):
            if g[i] > 0 and inside(tuple(x - (j == i) for j, x in enumerate(g))):
                return f"generator {g} is not minimal"
    last = k - 1
    extent = [max(ceil(Fraction(c, a[i])) for a, c in halfspaces) for i in range(last)]
    columns = [()]
    for e in extent:
        columns = [col + (x,) for col in columns for x in range(e + 1)]
    for col in columns:
        need = [Fraction(c - sum(x * y for x, y in zip(a, col)), a[last])
                for a, c in halfspaces]
        low = col + (max(0, ceil(max(need))),)
        if not any(dominates(low, g) for g in gens):
            return f"lattice point {low} dominates no generator"
    return None
