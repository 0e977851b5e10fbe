"""Expression trees for Z^rho-graded systems of monomial ideals.

Systems are intensional: a node knows how to produce the ideal at any
index vector, and evaluation is memoized per node with a bounded cache.
Every node also produces the exact limit body of its restriction to a
direction, which is what all asymptotic invariants are computed from on
the geometric route.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product as iterprod
from math import lcm
from operator import add, mul

from .cones import ConeRep
from .errors import (
    DimensionMismatch,
    RankMismatch,
    ZeroDirection,
    ZeroIdealInDirection,
)
from .monomial import MonomialIdeal, _check_pairs
from .newton import NewtonPolyhedron
from .regions import (
    full_orthant,
    lattice_generators,
    region_from_halfspaces,
    region_intersect,
    region_minkowski,
    thm2_regions,
)

# Entries kept per node cache and per ceiling power table.  A full cache
# admits nothing more and evicts nothing, so a second sweep over a window of
# more indices than this still hits the first _CACHE_MAX of them; for a
# ceiling node a miss costs an integer exponent and a table lookup, since a
# window of radius r reaches only O(r) exponents.
_CACHE_MAX = 4096


def _remember(cache: dict, key, value):
    """Store value under key while the cache has room, and return it."""
    if len(cache) < _CACHE_MAX:
        cache[key] = value
    return value


class SystemExpr:
    """Base node of index rank ``rank`` over ``ambient_dim`` variables.
    Subclasses implement _eval and limit_body."""

    def __init__(self, rank: int, ambient_dim: int):
        self.rank = rank
        self.ambient_dim = ambient_dim
        self._cache: dict[tuple[int, ...], MonomialIdeal] = {}

    def eval(self, v) -> MonomialIdeal:
        vt = tuple(map(int, v))
        if vt != v and vt != tuple(v):
            raise ValueError(f"index must be integral, got {tuple(v)}")
        if len(vt) != self.rank:
            raise RankMismatch(f"index of length {len(vt)} in rank {self.rank}")
        hit = self._cache.get(vt)
        if hit is not None:
            return hit
        return _remember(self._cache, vt, self._eval(vt))

    def _eval(self, v) -> MonomialIdeal:
        raise NotImplementedError

    def limit_body(self, v) -> NewtonPolyhedron:
        """Closure of the limit body of the restriction to direction v.

        Every node apart from ``IdealPowers`` also accepts a rational
        direction, where the body is fixed by homogeneity: the body at t v
        is t times the body at v.  ``IdealPowers`` reads its body off one
        evaluated ideal, so it needs an integral direction.
        """
        raise NotImplementedError

    def restrict(self, v) -> DirectionView:
        return DirectionView(self, v)


@dataclass(frozen=True)
class DirectionView:
    """The N-graded view n -> eval(system, n*v) along a fixed direction."""

    system: SystemExpr
    direction: tuple[int, ...]

    def __post_init__(self):
        vt = tuple(map(int, self.direction))
        if vt != tuple(self.direction):
            raise ValueError(f"direction must be integral, got {tuple(self.direction)}")
        if len(vt) != self.system.rank:
            raise RankMismatch(f"direction of length {len(vt)} in rank {self.system.rank}")
        if all(x == 0 for x in vt):
            raise ZeroDirection("direction must be nonzero")
        object.__setattr__(self, "direction", vt)

    def eval(self, n: int) -> MonomialIdeal:
        return self.system.eval(tuple(n * x for x in self.direction))

    def limit_body(self) -> NewtonPolyhedron:
        return self.system.limit_body(self.direction)


class IdealPowers(SystemExpr):
    """a_(n_1,...,n_rho) = I_1^{n_1} ... I_rho^{n_rho}, with I^n = (1) for n <= 0."""

    def __init__(self, ideals):
        self.ideals = tuple(ideals)
        if not self.ideals:
            raise ValueError("need at least one ideal")
        dims = {i.dim for i in self.ideals}
        if len(dims) != 1:
            raise DimensionMismatch("ideals in different ambient dimensions")
        super().__init__(len(self.ideals), dims.pop())

    def _eval(self, v):
        result = MonomialIdeal.unit(self.ambient_dim)
        for ideal, n in zip(self.ideals, v):
            result = result.product(ideal.power(n))
        return result

    def limit_body(self, v):
        if any(Fraction(x).denominator != 1 for x in v):
            raise ValueError(f"ideal powers need an integral direction, got {tuple(v)}")
        ideal = self.eval(tuple(v))
        if ideal.is_zero:
            raise ZeroIdealInDirection(f"zero ideal at {v}")
        return ideal.newton()


class RegionSystem(SystemExpr):
    """a_n = ideal of all lattice points of n*P; a_n = (1) for n <= 0."""

    def __init__(self, region: NewtonPolyhedron):
        super().__init__(1, region.dim)
        self.region = region

    def _eval(self, v):
        n = v[0]
        if n <= 0:
            return MonomialIdeal.unit(self.ambient_dim)
        return lattice_generators(self.region, n)

    def limit_body(self, v):
        n = v[0]
        if n <= 0:
            return full_orthant(self.ambient_dim)
        return self.region.scale(n)


class CeilingSystem(SystemExpr):
    """a_v = base^ceil(h(v)) for a cone C = {<a_i, v> >= 0}, where
    h(v) = max(0, max_i -<a_i, v> / w_i) and w_i is a_i's last entry when
    that is positive, else 1.

    The base chain I_m = base^m is decreasing and h is subadditive (a max
    of linear forms and 0), which is exactly what gradedness needs; h = 0
    exactly on C, so the nef cone is C.  An epigraph normal is a multiple
    w (-f, 1), so {y >= f(x)} gets h = max(f(x) - y, 0).

    The forms -a_i / w_i are scaled once to integer forms F_i over
    D = lcm(w_i); exponents and deficiencies both come from the numerator
    max <F_i, v>.  Behind the node cache, a power table keyed by
    m = ceil(h(v)) holds base^m: a window sweep computes one power of the
    base per distinct exponent, not one per index.
    """

    def __init__(self, cone: ConeRep, base: MonomialIdeal | None = None):
        self.cone = cone
        self.base = base if base is not None else MonomialIdeal.maximal(2)
        super().__init__(cone.rank, self.base.dim)
        self._denom = lcm(*(max(a[-1], 1) for a in cone.halfspaces))
        self._forms = tuple(tuple(-x * (self._denom // max(a[-1], 1)) for x in a)
                            for a in cone.halfspaces)
        self._powers: dict[int, MonomialIdeal] = {}

    def _excess(self, v):
        """D max_i -<a_i, v> / w_i (0 with no normals), v integer or rational."""
        if len(v) != self.rank:
            raise RankMismatch(f"index of length {len(v)} in rank {self.rank}")
        return max([sum(map(mul, form, v)) for form in self._forms], default=0)

    def exponent(self, v) -> int:
        """ceil(max_i -<a_i, v> / w_i): at most 0 exactly on C."""
        return -(-self._excess(v) // self._denom)

    def deficiency(self, v) -> Fraction:
        """h(v) at a rational index vector."""
        return Fraction(max(self._excess(v), 0), self._denom)

    def _eval(self, v):
        m = max(self.exponent(v), 0)
        hit = self._powers.get(m)
        if hit is not None:
            return hit
        return _remember(self._powers, m, self.base.power(m))

    def limit_body(self, v):
        t = self.deficiency(tuple(v))
        if t == 0:
            return full_orthant(self.ambient_dim)
        return self.base.newton().scale(t)


class Pullback(SystemExpr):
    """a_w = inner_{phi(w)} for an integer matrix phi: Z^rank -> Z^inner.rank."""

    def __init__(self, matrix, inner: SystemExpr):
        self.matrix = tuple(tuple(int(x) for x in row) for row in matrix)
        self.inner = inner
        if len(self.matrix) != inner.rank:
            raise RankMismatch(f"matrix has {len(self.matrix)} rows, inner rank {inner.rank}")
        widths = {len(row) for row in self.matrix}
        if len(widths) != 1:
            raise RankMismatch("ragged matrix")
        super().__init__(widths.pop(), inner.ambient_dim)

    def apply(self, w):
        return tuple(sum(a * b for a, b in zip(row, w)) for row in self.matrix)

    def _eval(self, w):
        return self.inner.eval(self.apply(w))

    def limit_body(self, w):
        return self.inner.limit_body(self.apply(w))


class _Pair(SystemExpr):
    """A node on two children of the same rank and ambient dimension."""

    def __init__(self, left: SystemExpr, right: SystemExpr):
        if left.rank != right.rank:
            raise RankMismatch("children of different rank")
        if left.ambient_dim != right.ambient_dim:
            raise DimensionMismatch("children in different ambient dimensions")
        super().__init__(left.rank, left.ambient_dim)
        self.left, self.right = left, right


class Product(_Pair):
    def _eval(self, v):
        return self.left.eval(v).product(self.right.eval(v))

    def limit_body(self, v):
        return region_minkowski(self.left.limit_body(v), self.right.limit_body(v))


class Intersect(_Pair):
    def _eval(self, v):
        return self.left.eval(v).intersect(self.right.eval(v))

    def limit_body(self, v):
        return region_intersect(self.left.limit_body(v), self.right.limit_body(v))


class Truncate(SystemExpr):
    """Zero outside the subsemigroup S = cone intersect Z^rank."""

    def __init__(self, inner: SystemExpr, cone: ConeRep):
        if cone.rank != inner.rank:
            raise RankMismatch("truncation cone of wrong rank")
        super().__init__(inner.rank, inner.ambient_dim)
        self.inner = inner
        self.cone = cone

    def _eval(self, v):
        if self.cone.contains(v):
            return self.inner.eval(v)
        return MonomialIdeal.zero(self.ambient_dim)

    def limit_body(self, v):
        if not self.cone.contains(tuple(v)):
            raise ZeroIdealInDirection(f"direction {v} outside the truncation semigroup")
        return self.inner.limit_body(v)


class ColonSystem(SystemExpr):
    """b_(m, n) = (inner_m : I^n) for n >= 0, and the zero ideal for n < 0.

    The system is graded on Z^r x N: the colon grows with n, so a unit
    ideal at some n < 0 would make b_(m, n) b_(m', n') exceed
    b_(m + m', n + n') for n + n' >= 0.

    The limit body at (v, t) is P - t N(I) = {w >= 0 : w + t N(I) in P}
    for t >= 0, with P the inner body at v: P's facets <a, w> >= c, each c
    lowered by t min <a, q> over the vertices q of N(I).  It is exact for
    a region inner: u + I^n lies in the lattice ideal of m P exactly when
    u + n N(I) lies in m P, as m P is convex and absorbs the orthant.
    """

    def __init__(self, inner: SystemExpr, ideal: MonomialIdeal):
        if ideal.dim != inner.ambient_dim:
            raise DimensionMismatch("colon ideal in the wrong ambient dimension")
        if ideal.is_zero:
            raise ValueError("colon by the zero ideal")
        super().__init__(inner.rank + 1, inner.ambient_dim)
        self.inner = inner
        self.ideal = ideal

    def _eval(self, v):
        head, n = v[:-1], v[-1]
        if n < 0:
            return MonomialIdeal.zero(self.ambient_dim)
        return self.inner.eval(head).colon(self.ideal.power(n))

    def limit_body(self, v):
        head, t = v[:-1], v[-1]
        if t < 0:
            raise ZeroIdealInDirection(f"direction {v} has a negative colon index")
        body = self.inner.limit_body(head)
        if t == 0:
            return body
        verts = self.ideal.newton().vertices
        return region_from_halfspaces(self.ambient_dim, [
            (a, c - t * min(sum(map(mul, a, q)) for q in verts)) for a, c in body.facets])


# -- gradedness verification ----------------------------------------------------


@dataclass(frozen=True)
class GradednessReport:
    pairs_checked: int
    violations: tuple[tuple, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def box_window(bounds) -> list[tuple[int, ...]]:
    """Integer vectors of the box given by per-coordinate (lo, hi) bounds."""
    return [v for v in iterprod(*(range(lo, hi + 1) for lo, hi in bounds))]


def _product_inside(a: MonomialIdeal, b: MonomialIdeal, c: MonomialIdeal) -> bool:
    """True iff a * b is a subideal of c.  For k = 2 without forming the
    product: every pair sum g + h must lie in c, one bisect each; the scan
    is refused past ``MAX_GENERATOR_PAIRS`` like the product it replaces."""
    if a.dim != 2:
        return c.contains_ideal(a.product(b))
    _check_pairs(a, b, "product")
    member = c.contains_monomial
    return all(member((gx + hx, gy + hy)) for gx, gy in a.gens for hx, hy in b.gens)


def verify_gradedness(system: SystemExpr, window) -> GradednessReport:
    """Check a_v * a_w subset-of a_{v+w} over all pairs with v, w, v+w in the window.

    Each window index is evaluated at most once, and each distinct triple
    of ideals (a_v, a_w, a_{v+w}) is decided once: a ceiling system returns
    the same few base powers at many indices.  For k = 2 the check forms no
    product (see ``_product_inside``); otherwise it forms a_v * a_w, and
    either way a pair of ideals past ``MAX_GENERATOR_PAIRS`` generator pairs
    is refused.
    """
    pts = [tuple(v) for v in window]
    ideals: dict[tuple, MonomialIdeal | None] = dict.fromkeys(pts)

    def at(u):
        ideal = ideals[u]
        if ideal is None:
            ideal = ideals[u] = system.eval(u)
        return ideal

    # keyed by the ideals' ids, which stay unique while `ideals` holds them
    decided: dict[tuple[int, int, int], bool] = {}
    checked = 0
    violations = []
    for v, w in combinations_with_replacement(pts, 2):
        s = tuple(map(add, v, w))
        if s not in ideals:
            continue
        checked += 1
        c, a, b = at(s), at(v), at(w)
        key = (id(a), id(b), id(c))
        ok = decided.get(key)
        if ok is None:
            ok = decided[key] = _product_inside(a, b, c)
        if not ok:
            violations.append((v, w))
    return GradednessReport(checked, tuple(violations))


# -- builders for the named constructions -----------------------------------------


def kinked_intersection_system(n_kinks: int) -> Intersect:
    """The Z^2-graded system pr1* A intersect pr2* B, where A and B are the
    lattice systems of the kinked epigraph P and the line epigraph Q."""
    p, q = thm2_regions(n_kinks)
    return Intersect(Pullback([(1, 0)], RegionSystem(p)), Pullback([(0, 1)], RegionSystem(q)))
