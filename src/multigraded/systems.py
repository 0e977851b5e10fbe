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
from functools import reduce
from itertools import product as iterprod
from math import lcm
from operator import add, mul

from .cones import ConeRep, lattice_window
from .errors import (
    DimensionMismatch,
    RankMismatch,
    WorkLimitExceeded,
    ZeroDirection,
    ZeroIdealInDirection,
)
from .monomial import MonomialIdeal, _check_pairs
from .newton import NewtonPolyhedron, vertices_from_halfspaces
from .regions import (
    full_orthant,
    lattice_generators,
    region_intersect,
    region_minkowski,
    thm2_regions,
)

# Entries kept per node cache.  A full cache admits nothing more and evicts
# nothing, so a second sweep over a window of more indices than this still
# hits the first _CACHE_MAX of them; for a ceiling or colon node a miss costs
# an integer exponent and a hit in its rank-1 powers node, since a window of
# radius r reaches only O(r) exponents.  A powers node forms I^n from its
# own entry at floor(n/2), so a sweep of I^1..I^30 costs 29 squarings and 14
# products; past a full cache an uncached power redoes only its halving chain.
_CACHE_MAX = 4096


class SystemExpr:
    """Base node of index rank ``rank`` over ``ambient_dim`` variables.

    ``eval``, ``limit_body`` and ``restrict`` take vectors from outside the
    tree and check them once, in ``_vector``; inside the tree every node
    hands checked tuples to its children's ``_at`` and ``_body``.
    Subclasses implement _eval and _body."""

    def __init__(self, rank: int, ambient_dim: int):
        self.rank = rank
        self.ambient_dim = ambient_dim
        self._cache: dict[tuple[int, ...], MonomialIdeal] = {}

    def _vector(self, v, what: str, integral: bool = False) -> tuple:
        """v as a tuple of this node's rank, of ints if integral."""
        vt = tuple(v)
        if integral:
            ints = tuple(map(int, vt))
            if ints != vt:
                raise ValueError(f"{what} must be integral, got {vt}")
            vt = ints
        if len(vt) != self.rank:
            raise RankMismatch(f"{what} of length {len(vt)} in rank {self.rank}")
        return vt

    def eval(self, v) -> MonomialIdeal:
        return self._at(self._vector(v, "index", integral=True))

    def _at(self, v) -> MonomialIdeal:
        hit = self._cache.get(v)
        return self._keep(v, self._eval(v)) if hit is None else hit

    def _keep(self, v, ideal: MonomialIdeal) -> MonomialIdeal:
        """ideal, cached at v while the cache has room."""
        if len(self._cache) < _CACHE_MAX:
            self._cache[v] = ideal
        return ideal

    def _eval(self, v) -> MonomialIdeal:
        raise NotImplementedError

    def limit_body(self, v) -> NewtonPolyhedron:
        """Closure of the limit body of the restriction to direction v.

        Every node builds its body from its children's bodies, and a leaf
        from its region, its cone or its ideals' Newton polyhedra; no node
        forms an ideal, so every node accepts a rational direction, where
        the body is fixed by homogeneity: the body at t v is t times the
        body at v.
        """
        return self._body(self._vector(v, "direction"))

    def _body(self, v) -> NewtonPolyhedron:
        raise NotImplementedError

    def restrict(self, v) -> DirectionView:
        return DirectionView(self, v)


@dataclass(frozen=True)
class DirectionView:
    """The N-graded view n -> eval(system, n*v) along a fixed direction."""

    system: SystemExpr
    direction: tuple[int, ...]

    def __post_init__(self):
        vt = self.system._vector(self.direction, "direction", integral=True)
        if all(x == 0 for x in vt):
            raise ZeroDirection("direction must be nonzero")
        object.__setattr__(self, "direction", vt)

    def eval(self, n: int) -> MonomialIdeal:
        return self.system.eval(tuple(n * x for x in self.direction))

    def limit_body(self) -> NewtonPolyhedron:
        return self.system._body(self.direction)


class IdealPowers(SystemExpr):
    """a_(n_1,...,n_rho) = I_1^{n_1} ... I_rho^{n_rho}, with I^n = (1) for n <= 0.

    Powers are read through the node cache: I_i^n at n e_i (n >= 2) is the
    square of the entry at floor(n/2) e_i, times I_i when n is odd, the
    squarings and products of ``MonomialIdeal.power``'s left-to-right loop,
    each formed once; an index with several positive entries is the product
    of its entries' powers in index order, and negative entries count as 0.

    The limit body at v is the Minkowski sum of v_i N(I_i) over v_i > 0,
    as N(I J) = N(I) + N(J) and N(I^n) = n N(I): no power or product of
    the ideals is formed, and v may be rational.
    """

    def __init__(self, ideals):
        self.ideals = tuple(ideals)
        if not self.ideals:
            raise ValueError("need at least one ideal")
        dims = {i.dim for i in self.ideals}
        if len(dims) != 1:
            raise DimensionMismatch("ideals in different ambient dimensions")
        super().__init__(len(self.ideals), dims.pop())

    def _eval(self, v):
        if min(v) < 0:
            return self._at(tuple(max(n, 0) for n in v))
        axes = [i for i, n in enumerate(v) if n > 0]
        if not axes:
            return MonomialIdeal.unit(self.ambient_dim)
        if len(axes) > 1:
            return reduce(MonomialIdeal.product,
                          [self._at(tuple(n if j == i else 0 for j, n in enumerate(v)))
                           for i in axes])
        i, n = axes[0], v[axes[0]]

        def at(m):
            return v[:i] + (m,) + v[i + 1:]

        # halve down to 1 or to a cached power, then square back up, caching
        # each power below n as _at would: a loop, as n may have any length
        chain = [n]
        while chain[-1] > 1 and (power := self._cache.get(at(chain[-1] // 2))) is None:
            chain.append(chain[-1] // 2)
        for m in reversed(chain):
            if m == 1:
                power = self.ideals[i]
            else:
                power = power._square()
                if m % 2:
                    power = power.product(self.ideals[i])
            if m < n:
                self._keep(at(m), power)
        return power

    def _body(self, v):
        terms = [(ideal, t) for ideal, t in zip(self.ideals, v) if t > 0]
        if any(ideal.is_zero for ideal, _ in terms):
            raise ZeroIdealInDirection(f"zero ideal at ({', '.join(map(str, v))})")
        if not terms:
            return full_orthant(self.ambient_dim)
        return reduce(region_minkowski, (ideal.newton().scale(t) for ideal, t in terms))


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

    def _body(self, v):
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
    max <F_i, v>.  a_v and its body are read from a rank-1 powers node of
    the base at m = ceil(h(v)) and at h(v): a window sweep computes one
    power of the base per distinct exponent, not one per index, and every
    index of C shares the one unit ideal at m = 0.
    """

    def __init__(self, cone: ConeRep, base: MonomialIdeal | None = None):
        self.cone = cone
        self.base = base if base is not None else MonomialIdeal.maximal(2)
        super().__init__(cone.rank, self.base.dim)
        self._denom = lcm(*(max(a[-1], 1) for a in cone.halfspaces))
        self._forms = tuple(tuple(-x * (self._denom // max(a[-1], 1)) for x in a)
                            for a in cone.halfspaces)
        self._powers = IdealPowers([self.base])

    def _excess(self, v):
        """D max_i -<a_i, v> / w_i (0 with no normals), v integer or rational."""
        return max([sum(map(mul, form, v)) for form in self._forms], default=0)

    def deficiency(self, v) -> Fraction:
        """h(v) at a rational index vector."""
        return Fraction(max(self._excess(self._vector(v, "index")), 0), self._denom)

    def _eval(self, v):
        return self._powers._at((-(-max(self._excess(v), 0) // self._denom),))

    def _body(self, v):
        return self._powers._body((Fraction(self._excess(v), self._denom),))


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
        return self.inner._at(self.apply(w))

    def _body(self, w):
        return self.inner._body(self.apply(w))


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
        return self.left._at(v).product(self.right._at(v))

    def _body(self, v):
        return region_minkowski(self.left._body(v), self.right._body(v))


class Intersect(_Pair):
    def _eval(self, v):
        return self.left._at(v).intersect(self.right._at(v))

    def _body(self, v):
        return region_intersect(self.left._body(v), self.right._body(v))


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
            return self.inner._at(v)
        return MonomialIdeal.zero(self.ambient_dim)

    def _body(self, v):
        if not self.cone.contains(v):
            raise ZeroIdealInDirection(f"direction {v} outside the truncation semigroup")
        return self.inner._body(v)


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
    I^n is read from a rank-1 powers node of I, so a window sweep forms
    each power once, not once per index.
    """

    def __init__(self, inner: SystemExpr, ideal: MonomialIdeal):
        if ideal.dim != inner.ambient_dim:
            raise DimensionMismatch("colon ideal in the wrong ambient dimension")
        if ideal.is_zero:
            raise ValueError("colon by the zero ideal")
        super().__init__(inner.rank + 1, inner.ambient_dim)
        self.inner = inner
        self.ideal = ideal
        self._powers = IdealPowers([ideal])

    def _eval(self, v):
        head, n = v[:-1], v[-1]
        if n < 0:
            return MonomialIdeal.zero(self.ambient_dim)
        return self.inner._at(head).colon(self._powers._at((n,)))

    def _body(self, v):
        head, t = v[:-1], v[-1]
        if t < 0:
            raise ZeroIdealInDirection(f"direction {v} has a negative colon index")
        body = self.inner._body(head)
        if t == 0:
            return body
        k, verts = self.ambient_dim, self.ideal.newton().vertices
        lowered = [(a, c - t * min(sum(map(mul, a, q)) for q in verts)) for a, c in body.facets]
        return NewtonPolyhedron(k, *vertices_from_halfspaces(k, lowered))


# -- gradedness verification ----------------------------------------------------

# Largest number of pairs v, w that a gradedness check walks: those with
# v, w and v + w in the window, 3,217,684 for a rank-3 ceiling at
# --window=-5:10, which take 3.5 s (Python 3.11, 2 shared vCPUs).
MAX_GRADEDNESS_PAIRS = 10_000_000


@dataclass(frozen=True)
class GradednessReport:
    pairs_checked: int
    violations: tuple[tuple, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _product_inside(a: MonomialIdeal, b: MonomialIdeal, c: MonomialIdeal) -> bool:
    """True iff a * b is a subideal of c.  For k = 2 without forming the
    product: every pair sum g + h must lie in c, one bisect each; the scan
    is refused past ``MAX_GENERATOR_PAIRS`` like the product it replaces."""
    if a.dim != 2:
        return c.contains_ideal(a.product(b))
    _check_pairs(a, b, "product")
    member = c.contains_monomial
    return all(member((gx + hx, gy + hy)) for gx, gy in a.gens for hx, hy in b.gens)


def _gradedness_pairs(bounds) -> int:
    """Pairs v <= w (lex) of the box with v + w in it, in closed form."""
    ordered = equal = 1
    for lo, hi in bounds:
        ordered *= sum(max(0, min(hi, hi - x) - max(lo, lo - x) + 1) for x in range(lo, hi + 1))
        equal *= sum(lo <= 2 * x <= hi for x in range(lo, hi + 1))
    return (ordered + equal) // 2


def verify_gradedness(system: SystemExpr, bounds) -> GradednessReport:
    """Check a_v * a_w subset-of a_{v+w} over the pairs v <= w (lex) with v, w,
    v+w in the box of per-coordinate (lo, hi) bounds, walking for each v
    only the w with v + w in the box and w_1 >= v_1.

    Each index is evaluated at most once and each distinct triple of ideals
    (a_v, a_w, a_{v+w}) decided once.  For k = 2 no product is formed (see
    ``_product_inside``); a pair of ideals past ``MAX_GENERATOR_PAIRS``
    generator pairs is refused.  So is a window past ``MAX_WINDOW_INDICES``,
    then one past ``MAX_GRADEDNESS_PAIRS``, before any evaluation.
    """
    window = lattice_window(bounds)
    pairs = _gradedness_pairs(bounds)
    if pairs > MAX_GRADEDNESS_PAIRS:
        raise WorkLimitExceeded(f"a gradedness check of {pairs} pairs is over the limit of "
                                f"{MAX_GRADEDNESS_PAIRS}")
    ideals: dict[tuple, MonomialIdeal] = {}

    def at(u):
        ideal = ideals.get(u)
        if ideal is None:
            ideal = ideals[u] = system.eval(u)
        return ideal

    # keyed by the ideals' ids, which stay unique while `ideals` holds them
    decided: dict[tuple[int, int, int], bool] = {}
    violations = []
    for v in window:
        sub = [range(max(lo, lo - x), min(hi, hi - x) + 1) for x, (lo, hi) in zip(v, bounds)]
        sub[:1] = [range(max(v[0], r.start), r.stop) for r in sub[:1]]  # w >= v needs w_1 >= v_1
        for w in iterprod(*sub):
            if w < v:
                continue
            c, a, b = at(tuple(map(add, v, w))), at(v), at(w)
            key = (id(a), id(b), id(c))
            ok = decided.get(key)
            if ok is None:
                ok = decided[key] = _product_inside(a, b, c)
            if not ok:
                violations.append((v, w))
    return GradednessReport(pairs, tuple(violations))



# -- builders for the named constructions -----------------------------------------


def kinked_intersection_system(n_kinks: int) -> Intersect:
    """The Z^2-graded system pr1* A intersect pr2* B, where A and B are the
    lattice systems of the kinked epigraph P and the line epigraph Q."""
    p, q = thm2_regions(n_kinks)
    return Intersect(Pullback([(1, 0)], RegionSystem(p)), Pullback([(0, 1)], RegionSystem(q)))
