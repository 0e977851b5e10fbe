"""Monomial ideals in k variables with exact integer exponents.

Exponent vectors are plain tuples of nonnegative ints.  A MonomialIdeal
holds a canonical minimal generating set: a lexicographically sorted
antichain under componentwise <=.  The zero ideal (the empty generating
set, ``is_zero``) is distinct from the unit ideal (generated by the zero
vector); both flow through all the algebra below.

All values are immutable and every operation is a pure function.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise, product as iterprod

from .errors import (
    DimensionMismatch,
    NotCofinite,
    WorkLimitExceeded,
    ZeroDivisorIdeal,
    ZeroIdeal,
)

Vec = tuple[int, ...]

# Largest generator-pair count a product, a squaring or a k >= 3
# intersection may combine (about two seconds of work).  Past it lie runaway
# schedules, such as doubling powers of a k=3 ideal, whose next squarings run
# for minutes at hundreds of MB; they are refused up front.  A k=2
# intersection is a staircase merge in O(n + m) and is never refused.
MAX_GENERATOR_PAIRS = 2_000_000


def dominates(v: Vec, w: Vec) -> bool:
    """True if v >= w componentwise."""
    return all(a >= b for a, b in zip(v, w))


def _check_vectors(gens, k: int) -> list[Vec]:
    if k < 1:
        raise ValueError("ambient dimension must be >= 1")
    out = []
    for v in gens:
        t = tuple(v)
        if len(t) != k:
            raise DimensionMismatch(f"expected length {k}, got {t!r}")
        if any(e < 0 for e in t):
            raise ValueError(f"negative exponent in {t!r}")
        out.append(t)
    return out


def _antichain(vecs, k: int) -> list[Vec]:
    """Minimal elements of vecs under componentwise <=, lex-sorted."""
    uniq = set(vecs)
    if k == 2:
        # staircase sweep: lex sort, keep strictly decreasing second coord
        out = []
        best = None
        for v in sorted(uniq):
            if best is None or v[1] < best:
                out.append(v)
                best = v[1]
        return out
    if k == 3:
        # 3-D maxima sweep (Kung, Luccio & Preparata, JACM 1975), O(N log N):
        # in (z, x, y) order every vector that can dominate v comes before v,
        # so v is minimal iff no kept (x, y) lies below its own.  The kept
        # (x, y) pairs reduce to a staircase, x increasing and y strictly
        # decreasing, searched and updated with bisect.
        xs: list[int] = []
        ys: list[int] = []
        out = []
        for z, x, y in sorted((v[2], v[0], v[1]) for v in uniq):
            i = bisect_right(xs, x)
            if i and ys[i - 1] <= y:
                continue
            lo, hi = bisect_left(xs, x, 0, i), i
            while hi < len(ys) and ys[hi] >= y:
                hi += 1
            xs[lo:hi] = [x]
            ys[lo:hi] = [y]
            out.append((x, y, z))
        return sorted(out)
    # k = 1 and k >= 4: quadratic filter in degree order (a vector is only
    # dominated by one of smaller or equal total degree)
    kept: list[Vec] = []
    for v in sorted(uniq, key=lambda t: (sum(t), t)):
        if not any(dominates(v, w) for w in kept):
            kept.append(v)
    return sorted(kept)


def _trusted(k: int, gens: tuple[Vec, ...]) -> MonomialIdeal:
    """The nonzero ideal on gens, which must already be a lex-sorted
    antichain of valid exponent vectors; skips the check in
    ``MonomialIdeal.__post_init__``, which would only repeat the work."""
    ideal = object.__new__(MonomialIdeal)
    object.__setattr__(ideal, "dim", k)  # frozen: as the dataclass __init__ does
    object.__setattr__(ideal, "gens", gens)
    return ideal


def _minimal(vecs, k: int) -> MonomialIdeal:
    """Canonical ideal on an iterable of valid exponent vectors (the zero
    ideal if it is empty), antichained once."""
    mins = _antichain(vecs, k)
    return _trusted(k, tuple(mins)) if mins else MonomialIdeal.zero(k)


def _staircase_meet(a: tuple[Vec, ...], b: tuple[Vec, ...]) -> tuple[Vec, ...]:
    """Minimal generators of the intersection of two nonzero k=2 ideals.

    Each staircase is a step function: over x, the least y of the ideal is
    that of the last generator at or left of x.  The intersection's step
    function is the pointwise max of the two, and its generators are the x
    where that max drops.  One merge over both x-sorted lists, O(n + m).
    """
    out = []
    i = j = 0
    ya = yb = low = None
    while i < len(a) or j < len(b):
        if j == len(b) or (i < len(a) and a[i][0] <= b[j][0]):
            x, ya = a[i]
            i += 1
            if j < len(b) and b[j][0] == x:
                yb = b[j][1]
                j += 1
        else:
            x, yb = b[j]
            j += 1
        if ya is not None and yb is not None and (low is None or max(ya, yb) < low):
            low = max(ya, yb)
            out.append((x, low))
    return tuple(out)


def _check_pairs(a: MonomialIdeal, b: MonomialIdeal, what: str) -> None:
    pairs = len(a.gens) * len(b.gens)
    if pairs > MAX_GENERATOR_PAIRS:
        raise WorkLimitExceeded(
            f"{what} of ideals with {len(a.gens)} and {len(b.gens)} generators "
            f"needs {pairs} generator pairs, over the limit of {MAX_GENERATOR_PAIRS}"
        )


@dataclass(frozen=True)
class MonomialIdeal:
    """Canonical form: ``gens`` is a lex-sorted antichain; equality is structural."""

    dim: int
    gens: tuple[Vec, ...]

    def __post_init__(self):
        if tuple(_antichain(_check_vectors(self.gens, self.dim), self.dim)) != self.gens:
            raise ValueError("generators must be a lex-sorted antichain")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(k: int) -> MonomialIdeal:
        return MonomialIdeal(k, ())

    @staticmethod
    def unit(k: int) -> MonomialIdeal:
        return MonomialIdeal(k, ((0,) * k,))

    @staticmethod
    def maximal(k: int) -> MonomialIdeal:
        """The maximal ideal (x_1, ..., x_k)."""
        gens = tuple(tuple(1 if j == i else 0 for j in range(k)) for i in range(k))
        return minimalize(gens, k)

    @property
    def is_zero(self) -> bool:
        """No generators: the zero ideal."""
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return bool(self.gens) and self.gens[0] == (0,) * self.dim

    # -- membership and containment ---------------------------------------

    def contains_monomial(self, v) -> bool:
        """True iff x^v lies in the ideal (v dominates some generator).

        For k = 2 one bisect: of the generators lex-below v, the last has
        the least y among all generators with x at most v's.
        """
        t = tuple(v)
        if len(t) != self.dim:
            raise DimensionMismatch(f"expected length {self.dim}, got {t!r}")
        if self.dim == 2:
            i = bisect_right(self.gens, t)
            return i > 0 and self.gens[i - 1][1] <= t[1]
        return any(dominates(t, g) for g in self.gens)

    def contains_ideal(self, other: MonomialIdeal) -> bool:
        """True iff other is a subideal of self (exact, via generators)."""
        if other.dim != self.dim:
            raise DimensionMismatch("ideals in different ambient dimensions")
        if other.is_zero:
            return True
        return all(self.contains_monomial(g) for g in other.gens)

    # -- algebra -----------------------------------------------------------

    def product(self, other: MonomialIdeal) -> MonomialIdeal:
        if other.dim != self.dim:
            raise DimensionMismatch("ideals in different ambient dimensions")
        if self.is_zero or other.is_zero:
            return MonomialIdeal.zero(self.dim)
        _check_pairs(self, other, "product")
        sums = (tuple(a + b for a, b in zip(v, w)) for v in self.gens for w in other.gens)
        return _minimal(sums, self.dim)

    __mul__ = product

    def intersect(self, other: MonomialIdeal) -> MonomialIdeal:
        if other.dim != self.dim:
            raise DimensionMismatch("ideals in different ambient dimensions")
        if self.is_zero or other.is_zero:
            return MonomialIdeal.zero(self.dim)
        if self.dim == 2:
            return _trusted(2, _staircase_meet(self.gens, other.gens))
        _check_pairs(self, other, "intersection")
        maxes = (tuple(max(a, b) for a, b in zip(v, w)) for v in self.gens for w in other.gens)
        return _minimal(maxes, self.dim)

    def colon(self, other: MonomialIdeal) -> MonomialIdeal:
        """(self : other), intersecting the colons by each generator of other."""
        if other.dim != self.dim:
            raise DimensionMismatch("ideals in different ambient dimensions")
        if other.is_zero:
            raise ZeroDivisorIdeal("colon by the zero ideal")
        if self.is_zero:
            return MonomialIdeal.zero(self.dim)
        result = None
        for w in other.gens:
            shifted = (tuple(max(a - b, 0) for a, b in zip(v, w)) for v in self.gens)
            part = _minimal(shifted, self.dim)
            result = part if result is None else result.intersect(part)
        return result

    def power(self, n: int) -> MonomialIdeal:
        """n-th power, left to right: for each bit of n after the leading one, square
        the power so far, times self where the bit is 1.  n <= 0 gives (1)."""
        if n <= 0:
            return MonomialIdeal.unit(self.dim)
        if self.is_zero:
            return MonomialIdeal.zero(self.dim)
        result = self
        for bit in bin(n)[3:]:
            result = result._square().product(self) if bit == "1" else result._square()
        return result

    def _square(self) -> MonomialIdeal:
        """self * self from the unordered generator pairs: v + w and w + v
        are one sum.  Refused at the same size as ``product(self, self)``."""
        _check_pairs(self, self, "product")
        gens = self.gens
        sums = (tuple(a + b for a, b in zip(v, w)) for i, v in enumerate(gens) for w in gens[i:])
        return _minimal(sums, self.dim)

    __pow__ = power

    # -- per-ideal invariants ------------------------------------------------

    def ord0(self) -> Fraction:
        """Order at the origin: minimal total degree of a generator."""
        if self.is_zero:
            raise ZeroIdeal("order of the zero ideal")
        return Fraction(min(map(sum, self.gens)))

    def pure_power_exponents(self) -> list[int | None]:
        """Per axis, the exponent of the pure-power generator, or None."""
        out: list[int | None] = [None] * self.dim
        for g in self.gens:
            support = [i for i, e in enumerate(g) if e > 0]
            if len(support) == 1:
                out[support[0]] = g[support[0]]
        return out

    @property
    def is_cofinite(self) -> bool:
        """True iff the colength is finite (every axis carries a pure power)."""
        if self.is_zero:
            return False
        if self.is_unit:
            return True
        return all(e is not None for e in self.pure_power_exponents())

    def colength(self) -> int:
        """Number of monomials outside the ideal (the staircase count)."""
        if self.is_zero:
            raise ZeroIdeal("colength of the zero ideal")
        if self.is_unit:
            return 0
        pures = self.pure_power_exponents()
        if any(e is None for e in pures):
            raise NotCofinite("some axis carries no pure-power generator")
        if self.dim == 2:
            # the columns x_i <= x < x_{i+1} lie below generator i
            return sum((x2 - x1) * y1 for (x1, y1), (x2, _) in pairwise(self.gens))
        if self.dim == 3:
            # column heights: h(x, y) is the least z of a generator at or
            # below (x, y), capped by the z pure power; prefix minima over
            # x (the row carried in `heights`) and y (the running `h`)
            a, b, c = pures
            at = {}
            for x, y, z in self.gens:
                if x < a and y < b and z < at.get((x, y), c):
                    at[x, y] = z
            heights = [c] * b
            total = 0
            for x in range(a):
                h = c
                for y in range(b):
                    h = min(h, heights[y], at.get((x, y), c))
                    heights[y] = h
                total += sum(heights)
            return total
        count = 0
        for point in iterprod(*(range(m) for m in pures)):
            if not any(dominates(point, g) for g in self.gens):
                count += 1
        return count

    def newton(self):
        """Newton polyhedron of the ideal (exact, k <= 3).

        Built on the first call and kept on this instance, so arn, lct,
        multiplicity and a printout of one ideal share a single hull.
        """
        poly = self.__dict__.get("_newton")
        if poly is None:
            from .newton import newton_polyhedron

            poly = newton_polyhedron(self)
            object.__setattr__(self, "_newton", poly)  # frozen: not a field
        return poly

    def arn(self) -> Fraction:
        """Arnold multiplicity: diagonal scaling at which lambda*(1,...,1) enters
        the Newton polyhedron.  Reciprocal of the log-canonical threshold."""
        if self.is_zero:
            raise ZeroIdeal("Arnold multiplicity of the zero ideal")
        if self.is_unit:
            return Fraction(0)
        return self.newton().diagonal_lambda()

    def lct(self) -> Fraction | None:
        """Log-canonical threshold, or None for the unit ideal (infinite)."""
        a = self.arn()
        return None if a == 0 else 1 / a

    def multiplicity(self) -> Fraction:
        """Samuel multiplicity: k! times the covolume of the Newton polyhedron."""
        if self.is_zero:
            raise ZeroIdeal("multiplicity of the zero ideal")
        if self.is_unit:
            return Fraction(0)
        if not self.is_cofinite:
            raise NotCofinite("multiplicity requires finite colength")
        import math

        return math.factorial(self.dim) * self.newton().covolume()

    def __repr__(self):
        if self.is_zero:
            return f"MonomialIdeal.zero({self.dim})"
        return f"MonomialIdeal({self.dim}, {list(self.gens)!r})"


def minimalize(gens, k: int) -> MonomialIdeal:
    """Canonical ideal from an arbitrary generating set.

    Empty input yields the zero ideal (an empty generating set generates
    the zero ideal, not the unit ideal).
    """
    return _minimal(_check_vectors(gens, k), k)
