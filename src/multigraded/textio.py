"""Line-oriented text formats for ideals, regions, cones and system trees.

All formats allow '#' comments and blank lines.  Rationals are written in
lowest terms as p or p/q with q > 0; the decimal echo column uses 12
significant digits, round-half-even, and is never authoritative.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from pathlib import Path

from .cones import ConeRep, ray_hull
from .errors import MultigradedError
from .monomial import MonomialIdeal, minimalize
from .newton import NewtonPolyhedron
from .regions import (
    PiecewiseLinearFn,
    epigraph_region,
    region_from_halfspaces,
    thm2_regions,
)
from .systems import (
    CeilingSystem,
    ColonSystem,
    IdealPowers,
    Intersect,
    Product,
    Pullback,
    RegionSystem,
    SystemExpr,
    Truncate,
)


class ParseError(MultigradedError):
    pass


def _digits(n: int) -> str:
    """str(n), also past the interpreter's limit on int-to-str digits
    (``sys.get_int_max_str_digits``), which ``Decimal`` does not have."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def fmt_q(x) -> str:
    if type(x) is int:
        return _digits(x)
    f = Fraction(x)
    num = _digits(f.numerator)
    return num if f.denominator == 1 else f"{num}/{_digits(f.denominator)}"


# the decimal echo's arithmetic: one shared context, not one opened per
# value; the flags it raises (Inexact, Rounded) are never read
_DEC = Context(prec=12, rounding=ROUND_HALF_EVEN)


def fmt_dec(x) -> str:
    f = Fraction(x)
    return str(_DEC.divide(f.numerator, f.denominator))


def parse_q(token: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {token!r}") from exc


def parse_number(token: str) -> int | Fraction:
    """An int for a token of decimal digits with an optional sign, else
    ``parse_q``'s Fraction.  ``str.isdecimal`` admits exactly the digits
    that ``int`` and ``Fraction`` both read (not '²', whose ``isdigit`` is
    True, nor the '_' that only some ``Fraction`` versions accept); a token
    past ``int``'s digit limit is refused by ``parse_q`` as well."""
    if (token[1:] if token[:1] in "+-" else token).isdecimal():
        with suppress(ValueError):
            return int(token)
    return parse_q(token)


def _token(tokens, i: int, usage: str) -> str:
    """tokens[i], or a ParseError naming the expected form of a truncated line."""
    if i >= len(tokens):
        raise ParseError(f"truncated line {' '.join(tokens)!r}; expected {usage!r}")
    return tokens[i]


def _exact(tokens, n: int, usage: str) -> list[str]:
    """tokens, which must number exactly n: else a ParseError naming the
    expected form of a truncated line or of one with trailing tokens."""
    if len(tokens) != n:
        what = "truncated line" if len(tokens) < n else "trailing tokens in line"
        raise ParseError(f"{what} {' '.join(tokens)!r}; expected {usage!r}")
    return tokens


def _parse_int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise ParseError(f"bad {what} {token!r}") from exc


def _dimension(lines, missing: str) -> int:
    """k of a first line 'k=<int>'; missing is the error for a file without one."""
    head = " ".join(lines[0][1]) if lines else ""
    if not head.startswith("k="):
        raise ParseError(missing)
    return _parse_int(head[2:], "dimension")


def _clean(text: str) -> list[tuple[int, list[str]]]:
    """(indent, tokens) per meaningful line, comments stripped."""
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        indent = len(line) - len(line.lstrip())
        out.append((indent, line.split()))
    return out


# -- ideals ---------------------------------------------------------------------


def parse_ideal(text: str) -> MonomialIdeal:
    lines = _clean(text)
    k = _dimension(lines, "ideal file must start with 'k=<int>'")
    body = lines[1:]
    if body and body[0][1] == ["zero"]:
        if len(body) > 1:
            raise ParseError("'zero' admits no generator lines")
        return MonomialIdeal.zero(k)
    if not body:
        raise ParseError("no generators; write 'zero' for the zero ideal")
    gens = []
    for _, tokens in body:
        try:
            gens.append(tuple(int(t) for t in tokens))
        except ValueError as exc:
            raise ParseError(f"bad generator line {' '.join(tokens)!r}") from exc
    return minimalize(gens, k)


def format_ideal(ideal: MonomialIdeal) -> str:
    lines = [f"k={ideal.dim}"]
    if ideal.is_zero:
        lines.append("zero")
    else:
        try:
            lines.extend(" ".join(map(str, g)) for g in ideal.gens)
        except ValueError:  # an exponent past the int-to-str digit limit
            lines[1:] = [" ".join(map(fmt_q, g)) for g in ideal.gens]
    return "\n".join(lines) + "\n"


def load_ideal(path) -> MonomialIdeal:
    return parse_ideal(Path(path).read_text())


# -- regions --------------------------------------------------------------------


def parse_region(text: str) -> NewtonPolyhedron:
    lines = _clean(text)
    if not lines:
        raise ParseError("empty region file")
    first = lines[0][1]
    if first[0] == "kinked":
        return thm2_regions(_parse_int(_exact(first, 2, "kinked <N>")[1], "kink count"))[0]
    if first[0] == "appendix":
        raise ParseError(
            "appendix bodies are symmetric convex bodies, not orthant regions; "
            "use 'repro appendix'"
        )
    k = _dimension(lines, "region file must start with 'k=<int>' or a shorthand")
    body = lines[1:]
    if body and body[0][1][0] == "epigraph":
        if k != 2:
            raise ParseError("epigraph regions live in k=2")
        bps, slopes = [], []
        for _, tokens in body[1:]:
            if tokens[0] != "breakpoint" or len(tokens) != 4:
                raise ParseError(f"expected 'breakpoint x y slope', got {' '.join(tokens)!r}")
            bps.append((parse_q(tokens[1]), parse_q(tokens[2])))
            slopes.append(parse_q(tokens[3]))
        return epigraph_region(PiecewiseLinearFn(tuple(bps), tuple(slopes)))
    facets = []
    for _, tokens in body:
        if tokens[0] != "halfspace" or ">=" not in tokens:
            raise ParseError(f"expected 'halfspace a1 ... >= c', got {' '.join(tokens)!r}")
        split = tokens.index(">=")
        normal = tuple(parse_number(t) for t in tokens[1:split])
        if len(normal) != k or len(tokens) != split + 2:
            raise ParseError(f"halfspace line of wrong arity: {' '.join(tokens)!r}")
        facets.append((normal, parse_number(tokens[split + 1])))
    return region_from_halfspaces(k, facets)


def load_region(path) -> NewtonPolyhedron:
    return parse_region(Path(path).read_text())


def format_polyhedron(poly) -> str:
    """Vertex and facet lines: 'V: (p/q, ...)' and 'F: a1 x1 + ... >= c'."""
    lines = []
    for v in poly.vertices:
        lines.append("V: (" + ", ".join(fmt_q(x) for x in v) + ")")
    for a, c in poly.facets:
        terms = " + ".join(f"{fmt_q(coef)} x{i + 1}" for i, coef in enumerate(a) if coef != 0)
        lines.append(f"F: {terms} >= {fmt_q(c)}")
    return "\n".join(lines) + "\n"


# -- cones ----------------------------------------------------------------------


def parse_cone(text: str) -> ConeRep:
    lines = _clean(text)
    if not lines or lines[0][1][0] != "rank":
        raise ParseError("cone file must start with 'rank <int>'")
    rank = _parse_int(_exact(lines[0][1], 2, "rank <int>")[1], "rank")
    if rank < 1:
        raise ParseError(f"cone rank must be >= 1, got {rank}")
    kinds = {tokens[0] for _, tokens in lines[1:]}
    if not kinds:
        return ConeRep(rank)
    if len(kinds) > 1:
        raise ParseError(f"cone file mixes line kinds {sorted(kinds)!r}")
    kind = kinds.pop()
    if kind not in ("halfspace", "ray", "form"):
        raise ParseError(f"unknown cone line kind {kind!r}")
    width = rank - 1 if kind == "form" else rank
    rows = []
    for _, tokens in lines[1:]:
        if len(tokens) != width + 1:
            raise ParseError(f"{kind} line of wrong arity: {' '.join(tokens)!r}; "
                             f"expected {width} number(s) at rank {rank}")
        rows.append(tuple(parse_q(t) for t in tokens[1:]))
    if kind == "halfspace":
        return ConeRep.from_halfspaces(rank, rows)
    if kind == "form":
        return ConeRep.epigraph(rows)
    if any(x.denominator != 1 for r in rows for x in r):
        raise ParseError("rays must be integer vectors")
    return ray_hull([tuple(map(int, r)) for r in rows], rank)


def load_cone(path) -> ConeRep:
    return parse_cone(Path(path).read_text())


# -- system trees ----------------------------------------------------------------


# Deepest nesting of a system tree, in nodes from the root to a leaf.  Parsing,
# evaluation and limit bodies recurse once or twice per level, and a chain
# of 500 pullbacks exhausts Python's default recursion limit of 1000 frames.
MAX_SYSTEM_DEPTH = 200

# children each node header takes
_ARITY = {"powers": 0, "region": 0, "ceiling": 0, "pullback": 1, "truncate": 1,
          "colon": 1, "product": 2, "intersect": 2}


def parse_system(path) -> SystemExpr:
    """Indentation tree: children are indented strictly deeper than their
    parent, siblings equally deep, and no path from the root holds more than
    MAX_SYSTEM_DEPTH nodes.

    Node headers: powers <idealfile>... | region <file> | ceiling <conefile>
    [base <idealfile>] | pullback r11 r12 [; r21 r22 ...] | product | intersect
    | truncate (cone <file> | halfspace a1 ... [; halfspace ...]) | colon <file>.
    """
    path = Path(path)
    lines = _clean(path.read_text())
    if not lines:
        raise ParseError(f"empty system file {path}")
    node, rest = _parse_node(lines, 0, path.parent, 1)
    if rest != len(lines):
        raise ParseError(f"trailing content at line {rest + 1} of {path}")
    return node


def _groups(tokens, parse, skip=None) -> list[tuple]:
    """The tokens split at each ';' into tuples of parsed entries, every
    token equal to skip dropped."""
    groups = [[]]
    for t in tokens:
        if t == ";":
            groups.append([])
        elif t != skip:
            groups[-1].append(parse(t))
    return [tuple(g) for g in groups]


def _parse_node(lines, i, base_dir, depth) -> tuple[SystemExpr, int]:
    """The node at line i, at depth levels from the root, and the index of
    the line after its subtree.  Each child is parsed, in one pass, before
    the node's own tokens are read."""
    if depth > MAX_SYSTEM_DEPTH:
        raise ParseError(f"system tree nested deeper than {MAX_SYSTEM_DEPTH} levels "
                         f"at line {i + 1}")
    indent, tokens = lines[i]
    head = tokens[0]
    if head not in _ARITY:
        raise ParseError(f"unknown system node {head!r}")
    kids, end = [], i + 1
    while end < len(lines) and lines[end][0] > indent:
        if lines[end][0] != lines[i + 1][0]:
            raise ParseError(f"inconsistent indentation at line {end + 1}")
        kid, end = _parse_node(lines, end, base_dir, depth + 1)
        kids.append(kid)
    if len(kids) != _ARITY[head]:
        raise ParseError(f"{head!r} needs {_ARITY[head]} child node(s), found {len(kids)}")
    return _node(head, tokens, kids, base_dir), end


def _node(head, tokens, kids, base_dir) -> SystemExpr:
    if head == "powers":
        if len(tokens) < 2:
            raise ParseError("'powers' needs at least one ideal file")
        return IdealPowers([load_ideal(base_dir / t) for t in tokens[1:]])
    if head == "region":
        return RegionSystem(load_region(base_dir / _exact(tokens, 2, "region <file>")[1]))
    if head == "ceiling":
        cone = load_cone(base_dir / _token(tokens, 1, "ceiling <conefile>"))
        base = None
        if len(tokens) > 2:
            if tokens[2] != "base" or len(tokens) != 4:
                raise ParseError("'ceiling <conefile> [base <idealfile>]'")
            base = load_ideal(base_dir / tokens[3])
        return CeilingSystem(cone, base)
    if head == "pullback":
        return Pullback(_groups(tokens[1:], lambda t: _parse_int(t, "pullback entry")), *kids)
    if head in ("product", "intersect"):
        _exact(tokens, 1, head)
        return (Product if head == "product" else Intersect)(*kids)
    if head == "truncate":
        kind = _token(tokens, 1, "truncate cone <file> | truncate halfspace a1 ...")
        if kind == "cone":
            cone = load_cone(base_dir / _exact(tokens, 3, "truncate cone <file>")[2])
        elif kind == "halfspace":
            cone = ConeRep.from_halfspaces(kids[0].rank, _groups(tokens[2:], parse_q, "halfspace"))
        else:
            raise ParseError("'truncate cone <file>' or 'truncate halfspace a1 ...'")
        return Truncate(*kids, cone)
    return ColonSystem(*kids, load_ideal(base_dir / _exact(tokens, 2, "colon <idealfile>")[1]))


# -- atomic output ----------------------------------------------------------------


@contextmanager
def open_atomic(path):
    """A text file to write in place of path: a unique temp file beside it,
    renamed over path when the block ends and removed if the block raises,
    so neither a failed run nor a concurrent one writing the same path ever
    leaves a partial file."""
    path = Path(path)
    while True:
        tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
        try:
            # O_EXCL makes the name ours alone; mode 0o666 lets the umask
            # decide the permissions, as for a plain open()
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text_atomic(path, text: str) -> None:
    with open_atomic(path) as fh:
        fh.write(text)


def csv_text(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(str(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"
