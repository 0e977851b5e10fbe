"""Line-oriented text formats for ideals, regions, cones and system trees.

All formats allow '#' comments and blank lines.  Rationals are written in
lowest terms as p or p/q with q > 0; the decimal echo column uses 12
significant digits, round-half-even, and is never authoritative.
"""

from __future__ import annotations

import os
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

from .cones import ConeRep, ray_hull
from .errors import MultigradedError
from .monomial import MonomialIdeal, minimalize
from .newton import NewtonPolyhedron
from .regions import (
    PiecewiseLinearFn,
    build_kinked_f,
    epigraph_region,
    region_from_halfspaces,
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


def fmt_q(x) -> str:
    if type(x) is int:
        return str(x)
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def fmt_dec(x) -> str:
    f = Fraction(x)
    with localcontext() as ctx:
        ctx.prec = 12
        ctx.rounding = ROUND_HALF_EVEN
        return str(Decimal(f.numerator) / Decimal(f.denominator))


def parse_q(token: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {token!r}") from exc


def _token(tokens, i: int, usage: str) -> str:
    """tokens[i], or a ParseError naming the expected form of a truncated line."""
    if i >= len(tokens):
        raise ParseError(f"truncated line {' '.join(tokens)!r}; expected {usage!r}")
    return tokens[i]


def _parse_int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise ParseError(f"bad {what} {token!r}") from exc


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
    if not lines or lines[0][1][0].replace(" ", "")[:2] != "k=":
        raise ParseError("ideal file must start with 'k=<int>'")
    head = " ".join(lines[0][1])
    try:
        k = int(head.split("=", 1)[1])
    except (IndexError, ValueError) as exc:
        raise ParseError(f"bad dimension line {head!r}") from exc
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
        lines.extend(" ".join(str(e) for e in g) for g in ideal.gens)
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
        n_kinks = _parse_int(_token(first, 1, "kinked <N>"), "kink count")
        return epigraph_region(build_kinked_f(n_kinks))
    if first[0] == "appendix":
        raise ParseError(
            "appendix bodies are symmetric convex bodies, not orthant regions; "
            "use 'repro appendix'"
        )
    head = " ".join(first)
    if not head.startswith("k="):
        raise ParseError("region file must start with 'k=<int>' or a shorthand")
    k = _parse_int(head.split("=", 1)[1], "dimension")
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
        normal = tuple(parse_q(t) for t in tokens[1:split])
        if len(normal) != k or len(tokens) != split + 2:
            raise ParseError(f"halfspace line of wrong arity: {' '.join(tokens)!r}")
        facets.append((normal, parse_q(tokens[split + 1])))
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
    rank = _parse_int(_token(lines[0][1], 1, "rank <int>"), "rank")
    if rank < 1:
        raise ParseError(f"cone rank must be >= 1, got {rank}")
    kinds = {tokens[0] for _, tokens in lines[1:]}
    if not kinds:
        return ConeRep(rank)
    if len(kinds) > 1:
        raise ParseError(f"cone file mixes line kinds {sorted(kinds)!r}")
    kind = kinds.pop()
    rows = [[parse_q(t) for t in tokens[1:]] for _, tokens in lines[1:]]
    if kind == "halfspace":
        if any(len(r) != rank for r in rows):
            raise ParseError("halfspace normals must have one entry per rank")
        return ConeRep.from_halfspaces(rank, [tuple(r) for r in rows])
    if kind == "ray":
        if any(len(r) != rank for r in rows):
            raise ParseError("rays must have one entry per rank")
        if any(x.denominator != 1 for r in rows for x in r):
            raise ParseError("rays must be integer vectors")
        return ray_hull([tuple(int(x) for x in r) for r in rows], rank)
    if kind == "form":
        if any(len(r) != rank - 1 for r in rows):
            raise ParseError("epigraph forms must have rank-1 entries")
        return ConeRep.epigraph([tuple(r) for r in rows])
    raise ParseError(f"unknown cone line kind {kind!r}")


def load_cone(path) -> ConeRep:
    return parse_cone(Path(path).read_text())


# -- system trees ----------------------------------------------------------------


def parse_system(path) -> SystemExpr:
    """Indentation tree: children are indented strictly deeper than their parent.

    Node headers: powers <idealfile>... | region <file> | ceiling <conefile>
    [base <idealfile>] | pullback r11 r12 [; r21 r22 ...] | product | intersect
    | truncate (cone <file> | halfspace a1 ... [; halfspace ...]) | colon <file>.
    """
    path = Path(path)
    lines = _clean(path.read_text())
    if not lines:
        raise ParseError(f"empty system file {path}")
    node, rest = _parse_node(lines, 0, path.parent)
    if rest != len(lines):
        raise ParseError(f"trailing content at line {rest + 1} of {path}")
    return node


def _children(lines, i, parent_indent):
    """Indices of the child nodes of the node at line i."""
    out = []
    j = i + 1
    child_indent = None
    while j < len(lines) and lines[j][0] > parent_indent:
        if child_indent is None:
            child_indent = lines[j][0]
        if lines[j][0] == child_indent:
            out.append(j)
        elif lines[j][0] < child_indent:
            raise ParseError(f"inconsistent indentation at line {j + 1}")
        j += 1
    return out, j


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


def _parse_node(lines, i, base_dir) -> tuple[SystemExpr, int]:
    indent, tokens = lines[i]
    head = tokens[0]
    kids, end = _children(lines, i, indent)

    def need_children(n):
        if len(kids) != n:
            raise ParseError(f"{head!r} needs {n} child node(s), found {len(kids)}")

    if head == "powers":
        need_children(0)
        if len(tokens) < 2:
            raise ParseError("'powers' needs at least one ideal file")
        return IdealPowers([load_ideal(base_dir / t) for t in tokens[1:]]), end
    if head == "region":
        need_children(0)
        return RegionSystem(load_region(base_dir / _token(tokens, 1, "region <file>"))), end
    if head == "ceiling":
        need_children(0)
        cone = load_cone(base_dir / _token(tokens, 1, "ceiling <conefile>"))
        base = None
        if len(tokens) > 2:
            if tokens[2] != "base" or len(tokens) != 4:
                raise ParseError("'ceiling <conefile> [base <idealfile>]'")
            base = load_ideal(base_dir / tokens[3])
        return CeilingSystem(cone, base), end
    if head == "pullback":
        need_children(1)
        rows = _groups(tokens[1:], lambda t: _parse_int(t, "pullback entry"))
        child, _ = _parse_node(lines, kids[0], base_dir)
        return Pullback(rows, child), end
    if head in ("product", "intersect"):
        need_children(2)
        left, _ = _parse_node(lines, kids[0], base_dir)
        right, _ = _parse_node(lines, kids[1], base_dir)
        return (Product if head == "product" else Intersect)(left, right), end
    if head == "truncate":
        need_children(1)
        child, _ = _parse_node(lines, kids[0], base_dir)
        kind = _token(tokens, 1, "truncate cone <file> | truncate halfspace a1 ...")
        if kind == "cone":
            cone = load_cone(base_dir / _token(tokens, 2, "truncate cone <file>"))
        elif kind == "halfspace":
            cone = ConeRep.from_halfspaces(child.rank, _groups(tokens[2:], parse_q, "halfspace"))
        else:
            raise ParseError("'truncate cone <file>' or 'truncate halfspace a1 ...'")
        return Truncate(child, cone), end
    if head == "colon":
        need_children(1)
        child, _ = _parse_node(lines, kids[0], base_dir)
        ideal = load_ideal(base_dir / _token(tokens, 1, "colon <idealfile>"))
        return ColonSystem(child, ideal), end
    raise ParseError(f"unknown system node {head!r}")


# -- atomic output ----------------------------------------------------------------


def write_text_atomic(path, text: str) -> None:
    """Write a unique temp file beside the target, then rename it over the
    target, so neither a failed run nor a concurrent one writing the same
    path ever leaves a partial file."""
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
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def csv_text(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(str(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"
