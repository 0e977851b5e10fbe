"""CLI commands, file formats, exit codes, deterministic output."""

import hashlib
import io
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multigraded
from multigraded import cli, newton, regions, textio
from multigraded.cli import _ceiling_sample, _thm1_directions, build_parser, main
from multigraded.cones import lattice_window
from multigraded.invariants import ceiling_closed_forms, sequence_invariant
from multigraded.monomial import MAX_GENERATOR_PAIRS, minimalize
from multigraded.regions import (
    MAX_APPENDIX_KINKS,
    MAX_KINKS,
    MAX_SCAN_COLUMNS,
    PiecewiseLinearFn,
    appendix_boundary,
)
from multigraded.cones import ConeRep
from multigraded.invariants import thm2_crossing, thm2_kink_table, thm2_ord0
from multigraded.systems import (
    CeilingSystem,
    ColonSystem,
    IdealPowers,
    Intersect,
    Product,
    Pullback,
    SystemExpr,
    Truncate,
)
from multigraded.textio import (
    ParseError,
    fmt_dec,
    fmt_q,
    format_ideal,
    parse_cone,
    parse_ideal,
    parse_number,
    parse_region,
    parse_system,
    write_text_atomic,
)


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def module_env():
    """The environment of a fresh interpreter that imports this package."""
    src = str(Path(multigraded.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def run_module(argv, cwd):
    """The CLI in a fresh interpreter, as a user runs it: exit code and stderr."""
    return subprocess.run([sys.executable, "-m", "multigraded", *argv], cwd=cwd,
                          env=module_env(), capture_output=True, text=True, timeout=120)


IDEAL_A = "# example\nk=2\n2 0\n0 3\n"


@pytest.fixture
def ideal_file(tmp_path):
    path = tmp_path / "a.ideal"
    path.write_text(IDEAL_A)
    return path


@pytest.fixture
def wedge_file(tmp_path):
    region = tmp_path / "p.region"
    region.write_text("k=2\nhalfspace 1 2 >= 2\nhalfspace 2 1 >= 2\n")
    system = tmp_path / "p.system"
    system.write_text("region p.region\n")
    return system


@pytest.fixture
def thm2_file(tmp_path):
    (tmp_path / "f.region").write_text("kinked 1\n")
    (tmp_path / "g.region").write_text(
        "k=2\nepigraph\nbreakpoint 0 1 -1/2\n"
    )
    system = tmp_path / "c.system"
    system.write_text(
        "intersect\n"
        "  pullback 1 0\n"
        "    region f.region\n"
        "  pullback 0 1\n"
        "    region g.region\n"
    )
    return system


class TestFormats:
    def test_rational_printing(self):
        from fractions import Fraction

        assert fmt_q(Fraction(6, 4)) == "3/2"
        assert fmt_q(Fraction(4, 2)) == "2"
        assert fmt_dec(Fraction(4, 3)) == "1.33333333333"
        assert fmt_dec(Fraction(51, 8)) == "6.375"

    @pytest.mark.parametrize("x, text", [
        (10**4400, "1" + "0" * 4400), (-(10**5000) - 7, "-1" + "0" * 4999 + "7"),
        (Fraction(10**4400 + 1, 3), "1" + "0" * 4399 + "1/3"),
        (Fraction(-2, 10**4400 + 1), "-2/1" + "0" * 4399 + "1"),
    ], ids=["int", "negative int", "numerator", "denominator"])
    def test_numbers_past_the_int_str_digit_limit(self, x, text):
        # no global change of sys.set_int_max_str_digits: fmt_q prints
        # every digit of what str(int) refuses
        assert fmt_q(x) == text

    def test_ideal_exponents_past_the_int_str_digit_limit(self):
        ideal = minimalize([(10**4400, 0), (0, 1)], 2)
        assert format_ideal(ideal) == f"k=2\n0 1\n1{'0' * 4400} 0\n"

    @given(st.one_of(
        st.fractions(max_denominator=10**6),
        st.integers(-10**40, 10**40),
        st.sampled_from([Fraction(0), Fraction(10**30, 7), Fraction(1, 10**20),
                         Fraction(2**100, 3), Fraction(-1, 3), Fraction(5, 2)]),
    ))
    @settings(max_examples=300, deadline=None)
    def test_decimal_echo_matches_a_local_context(self, x):
        # reference: a decimal.localcontext opened for each value
        from decimal import ROUND_HALF_EVEN, Decimal, localcontext

        f = Fraction(x)
        with localcontext() as ctx:
            ctx.prec = 12
            ctx.rounding = ROUND_HALF_EVEN
            expected = str(Decimal(f.numerator) / Decimal(f.denominator))
        assert fmt_dec(x) == expected

    def test_ideal_round_trip(self):
        a = parse_ideal(IDEAL_A)
        assert a == minimalize([(2, 0), (0, 3)], 2)
        assert parse_ideal(format_ideal(a)) == a

    def test_zero_ideal(self):
        z = parse_ideal("k=3\nzero\n")
        assert z.is_zero
        assert parse_ideal(format_ideal(z)) == z

    def test_bad_ideal(self):
        with pytest.raises(ParseError):
            parse_ideal("2 0\n")

    def test_empty_body_needs_explicit_zero(self):
        with pytest.raises(ParseError):
            parse_ideal("k=2\n")

    def test_region_halfspace(self):
        r = parse_region("k=2\nhalfspace 1 2 >= 2\nhalfspace 2 1 >= 2\n")
        assert r.vertices[1] == (r.vertices[1][0], r.vertices[1][0])

    @pytest.mark.parametrize("token, kind", [
        ("3", int), ("-2", int), ("+4", int), ("007", int), ("1_000", Fraction),
        ("3/2", Fraction), ("1.5", Fraction), ("1e3", Fraction), (" 3", Fraction),
        ("\u0663", int), ("\u00b2", None), ("+-3", None), ("1/0", None), ("", None),
        # past the default digit limit of int, and so of Fraction, where there is one
        pytest.param("9" * 5000, int, id="5000-digits"),
    ])
    def test_number_tokens_read_as_fraction_does(self, token, kind):
        # the int path accepts, refuses and values each token as Fraction does,
        # and kind is the type of an accepted token; '1_000' is read by some
        # Python versions' Fraction and not by others
        try:
            want = Fraction(token)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(ParseError, match=f"^bad rational {re.escape(repr(token))}$"):
                parse_number(token)
            return
        got = parse_number(token)
        assert got == want and type(got) is kind

    def test_region_integer_tokens_stay_int(self, monkeypatch):
        seen = []
        build = textio.region_from_halfspaces
        monkeypatch.setattr(textio, "region_from_halfspaces",
                            lambda k, facets: seen.append(facets) or build(k, facets))
        r = parse_region("k=2\nhalfspace 1 2 >= 3\nhalfspace 3/2 1 >= 4\n")
        assert repr(seen) == repr([[((1, 2), 3), ((Fraction(3, 2), 1), 4)]])
        assert r == parse_region("k=2\nhalfspace 1 2 >= 3/1\nhalfspace 3 2 >= 8\n")
        with pytest.raises(ParseError, match="^bad rational '\u00b2'$"):
            parse_region("k=2\nhalfspace 1 \u00b2 >= 3\n")

    def test_region_epigraph(self):
        r = parse_region("k=2\nepigraph\nbreakpoint 0 1 -1/2\n")
        assert r.facets == (((1, 2), 2),)

    def test_region_kinked_shorthand(self):
        r = parse_region("kinked 0\n")
        assert r.facets == (((2, 1), 2),)

    def test_region_kinked_negative_count_refused(self):
        with pytest.raises(ValueError, match="n_kinks must be >= 0, got -1"):
            parse_region("kinked -1\n")

    def test_region_appendix_rejected(self):
        with pytest.raises(ParseError):
            parse_region("appendix 1\n")

    def test_cone_forms(self):
        c = parse_cone("rank 3\nform 1 1\nform 1 -1\nform -1 1\nform -1 -1\n")
        assert c.contains((1, 2, 3)) and not c.contains((1, 2, 2))

    def test_cone_rays(self):
        c = parse_cone("rank 2\nray 1 0\nray 0 1\n")
        assert c.contains((2, 3)) and not c.contains((-1, 0))

    @pytest.mark.parametrize("text", ["rank 0\n", "rank -1\n", "rank 0\nhalfspace\n"])
    def test_cone_rank_below_one_refused(self, text):
        rank = text.split()[1]
        with pytest.raises(ParseError, match=f"^cone rank must be >= 1, got {rank}$"):
            parse_cone(text)

    def test_system_tree(self, thm2_file):
        system = parse_system(thm2_file)
        assert system.rank == 2
        assert system.eval((0, 0)).is_unit

    def test_semicolon_groups(self, tmp_path):
        # pullback rows and truncate normals split at ';', and truncate
        # drops every 'halfspace' token, so a repeated keyword is optional
        (tmp_path / "i.ideal").write_text("k=2\n1 0\n0 1\n")
        (tmp_path / "s.system").write_text(
            "truncate halfspace 1 0 ; halfspace 0 1 ; 1 -1\n"
            "  pullback 1 0 ; 0 2\n    powers i.ideal i.ideal\n")
        system = parse_system(tmp_path / "s.system")
        assert system.cone.halfspaces == ((1, 0), (0, 1), (1, -1))
        assert system.inner.matrix == ((1, 0), (0, 2))
        (tmp_path / "s.system").write_text("pullback 1 halfspace\n  powers i.ideal\n")
        with pytest.raises(ParseError, match="bad pullback entry 'halfspace'"):
            parse_system(tmp_path / "s.system")

    def test_system_bad_children(self, tmp_path):
        bad = tmp_path / "bad.system"
        bad.write_text("intersect\n  pullback 1 0\n")
        with pytest.raises(ParseError):
            parse_system(bad)


def tree(node):
    """A system tree as nested (class, attributes) pairs, so that two trees
    compare by repr: children expanded, every other attribute by its repr."""
    return type(node).__name__, {key: tree(v) if isinstance(v, SystemExpr) else repr(v)
                                 for key, v in vars(node).items()}


A2, B2 = "k=2\n2 0\n1 1\n0 3\n", "k=2\n3 0\n0 1\n"
QUAD = "rank 2\nray 1 0\nray 0 1\n"


class TestSystemTreeParser:
    """``parse_system`` reads each line once: a node's children are parsed
    first, in order, and its own tokens after them."""

    @pytest.fixture
    def files(self, tmp_path):
        for name, text in (("a.ideal", A2), ("b.ideal", B2), ("q.cone", QUAD)):
            (tmp_path / name).write_text(text)
        return tmp_path

    def parse(self, files, text):
        (files / "t.system").write_text(text)
        return parse_system(files / "t.system")

    def test_wide_tree(self, files):
        # a full binary tree of 32 leaves, leaves alternating between powers
        # and ceiling nodes, siblings at one indentation per level
        leaves = iter(range(1000))

        def text(depth, pad):
            if depth == 0:
                leaf = ("powers a.ideal b.ideal", "ceiling q.cone base a.ideal")[next(leaves) % 2]
                return [pad + leaf]
            head, kid = "product" if depth % 2 else "intersect", pad + " " * depth
            return [pad + head, *text(depth - 1, kid), *text(depth - 1, kid)]

        a, b, cone = parse_ideal(A2), parse_ideal(B2), parse_cone(QUAD)
        hand_leaves = iter(range(1000))

        def hand(depth):
            if depth == 0:
                if next(hand_leaves) % 2:
                    return CeilingSystem(cone, a)
                return IdealPowers([a, b])
            return (Product if depth % 2 else Intersect)(hand(depth - 1), hand(depth - 1))

        got = self.parse(files, "\n".join(text(5, "")) + "\n")
        assert repr(tree(got)) == repr(tree(hand(5)))

    def test_deep_tree(self, files):
        # 60 levels, each child indented 1 to 3 spaces deeper than its parent
        wrappers = [
            ("pullback 1 0 ; 0 1", lambda t: Pullback([(1, 0), (0, 1)], t)),
            ("truncate halfspace 1 1 ; 0 1", lambda t: Truncate(
                t, ConeRep.from_halfspaces(2, [(1, 1), (0, 1)]))),
            ("truncate cone q.cone", lambda t: Truncate(t, parse_cone(QUAD))),
            ("pullback 2 1 ; 0 1", lambda t: Pullback([(2, 1), (0, 1)], t)),
        ]
        lines, pad = [], ""
        for d in range(59):
            lines.append(pad + wrappers[d % 4][0])
            pad += " " * (1 + d % 3)
        lines.append(pad + "powers a.ideal b.ideal")
        hand = IdealPowers([parse_ideal(A2), parse_ideal(B2)])
        for d in reversed(range(59)):
            hand = wrappers[d % 4][1](hand)
        got = self.parse(files, "\n".join(lines) + "\n")
        assert repr(tree(got)) == repr(tree(hand))
        top = self.parse(files, "colon b.ideal\n" + "\n".join(" " + line for line in lines))
        assert repr(tree(top)) == repr(tree(ColonSystem(hand, parse_ideal(B2))))

    @pytest.mark.parametrize("text, message", [
        ("product\n    powers a.ideal\n  powers a.ideal\n", "inconsistent indentation at line 3"),
        ("product\n  pullback 1\n      powers a.ideal\n    powers a.ideal\n  powers a.ideal\n",
         "inconsistent indentation at line 4"),
        ("product\n  powers a.ideal\n    powers b.ideal\n  powers a.ideal\n",
         "'powers' needs 0 child node(s), found 1"),
        ("product\n  powers a.ideal\n", "'product' needs 2 child node(s), found 1"),
        ("pullback 1 0\n", "'pullback' needs 1 child node(s), found 0"),
        ("intersect\n  powers a.ideal\n  powers a.ideal\n  powers b.ideal\n",
         "'intersect' needs 2 child node(s), found 3"),
        ("powers a.ideal\npowers b.ideal\n", "trailing content at line 2 of {}"),
        ("  powers a.ideal\npowers b.ideal\n", "trailing content at line 2 of {}"),
        ("frobnicate\n  powers a.ideal\n", "unknown system node 'frobnicate'"),
        # a child's error comes before its parent's own
        ("pullback x\n  powers\n", "'powers' needs at least one ideal file"),
    ], ids=["between parent and first child", "between in a subtree",
            "grandchild under a sibling", "too few children", "no child", "too many children",
            "second root", "indented root", "unknown node", "child first"])
    def test_tree_errors(self, files, text, message):
        with pytest.raises(ParseError) as exc:
            self.parse(files, text)
        assert str(exc.value) == message.format(files / "t.system")

    def test_nesting_limit(self, files, capsys):
        # MAX_SYSTEM_DEPTH levels evaluate; one more is refused while parsing
        depth = textio.MAX_SYSTEM_DEPTH
        (files / "x.ideal").write_text("k=1\n1\n")
        for levels, code, out in ((depth, 0, "k=1\n3\n"), (depth + 1, 2, "")):
            lines = [" " * d + "pullback 1" for d in range(levels - 1)]
            lines.append(" " * (levels - 1) + "powers x.ideal")
            (files / "t.system").write_text("\n".join(lines))
            assert run_cli(["system", "eval", str(files / "t.system"), "--at", "3"]) == (code, out)
        assert capsys.readouterr().err == (f"error: system tree nested deeper than {depth} levels "
                                           f"at line {depth + 1}\n")


class TestHeadersAndConeLines:
    """One reader of the 'k=<int>' header, one arity rule for cone lines."""

    @pytest.mark.parametrize("parse, text, message", [
        (parse_ideal, "k=two\n1 0\n", "bad dimension 'two'"),
        (parse_region, "k=two\nhalfspace 1 1 >= 1\n", "bad dimension 'two'"),
        (parse_ideal, "2 0\n", "ideal file must start with 'k=<int>'"),
        (parse_ideal, "# nothing\n", "ideal file must start with 'k=<int>'"),
        (parse_region, "halfspace 1 >= 1\n",
         "region file must start with 'k=<int>' or a shorthand"),
    ], ids=["ideal dimension", "region dimension", "ideal header", "empty ideal",
            "region header"])
    def test_header_messages(self, parse, text, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse(text)

    def test_header_with_space(self):
        assert parse_ideal("k= 2\n1 0\n0 1\n").dim == 2
        assert parse_region("k= 1\nhalfspace 2 >= 5\n").dim == 1

    @pytest.mark.parametrize("text, message", [
        ("rank 2\nform 1 2\n", "form line of wrong arity: 'form 1 2'; expected 1 number(s) "
                               "at rank 2"),
        ("rank 3\nform 1 2\nform 1\n", "form line of wrong arity: 'form 1'; expected 2 "
                                        "number(s) at rank 3"),
        ("rank 2\nray 1\n", "ray line of wrong arity: 'ray 1'; expected 2 number(s) at rank 2"),
        ("rank 1\nhalfspace 1 0\n", "halfspace line of wrong arity: 'halfspace 1 0'; "
                                    "expected 1 number(s) at rank 1"),
        # an unknown kind is refused before any entry is read
        ("rank 2\nwedge x y\n", "unknown cone line kind 'wedge'"),
    ], ids=["form long", "form short", "ray", "halfspace", "unknown kind"])
    def test_cone_line_messages(self, text, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_cone(text)

    def test_kinked_region_is_the_cached_one(self):
        assert parse_region("kinked 8\n") is regions.thm2_regions(8)[0]


class TestTruncatedInput:
    @pytest.mark.parametrize(
        "files",
        [
            {"k.region": "kinked\n", "t.system": "region k.region\n"},
            {"t.system": "region\n"},
            {"c.cone": "rank\n", "t.system": "ceiling c.cone\n"},
        ],
        ids=["kinked-without-n", "region-without-path", "rank-without-int"],
    )
    def test_exit_2_with_one_line_message(self, tmp_path, files):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        proc = run_module(["system", "eval", "t.system", "--at", "1"], tmp_path)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: truncated line")
        assert proc.stderr.count("\n") == 1

    def test_every_truncation_is_an_input_error(self, tmp_path):
        # each line of each file cut after every token prefix: exit 0 when
        # the cut still parses, 2 otherwise, and never an uncaught exception
        files = {
            "i.ideal": "k=2\n2 0\n0 3\n",
            "k.region": "kinked 2\n",
            "e.region": "k=2\nepigraph\nbreakpoint 0 1 -1/2\n",
            "c.cone": "rank 2\nhalfspace 1 0\n",
            "f.cone": "rank 2\nform 1\n",
            "s.system": (
                "colon i.ideal\n"
                "  truncate cone c.cone\n"
                "    intersect\n"
                "      pullback 1 0\n"
                "        region k.region\n"
                "      product\n"
                "        pullback 0 1\n"
                "          region e.region\n"
                "        ceiling f.cone base i.ideal\n"
            ),
        }
        argv = ["system", "eval", str(tmp_path / "s.system"), "--at", "3,2,1"]
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        assert run_cli(argv)[0] == 0
        for name, text in files.items():
            lines = text.splitlines()
            for i, line in enumerate(lines):
                indent = line[: len(line) - len(line.lstrip())]
                tokens = line.split()
                for j in range(len(tokens)):
                    cut = lines[:i] + [indent + " ".join(tokens[:j])] + lines[i + 1:]
                    (tmp_path / name).write_text("\n".join(cut) + "\n")
                    with redirect_stderr(io.StringIO()):
                        assert run_cli(argv)[0] in (0, 2), (name, cut)
            (tmp_path / name).write_text(text)

    @pytest.mark.parametrize("text", ["kinked x\n", "k=two\nhalfspace 1 1 >= 1\n"])
    def test_bad_integer_is_a_parse_error(self, text):
        with pytest.raises(ParseError):
            parse_region(text)


PAIR = "  pullback 1 0\n    region p2.region\n  pullback 0 1\n    region p2.region\n"


class TestTrailingTokens:
    """A line with more tokens than its form takes is refused with exit 2
    and a one-line message; the same file without the extra token runs."""

    @pytest.mark.parametrize(
        "name, text, at",
        [
            ("t.system", "region p2.region{}\n", "2"),
            ("t.system", "product{}\n" + PAIR, "1,1"),
            ("t.system", "intersect{}\n" + PAIR, "1,1"),
            ("t.system", "colon i.ideal{}\n  region p2.region\n", "2,1"),
            ("c.cone", "rank 2{}\nray 1 0\nray 1 1\n", "2,1"),
        ],
        ids=["region-second-file", "product", "intersect", "colon", "cone-rank"],
    )
    def test_exit_2_with_one_line_message(self, tmp_path, name, text, at):
        (tmp_path / "p2.region").write_text("k=2\nhalfspace 1 2 >= 3\nhalfspace 3 1 >= 4\n")
        (tmp_path / "i.ideal").write_text("k=2\n2 0\n1 1\n0 3\n")
        (tmp_path / "t.system").write_text("ceiling c.cone\n")
        argv = ["system", "eval", str(tmp_path / "t.system"), "--at", at]
        for extra, code in (("", 0), (" 3", 2)):
            (tmp_path / name).write_text(text.format(extra))
            err = io.StringIO()
            with redirect_stderr(err):
                assert run_cli(argv)[0] == code
        assert err.getvalue().startswith("error: trailing tokens in line")
        assert err.getvalue().count("\n") == 1


# One file of each kind, all read by the two systems below.
HOSTILE_FILES = {
    "i.ideal": "k=2\n2 0\n0 3\n",
    "j.ideal": "k=3\n3 0 0\n0 2 0\n0 0 4\n1 1 1\n",
    "k.region": "kinked 2\n",
    "e.region": "k=2\nepigraph\nbreakpoint 0 1 -1/2\n",
    "h.region": "k=3\nhalfspace 1 2 2 >= 3\nhalfspace 2 1 3 >= 3\n",
    "c.cone": "rank 2\nhalfspace 1 0\n",
    "f.cone": "rank 2\nform 1\nform -1\n",
    "s.system": (
        "colon i.ideal\n"
        "  truncate cone c.cone\n"
        "    intersect\n"
        "      pullback 1 0\n"
        "        region k.region\n"
        "      product\n"
        "        pullback 0 1\n"
        "          region e.region\n"
        "        ceiling f.cone base i.ideal\n"
    ),
    "t.system": "product\n  region h.region\n  powers j.ideal\n",
}
HOSTILE_RUNS = (
    ["ideal", "info", "i.ideal"],
    ["ideal", "info", "j.ideal"],
    ["system", "eval", "s.system", "--at", "3,2,1"],
    ["system", "verify", "s.system", "--window=0:1"],
    ["system", "eval", "t.system", "--at", "2"],
    ["system", "verify", "t.system", "--window=0:2"],
)


@st.composite
def garbled(draw):
    """One of HOSTILE_FILES with one to three edits: a byte flipped to any
    byte, two tokens swapped, up to three non-digit junk characters
    inserted, or the tail cut off.  Junk adds no digits, so no number grows
    by more than a flip or a merge of two neighbours can make it."""
    name = draw(st.sampled_from(sorted(HOSTILE_FILES)))
    data = HOSTILE_FILES[name].encode()
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("flip", "swap", "junk", "cut")))
        at = draw(st.integers(0, max(len(data) - 1, 0)))
        if op == "flip" and data:
            data = data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
        elif op == "swap":
            parts = re.split(rb"(\s+)", data)
            i, j = (2 * draw(st.integers(0, len(parts) // 2)) for _ in range(2))
            parts[i], parts[j] = parts[j], parts[i]
            data = b"".join(parts)
        elif op == "junk":
            junk = draw(st.text(" \t\n#=>-/;.,:abkxz", min_size=1, max_size=3))
            data = data[:at] + junk.encode() + data[at:]
        else:
            data = data[:at]
    return name, data


class TestHostileInput:
    @settings(max_examples=60, deadline=5000)
    @given(garbled())
    def test_exit_0_or_2_with_one_line_message(self, case):
        name, data = case
        with tempfile.TemporaryDirectory() as tmp:
            for other, text in HOSTILE_FILES.items():
                Path(tmp, other).write_text(text)
            Path(tmp, name).write_bytes(data)
            for argv in HOSTILE_RUNS:
                argv = [str(Path(tmp, a)) if a in HOSTILE_FILES else a for a in argv]
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(argv)
                assert code in (0, 2), (argv, data, err.getvalue())
                assert "Traceback" not in err.getvalue()
                if code == 2:
                    assert err.getvalue().count("\n") == 1, (argv, data, err.getvalue())
                    assert err.getvalue().endswith("\n")


class TestIndicesOfHundredsOfDigits:
    """Indices far past 2^490, where one recursion per bit of the index
    would exhaust the interpreter's stack: a powers node halves down and
    squares back up in a loop."""

    FILES = {
        "unit.ideal": "k=2\n0 0\n", "x.ideal": "k=1\n1\n", "m2.ideal": "k=2\n1 0\n0 1\n",
        "pm.cone": "rank 2\nform 1\nform -1\n", "unit.system": "powers unit.ideal\n",
        "x.system": "powers x.ideal\n", "m2.system": "powers m2.ideal\n",
        "ceiling.system": "ceiling pm.cone base x.ideal\n",
    }

    @pytest.mark.parametrize("name, at, code, out, err", [
        ("unit.system", str(10**200), 0, "k=2\n0 0\n", ""),
        ("x.system", str(2**600), 0, f"k=1\n{2**600}\n", ""),
        ("m2.system", str(10**200), 2, "",
         "error: product of ideals with 2676 and 2676 generators needs 7160976 generator "
         "pairs, over the limit of 2000000\n"),
        ("ceiling.system", f"{10**160},0", 0, f"k=1\n{10**160}\n", ""),
    ], ids=["unit ideal", "x", "maximal ideal refused", "ceiling"])
    def test_eval(self, tmp_path, capsys, name, at, code, out, err):
        for file, text in self.FILES.items():
            (tmp_path / file).write_text(text)
        assert run_cli(["system", "eval", str(tmp_path / name), "--at", at]) == (code, out)
        assert capsys.readouterr().err == err

    def test_sequence_invariants(self, tmp_path):
        (tmp_path / "x.ideal").write_text("k=1\n1\n")
        (tmp_path / "x.system").write_text("powers x.ideal\n")
        code, out = run_cli(["system", "invariants", str(tmp_path / "x.system"),
                             "--direction", str(10**200), "--method", "sequence"])
        sample = f"{10**200} (1.00000000000E+200)"
        assert (code, out) == (0, f"direction: ({10**200})\n" + "".join(
            f"{q} samples (factorial):\n"
            + "".join(f"  n={n} value={sample}\n" for n in (1, 2, 6, 24, 120))
            for q in ("ord0", "arn", "mult")))


class TestIdealInfo:
    def test_output(self, ideal_file):
        code, out = run_cli(["ideal", "info", str(ideal_file)])
        assert code == 0
        assert "ord0 = 2" in out
        assert "arn = 6/5" in out
        assert "lct = 5/6" in out
        assert "mult = 6" in out
        assert "colength = 6" in out
        assert "F: 3 x1 + 2 x2 >= 6" in out

    def test_unit_flags(self, tmp_path):
        path = tmp_path / "unit.ideal"
        path.write_text("k=2\n0 0\n")
        code, out = run_cli(["ideal", "info", str(path)])
        assert code == 0
        assert "lct = infinite" in out

    def test_not_cofinite_flags(self, tmp_path):
        path = tmp_path / "x.ideal"
        path.write_text("k=2\n1 0\n")
        code, out = run_cli(["ideal", "info", str(path)])
        assert code == 0
        assert "mult = infinite (not cofinite)" in out

    def test_parse_error_exit_2(self, tmp_path):
        path = tmp_path / "bad.ideal"
        path.write_text("not an ideal\n")
        code, _ = run_cli(["ideal", "info", str(path)])
        assert code == 2

    def test_missing_file_exit_2(self):
        code, _ = run_cli(["ideal", "info", "/nonexistent/there.ideal"])
        assert code == 2

    def test_hull_built_once_per_invocation(self, tmp_path, monkeypatch):
        # arn, lct, mult and the polyhedron printout all read one hull; a
        # second invocation re-parses the file and builds it again
        path = tmp_path / "shell.ideal"
        path.write_text("k=3\n4 0 0\n0 4 0\n0 0 4\n1 1 1\n2 1 0\n0 2 1\n")
        calls = []
        build = newton.orthant_hull_3d
        monkeypatch.setattr(newton, "orthant_hull_3d", lambda pts: calls.append(1) or build(pts))
        first = run_cli(["ideal", "info", str(path)])
        assert first[0] == 0 and len(calls) == 1
        assert run_cli(["ideal", "info", str(path)]) == first
        assert len(calls) == 2

    def test_cube_of_maximal_ideal_power_30(self, tmp_path):
        path = tmp_path / "m30.ideal"
        path.write_text("k=3\n" + "".join(
            f"{x} {y} {30 - x - y}\n" for x in range(31) for y in range(31 - x)))
        code, out = run_cli(["ideal", "info", str(path)])
        assert code == 0
        for line in ("generators: 496", "ord0 = 30", "arn = 10", "mult = 27000",
                     "colength = 4960"):
            assert line in out.splitlines()


class TestRefusal:
    def test_runaway_power_schedule_exits_2_with_the_limit(self, tmp_path):
        # 11 generators in k=3; the doubling schedule at the default length
        # reaches I^256, whose squarings would run for minutes at hundreds of MB
        gens = ["0 0 6", "0 4 5", "0 5 3", "0 6 0", "1 5 2", "2 1 5", "2 5 1",
                "3 4 4", "4 0 1", "4 1 0", "6 0 0"]
        (tmp_path / "a.ideal").write_text("k=3\n" + "\n".join(gens) + "\n")
        (tmp_path / "s.system").write_text("powers a.ideal\n")
        start = time.perf_counter()
        proc = run_module(["system", "invariants", "s.system", "--direction", "1",
                           "--quantity", "all", "--schedule", "doubling",
                           "--method", "both"], tmp_path)
        assert time.perf_counter() - start < 30
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("error: product of ideals with")
        assert f"over the limit of {MAX_GENERATOR_PAIRS}" in proc.stderr


class TestSystemCommands:
    def test_eval(self, thm2_file):
        code, out = run_cli(["system", "eval", str(thm2_file), "--at", "2,2"])
        assert code == 0 and out.startswith("k=2")

    @pytest.mark.parametrize("option", ["--at", "--direction"])
    @pytest.mark.parametrize("index", ["1/2", "1/2,1", "2,x"])
    def test_non_integer_index_names_its_option(self, thm2_file, option, index, capsys):
        command = "eval" if option == "--at" else "invariants"
        code, out = run_cli(["system", command, str(thm2_file), option, index])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            f"error: {option} needs an index, a comma-separated list of integers, "
            f"got {index!r}\n")

    def test_invariants_both(self, wedge_file):
        code, out = run_cli(
            ["system", "invariants", str(wedge_file), "--direction", "1",
             "--quantity", "ord0", "--max", "5"]
        )
        assert code == 0
        assert "ord0 geometric = 4/3" in out
        assert "certified = yes" in out

    @pytest.mark.parametrize("region", ["k=0\n", "k=4\nhalfspace 1 0 0 0 >= 0\n"])
    def test_region_dimension_outside_1_to_3_refused(self, region, tmp_path):
        # refused even when no facet with c > 0 is left to build from
        (tmp_path / "r.region").write_text(region)
        (tmp_path / "r.system").write_text("region r.region\n")
        code, out = run_cli(["system", "eval", str(tmp_path / "r.system"), "--at", "1"])
        assert (code, out) == (2, "")

    MIXED = "k=3\nhalfspace 1 2 3 >= 3\nhalfspace 2 1 1 >= 3/2\n"

    def test_mixed_integer_and_rational_region(self, tmp_path):
        (tmp_path / "m.region").write_text(self.MIXED)
        (tmp_path / "m.system").write_text("region m.region\n")
        code, out = run_cli(["system", "eval", str(tmp_path / "m.system"), "--at", "2"])
        lines = out.splitlines()
        assert code == 0 and lines[0] == "k=3" and len(lines) == 11 and "6 0 0" in lines
        code, out = run_cli(["system", "invariants", str(tmp_path / "m.system"),
                             "--direction", "1", "--schedule", "doubling", "--max", "2"])
        assert code == 0
        assert "ord0 geometric = 6/5 (1.2)" in out.splitlines()
        assert "mult geometric = 189/40 (4.725)" in out.splitlines()
        assert out.count("certified = yes") == 3

    @pytest.mark.parametrize("argv", [["eval", "--at", "1"], ["invariants", "--direction", "1"]])
    def test_runaway_lattice_scan_exits_2_with_the_limit(self, tmp_path, argv, capsys):
        # the scan box of this region has about 1e800 columns
        (tmp_path / "h.region").write_text("k=3\nhalfspace 1 1 1 >= 1e400\n")
        (tmp_path / "h.system").write_text("region h.region\n")
        code, out = run_cli(["system", argv[0], str(tmp_path / "h.system"), *argv[1:]])
        err = capsys.readouterr().err
        assert code == 2 and "geometric" not in out
        assert err == ("error: lattice scan of 1 * region needs more columns than the "
                       f"limit of {MAX_SCAN_COLUMNS}\n")

    def test_values_past_the_int_str_digit_limit_print(self, tmp_path, capsys):
        # ord0 = 10^4400 has 4,401 digits, past str(int)'s default limit of 4,300
        (tmp_path / "r.region").write_text("k=1\nhalfspace 1 >= 1e4400\n")
        (tmp_path / "r.system").write_text("region r.region\n")
        code, out = run_cli(["system", "invariants", str(tmp_path / "r.system"),
                             "--direction", "1", "--method", "geometric", "--quantity", "ord0"])
        assert (code, capsys.readouterr().err) == (0, "")
        assert out == f"direction: (1)\nord0 geometric = 1{'0' * 4400} (1.00000000000E+4400)\n"

    def test_invariants_csv(self, wedge_file, tmp_path):
        out_csv = tmp_path / "inv.csv"
        code, _ = run_cli(
            ["system", "invariants", str(wedge_file), "--direction", "1",
             "--quantity", "mult", "--max", "4", "--out", str(out_csv)]
        )
        assert code == 0
        text = out_csv.read_text()
        assert text.splitlines()[0] == "quantity,n,value,decimal"
        assert "mult,24,8/3,2.66666666667" in text

    def test_invariants_on_a_colon_tree_certified(self, tmp_path):
        # a colon node's limit body is the inner body minus t N(I)
        (tmp_path / "r.region").write_text("k=3\nhalfspace 1 2 3 >= 6\nhalfspace 3 2 1 >= 6\n")
        (tmp_path / "a.ideal").write_text("k=3\n2 0 0\n0 3 0\n0 0 1\n")
        system = tmp_path / "colon.system"
        system.write_text("colon a.ideal\n  region r.region\n")
        code, out = run_cli(
            ["system", "invariants", str(system), "--direction", "1,1",
             "--quantity", "ord0", "--schedule", "doubling", "--max", "3"]
        )
        assert code == 0
        assert "ord0 geometric = 9/4 (2.25)\n" in out
        assert "ord0 certified = yes" in out

    def test_invariants_on_the_colon_probe(self, tmp_path):
        (tmp_path / "p.region").write_text("k=2\nhalfspace 1 2 >= 3\nhalfspace 3 1 >= 4\n")
        (tmp_path / "i.ideal").write_text("k=2\n2 0\n1 1\n0 3\n")
        system = tmp_path / "colon.system"
        system.write_text("colon i.ideal\n  region p.region\n")
        argv = ["system", "invariants", str(system), "--direction", "3,1"]
        code, out = run_cli(argv + ["--method", "geometric"])
        assert code == 0
        assert out == ("direction: (3, 1)\nord0 geometric = 23/5 (4.6)\n"
                       "arn geometric = 7/3 (2.33333333333)\nmult geometric = 183/5 (36.6)\n")
        code, out = run_cli(argv + ["--schedule", "doubling", "--max", "4"])
        assert code == 0
        assert out.count("certified = yes") == 3

    @pytest.mark.parametrize("method", ["both", "sequence"])
    def test_invariants_not_cofinite_mult_unavailable(self, tmp_path, method):
        # a_(1,1) = (x^2, y^3)(x^2 y, x^3) has no pure power of y: ord0 and
        # arn are still printed, mult is marked unavailable, nothing failed
        (tmp_path / "k2.ideal").write_text("k=2\n2 0\n0 3\n")
        (tmp_path / "k2nc.ideal").write_text("k=2\n2 1\n3 0\n")
        system = tmp_path / "nc.system"
        system.write_text("powers k2.ideal k2nc.ideal\n")
        out_csv = tmp_path / "nc.csv"
        code, out = run_cli(["system", "invariants", str(system), "--direction", "1,1",
                             "--method", method, "--max", "3", "--out", str(out_csv)])
        assert code == 0
        assert "ord0 samples (factorial):" in out and "  n=6 value=5 (5)" in out
        assert "arn samples (factorial):" in out and "  n=6 value=14/5 (2.8)" in out
        assert out.endswith("mult samples = unavailable (not cofinite)\n")
        assert ("ord0 certified = yes" in out) == (method == "both")
        assert {row.split(",")[0] for row in out_csv.read_text().splitlines()[1:]} == \
            {"ord0", "arn"}

    def test_cones(self, thm2_file):
        code, out = run_cli(["system", "cones", str(thm2_file), "--radius", "2"])
        assert code == 0
        assert "nef points (9):" in out

    def test_verify(self, wedge_file):
        code, out = run_cli(["system", "verify", str(wedge_file), "--window", "0:6"])
        assert code == 0
        assert "violations: 0" in out

    def test_verify_line_of_the_readme(self, wedge_file):
        # the README's space form "--window -2:2", through main and through
        # the parser alone
        readme = Path(__file__).resolve().parents[1] / "README.md"
        line = next(t for t in readme.read_text().splitlines()
                    if t.startswith("multigraded system verify"))
        argv = [str(wedge_file) if a == "sys.system" else a for a in line.split()[1:]]
        assert argv[-2:] == ["--window", "-2:2"]
        code, out = run_cli(argv)
        assert code == 0 and "violations: 0" in out
        args = build_parser().parse_args(["system", "verify", "s.system", "--window", "-2:2"])
        assert args.window == "-2:2"


    @pytest.mark.parametrize("window", ["3:1", "1:1", "-1:-1", "2:3", "-3:-2"])
    def test_verify_window_without_a_pair_exits_2(self, wedge_file, window, capsys):
        # no v, w in [lo, hi] with v + w in it: a check that cannot fail
        code, out = run_cli(["system", "verify", str(wedge_file), f"--window={window}"])
        err = capsys.readouterr().err
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and f"--window {window} holds no v, w" in err

    @pytest.mark.parametrize("window, pairs", [("0:0", 1), ("1:2", 1), ("-2:-1", 1),
                                               ("-1:2", 7)])
    def test_verify_smallest_windows_accepted(self, wedge_file, window, pairs):
        code, out = run_cli(["system", "verify", str(wedge_file), f"--window={window}"])
        assert code == 0 and out.startswith(f"pairs checked: {pairs}\n")

    @pytest.mark.parametrize("window", ["5", "a:b", "1:2:3", ""])
    def test_verify_window_not_lo_hi_exits_2(self, wedge_file, window, capsys):
        code, out = run_cli(["system", "verify", str(wedge_file), f"--window={window}"])
        err = capsys.readouterr().err
        assert (code, out) == (2, "")
        assert err == f"error: --window needs lo:hi (--window=-2:2), got {window!r}\n"


def _never_built(n):
    raise AssertionError(f"the {n} kink abscissae were built")


class TestRepro:
    def test_thm1(self):
        code, out = run_cli(["repro", "thm1", "--radius", "3", "--max", "3"])
        assert code == 0
        assert out.count("[PASS]") == 3 and "[FAIL]" not in out

    def test_thm1_base_of_infinite_colength(self, tmp_path):
        # (x1 x2) has no mult off the cone: ord0 and arn are still checked
        (tmp_path / "nc.ideal").write_text("k=2\n1 1\n")
        out_csv = tmp_path / "t.csv"
        code, out = run_cli(["repro", "thm1", "--base", str(tmp_path / "nc.ideal"),
                             "--radius", "3", "--out", str(out_csv)])
        assert code == 0
        assert out.count("[PASS]") == 3 and "[FAIL]" not in out
        assert out.endswith("at 20 integral directions; mult = unavailable (not cofinite)\n")
        rows = [row.split(",") for row in out_csv.read_text().splitlines()]
        assert rows[0][3] == "mult" and len(rows) == 21
        assert {row[3] for row in rows[1:]} == {"unavailable"}
        assert rows[1] == ["-2 -2 -2", "12", "6", "unavailable", "12"]

    @pytest.mark.parametrize("text, which", [("k=2\nzero\n", "zero"), ("k=2\n0 0\n", "unit")])
    def test_thm1_zero_or_unit_base_refused_up_front(self, tmp_path, capsys, text, which):
        (tmp_path / "b.ideal").write_text(text)
        code, out = run_cli(["repro", "thm1", "--base", str(tmp_path / "b.ideal")])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (f"error: --base needs a nonzero proper ideal, "
                                           f"got the {which} ideal\n")

    def test_thm2_defaults(self):
        code, out = run_cli(["repro", "thm2", "--kinks", "1", "--radius", "4"])
        assert code == 0
        assert "kink at s0 = 5/4" in out
        assert "gap 1/39" in out

    def test_thm2_grid_failure_exit_1(self, monkeypatch):
        # a closed form off by 1/2 at one cell fails the grid, and only it
        real = cli.thm2_crossing
        monkeypatch.setattr(cli, "thm2_crossing", lambda r, s, n: (
            (real(r, s, n)[0], real(r, s, n)[1] + Fraction(1, 2)) if (r, s) == (1, 1)
            else real(r, s, n)))
        code, out = run_cli(
            ["repro", "thm2", "--kinks", "1", "--radius", "2",
             "--grid", "1", "2", "1", "2", "3", "--scan", "1", "2"]
        )
        assert code == 1
        assert out.count("[FAIL]") == 1 and "[FAIL] ord0 grid" in out

    @pytest.mark.parametrize("kinks", [1, 4])
    def test_thm2_grid_below_half(self, kinks, tmp_path):
        # below s = r/2 the line misses the kinked boundary and has no
        # crossing; rP's lowest point (r, 0) lies in sQ, so ord0 = r
        assert thm2_crossing(1, Fraction(1, 8), kinks) is None
        assert thm2_ord0(1, Fraction(1, 8), kinks) == 1
        out_csv = tmp_path / "grid.csv"
        code, out = run_cli(["repro", "thm2", "--kinks", str(kinks),
                             "--grid", "1", "2", "1/8", "1/4", "3", "--out", str(out_csv)])
        assert code == 0
        assert out.count("[PASS]") == 3 and "[FAIL]" not in out
        rows = [row.split(",") for row in out_csv.read_text().splitlines()[1:]]
        assert [(row[0], row[2], row[4]) for row in rows] == [
            (r, r, "yes") for r in ("1", "3/2", "2") for _ in range(3)]

    def test_thm2_grid_csv_streams_and_leaves_nothing_on_failure(self, tmp_path, monkeypatch):
        # the rows are in the temp file, all but a write buffer's worth,
        # before the nef check runs; when that check raises, neither the temp
        # file nor --out is left behind
        argv = ["repro", "thm2", "--kinks", "2", "--radius", "2",
                "--grid", "3/4", "3/2", "1/4", "3/2", "30"]
        code, plain = run_cli(argv)
        out_csv = tmp_path / "grid.csv"
        assert run_cli([*argv, "--out", str(out_csv)]) == (code, plain)
        want = out_csv.read_text()
        assert len(want.splitlines()) == 1 + 900
        out_csv.unlink()
        seen = []

        def nef_points(system, radius):
            [tmp] = tmp_path.iterdir()
            seen.append(tmp.read_text())
            raise OSError("disk gone")

        monkeypatch.setattr(cli, "nef_points", nef_points)
        with redirect_stderr(io.StringIO()) as err:
            assert run_cli([*argv, "--out", str(out_csv)]) == (2, "")
        assert err.getvalue() == "error: disk gone\n"
        [part] = seen
        assert want.startswith(part) and len(part) >= len(want) - 2 * io.DEFAULT_BUFFER_SIZE
        assert list(tmp_path.iterdir()) == []

    def test_thm2_kink_out_matches_the_kink_table(self, tmp_path):
        defaults = build_parser().parse_args(["repro", "thm2"])
        kink_csv = tmp_path / "kinks.csv"
        code, out = run_cli(["repro", "thm2", "--kinks", "8", "--kink-out", str(kink_csv)])
        assert code == 0 and "[FAIL]" not in out
        table, crossings = thm2_kink_table(Fraction(defaults.r), 8,
                                           *(Fraction(t) for t in defaults.scan))
        kinks = list(table.kinks())
        assert len(kinks) == len(crossings) > 1
        want = ["s0,left,right,gap,gap_decimal"] + [
            ",".join((fmt_q(s0), fmt_q(left), fmt_q(right), fmt_q(right - left),
                      fmt_dec(right - left)))
            for s0, left, right in kinks]
        assert kink_csv.read_text().splitlines() == want

    def test_thm2_grid_rows_formatted_only_for_out(self, tmp_path, monkeypatch):
        # the CSV is the grid rows' only reader: without --out no cell is
        # formatted, with it each of the 3 x 3 cells once
        calls = []
        monkeypatch.setattr(cli, "fmt_dec", lambda x: calls.append(x) or fmt_dec(x))
        argv = ["repro", "thm2", "--kinks", "1", "--radius", "2",
                "--grid", "3/4", "3/2", "3/4", "3/2", "3"]
        code, plain = run_cli(argv)
        bare = len(calls)
        out_csv = tmp_path / "grid.csv"
        assert (code, run_cli([*argv, "--out", str(out_csv)])) == (0, (0, plain))
        assert len(calls) - 2 * bare == 9
        assert len(out_csv.read_text().splitlines()) == 1 + 9

    @pytest.mark.parametrize("argv, names", [
        (["--kinks", "0"], "--kinks"), (["--kinks", "-1"], "--kinks"),
        (["--r", "0"], "--r"), (["--r", "-1"], "--r"),
        (["--scan", "2", "1"], "--scan"), (["--scan", "3", "4"], "scan window [3, 4]"),
        (["--grid", "0", "1", "3/4", "3/2", "3"], "--grid needs 0 < rmin"),
        (["--grid", "3/4", "3/2", "0", "1", "3"], "--grid needs 0 < rmin"),
        (["--grid", "1", "1", "3/4", "3/2", "3"], "--grid needs 0 < rmin"),
        (["--grid", "3/4", "3/2", "3/4", "3/2", "x"], "--grid needs an integer STEPS, got 'x'"),
        (["--grid", "3/4", "3/2", "3/4", "3/2", str(isqrt(cli.MAX_GRID_CELLS) + 1)],
         f"cells is over the limit of {cli.MAX_GRID_CELLS}"),
    ], ids=["kinks 0", "kinks -1", "r 0", "r -1", "scan 2 1", "scan 3 4", "grid rmin 0",
            "grid smin 0", "grid empty", "grid steps x", "grid over the limit"])
    def test_thm2_refused_up_front(self, argv, names, capsys):
        # nothing to verify is an input error, not a failed verification
        code, out = run_cli(["repro", "thm2", "--radius", "2", *argv])
        err = capsys.readouterr().err
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and names in err

    @pytest.mark.parametrize("eps, code", [("1/2", 0), ("3/4", 0), ("9/8", 0), ("5/4", 1),
                                           ("3/2", 1)])
    def test_thm2_truncation_inside_the_cone(self, eps, code):
        # the single kink sits at s0 = 5/4: a truncation below it certifies
        # the table on the cone's part of the first cell, and one at or above
        # it leaves no left side of the kink to certify
        got, out = run_cli(["repro", "thm2", "--kinks", "1", "--radius", "2",
                            "--truncate", eps])
        assert got == code
        assert ("[FAIL] truncation leaves the kink table unchanged" in out) == (code == 1)

    def test_thm2_truncation_radius_is_fixed(self):
        code, out = run_cli(["repro", "thm2", "--kinks", "1", "--radius", "2",
                             "--truncate", "1/2"])
        assert code == 0
        assert "truncated system: eff points within radius 8 lie in s >= 1/2 r" in out
        with pytest.raises(SystemExit):
            build_parser().parse_args(["repro", "thm2", "--trunc-radius", "4"])

    def test_appendix(self):
        code, out = run_cli(["repro", "appendix", "--kinks", "1"])
        assert code == 0
        assert "gauge((1, 0)) = 1" in out
        assert "gauge((0, 1)) = 2" in out
        assert ("[PASS] boundary concave, its 2 slopes decreasing strictly from 0: the "
                "reflected body is convex and its gauge a norm") in out

    @pytest.mark.parametrize("kinks", ["0", "-3"])
    def test_appendix_kinks_refused_up_front(self, kinks, capsys):
        code, out = run_cli(["repro", "appendix", "--kinks", kinks])
        err = capsys.readouterr().err
        assert (code, out) == (2, "")
        assert err == f"error: --kinks needs N >= 1, got {kinks}\n"

    @pytest.mark.parametrize("argv, limit", [
        (["repro", "thm2", "--kinks", str(MAX_KINKS + 1)], MAX_KINKS),
        (["repro", "appendix", "--kinks", str(MAX_APPENDIX_KINKS + 1)], MAX_APPENDIX_KINKS),
        (["system", "eval", "k.system", "--at", "1"], MAX_KINKS),
        (["repro", "thm2", "--kinks", str(cli.MAX_TRUNCATED_KINKS + 1), "--truncate", "1/8"],
         cli.MAX_TRUNCATED_KINKS),
    ], ids=["thm2", "appendix", "kinked region", "thm2 truncated"])
    def test_kink_counts_over_the_limit_refused_up_front(self, argv, limit, tmp_path,
                                                         monkeypatch, capsys):
        # refused before the first dyadic abscissa is built
        (tmp_path / "k.region").write_text(f"kinked {MAX_KINKS + 1}\n")
        (tmp_path / "k.system").write_text("region k.region\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(regions, "dyadic_sequence", _never_built)
        code, out = run_cli(argv)
        assert (code, out) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith(f"error: {limit + 1} kinks are over the limit of {limit}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("build, limit", [(regions.build_kinked_f, MAX_KINKS),
                                              (regions.appendix_boundary, MAX_APPENDIX_KINKS)],
                             ids=["thm2", "appendix"])
    def test_kink_count_at_the_limit_accepted(self, build, limit, monkeypatch):
        monkeypatch.setattr(regions, "dyadic_sequence", _never_built)
        with pytest.raises(AssertionError, match="built"):
            build(limit)

    def test_truncated_kink_count_at_the_limit_accepted(self, monkeypatch):
        monkeypatch.setattr(cli, "thm2_kink_table", lambda r, n, lo, hi: _never_built(n))
        with pytest.raises(AssertionError, match="built"):
            main(["repro", "thm2", "--kinks", str(cli.MAX_TRUNCATED_KINKS), "--truncate", "1/8"])

    @pytest.mark.parametrize("slopes", [(Fraction(-1), Fraction(-1, 2)),
                                        (Fraction(1, 2), Fraction(-1)),
                                        (Fraction(-1), Fraction(-1))],
                             ids=["rising", "rising from 0", "no kink"])
    def test_appendix_certificate_fails_unless_strictly_concave(
            self, slopes, monkeypatch):
        # the body and its gauge stay the real ones: only the boundary's
        # slopes can fail the certificate
        boundary = PiecewiseLinearFn(((Fraction(0), Fraction(2)), (Fraction(1), 2 + slopes[0])),
                                     slopes)
        body = appendix_boundary(1)[1]
        monkeypatch.setattr(cli, "appendix_boundary", lambda n: (boundary, body))
        code, out = run_cli(["repro", "appendix"])
        assert code == 1
        assert out.count("[FAIL]") == 1 and "[FAIL] boundary concave, its 2 slopes" in out



class TestThm1Cones:
    """``repro thm1 --cone``: each sample is compared with the exact value
    m inv(base)/n of the power base^m it evaluates, and the directions are
    drawn in the cone's rank."""

    def test_rank_two_cone(self, tmp_path):
        (tmp_path / "c2.cone").write_text("rank 2\nform 3/2\nform -5/3\n")
        (tmp_path / "x.ideal").write_text("k=1\n1\n")
        out_csv = tmp_path / "t.csv"
        code, out = run_cli(["repro", "thm1", "--cone", str(tmp_path / "c2.cone"),
                             "--base", str(tmp_path / "x.ideal"), "--radius", "5",
                             "--out", str(out_csv)])
        assert code == 0
        assert out.count("[PASS]") == 3 and "[FAIL]" not in out
        rows = out_csv.read_text().splitlines()[1:]
        assert len(rows) == 20
        assert all(len(row.split(",")[0].split()) == 2 for row in rows)

    def test_non_integral_forms(self, tmp_path):
        # y >= (|x1| + |x2|)/2: n t is not an integer at most directions
        (tmp_path / "q.cone").write_text(
            "rank 3\nform 1/2 1/2\nform 1/2 -1/2\nform -1/2 1/2\nform -1/2 -1/2\n")
        code, out = run_cli(["repro", "thm1", "--cone", str(tmp_path / "q.cone"),
                             "--radius", "3"])
        assert code == 0
        assert out.count("[PASS]") == 3 and "[FAIL]" not in out

    def test_non_pointed_nef_hull_prints_facet_normals(self, tmp_path):
        # y >= max(0, x1 - x2) contains the line through (1, 1, 0): the hull
        # has no extreme rays, so its facets are printed, not the nef points
        (tmp_path / "w.cone").write_text("rank 3\nform 1 -1\n")
        (tmp_path / "w.system").write_text("ceiling w.cone\n")
        code, out = run_cli(["repro", "thm1", "--cone", str(tmp_path / "w.cone"),
                             "--radius", "2"])
        assert code == 0 and out.count("[PASS]") == 3
        assert "nef hull: not pointed; facet normals: -1 1 1; 0 0 1\n" in out
        assert "rays" not in out
        code, out = run_cli(["system", "cones", str(tmp_path / "w.system"), "--radius", "2"])
        assert code == 0
        assert out.endswith("nef hull: not pointed; facet normals:\n  -1 1 1\n  0 0 1\n")

    def test_pointed_nef_hull_prints_rays(self, tmp_path):
        (tmp_path / "q.cone").write_text("rank 3\nform 1 1\nform 1 -1\nform -1 1\n")
        code, out = run_cli(["repro", "thm1", "--cone", str(tmp_path / "q.cone"),
                             "--radius", "3"])
        assert code == 0
        assert "nef hull rays: -1 -1 0; 0 1 1; 1 0 1\n" in out

    def test_window_too_small_for_the_cone_exits_2(self, tmp_path, capsys):
        # y >= max(0, x1/2 - 2 x2/3) contains the line through (4, 3, 0):
        # a window of radius 3 cannot show it, so the run is refused
        cone = tmp_path / "l.cone"
        cone.write_text("rank 3\nform 1/2 -2/3\n")
        code, out = run_cli(["repro", "thm1", "--cone", str(cone), "--radius", "3"])
        err = capsys.readouterr().err
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.rstrip().endswith("need radius 4")
        for radius in ("4", "5"):
            code, out = run_cli(["repro", "thm1", "--cone", str(cone), "--radius", radius])
            assert code == 0 and out.count("[PASS]") == 3 and "[FAIL]" not in out

    @pytest.mark.parametrize("extra, drop", [((), True), (((2, 0, 1),), False)],
                             ids=["too-small", "too-large"])
    def test_wrong_nef_hull_fails(self, monkeypatch, extra, drop):
        # the nef points reach cli.ray_hull through a wrapper that narrows
        # them to y >= 2 (|x1| + |x2|) or adds the ray (2, 0, 1), which
        # leaves a pointed hull that holds the whole cone
        real = cli.ray_hull

        def wrapped(points, rank=None):
            pts = [tuple(p) for p in points]
            if len(pts) > 10:  # the nef points, not a cone's few normals
                if drop:
                    pts = [p for p in pts if p[2] >= 2 * (abs(p[0]) + abs(p[1]))]
                pts += extra
            return real(pts, rank)

        monkeypatch.setattr(cli, "ray_hull", wrapped)
        code, out = run_cli(["repro", "thm1", "--radius", "3", "--max", "2"])
        assert code == 1
        assert out.count("[FAIL]") == 1
        assert "[FAIL] ray hull of nef points equals the cone" in out

    @pytest.mark.parametrize("text", ["rank 2\n", "rank 2\nhalfspace 1 0\n",
                                      "rank 2\nray 1 0\nray 0 1\n",
                                      "rank 2\nhalfspace 1/2 1\nhalfspace 1 -1/3\n",
                                      "rank 2\nhalfspace 1 0\nhalfspace -1 0\n"
                                      "halfspace 0 1\nhalfspace 0 -1\n"],
                             ids=["full-space", "halfspace", "rays", "rational-halfspaces",
                                  "origin"])
    def test_any_cone_file_passes(self, tmp_path, capsys, text):
        # the ceiling system reads the cone's halfspace normals, so a cone
        # need not be an epigraph; the full space has no normals, and the
        # origin no extreme rays or lineality vectors
        cone = tmp_path / "n.cone"
        cone.write_text(text)
        code, out = run_cli(["repro", "thm1", "--cone", str(cone)])
        assert (code, capsys.readouterr().err) == (0, "")
        assert out.count("[PASS]") == 3 and "[FAIL]" not in out

    @pytest.mark.parametrize("rank", ["0", "-1"])
    def test_cone_rank_below_one_exits_2(self, tmp_path, rank):
        # a rank-0 cone used to pass three checks, one "at 0 integral
        # directions", and rank -1 failed on an index of length 0
        (tmp_path / "r.cone").write_text(f"rank {rank}\n")
        (tmp_path / "r.system").write_text("ceiling r.cone\n")
        for argv in (["repro", "thm1", "--cone", "r.cone"],
                     ["system", "cones", "r.system", "--radius", "1"]):
            proc = run_module(argv, tmp_path)
            assert (proc.returncode, proc.stdout) == (2, "")
            assert proc.stderr == f"error: cone rank must be >= 1, got {rank}\n"

    def test_origin_cone_nef_hull_label(self, tmp_path):
        # the zero cone is pointed with no extreme rays: it gets its own label
        (tmp_path / "o.cone").write_text(
            "rank 2\nhalfspace 1 0\nhalfspace -1 0\nhalfspace 0 1\nhalfspace 0 -1\n")
        (tmp_path / "o.system").write_text("ceiling o.cone\n")
        code, out = run_cli(["repro", "thm1", "--cone", str(tmp_path / "o.cone")])
        assert code == 0
        assert "\nnef hull: origin only\n" in out and "rays" not in out
        code, out = run_cli(["system", "cones", str(tmp_path / "o.system"), "--radius", "2"])
        assert code == 0
        assert out.startswith("nef points (1):\n  0 0\n")
        assert out.endswith("\nnef hull: origin only\n")

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_directions_below_one_exits_2(self, count, capsys):
        code, out = run_cli(["repro", "thm1", "--directions", count])
        err = capsys.readouterr().err
        assert (code, out) == (2, "")
        assert err == f"error: --directions needs N >= 1, got {count}\n"

    @pytest.mark.parametrize("count, checked", [(None, 20), ("200", 24), ("7", 7)])
    def test_directions_line_counts_the_directions_checked(self, tmp_path, count, checked):
        # a rank-2 window of radius 2 holds only 24 nonzero directions
        (tmp_path / "q.cone").write_text("rank 2\nray 1 0\nray 0 1\n")
        out_csv = tmp_path / "d.csv"
        argv = ["repro", "thm1", "--cone", str(tmp_path / "q.cone"), "--max", "2",
                "--out", str(out_csv)] + (["--directions", count] if count else [])
        code, out = run_cli(argv)
        assert code == 0
        assert f"exactly at {checked} integral directions\n" in out
        assert len(out_csv.read_text().splitlines()) == checked + 1

    def test_samples_option_is_gone(self):
        with pytest.raises(SystemExit) as exc, redirect_stderr(io.StringIO()):
            build_parser().parse_args(["repro", "thm1", "--samples", "64"])
        assert exc.value.code == 2

    def test_samples_are_the_powers_not_the_limit(self):
        system = CeilingSystem(parse_cone("rank 3\nform 1/2 -2/3\n"))
        v = (1, 0, 0)
        assert ceiling_closed_forms(system, v).ord0 == Fraction(1, 2)
        for q in ("ord0", "arn", "mult"):
            bracket = sequence_invariant(system, v, q, steps=4)
            assert [_ceiling_sample(system, v, q, n) for n, _ in bracket.samples] == [
                val for _, val in bracket.samples]
        # at n = 1 the exponent is ceil(1/2) = 1, not the limit 1/2
        assert _ceiling_sample(system, v, "ord0", 1) == 1

    def test_rank_three_directions_unchanged(self):
        window = [v for v in lattice_window([(-2, 2)] * 3) if any(v)]
        assert _thm1_directions(3, 2, 20) == window[::len(window) // 20][:20]


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, ideal_file, wedge_file):
        commands = [
            ["ideal", "info", str(ideal_file), "--decimals"],
            ["system", "invariants", str(wedge_file), "--direction", "1", "--max", "4"],
            ["repro", "thm2", "--kinks", "1", "--radius", "3"],
            ["repro", "appendix", "--kinks", "2"],
        ]
        for argv in commands:
            first = run_cli(argv)
            second = run_cli(argv)
            assert first == second

    def test_csv_written_atomically(self, wedge_file, tmp_path):
        out_csv = tmp_path / "x.csv"
        argv = ["system", "invariants", str(wedge_file), "--direction", "1",
                "--max", "4", "--out", str(out_csv)]
        run_cli(argv)
        first = out_csv.read_bytes()
        run_cli(argv)
        assert out_csv.read_bytes() == first
        assert not (tmp_path / "x.csv.tmp").exists()


class TestGoldenStdout:
    """sha256 of stdout, recorded before ceiling systems moved to integer
    exponents and a cache keyed by exponent; the thm1 digest was recorded
    again when its hull line became an exact two-way check."""

    GOLDEN = [
        (["system", "cones", "c2.system", "--radius", "31"],
         "f7b6730b6d2d0dc70713567fe5f0b3cbb361722af0400203b9cf1720e36737d4"),
        (["system", "cones", "c2.system", "--radius", "32"],
         "335e2a62c6dd93eb80313d6da4842176a5dc369ef2c4a3aa85bb5876a6e24b4c"),
        (["system", "cones", "c3.system", "--radius", "2"],
         "efb8287331504383750caad3646d5e9f61434e838d5e20c28894b531a99b2d45"),
        (["repro", "thm1", "--radius", "4"],
         "9513befeb5b9e7f5763ce53e582ea46da903e9550bb0ff6ad0cfc128413411dd"),
    ]

    @pytest.mark.parametrize("argv, digest", GOLDEN, ids=lambda x: "-".join(x)[:40])
    def test_stdout_digest(self, tmp_path, argv, digest):
        (tmp_path / "x.ideal").write_text("k=1\n1\n")
        (tmp_path / "m2.ideal").write_text("k=2\n1 0\n0 1\n")
        (tmp_path / "c2.cone").write_text("rank 2\nform 3/2\nform -5/3\n")
        (tmp_path / "c2.system").write_text("ceiling c2.cone base x.ideal\n")
        (tmp_path / "c3.cone").write_text("rank 3\nform 1 1\nform 1/2 -2/3\nform -1 1\n")
        (tmp_path / "c3.system").write_text("ceiling c3.cone base m2.ideal\n")
        argv = [str(tmp_path / a) if a.endswith(".system") else a for a in argv]
        code, out = run_cli(argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestParser:
    def test_built_once_with_a_fresh_namespace_per_call(self):
        parser = build_parser()
        assert build_parser() is parser
        first = parser.parse_args(["system", "cones", "s.system", "--radius", "3",
                                   "--out", "x.csv"])
        second = parser.parse_args(["system", "cones", "s.system", "--radius", "2"])
        assert first is not second
        assert (first.radius, first.out) == (3, "x.csv")
        assert (second.radius, second.out) == (2, None)
        third = parser.parse_args(["repro", "thm2"])
        assert (third.radius, third.out) == (6, None) and not hasattr(third, "path")


@pytest.fixture
def colon_file(tmp_path):
    (tmp_path / "p2.region").write_text("k=2\nhalfspace 1 2 >= 3\nhalfspace 3 1 >= 4\n")
    (tmp_path / "i3.ideal").write_text("k=2\n2 0\n1 1\n0 3\n")
    system = tmp_path / "colon2.system"
    system.write_text("colon i3.ideal\n  region p2.region\n")
    return system


class TestSignedValues:
    """Option values that start with '-' and a digit follow their option
    after a space as after '=', and fill multi-value options too."""

    @pytest.mark.parametrize("option, value, argv, expected", [
        ("--direction", "-1,3", ["system", "invariants", "S", "--method", "geometric"],
         "\nord0 geometric = 0 (0)\n"),
        ("--at", "-1,3", ["system", "eval", "S"], "k=2\n0 0\n"),
        ("--window", "-2:2", ["system", "verify", "S"], "\nviolations: 0\n"),
        ("--truncate", "-1/2", ["repro", "thm2", "--radius", "2"],
         "\n[PASS] truncated system: eff points within radius 8 lie in s >= -1/2 r\n"),
    ], ids=["direction", "at", "window", "truncate"])
    def test_space_form_equals_the_equals_form(self, colon_file, option, value, argv,
                                               expected):
        argv = [str(colon_file) if a == "S" else a for a in argv]
        spaced = run_cli([*argv[:2], option, value, *argv[2:]])
        joined = run_cli([*argv, f"{option}={value}"])
        assert spaced == joined
        assert spaced[0] == 0 and expected in spaced[1]

    @pytest.mark.parametrize("argv", [
        ["system", "eval", "s.system", "--at"],
        ["system", "invariants", "s.system", "--direction", "--method", "geometric"],
        ["system", "verify", "s.system", "--window"],
    ], ids=["at-last", "direction-before-option", "window-last"])
    def test_missing_value_exits_2(self, argv):
        err = io.StringIO()
        with pytest.raises(SystemExit) as exc, redirect_stderr(err):
            main(argv)
        assert exc.value.code == 2 and "expected one argument" in err.getvalue()

    def test_negative_scan_end(self):
        code, out = run_cli(["repro", "thm2", "--scan", "-1/2", "2", "--radius", "2"])
        assert code == 0 and "kink table at r = 1 over s in [-1/2, 2]: " in out

    def test_negative_grid_value_reaches_the_command(self, capsys):
        # refused by the command's own check, not by argparse's usage line
        code, out = run_cli(["repro", "thm2", "--grid", "-3/4", "3/2", "3/4", "3/2", "3"])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            "error: --grid needs 0 < rmin < rmax, 0 < smin < smax and steps >= 2\n")


class TestBrokenPipe:
    def test_closed_stdout_exits_141_silently(self, tmp_path):
        # about 140 kB of output, more than a pipe holds: the writer is still
        # printing when the reader closes its end after one line
        (tmp_path / "c.cone").write_text("rank 2\nray 2 1\nray 1 2\n")
        (tmp_path / "c.system").write_text("ceiling c.cone\n")
        proc = subprocess.Popen(
            [sys.executable, "-m", "multigraded", "system", "cones", "c.system",
             "--radius", "60"],
            cwd=tmp_path, env=module_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert err == b""


class TestAtomicWrite:
    def test_full_text_and_no_temp_file(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("old\n")
        text = "a,b\n" + "1,2\n" * 5000
        write_text_atomic(target, text)
        assert target.read_text() == text
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_failed_write_keeps_target_and_removes_temp(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("old\n")
        with pytest.raises(TypeError):
            write_text_atomic(target, None)
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_concurrent_writers_never_collide(self, tmp_path):
        # with one shared temp name, a writer's rename can find its temp file
        # already renamed away by another writer
        target = tmp_path / "out.csv"
        texts = [f"{i}\n" * 20000 for i in range(4)]
        errors = []

        def writer(text):
            try:
                for _ in range(15):
                    write_text_atomic(target, text)
            except OSError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,)) for t in texts]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert target.read_text() in texts
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
