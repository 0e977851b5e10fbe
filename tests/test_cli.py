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
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multigraded
from multigraded import newton
from multigraded.cli import _ceiling_sample, _thm1_directions, build_parser, main
from multigraded.cones import lattice_window
from multigraded.invariants import ceiling_closed_forms, sequence_invariant
from multigraded.monomial import MAX_GENERATOR_PAIRS, minimalize
from multigraded.systems import CeilingSystem
from multigraded.textio import (
    ParseError,
    fmt_dec,
    fmt_q,
    format_ideal,
    parse_cone,
    parse_ideal,
    parse_region,
    parse_system,
    write_text_atomic,
)


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def run_module(argv, cwd):
    """The CLI in a fresh interpreter, as a user runs it: exit code and stderr."""
    src = str(Path(multigraded.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "multigraded", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


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

    def test_region_epigraph(self):
        r = parse_region("k=2\nepigraph\nbreakpoint 0 1 -1/2\n")
        assert r.facets == (((1, 2), 2),)

    def test_region_kinked_shorthand(self):
        r = parse_region("kinked 0\n")
        assert r.facets == (((2, 1), 2),)

    def test_region_appendix_rejected(self):
        with pytest.raises(ParseError):
            parse_region("appendix 1\n")

    def test_cone_forms(self):
        c = parse_cone("rank 3\nform 1 1\nform 1 -1\nform -1 1\nform -1 -1\n")
        assert c.contains((1, 2, 3)) and not c.contains((1, 2, 2))

    def test_cone_rays(self):
        c = parse_cone("rank 2\nray 1 0\nray 0 1\n")
        assert c.contains((2, 3)) and not c.contains((-1, 0))

    def test_system_tree(self, thm2_file):
        system = parse_system(thm2_file)
        assert system.rank == 2
        assert system.eval((0, 0)).is_unit

    def test_system_bad_children(self, tmp_path):
        bad = tmp_path / "bad.system"
        bad.write_text("intersect\n  pullback 1 0\n")
        with pytest.raises(ParseError):
            parse_system(bad)


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

    def test_invariants_both(self, wedge_file):
        code, out = run_cli(
            ["system", "invariants", str(wedge_file), "--direction", "1",
             "--quantity", "ord0", "--max", "5"]
        )
        assert code == 0
        assert "ord0 geometric = 4/3" in out
        assert "certified = yes" in out

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

    def test_invariants_without_geometry_exit_zero(self, tmp_path):
        # a colon node has no limit body: nothing is verified, so nothing fails
        (tmp_path / "r.region").write_text("k=3\nhalfspace 1 2 3 >= 6\nhalfspace 3 2 1 >= 6\n")
        (tmp_path / "a.ideal").write_text("k=3\n2 0 0\n0 3 0\n0 0 1\n")
        system = tmp_path / "colon.system"
        system.write_text("colon a.ideal\n  region r.region\n")
        code, out = run_cli(
            ["system", "invariants", str(system), "--direction", "1,1",
             "--quantity", "ord0", "--schedule", "doubling", "--max", "3"]
        )
        assert code == 0
        assert "ord0 geometric = unavailable" in out
        assert "ord0 certified = no" in out

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
        # a negative window needs the = form: argparse reads "-2:2" as an option
        readme = Path(__file__).resolve().parents[1] / "README.md"
        line = next(t for t in readme.read_text().splitlines()
                    if t.startswith("multigraded system verify"))
        argv = [str(wedge_file) if a == "sys.system" else a for a in line.split()[1:]]
        assert "--window=-2:2" in argv
        code, out = run_cli(argv)
        assert code == 0 and "violations: 0" in out
        with pytest.raises(SystemExit) as exc, redirect_stderr(io.StringIO()):
            build_parser().parse_args(["system", "verify", "s.system", "--window", "-2:2"])
        assert exc.value.code == 2


class TestRepro:
    def test_thm1(self):
        code, out = run_cli(["repro", "thm1", "--radius", "3", "--max", "3"])
        assert code == 0
        assert out.count("[PASS]") == 3 and "[FAIL]" not in out

    def test_thm2_defaults(self):
        code, out = run_cli(["repro", "thm2", "--kinks", "1", "--radius", "4"])
        assert code == 0
        assert "kink at s0 = 5/4" in out
        assert "gap 1/39" in out

    def test_thm2_grid_failure_exit_1(self):
        # cells with s < r/2 have no boundary crossing: the formula route
        # is inapplicable and the command must report failure
        code, out = run_cli(
            ["repro", "thm2", "--kinks", "1", "--radius", "2",
             "--grid", "2", "3", "1/4", "1/2", "3", "--scan", "1", "2"]
        )
        assert code == 1
        assert out.count("[FAIL]") == 1 and "[FAIL] ord0 grid" in out

    @pytest.mark.parametrize("argv, names", [
        (["--kinks", "0"], "--kinks"), (["--kinks", "-1"], "--kinks"),
        (["--r", "0"], "--r"), (["--r", "-1"], "--r"),
        (["--scan", "2", "1"], "--scan"), (["--scan", "3", "4"], "scan window [3, 4]"),
    ], ids=["kinks 0", "kinks -1", "r 0", "r -1", "scan 2 1", "scan 3 4"])
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

    def test_appendix(self):
        code, out = run_cli(["repro", "appendix", "--kinks", "1", "--samples", "20"])
        assert code == 0
        assert "gauge((1, 0)) = 1" in out
        assert "gauge((0, 1)) = 2" in out

    @pytest.mark.parametrize("samples", ["0", "1", "-1"])
    def test_appendix_too_few_samples_refused_up_front(self, samples, capsys):
        # with fewer than two samples the convexity check has no pair to check
        code, out = run_cli(["repro", "appendix", "--samples", samples])
        err = capsys.readouterr().err
        assert (code, out) == (2, "")
        assert err == f"error: --samples needs at least 2, got {samples}\n"

    def test_appendix_two_samples_check_one_pair(self):
        code, out = run_cli(["repro", "appendix", "--samples", "2"])
        assert code == 0
        assert "[PASS] gauge midpoint-convex on 1 sample pairs" in out



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
        window = [v for v in lattice_window(3, 2) if any(v)]
        assert _thm1_directions(3, 2, 20) == window[::len(window) // 20][:20]


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, ideal_file, wedge_file):
        commands = [
            ["ideal", "info", str(ideal_file), "--decimals"],
            ["system", "invariants", str(wedge_file), "--direction", "1", "--max", "4"],
            ["repro", "thm2", "--kinks", "1", "--radius", "3"],
            ["repro", "appendix", "--kinks", "2", "--samples", "10"],
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
    exponents and a cache keyed by exponent."""

    GOLDEN = [
        (["system", "cones", "c2.system", "--radius", "31"],
         "f7b6730b6d2d0dc70713567fe5f0b3cbb361722af0400203b9cf1720e36737d4"),
        (["system", "cones", "c2.system", "--radius", "32"],
         "335e2a62c6dd93eb80313d6da4842176a5dc369ef2c4a3aa85bb5876a6e24b4c"),
        (["system", "cones", "c3.system", "--radius", "2"],
         "efb8287331504383750caad3646d5e9f61434e838d5e20c28894b531a99b2d45"),
        (["repro", "thm1", "--radius", "4"],
         "3e5d81773a07ae930ec29c6bd9c27878f91c88ec1e70d617f907541be94b993d"),
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
