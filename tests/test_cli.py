from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdakit import cli, combinators, core, families, graphs, scheme
from pdakit.cli import main
from pdakit.core import params, read_pda, validate, write_pda

EX1_TEXT = "pda v1\nK=4 F=4 Z=2 S=4\n* 1 * 3\n1 * 3 *\n* 2 * 4\n2 * 4 *\n"
STRIP_TEXT = "pda v1\nK=4 F=2 Z=1 S=2\n* 1 * 2\n1 * 2 *\n"
BROKEN_TEXT = "pda v1\nK=2 F=1 Z=0 S=1\n1 1\n"


@pytest.fixture
def ex1_file(tmp_path):
    path = tmp_path / "ex1.pda"
    path.write_text(EX1_TEXT)
    return str(path)


def test_build_writes_readable_valid_file(tmp_path, capsys):
    out = tmp_path / "du.pda"
    assert main(["build", "--family", "disjoint-union", "--n", "4", "--a", "1", "--b", "2",
                 "-o", str(out)]) == 0
    p = read_pda(out.read_text())
    assert validate(p).is_valid
    assert params(p).K == 6
    assert "K=6" in capsys.readouterr().out


def test_build_usage_error_on_missing_parameter(tmp_path, capsys):
    out = tmp_path / "x.pda"
    assert main(["build", "--family", "disjoint-union", "--n", "4", "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: family 'disjoint-union' requires --a\n"
    with pytest.raises(SystemExit) as info:
        main(["build", "--family", "nope", "-o", str(out)])
    assert info.value.code == 2


def _never_built(*args):
    raise AssertionError("the family was built")


@pytest.mark.parametrize(
    "family, flags, cells",
    [
        ("disjoint-union", ["--n", "24", "--a", "12", "--b", "12"], 2_704_156**2),
        ("star", ["--m", "5000000"], 5_000_000),
        ("star", ["--m", str(2**22 + 1)], 2**22 + 1),
        # F = C(30, 5) and K = C(30, 8) C(8, 6), clipped at the cap + 1
        ("restricted-combined", ["--n", "30", "--a", "6", "--b", "7", "--t", "2"], 597_713_628_330),
        ("intersection-t", ["--n", str(10**12), "--a", str(10**11), "--b", "3", "--t", "1"], None),
    ],
    ids=["disjoint-union-24-12-12", "star-5000000", "star-past-the-cap", "restricted", "huge-n"],
)
def test_build_refuses_an_array_over_the_cell_cap_before_building_it(
    tmp_path, monkeypatch, capsys, family, flags, cells
):
    monkeypatch.setitem(cli.FAMILIES, family, cli.FAMILIES[family]._replace(build=_never_built))
    out = tmp_path / "big.pda"
    assert main(["build", "--family", family, *flags, "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith(f"error: family {family!r} builds at least ")
    assert captured.err.endswith(f" cells (F x K); the cap is {cli.BUILD_CAP_CELLS}\n")
    if cells is not None:
        assert f" at least {cells} cells " in captured.err


def test_build_refuses_n_squared_past_the_cap_before_any_binomial(tmp_path, monkeypatch, capsys):
    # Every legal subset family has F, K >= n, and 2049^2 > 2^22.
    def no_binomial(*args):
        raise AssertionError("a binomial was computed")

    monkeypatch.setattr(math, "comb", no_binomial)
    monkeypatch.setitem(cli.FAMILIES, "intersection-t", cli.FAMILIES["intersection-t"]._replace(build=_never_built))
    out = tmp_path / "big.pda"
    argv = ["build", "--family", "intersection-t", "--n", "2049", "--a", "1", "--b", "1", "--t", "0"]
    assert main([*argv, "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: family 'intersection-t' builds at least {2049**2} cells (F x K); the cap is {cli.BUILD_CAP_CELLS}\n"
    )
    assert not out.exists()


def test_build_reports_illegal_parameters_before_their_size(tmp_path, capsys):
    # C(100, 60)^2 is far past the cap, but a + b > n is the fault to report.
    argv = ["build", "--family", "disjoint-union", "--n", "100", "--a", "60", "--b", "60"]
    assert main([*argv, "-o", str(tmp_path / "x.pda")]) == 2
    assert capsys.readouterr().err == "error: need a, b >= 1 and a + b <= n, got n=100 a=60 b=60\n"


def test_build_admits_an_array_of_2048_squared_cells(tmp_path, monkeypatch):
    # A star family of 2^22 columns has as many cells as a 2048 x 2048 array.
    built = []

    def trivial_instead(m):
        built.append(m)
        return families.trivial_pda()

    monkeypatch.setitem(cli.FAMILIES, "star", cli.FAMILIES["star"]._replace(build=trivial_instead))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["build", "--family", "star", "--m", str(2**22), "-o", str(tmp_path / "s.pda")]) == 0
    assert built == [2**22] == [cli.BUILD_CAP_CELLS] == [2048 * 2048]


# The flags each family requires, in the order `build` asks for them.
FAMILY_FLAGS = {
    "disjoint-union": "nab",
    "intersection-t": "nabt",
    "restricted-combined": "nabt",
    "trivial": "",
    "star": "m",
}


@pytest.fixture(scope="module")
def build_folder(tmp_path_factory):
    return tmp_path_factory.mktemp("build")


@given(
    family=st.sampled_from(list(FAMILY_FLAGS)),
    values=st.fixed_dictionaries({flag: st.none() | st.integers(-2, 8) for flag in "nabtm"}),
)
@settings(max_examples=200, deadline=None)
def test_build_returns_0_or_2_for_any_family_flags(build_folder, family, values):
    out = build_folder / "built.pda"
    out.unlink(missing_ok=True)
    argv = ["build", "--family", family, "-o", str(out)]
    for flag, value in values.items():
        if value is not None:
            argv += [f"--{flag}", str(value)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    missing = [flag for flag in FAMILY_FLAGS[family] if values[flag] is None]
    if missing:
        assert (code, err.getvalue()) == (2, f"error: family {family!r} requires --{missing[0]}\n")
    elif code == 0:
        assert validate(read_pda(out.read_text())).is_valid
    else:
        assert code == 2 and err.getvalue().startswith("error: need "), argv


def test_build_all_families(tmp_path):
    cases = [
        (["--family", "trivial"], (2, 2, 1, 1)),
        (["--family", "star", "--m", "3"], (3, 1, 0, 3)),
        (["--family", "intersection-t", "--n", "4", "--a", "2", "--b", "2", "--t", "1"], (6, 6, 2, 12)),
        (["--family", "restricted-combined", "--n", "4", "--a", "1", "--b", "2", "--t", "1"], (12, 4, 2, 12)),
    ]
    for flags, expected in cases:
        out = tmp_path / "f.pda"
        assert main(["build", *flags, "-o", str(out)]) == 0
        pr = params(read_pda(out.read_text()))
        assert (pr.K, pr.F, pr.Z, pr.S) == expected


def test_validate_exit_codes(tmp_path, ex1_file, capsys):
    assert main(["validate", ex1_file]) == 0
    assert "valid" in capsys.readouterr().out
    broken = tmp_path / "broken.pda"
    broken.write_text(BROKEN_TEXT)
    assert main(["validate", str(broken)]) == 1
    assert "condition B" in capsys.readouterr().out


def test_validate_unreadable_file(tmp_path):
    bad = tmp_path / "bad.pda"
    bad.write_text("pda v1\nK=1 F=1 Z=0 S=1\nx\n")
    assert main(["validate", str(bad)]) == 1


@pytest.mark.parametrize("command", ["validate", "params"])
def test_binary_file_is_an_invalid_file(tmp_path, command, capsys):
    binary = tmp_path / "binary.pda"
    binary.write_bytes(b"\xff\xfe\x00\x81pda v1\n")
    assert main([command, str(binary)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "text",
    ["pda v1\nK=\u0661 F=1 Z=0 S=1\n1\n", "pda v1\nK=1 F=1 Z=0 S=1\n" + "9" * 5000 + "\n"],
    ids=["foreign-digit", "long-integer"],
)
def test_validate_rejects_foreign_and_overlong_digits(tmp_path, text, capsys):
    f = tmp_path / "digits.pda"
    f.write_text(text, encoding="utf-8")
    assert main(["validate", str(f)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--family", "trivial", "-o"],
        ["table", "III", "-o"],
    ],
    ids=["build", "table"],
)
def test_unwritable_output_is_a_usage_error(tmp_path, argv, capsys):
    target = tmp_path / "missing-dir" / "out"
    assert main([*argv, str(target)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {target}")
    assert main([*argv, str(tmp_path)]) == 2  # a directory, not a file


def test_combine_to_unwritable_output_is_a_usage_error(tmp_path, ex1_file):
    target = tmp_path / "missing-dir" / "out.pda"
    assert main(["combine", "--mode", "star", ex1_file, ex1_file, "-o", str(target)]) == 2


def test_params_prints_exact_rationals(ex1_file, capsys):
    assert main(["params", ex1_file]) == 0
    out = capsys.readouterr().out
    assert "K=4 F=4 Z=2 S=4" in out
    assert "M/N=1/2" in out


def test_combine_same_colors_to_example1(tmp_path, ex1_file, capsys):
    strip = tmp_path / "strip.pda"
    strip.write_text(STRIP_TEXT)
    out = tmp_path / "combined.pda"
    assert main(["combine", "--mode", "same-colors", str(strip), str(strip), "-o", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "DIVERGES" in printed  # the published (K,F,Z,S) claim disagrees
    assert main(["equiv", str(out), ex1_file]) == 0


def test_combine_star_and_cycle(tmp_path):
    triv = tmp_path / "triv.pda"
    assert main(["build", "--family", "trivial", "-o", str(triv)]) == 0
    star_out = tmp_path / "star.pda"
    assert main(["combine", "--mode", "star", str(triv), str(triv), "-o", str(star_out)]) == 0
    pr = params(read_pda(star_out.read_text()))
    assert (pr.K, pr.F, pr.Z, pr.S) == (4, 4, 3, 1)

    cyc_out = tmp_path / "cyc.pda"
    assert main(["combine", "--mode", "cycle", "--m", "3", str(triv), "-o", str(cyc_out)]) == 0
    pr = params(read_pda(cyc_out.read_text()))
    assert (pr.K, pr.F, pr.Z, pr.S) == (6, 6, 3, 9)


def test_combine_tensor(tmp_path):
    triv = tmp_path / "triv.pda"
    main(["build", "--family", "trivial", "-o", str(triv)])
    out = tmp_path / "tens.pda"
    assert main(["combine", "--mode", "tensor", str(triv), str(triv), "-o", str(out)]) == 0
    assert validate(read_pda(out.read_text())).is_valid


def test_combine_usage_errors(tmp_path, ex1_file):
    out = tmp_path / "o.pda"
    assert main(["combine", "--mode", "star", ex1_file, "-o", str(out)]) == 2
    assert main(["combine", "--mode", "cycle", ex1_file, "-o", str(out)]) == 2  # missing --m
    assert main(["combine", "--mode", "cycle", "--m", "4", ex1_file, "-o", str(out)]) == 2


def test_same_colors_takes_exactly_two_files(tmp_path, ex1_file, capsys):
    out = tmp_path / "o.pda"
    assert main(["combine", "--mode", "same-colors", ex1_file, ex1_file, ex1_file, "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: same-colors takes exactly two input files\n"
    assert not out.exists()


def test_same_colors_color_mismatch_is_one_short_line_whatever_s_is(tmp_path, capsys):
    # A 1 x 100,000 star array holds colors 1..100000, the trivial array only 1.
    star, triv, out = tmp_path / "star.pda", tmp_path / "triv.pda", tmp_path / "o.pda"
    star.write_text(write_pda(families.star_pda(100_000)))
    triv.write_text(write_pda(families.trivial_pda()))
    for files, side in (([star, triv], "first"), ([triv, star], "second")):
        assert main(["combine", "--mode", "same-colors", *map(str, files), "-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        counts = "100000 colors vs 1" if side == "first" else "1 colors vs 100000"
        assert captured.err == f"error: color sets differ: {counts}; 2 is only in the {side}\n"
        assert len(captured.err.encode()) < 200
    assert not out.exists()


@pytest.mark.parametrize(
    "operator, argv, cells",
    [
        ("cycle_product", ["--mode", "cycle", "--m", "6000", "trivial"], 6000**2 * 4),
        ("star_product", ["--mode", "star", *["trivial"] * 12], 4**12),
    ],
    ids=["cycle-6000", "star-of-12"],
)
def test_combine_refuses_an_array_over_the_cell_cap_before_building_it(
    tmp_path, monkeypatch, capsys, operator, argv, cells
):
    trivial = tmp_path / "trivial.pda"
    trivial.write_text(write_pda(families.trivial_pda()))
    monkeypatch.setattr(combinators, operator, _never_built)
    out = tmp_path / "big.pda"
    argv = [str(trivial) if arg == "trivial" else arg for arg in argv]
    assert main(["combine", *argv, "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    mode = argv[1]
    assert captured.err == f"error: mode {mode!r} builds up to {cells} cells (F x K); the cap is {cli.BUILD_CAP_CELLS}\n"


def test_combine_admits_an_array_of_2048_squared_cells(tmp_path, monkeypatch):
    # The star product of eleven trivial arrays is 2048 x 2048.
    trivial = tmp_path / "trivial.pda"
    trivial.write_text(write_pda(families.trivial_pda()))
    built = []

    def trivial_instead(colorings):
        built.append(len(colorings))
        return graphs.pda_to_coloring(families.trivial_pda())

    monkeypatch.setattr(combinators, "star_product", trivial_instead)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["combine", "--mode", "star", *[str(trivial)] * 11, "-o", str(tmp_path / "s.pda")]) == 0
    assert built == [11] and 4**11 == cli.BUILD_CAP_CELLS


def test_combine_rejects_invalid_input(tmp_path):
    broken = tmp_path / "broken.pda"
    broken.write_text(BROKEN_TEXT)
    out = tmp_path / "o.pda"
    assert main(["combine", "--mode", "star", str(broken), str(broken), "-o", str(out)]) == 1


def test_simulate_exhaustive(ex1_file, capsys):
    assert main(["simulate", ex1_file, "--files", "2", "--exhaustive"]) == 0
    out = capsys.readouterr().out
    assert out.count(": pass") == 16
    assert "16/16 demands decoded" in out
    assert "broadcasts per demand: 4" in out


def test_simulate_single_demand(ex1_file, capsys):
    assert main(["simulate", ex1_file, "--files", "2", "--demand", "1,2,2,1"]) == 0
    assert "demand 1,2,2,1: pass" in capsys.readouterr().out


def test_simulate_seeded_sample_when_space_is_large(ex1_file, capsys):
    assert main(["simulate", ex1_file, "--files", "9", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert out.count(": pass") == 200  # 9^4 > 4096, so the seeded sample runs


def test_simulate_runs_every_demand_exactly_when_there_are_at_most_4096(monkeypatch):
    monkeypatch.setattr(scheme, "exhaustive_demands", lambda n_files, users: "exhaustive")
    monkeypatch.setattr(scheme, "iter_random_demands", lambda n_files, users, count, seed: "random")
    args = argparse.Namespace(demand=None, exhaustive=False, seed=0)
    cases = [(n, k, n**k <= 4096) for n, k in itertools.product(range(1, 71), range(1, 21))]
    # a 1 x 2^22 array, where N^K would take seconds to compute at N = 24966
    for n_files, users, exhaustive in [*cases, (1, 2**22, True), (24966, 2**22, False)]:
        args.files = n_files
        chosen = cli._demands_for(argparse.Namespace(K=users), args)
        assert chosen == ("exhaustive" if exhaustive else "random"), (n_files, users)


def test_simulate_draws_the_seeded_sample_one_demand_at_a_time(ex1_file, monkeypatch, capsys):
    real_roundtrip, drawn = scheme.verify_roundtrip, []

    def noting_roundtrip(p, lib, demand):
        drawn.append(demand)
        return real_roundtrip(p, lib, demand)

    monkeypatch.setattr(scheme, "verify_roundtrip", noting_roundtrip)
    monkeypatch.setattr(scheme, "random_demands", None)  # the CLI never builds the list
    assert main(["simulate", ex1_file, "--files", "9", "--seed", "5"]) == 0
    monkeypatch.undo()
    expected = scheme.random_demands(9, 4, 200, 5)
    assert drawn == expected
    # The text the list-building CLI printed, byte for byte.
    lines = [f"demand {','.join(map(str, d))}: pass\n" for d in expected]
    assert capsys.readouterr().out == "".join(lines) + "200/200 demands decoded; broadcasts per demand: 4; rate R=1\n"


def test_simulate_rejects_invalid_array(tmp_path):
    broken = tmp_path / "broken.pda"
    broken.write_text(BROKEN_TEXT)
    assert main(["simulate", str(broken), "--files", "2"]) == 1


def test_simulate_checks_its_array_once(ex1_file, monkeypatch):
    scans = []
    real_validate = core.validate

    def counting_validate(p):
        scans.append(p)
        return real_validate(p)

    monkeypatch.setattr(core, "validate", counting_validate)
    monkeypatch.setattr(cli, "validate", counting_validate)
    assert main(["simulate", ex1_file, "--files", "2", "--demand", "1,2,2,1"]) == 0
    assert len(scans) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["combine", "--mode", "same-colors", "{ex1}", "{ex1}"],
        ["combine", "--mode", "star", "{strip}", "{strip}", "{ex1}"],
        ["combine", "--mode", "tensor", "{strip}", "{ex1}"],
        ["combine", "--mode", "cycle", "--m", "3", "{ex1}"],
        ["equiv", "{ex1}", "{strip}"],
        ["equiv", "{ex1}", "{ex1}"],
    ],
    ids=["same-colors", "star", "tensor", "cycle", "equiv-inequivalent", "equiv-equivalent"],
)
def test_pipelines_scan_each_object_at_most_once(tmp_path, scans, argv):
    (tmp_path / "ex1.pda").write_text(EX1_TEXT)
    (tmp_path / "strip.pda").write_text(STRIP_TEXT)
    argv = [arg.format(ex1=tmp_path / "ex1.pda", strip=tmp_path / "strip.pda") for arg in argv]
    if argv[0] == "combine":
        argv += ["-o", str(tmp_path / "out.pda")]
    assert main(argv) in (0, 1)
    assert scans
    assert len({id(obj) for obj in scans}) == len(scans)


def test_build_restricted_combined_scans_its_array_once(tmp_path, scans, capsys):
    out = tmp_path / "rc.pda"
    argv = ["build", "--family", "restricted-combined", "--n", "5", "--a", "2", "--b", "2", "--t", "1"]
    assert main([*argv, "-o", str(out)]) == 0
    # One grid scan, inside the family; params reuses its report and no strength scan runs.
    assert len(scans) == 1 and isinstance(scans[0], core.PdaArray)
    assert capsys.readouterr().out == f"wrote {out}: K=30 F=5 Z=3 S=30 g=2 M/N=3/5 R=6\n"
    assert read_pda(out.read_text()) == scans[0]


def test_simulate_exhaustive_streams_its_demands(ex1_file, monkeypatch):
    real_demands, real_roundtrip = scheme.exhaustive_demands, scheme.verify_roundtrip
    yielded, seen_at_first_run = [], []

    def counting_demands(n_files, users):
        for d in real_demands(n_files, users):
            yielded.append(d)
            yield d

    def noting_roundtrip(p, lib, demand):
        if not seen_at_first_run:
            seen_at_first_run.append(len(yielded))
        return real_roundtrip(p, lib, demand)

    monkeypatch.setattr(scheme, "exhaustive_demands", counting_demands)
    monkeypatch.setattr(scheme, "verify_roundtrip", noting_roundtrip)
    assert main(["simulate", ex1_file, "--files", "2", "--exhaustive"]) == 0
    assert seen_at_first_run == [1]
    assert len(yielded) == 16


def test_simulate_exits_3_when_a_round_trip_fails(ex1_file, monkeypatch, capsys):
    monkeypatch.setattr(scheme, "verify_roundtrip", lambda p, lib, demand: False)
    assert main(["simulate", ex1_file, "--files", "2", "--demand", "1,2,2,1"]) == 3
    captured = capsys.readouterr()
    assert captured.out.startswith("demand 1,2,2,1: FAIL\n0/1 demands decoded")
    assert captured.err == "decoding failed on a validated array: validator invariant breached\n"


_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _INT_DIGITS, reason="this Python converts integers of any length")
def test_simulate_refuses_a_demand_token_longer_than_int_converts(ex1_file, capsys):
    demand = "1" * (_INT_DIGITS + 1) + ",1,1,1"
    assert main(["simulate", ex1_file, "--files", "2", "--demand", demand]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad --demand ") and "Traceback" not in err


# Bytes of stderr a usage or format error may take whatever the length of the text it echoes.
ECHO_BOUND_BYTES = 512


@given(
    piece=st.text(st.characters(codec="utf-8", exclude_categories=("Cs", "Zs", "Zl", "Zp", "Cc")), min_size=1, max_size=4),
    repeats=st.integers(min_value=1, max_value=25_000),
)
@settings(max_examples=40, deadline=None)
def test_over_long_tokens_and_demands_keep_stderr_short(piece, repeats, tmp_path_factory):
    text = piece * repeats
    folder = tmp_path_factory.mktemp("echo")
    (folder / "token.pda").write_text(f"pda v1\nK=2 F=1 Z=0 S=1\n1 {text}\n", encoding="utf-8")
    (folder / "ex1.pda").write_text(EX1_TEXT)
    simulate = ["simulate", str(folder / "ex1.pda"), "--files", "2"]
    # The last demand matches the pattern and fails int() instead, where int() has a limit.
    for argv in (["validate", str(folder / "token.pda")], [*simulate, f"--demand={text}"],
                 [*simulate, f"--demand={'9' * 100_000},1"]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(argv) in (0, 1, 2)
        assert len(err.getvalue().encode()) < ECHO_BOUND_BYTES, (argv[0], len(text))


def test_an_over_long_demand_is_echoed_clipped_with_its_length(ex1_file, capsys):
    assert main(["simulate", ex1_file, "--files", "2", "--demand", "x" * 5000]) == 2
    clipped = "x" * core.ECHO_WIDTH + "..."
    assert capsys.readouterr().err == (
        f"error: bad --demand {clipped!r} (5000 characters): expected comma-separated ASCII decimal integers\n"
    )


def test_simulate_usage_errors(ex1_file):
    assert main(["simulate", ex1_file, "--files", "0"]) == 2
    assert main(["simulate", ex1_file, "--files", "2", "--demand", "1,2", "--exhaustive"]) == 2
    assert main(["simulate", ex1_file, "--files", "2", "--demand", "1,2,oops,1"]) == 2


@pytest.mark.parametrize("demand", ["\u0661,\u0662,1,2", "1_0,1,1,1", "+1,1,1,1", " 1,1,1,1", "1,1,1,1\n"])
def test_simulate_takes_ascii_decimal_demands_only(ex1_file, demand, capsys):
    assert main(["simulate", ex1_file, "--files", "2", "--demand", demand]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad --demand {demand!r}: expected comma-separated ASCII decimal integers\n"


def test_simulate_refuses_a_library_over_the_cap_before_drawing_it(ex1_file, monkeypatch, capsys):
    def no_library(*args):
        raise AssertionError("the library was drawn")

    monkeypatch.setattr(scheme.FileLibrary, "random", no_library)
    assert main(["simulate", ex1_file, "--files", str(10**12)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --files 1000000000000 needs a library of 4000000000000 bytes")
    with pytest.raises(SystemExit):
        main(["simulate", "--help"])
    assert f"{cli.LIBRARY_CAP_BYTES} bytes" in capsys.readouterr().out


def test_simulate_cap_counts_each_file_object(tmp_path, monkeypatch, capsys):
    # One packet per file: the content alone is 1 byte a file, so at 2^20 files
    # the bytes objects and their tuple slots are most of what would be drawn.
    row = tmp_path / "row.pda"
    row.write_text("pda v1\nK=3 F=1 Z=0 S=3\n1 2 3\n")
    admitted = cli.LIBRARY_CAP_BYTES // (1 + cli.FILE_OVERHEAD_BYTES)
    assert main(["simulate", str(row), "--files", str(admitted), "--demand", "1,2,1"]) == 0
    assert capsys.readouterr().out.startswith("demand 1,2,1: pass\n")

    def no_library(*args):
        raise AssertionError("the library was drawn")

    monkeypatch.setattr(scheme.FileLibrary, "random", no_library)
    for files in (admitted + 1, 2**20):
        assert main(["simulate", str(row), "--files", str(files), "--demand", "1,2,1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --files {files} needs a library of {files} bytes, "
            f"{files * (1 + cli.FILE_OVERHEAD_BYTES)} with {cli.FILE_OVERHEAD_BYTES} per file object; "
            f"the cap is {cli.LIBRARY_CAP_BYTES}\n"
        )


@pytest.mark.parametrize(
    "extra", [["--demand", ""], ["--demand", "", "--exhaustive"]], ids=["alone", "with-exhaustive"]
)
def test_simulate_rejects_an_empty_demand(ex1_file, extra, capsys):
    assert main(["simulate", ex1_file, "--files", "2", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.fixture(scope="module")
def simulate_files(tmp_path_factory):
    """Small valid and invalid array files, one path per name."""
    folder = tmp_path_factory.mktemp("simulate")
    texts = {"ex1": EX1_TEXT, "strip": STRIP_TEXT, "broken": BROKEN_TEXT,
             "trivial": "pda v1\nK=2 F=2 Z=1 S=1\n* 1\n1 *\n"}
    paths = {}
    for name, text in texts.items():
        paths[name] = folder / f"{name}.pda"
        paths[name].write_text(text)
    return {name: str(path) for name, path in paths.items()}


DEMAND_PIECES = st.sampled_from(
    ["1", "2", "5", "0", "-1", "9" * 30, "9" * 5000, ",", " ", "x", "1_0", "\u0661", ""]
)


@given(
    name=st.sampled_from(["ex1", "strip", "broken", "trivial"]),
    demand=st.none() | st.text(max_size=12) | st.lists(DEMAND_PIECES, max_size=9).map("".join),
    files=st.integers(min_value=0, max_value=5) | st.integers(min_value=cli.LIBRARY_CAP_BYTES + 1, max_value=10**30),
    seed=st.integers(min_value=-(2**70), max_value=2**70),
    exhaustive=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_simulate_returns_an_exit_code_for_any_demand(simulate_files, name, demand, files, seed, exhaustive):
    argv = ["simulate", simulate_files[name], "--files", str(files), "--seed", str(seed)]
    if demand is not None:
        argv += ["--demand", demand]
    if exhaustive:
        argv.append("--exhaustive")
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own usage error
        assert exc.code == 2
    else:
        assert code in (0, 1, 2, 3)


def _relabeled(text: str, rnd: random.Random) -> str:
    """The array in text under a seeded row, column and color relabeling, as text."""
    p = read_pda(text)
    rows, cols, colors = list(range(p.F)), list(range(p.K)), [None, *range(1, p.S + 1)]
    rnd.shuffle(rows)
    rnd.shuffle(cols)
    colors[1:] = rnd.sample(colors[1:], p.S)
    return write_pda(core.PdaArray([[colors[p.grid[j][k] or 0] for k in cols] for j in rows]))


def _spliced(text: str, at: int, piece: str) -> str:
    """text with one piece inserted at a position, or its tail cut there when piece is empty."""
    at %= len(text) + 1
    return text[:at] if piece == "" else text[:at] + piece + text[at:]


VALID_TEXTS = [
    EX1_TEXT,
    STRIP_TEXT,
    "pda v1\nK=2 F=2 Z=1 S=1\n* 1\n1 *\n",
    write_pda(graphs.coloring_to_pda(families.disjoint_union_coloring(4, 1, 2))),
    write_pda(graphs.coloring_to_pda(families.intersection_t_coloring(4, 2, 2, 1))),
    write_pda(graphs.coloring_to_pda(
        combinators.star_product([graphs.pda_to_coloring(families.trivial_pda())] * 3)
    )),
]
ARRAY_TEXTS = (
    st.sampled_from([*VALID_TEXTS, BROKEN_TEXT])
    | st.builds(_relabeled, st.sampled_from(VALID_TEXTS), st.randoms(use_true_random=False))
    | st.builds(_spliced, st.sampled_from(VALID_TEXTS), st.integers(0, 400),
                st.sampled_from(["", "*", "1", "9", " ", "\n", "x", "0", "99999"]))
    | st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)
)


@pytest.fixture(scope="module")
def fuzz_folder(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(
    command=st.sampled_from(["equiv", "validate", "params"]),
    texts=st.lists(ARRAY_TEXTS, min_size=2, max_size=2),
    budget=st.none() | st.integers(min_value=-2, max_value=10**6),
)
@settings(max_examples=300, deadline=None)
def test_equiv_validate_and_params_return_an_exit_code_for_any_file(fuzz_folder, command, texts, budget):
    paths = [fuzz_folder / "first.pda", fuzz_folder / "second.pda"]
    for path, text in zip(paths, texts):
        path.write_text(text, encoding="utf-8")
    argv = [command, str(paths[0])]
    if command == "equiv":
        argv.append(str(paths[1]))
        if budget is not None:
            argv += ["--budget", str(budget)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3)


@pytest.fixture(scope="module")
def combine_files(tmp_path_factory):
    """Small valid arrays, an invalid and a malformed one, and a missing path, by name."""
    folder = tmp_path_factory.mktemp("combine")
    texts = {"ex1": EX1_TEXT, "strip": STRIP_TEXT, "trivial": "pda v1\nK=2 F=2 Z=1 S=1\n* 1\n1 *\n",
             "du-4-1-2": VALID_TEXTS[3], "broken": BROKEN_TEXT, "malformed": "pda v1\nK=2 F=1 Z=0 S=1\n1 x\n"}
    paths = {"missing": str(folder / "missing.pda"), "output": str(folder / "out.pda")}
    for name, text in texts.items():
        (folder / f"{name}.pda").write_text(text)
        paths[name] = str(folder / f"{name}.pda")
    return paths


@given(
    mode=st.sampled_from(["same-colors", "star", "tensor", "cycle"]),
    # Cycle lengths past 2^11 are refused for every input here (each has at least
    # 4 cells); the band just under that builds up to 2048 x 2048 and is left out
    # to keep the run short.
    m=st.none() | st.integers(-2, 12) | st.integers(2**11, 10**9),
    names=st.lists(st.sampled_from(["ex1", "strip", "trivial", "du-4-1-2", "broken", "malformed", "missing"]),
                   max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_combine_returns_an_exit_code_for_any_inputs(combine_files, mode, m, names):
    argv = ["combine", "--mode", mode, *(combine_files[name] for name in names), "-o", combine_files["output"]]
    if m is not None:
        argv += ["--m", str(m)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage error: no input file
            assert exc.code == 2 and not names
            return
    assert code in (0, 1, 2, 3)


def test_table_output(capsys, tmp_path):
    assert main(["table", "VIII"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("label,K,one_minus_MN,F,R,paper_value,divergence")
    assert "524288" in out

    target = tmp_path / "t.csv"
    assert main(["table", "IX", "-o", str(target)]) == 0
    assert target.read_text().count("\n") == 4


def test_table_estimate_flag(capsys):
    assert main(["table", "V", "--estimate"]) == 0
    assert ",f_estimate" in capsys.readouterr().out


def test_equiv_exit_codes(tmp_path, ex1_file, capsys):
    other = tmp_path / "other.pda"
    other.write_text(EX1_TEXT)
    assert main(["equiv", ex1_file, str(other)]) == 0
    assert "equivalent" in capsys.readouterr().out

    strip = tmp_path / "strip.pda"
    strip.write_text(STRIP_TEXT)
    assert main(["equiv", ex1_file, str(strip)]) == 1
    assert "inequivalent" in capsys.readouterr().out

    assert main(["equiv", ex1_file, str(other), "--budget", "0"]) == 2
    assert "budget_exhausted" in capsys.readouterr().out


def test_equiv_decides_a_1024_square_star_product(tmp_path, capsys):
    # The search keeps its stack in a list, so F + K = 2048 levels raise nothing.
    trivial = graphs.pda_to_coloring(families.trivial_pda())
    p = graphs.coloring_to_pda(combinators.star_product([trivial] * 10))
    rotated = core.PdaArray(p.grid[1:] + p.grid[:1])
    assert (p.F, p.K) == (1024, 1024) and rotated != p
    paths = [tmp_path / "star.pda", tmp_path / "rotated.pda"]
    for path, q in zip(paths, (p, rotated)):
        path.write_text(write_pda(q))
    assert main(["equiv", *map(str, paths)]) == 0
    assert capsys.readouterr().out.strip() == "equivalent"


def test_argparse_usage_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["table", "XII"])
    assert info.value.code == 2


def test_written_files_reread_and_revalidate(tmp_path):
    out = tmp_path / "a.pda"
    main(["build", "--family", "disjoint-union", "--n", "5", "--a", "1", "--b", "2", "-o", str(out)])
    p = read_pda(out.read_text())
    assert validate(p).is_valid
    assert write_pda(p) == out.read_text()


def test_the_cli_runs_as_a_process(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "pdakit.cli", *argv], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=60)

    built = run("build", "--family", "trivial", "-o", "t.pda")
    assert (built.returncode, built.stderr) == (0, "")
    shown = run("params", "t.pda")
    assert (shown.returncode, shown.stdout, shown.stderr) == (0, "K=2 F=2 Z=1 S=1 g=1 M/N=1/2 R=1/2\n", "")
    refused = run("simulate", "t.pda", "--files", "0")
    assert (refused.returncode, refused.stdout, refused.stderr) == (2, "", "error: --files must be at least 1\n")
