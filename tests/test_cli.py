from __future__ import annotations

import contextlib
import io

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
    assert main(["combine", "--mode", "cycle", "--m", "4", ex1_file, "-o", str(out)]) == 1


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


def test_simulate_usage_errors(ex1_file):
    assert main(["simulate", ex1_file, "--files", "0"]) == 2
    assert main(["simulate", ex1_file, "--files", "2", "--demand", "1,2", "--exhaustive"]) == 2
    assert main(["simulate", ex1_file, "--files", "2", "--demand", "1,2,oops,1"]) == 2


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
