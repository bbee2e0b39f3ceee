from __future__ import annotations

import pytest

from pdakit import cli, core
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


def test_build_usage_error_on_missing_parameter(tmp_path):
    out = tmp_path / "x.pda"
    assert main(["build", "--family", "disjoint-union", "--n", "4", "-o", str(out)]) == 2


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


def test_simulate_usage_errors(ex1_file):
    assert main(["simulate", ex1_file, "--files", "0"]) == 2
    assert main(["simulate", ex1_file, "--files", "2", "--demand", "1,2", "--exhaustive"]) == 2
    assert main(["simulate", ex1_file, "--files", "2", "--demand", "1,2,oops,1"]) == 2


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
