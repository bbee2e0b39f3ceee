"""A fixed `pdakit` session, pinned byte for byte in tests/golden/cli_session.txt.

Each command runs through `cli.main` in one temporary folder with relative
paths; the record holds its argv, exit code, stdout, stderr and the text of
every file it wrote.  After a deliberate change of output, regenerate with
`PYTHONPATH=src python tests/test_cli_session.py` and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import os
import shlex
from pathlib import Path

from pdakit.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_session.txt"

# Input files no command here writes: a strip whose self-combination is the
# 4x4 worked example, and an array that breaks conditions B and C.
INPUTS = {
    "strip.pda": "pda v1\nK=4 F=2 Z=1 S=2\n* 1 * 2\n1 * 2 *\n",
    "broken.pda": "pda v1\nK=2 F=1 Z=0 S=1\n1 1\n",
}

SESSION = [
    # every family, one range error and one over-cap refusal
    "build --family trivial -o trivial.pda",
    "build --family disjoint-union --n 4 --a 1 --b 2 -o du.pda",
    "build --family intersection-t --n 4 --a 2 --b 2 --t 1 -o it.pda",
    "build --family restricted-combined --n 4 --a 1 --b 2 --t 1 -o rc.pda",
    "build --family star --m 3 -o star.pda",
    "build --family intersection-t --n 4 --a 2 --b 2 --t 3 -o range.pda",
    "build --family star --m 5000000 -o huge.pda",
    # every combine mode with its usage errors
    "combine --mode same-colors strip.pda strip.pda -o sc.pda",
    "combine --mode same-colors trivial.pda -o sc1.pda",
    "combine --mode same-colors trivial.pda trivial.pda trivial.pda -o sc3.pda",
    "combine --mode star trivial.pda star.pda -o st.pda",
    "combine --mode star trivial.pda -o st1.pda",
    "combine --mode tensor trivial.pda trivial.pda -o te.pda",
    "combine --mode tensor strip.pda sc.pda -o te2.pda",
    "combine --mode tensor trivial.pda star.pda -o te3.pda",
    "combine --mode tensor trivial.pda -o te1.pda",
    "combine --mode cycle --m 3 trivial.pda -o cy.pda",
    "combine --mode cycle trivial.pda -o cy1.pda",
    "combine --mode cycle --m 4 trivial.pda -o cy4.pda",
    "combine --mode cycle --m 3 trivial.pda trivial.pda -o cy2.pda",
    "combine --mode cycle --m 6000 trivial.pda -o cybig.pda",
    "combine --mode star trivial.pda broken.pda -o stb.pda",
    # validate and params on a valid and a broken file
    "validate rc.pda",
    "validate broken.pda",
    "params cy.pda",
    "params broken.pda",
    # simulate with --demand, the default demands and --exhaustive
    "simulate te.pda --files 2 --demand 1,2,2,1,1,2,2,1",
    "simulate cy.pda --files 5 --seed 4",
    "simulate trivial.pda --files 2 --exhaustive",
    # all three equiv outcomes
    "equiv sc.pda sc.pda",
    "equiv sc.pda strip.pda",
    "equiv sc.pda sc.pda --budget 0",
    "table III",
    "table VIII",
    "table IX --estimate",
]


def _snapshot(folder: Path) -> dict[str, str]:
    return {path.name: path.read_text() for path in sorted(folder.iterdir())}


def run_session(folder: Path) -> str:
    """Run SESSION in ``folder`` (made the working directory meanwhile) and render its record."""
    for name, text in INPUTS.items():
        (folder / name).write_text(text)
    lines = []
    cwd = os.getcwd()
    os.chdir(folder)
    try:
        for command in SESSION:
            before = _snapshot(folder)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(shlex.split(command))
            lines += [f"$ pdakit {command}", f"exit {code}"]
            for label, stream in (("stdout", out), ("stderr", err)):
                lines += [f"--- {label}", *stream.getvalue().splitlines()]
            for name, text in _snapshot(folder).items():
                if before.get(name) != text:
                    lines += [f"--- wrote {name}", *text.splitlines()]
            lines.append("")
    finally:
        os.chdir(cwd)
    return "\n".join(lines)


def test_cli_session_matches_golden(tmp_path):
    assert run_session(tmp_path) == GOLDEN.read_text()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as folder:
        GOLDEN.write_text(run_session(Path(folder)))
    print(f"wrote {GOLDEN}")
