"""README.md's examples run as written, and print what their comments say."""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

from pdakit import cli
from pdakit.core import PdaArray
from pdakit.families import restricted_combined_family
from pdakit.graphs import pda_to_coloring

README = Path(__file__).parent.parent / "README.md"


def test_readme_python_example_runs_and_prints_its_comments():
    (example,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, str(README), "exec"), {})  # its own asserts check the round trip
    promised = re.findall(r"^print\(.*\)\s+# (.*)$", example, re.MULTILINE)
    assert promised and out.getvalue().splitlines() == promised


def test_readme_cli_examples_exit_0_and_params_prints_its_comment(tmp_path, monkeypatch):
    (block,) = re.findall(r"^Examples:\n\n```sh\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)
    monkeypatch.chdir(tmp_path)  # the examples write their files to the working directory
    checked = 0
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        program, *argv = shlex.split(command)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert (program, cli.main(argv)) == ("pdakit", 0), line
        if argv[0] == "params":
            # "..." in the comment stands for any text
            pattern = ".*".join(re.escape(part.strip()) for part in comment.split("..."))
            assert re.fullmatch(pattern, out.getvalue().strip()), (line, out.getvalue())
            checked += 1
    assert checked == 1


def test_readme_claim_pda_to_coloring_never_reads_the_array_index():
    assert "`pda_to_coloring` walks the grid on its own and never reads the array's\nindex" in README.read_text()
    p = restricted_combined_family(5, 1, 2, 1)
    blind = PdaArray(p.grid)
    # Any read of the colored-cell index or the star counts now fails.
    object.__setattr__(blind, "_classes", None)
    object.__setattr__(blind, "_stars", None)
    g = pda_to_coloring(blind)
    assert g == pda_to_coloring(p) and g.triples == pda_to_coloring(p).triples
    assert "color_cells" not in vars(blind) and "star_rows" not in vars(blind)
