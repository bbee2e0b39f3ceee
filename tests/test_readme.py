"""README.md's Python example runs as written, and prints what its comments say."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_python_example_runs_and_prints_its_comments():
    (example,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, str(README), "exec"), {})  # its own asserts check the round trip
    promised = re.findall(r"^print\(.*\)\s+# (.*)$", example, re.MULTILINE)
    assert promised and out.getvalue().splitlines() == promised
