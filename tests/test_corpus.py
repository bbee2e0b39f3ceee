"""Every family and combine mode on a fixed corpus, pinned by one sha256 per group
in tests/golden/corpus.txt.

A case's outcome is the `write_pda` text of the array it builds plus the repr
of ``list(legend.items())``, or the type and text of the error it raises; a
group's digest hashes each case's key and outcome in order.  After a
deliberate change of output, regenerate the file with

    PYTHONPATH=src python tests/test_corpus.py [--against OTHER_SRC]

and review the diff.  It prints each group whose digest moved; with
``--against``, the path of another tree's ``src`` folder, it also names the
first case of each group whose outcome differs between that tree and this one.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable, Iterator

from conftest import STRIP_ROWS, build_family, family_params

from pdakit import cli
from pdakit.analytics import ParameterError
from pdakit.combinators import MODES, CombineError, combine
from pdakit.core import PdaArray, PdaError, write_pda
from pdakit.graphs import GraphError

GOLDEN = Path(__file__).parent / "golden" / "corpus.txt"

ERRORS = (ParameterError, CombineError, PdaError, GraphError)


def _bases() -> dict[str, PdaArray]:
    """Five valid bases: two of them share S = 2, so same-colors joins more than a base with itself."""
    return {
        "trivial": build_family("trivial", ()),
        "strip": PdaArray(STRIP_ROWS),
        "star(2)": build_family("star", (2,)),
        "disjoint-union(4,1,2)": build_family("disjoint-union", (4, 1, 2)),
        "intersection-t(4,2,2,1)": build_family("intersection-t", (4, 2, 2, 1)),
    }


def _mode_cases(mode: str) -> Iterator[tuple[str, Callable[[], PdaArray]]]:
    bases = _bases()
    if mode == "cycle":
        for (name, p), m in itertools.product(bases.items(), (2, 3, 6)):
            yield f"{name} m={m}", lambda p=p, m=m: combine(mode, [p], m)
    else:
        for (n1, p1), (n2, p2) in itertools.product(bases.items(), repeat=2):
            yield f"{n1} x {n2}", lambda p1=p1, p2=p2: combine(mode, [p1, p2])


def corpus() -> Iterator[tuple[str, Iterator[tuple[str, Callable[[], PdaArray]]]]]:
    """(group, its (key, build) cases): each family by name, then each combine mode."""
    for name in cli.FAMILIES:
        yield name, ((f"{name}{values}", lambda v=values, n=name: build_family(n, v)) for values in family_params(name))
    for mode in MODES:
        yield f"combine {mode}", _mode_cases(mode)


def outcome(build: Callable[[], PdaArray]) -> str:
    try:
        p = build()
    except ERRORS as exc:
        return f"{type(exc).__name__}: {exc}\n"
    return write_pda(p) + repr(None if p.legend is None else list(p.legend.items())) + "\n"


def case_digests() -> dict[str, list[tuple[str, str]]]:
    """Per group, each case's key and the sha256 of its outcome, in corpus order."""
    return {group: [(key, hashlib.sha256(outcome(build).encode()).hexdigest()) for key, build in cases]
            for group, cases in corpus()}


def corpus_lines(digests: dict[str, list[tuple[str, str]]]) -> str:
    """One line per group: its name, its case count and the sha256 over its keys and case digests."""
    lines = []
    for group, cases in digests.items():
        h = hashlib.sha256()
        for key, digest in cases:
            h.update(f"{key} {digest}\n".encode())
        lines.append(f"{group}: {len(cases)} cases {h.hexdigest()}\n")
    return "".join(lines)


def test_corpus_matches_golden():
    assert corpus_lines(case_digests()) == GOLDEN.read_text()


def _first_moved(ours: list, theirs: list) -> str:
    """The key of the first case whose key or digest differs, or of the first case only one side has."""
    for i, case in enumerate(ours):
        if i == len(theirs) or list(case) != list(theirs[i]):
            return case[0]
    return theirs[len(ours)][0]


def _regenerate(argv: list[str]) -> None:
    if argv == ["--cases"]:  # the per-case digests of whichever pdakit is on the path
        print(json.dumps(case_digests()))
        return
    ours = case_digests()
    before = set(GOLDEN.read_text().splitlines()) if GOLDEN.exists() else set()
    GOLDEN.write_text(corpus_lines(ours))
    print(f"wrote {GOLDEN}")
    if argv[:1] == ["--against"]:
        env = {**os.environ, "PYTHONPATH": str(Path(argv[1]).resolve())}
        run = subprocess.run([sys.executable, __file__, "--cases"], env=env, capture_output=True, text=True, check=True)
        theirs = json.loads(run.stdout)
        for group, cases in ours.items():
            if group not in theirs:
                print(f"moved: {group} (absent from {argv[1]})")
            elif [list(case) for case in cases] != theirs[group]:
                print(f"moved: {group} (first moved case: {_first_moved(cases, theirs[group])})")
    else:
        for line in corpus_lines(ours).splitlines():
            if line not in before:
                print(f"moved: {line.split(':')[0]}")


if __name__ == "__main__":
    _regenerate(sys.argv[1:])
