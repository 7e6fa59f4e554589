"""The corpus commands are written down twice and the corpus files kept twice.

``scripts/run_corpus.py`` runs the commands as the output-identity check,
and ``perfbench/workloads.py`` times the same commands on its own copy of
the files in ``perfbench/corpus/``.  These checks fail when the two lists
or the two copies drift apart.  They parse the scripts instead of
importing them, so that nothing is written under ``perfbench/``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _runs(path, name):
    """The literal (command, file, extra flags) list a script assigns to name."""
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return [(command, file, tuple(extra))
                    for command, file, extra in ast.literal_eval(node.value)]
    raise AssertionError(f"{path} assigns no {name}")


def _files(directory):
    return {p.name: p.read_bytes() for p in (ROOT / directory).iterdir() if p.is_file()}


def test_benchmark_runs_the_corpus_commands():
    assert _runs("scripts/run_corpus.py", "RUNS") == _runs("perfbench/workloads.py",
                                                            "CORPUS_RUNS")


def test_every_corpus_file_is_run():
    used = {name for _, name, _ in _runs("scripts/run_corpus.py", "RUNS")}
    assert used == {name for name in _files("corpus") if name.endswith(".mg")}


def test_benchmark_corpus_is_a_byte_identical_copy():
    assert _files("perfbench/corpus") == _files("corpus")
