import argparse
import re
import sys
import tracemalloc
import types
from pathlib import Path

import pytest

import modgrob
from modgrob.cli import build_arg_parser

ROOT = Path(__file__).resolve().parent.parent
LINE_CAP = 2_795  # ROADMAP item 7: the line budget of src/modgrob
LINE_WIDTH = 100  # columns, so that LINE_CAP cannot be met by joining lines
COMPILE_PEAK_CAP = 1.5e6  # bytes, below CPython 3.11's compile-memory step


def test_all_exports_no_submodules():
    exported = {name: getattr(modgrob, name) for name in modgrob.__all__}
    assert not [name for name, value in exported.items()
                if isinstance(value, types.ModuleType)]


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme[readme.index("## Library"):]
    start = section.index("```python\n") + len("```python\n")
    namespace = {}
    exec(section[start:section.index("```", start)], namespace)
    assert namespace["report"].exponent == 27


def test_readme_synopsis_lists_the_flags_each_command_declares():
    """Each line of README's command-line synopsis names exactly the flags
    its subcommand declares, besides the common --max-pairs, --max-steps
    and --json."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme[readme.index("## Command line"):]
    start = section.index("```\n") + len("```\n")
    synopsis = {line.split()[1]: set(re.findall(r"--[a-z-]+", line))
                for line in section[start:section.index("```", start)].splitlines()}
    (subcommands,) = [action.choices for action in build_arg_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
    common = {"-h", "--help", "--max-pairs", "--max-steps", "--json"}
    declared = {name: {flag for action in sub._actions for flag in action.option_strings}
                - common for name, sub in subcommands.items()}
    assert synopsis == declared


def test_package_stays_inside_its_line_budget():
    lines = sum(len(path.read_text().splitlines())
                for path in (ROOT / "src" / "modgrob").glob("*.py"))
    assert lines < LINE_CAP, f"src/modgrob has {lines:,} lines, the cap is {LINE_CAP:,}"


def test_package_lines_stay_inside_their_width():
    wide = [f"{path.name}:{number}" for path in sorted((ROOT / "src" / "modgrob").glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > LINE_WIDTH]
    assert not wide, f"lines wider than {LINE_WIDTH} columns: {', '.join(wide)}"


@pytest.mark.skipif(sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
                    reason="the step was measured on CPython 3.11, the benchmark's version")
def test_every_module_compiles_below_the_memory_step():
    """Compiling a module on CPython 3.11 peaks near 1.2-1.45 MB up to about
    4,200 tokens, then steps to about 1.7 MB (``groebner.py`` padded from
    4,225 to 4,245 tokens).  ``perfbench/run.py`` imports ``src/modgrob``
    afresh at each set-up, compiling it where no bytecode is written, so the
    largest module's compile peak sets a floor under ``peak_rss_mb``.  Each
    module's ``compile()`` must peak below the step, under ``tracemalloc``.
    Another compiler puts the step elsewhere, so only 3.11 is held to it."""
    peaks = {}
    for path in sorted((ROOT / "src" / "modgrob").glob("*.py")):
        source = path.read_text()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            compile(source, str(path), "exec")
            peaks[path.name] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert {name: peak for name, peak in peaks.items() if peak >= COMPILE_PEAK_CAP} == {}
