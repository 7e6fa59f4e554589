import types
from pathlib import Path

import modgrob


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
