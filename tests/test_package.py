import types

import modgrob


def test_all_exports_no_submodules():
    exported = {name: getattr(modgrob, name) for name in modgrob.__all__}
    assert not [name for name, value in exported.items()
                if isinstance(value, types.ModuleType)]
