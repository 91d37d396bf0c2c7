from types import ModuleType

import isoprod


def test_export_list_matches_the_package_namespace():
    # a helper deleted from a module must not leave a dangling export, and a
    # public name imported into the package must be exported
    assert len(isoprod.__all__) == len(set(isoprod.__all__))
    for name in isoprod.__all__:
        assert hasattr(isoprod, name), name
    public = {
        name
        for name, value in vars(isoprod).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public <= set(isoprod.__all__), sorted(public - set(isoprod.__all__))
