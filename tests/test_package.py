"""The package namespace: exactly what its modules declare public."""
import importlib

import phoscil

MODULES = ("errors", "params", "model", "integrator", "gspt", "cycle")


def public_names():
    """module name -> that module's ``__all__``."""
    return {name: importlib.import_module(f"phoscil.{name}").__all__ for name in MODULES}


def test_no_name_is_public_in_two_modules():
    # the package star-imports every module: a repeated name would be shadowed silently
    owner = {}
    for module, names in public_names().items():
        for name in names:
            assert name not in owner, f"{name} is public in both {owner[name]} and {module}"
            owner[name] = module


def test_package_exports_exactly_the_module_lists():
    expected = ["__version__"] + [n for names in public_names().values() for n in names]
    assert sorted(phoscil.__all__) == sorted(expected)


def test_every_exported_name_resolves_to_its_module_object():
    assert phoscil.__version__
    for module, names in public_names().items():
        mod = importlib.import_module(f"phoscil.{module}")
        for name in names:
            assert getattr(phoscil, name) is getattr(mod, name), name
