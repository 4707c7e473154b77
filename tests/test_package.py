"""The package namespace: exactly what its modules declare public."""
import importlib
import inspect

import phoscil
from test_domains import COORDINATE_MAPS, DOMAINS

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


def test_every_public_function_of_coordinates_is_in_the_domain_table():
    # a new evaluator of h, s, eta or sigma must join test_domains.DOMAINS, so it is held to
    # the one domain rule: finite and inside its stated bound, or a DomainError naming it
    coordinates = {"h", "s", "eta", "sigma", "state", "x", "h_grid"}
    public = set()
    for module in ("model", "gspt"):
        mod = importlib.import_module(f"phoscil.{module}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isfunction(obj) and coordinates & set(inspect.signature(obj).parameters):
                public.add(name)
    missing = sorted(public - set(DOMAINS) - set(COORDINATE_MAPS))
    assert not missing, f"public functions of coordinates missing from DOMAINS: {missing}"
    assert set(DOMAINS) | set(COORDINATE_MAPS) <= public
