"""Public-API surface checks: every exported name exists and is documented."""

import importlib

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.core",
    "repro.encoding",
    "repro.ops",
    "repro.baselines",
    "repro.datasets",
    "repro.engine",
    "repro.runtime",
    "repro.hardware",
    "repro.noise",
    "repro.evaluation",
    "repro.robust",
    "repro.telemetry",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_all_exports_resolve(module_name):
    """Every name in __all__ must be importable from the module."""
    module = importlib.import_module(module_name)
    assert hasattr(module, "__all__"), f"{module_name} lacks __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.{name} missing"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_exports_have_docstrings(module_name):
    """Every exported class/function carries a docstring."""
    module = importlib.import_module(module_name)
    import typing

    for name in module.__all__:
        obj = getattr(module, name)
        if isinstance(obj, typing._GenericAlias | type(typing.Callable)):
            continue  # type aliases carry no docstring
        if callable(obj) or isinstance(obj, type):
            assert obj.__doc__, f"{module_name}.{name} has no docstring"


@pytest.mark.parametrize(
    "module_name",
    PUBLIC_MODULES
    + [
        "repro.streaming",
        "repro.serialization",
        "repro.cli",
        "repro.metrics",
        "repro.types",
        "repro.exceptions",
    ],
)
def test_module_docstrings(module_name):
    """Every public module explains itself."""
    module = importlib.import_module(module_name)
    assert module.__doc__ and len(module.__doc__.strip()) > 20


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_no_duplicate_exports():
    for module_name in PUBLIC_MODULES:
        module = importlib.import_module(module_name)
        assert len(module.__all__) == len(set(module.__all__)), module_name


def test_exceptions_hierarchy():
    from repro import exceptions

    for name in (
        "ConfigurationError",
        "DimensionalityError",
        "NotFittedError",
        "DatasetError",
        "EncodingError",
        "HardwareModelError",
    ):
        exc = getattr(exceptions, name)
        assert issubclass(exc, exceptions.ReproError)
