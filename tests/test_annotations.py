import functools
import importlib
import inspect
import pkgutil
import typing

import pytest

import blp

_MODULES = [importlib.import_module(f"blp.{m.name}")
            for m in pkgutil.iter_modules(blp.__path__)]


def _public(module):
    """The functions and classes of ``__all__`` (a wrapped function as the
    function it wraps), with each class's own methods; the
    ``functools.partial`` aliases (``jets.exp`` and its
    kin) carry no annotations of their own and are left out."""
    for name in getattr(module, "__all__", ()):
        obj = getattr(module, name)
        if isinstance(obj, functools.partial):
            continue
        obj = inspect.unwrap(obj)  # a cached function, such as exprdsl.parse
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for attr, member in vars(obj).items():
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("module", _MODULES, ids=lambda m: m.__name__)
def test_public_annotations_resolve(module):
    # with postponed annotations an undefined name only shows when the
    # hints are resolved, as typing.get_type_hints does
    for name, obj in _public(module):
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            pytest.fail(f"{module.__name__}.{name}: {exc}")
