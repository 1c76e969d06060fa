"""The package's settable surface: how many values a caller can set.

A settable value is an optional parameter (one with a default) of a
function or method, or a dataclass field with a default, over the classes
and functions each ``svdrank`` module defines. A dataclass's generated
``__init__`` is skipped, since its optional parameters are those fields.
A change that adds a knob raises ``MAX_SETTABLE`` and says why.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil

import svdrank

MAX_SETTABLE = 72


def _optional_parameters(fn) -> list[str]:
    return [p.name for p in inspect.signature(fn).parameters.values()
            if p.default is not inspect.Parameter.empty]


def _settable_values(module) -> list[str]:
    found = []
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found += [f"{name}({p})" for p in _optional_parameters(obj)]
        elif inspect.isclass(obj):
            is_dataclass = dataclasses.is_dataclass(obj)
            if is_dataclass:
                found += [f"{name}.{f.name}" for f in dataclasses.fields(obj)
                          if f.default is not dataclasses.MISSING
                          or f.default_factory is not dataclasses.MISSING]
            for attr, member in vars(obj).items():
                if is_dataclass and attr == "__init__":
                    continue
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    found += [f"{name}.{attr}({p})" for p in _optional_parameters(member)]
    return found


def settable_values() -> list[str]:
    """Every settable value of the package, as ``module: owner.name``."""
    found = []
    for info in pkgutil.iter_modules(svdrank.__path__):
        module = importlib.import_module(f"svdrank.{info.name}")
        found += [f"{info.name}: {value}" for value in _settable_values(module)]
    return found


def test_counter_sees_each_kind_of_settable_value():
    values = settable_values()
    assert "linalg: top2_svd(tol)" in values  # optional function parameter
    assert "linalg: SpectralPair.matvecs" in values  # dataclass field with a default
    assert "harness: ExperimentConfig.completion_cfg" in values  # default_factory
    assert "errors: NotConverged.__init__(result)" in values  # method parameter
    assert "linalg: SpectralPair.u1" not in values  # required field
    assert "linalg: SpectralPair.__init__(matvecs)" not in values  # generated __init__


def test_settable_values_stay_under_ceiling():
    values = settable_values()
    assert len(values) <= MAX_SETTABLE, "\n".join(values)
