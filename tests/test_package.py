"""The package namespace: every public name resolves, lazily, to its home
module; and no source module checks an invariant with `assert`."""

import ast
import importlib
from pathlib import Path

import pytest

import superdom
from superdom import solver

PUBLIC = [name for name in superdom.__all__ if name != "__version__"]


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_is_the_object_in_its_home_module(name):
    obj = getattr(superdom, name)
    assert obj.__module__.startswith("superdom.")
    assert getattr(importlib.import_module(obj.__module__), name) is obj


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from superdom import *", namespace)
    assert set(superdom.__all__) <= set(namespace)
    assert namespace["gamma_sp"] is solver.gamma_sp


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        superdom.no_such_name


def test_dir_lists_the_public_names():
    assert set(superdom.__all__) <= set(dir(superdom))


def test_rebinding_in_the_home_module_stays_visible(monkeypatch):
    # names are looked up on every access, not cached in the package
    replacement = object()
    monkeypatch.setattr(solver, "gamma", replacement)
    assert superdom.gamma is replacement


SOURCES = sorted(Path(superdom.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_invariants_are_raised_not_asserted(path):
    # python -O drops assert statements, so a checked invariant must raise
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} uses assert at lines {lines}"
