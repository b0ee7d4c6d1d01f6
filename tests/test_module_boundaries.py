"""No private name crosses a module of ``dva``: a ``_``-name is read only
in the module that defines it, and what another module needs is public.
``dva.autodiff`` is the tape alone, and ``dva.layers``, the kernels, does
not depend on it."""

import ast
from pathlib import Path

import pytest

import dva.autodiff

SRC = Path(dva.autodiff.__file__).resolve().parent


def _is_dva(module: str | None, level: int) -> bool:
    """Whether an import names a module of the package: relative, or dva.*."""
    return level > 0 or module == "dva" or (module or "").startswith("dva.")


def private_imports(source: str) -> list[str]:
    """Every ``_``-name the source takes from another dva module: imported
    by name, or read as an attribute of a dva module it imported."""
    tree = ast.parse(source)
    faults, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_dva(node.module, node.level):
            for alias in node.names:
                if alias.name.startswith("_"):
                    faults.append(f"line {node.lineno}: {alias.name}")
                elif node.module in (None, "dva"):  # from . import model
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _is_dva(alias.name, 0):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
            and ast.unparse(node.value) in modules
        ):
            faults.append(f"line {node.lineno}: {ast.unparse(node)}")
    return faults


@pytest.mark.parametrize(
    "source",
    [
        "from .autodiff import _record",
        "from .autodiff import Tensor, _record as rec",
        "from dva.evaluation import _PREDICTION_NAME",
        "from . import evaluation\nevaluation._PREDICTION_NAME",
        "import dva.model\ndva.model._cell",
        "import dva.model as m\nm._cell",
    ],
)
def test_guard_finds_each_kind_of_crossing(source):
    assert private_imports(source)


@pytest.mark.parametrize(
    "source",
    [
        "from __future__ import annotations",
        "from .autodiff import Tensor, record",
        "from numpy import _core",
        "self._check_views()",
        "from . import evaluation\nevaluation.PREDICTION_NAME",
    ],
)
def test_guard_passes_what_stays_inside(source):
    assert not private_imports(source)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_crosses_a_module(path):
    assert not private_imports(path.read_text(encoding="utf-8"))


def test_autodiff_defines_the_tape_alone():
    tree = ast.parse((SRC / "autodiff.py").read_text(encoding="utf-8"))
    public = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    assert public == set(dva.autodiff.__all__) == {"Tensor", "Tape", "record", "taping", "backward"}


def test_layers_do_not_depend_on_the_tape():
    tree = ast.parse((SRC / "layers.py").read_text(encoding="utf-8"))
    imported = {
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    }
    assert "autodiff" not in imported and "dva.autodiff" not in imported
