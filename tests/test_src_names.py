"""Every top-level name of the package's modules is used by the package:
a definition that only tests reach belongs in ``tests/oracles.py``.  And
every name a module imports at its top level is read by that module.

A reference is a name, an attribute or a ``from ... import`` in a module
other than ``__init__.py``, outside the name's own definition; docstrings
and ``__init__`` re-exports do not count."""

import ast
from pathlib import Path

import robust_batches as rb

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "robust_batches"


def _defined(stmt) -> list[str]:
    """The top-level names that one module statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [node.id for t in targets for node in ast.walk(t) if isinstance(node, ast.Name)]


def _referenced(tree) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unreferenced_names(package: Path) -> list[str]:
    """``module.name`` for each top-level definition of ``package`` that no
    other statement of its non-``__init__`` modules refers to."""
    definitions, references = [], []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            definitions += [(path.stem, name, len(references)) for name in _defined(stmt)]
            references.append(_referenced(stmt))
    return [
        f"{module}.{name}" for module, name, own in definitions
        if not any(name in refs for i, refs in enumerate(references) if i != own)
    ]


def _imported(stmt) -> list[str]:
    """The names that one module statement binds by import (none for
    ``from __future__``)."""
    if isinstance(stmt, ast.Import):
        return [(alias.asname or alias.name).split(".")[0] for alias in stmt.names]
    if isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
        return [alias.asname or alias.name for alias in stmt.names]
    return []


def unused_imports(package: Path) -> list[str]:
    """``module.name`` for each name that a top-level import of a
    non-``__init__`` module of ``package`` binds and that module never reads."""
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.stem}.{name}" for stmt in tree.body for name in _imported(stmt)
            if name not in read
        ]
    return unused


def test_every_src_import_is_read_by_its_module():
    assert unused_imports(PACKAGE) == []


def test_unused_imports_finds_each_unread_name(tmp_path):
    (tmp_path / "__init__.py").write_text("import math\n")
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import math\nimport os.path\nimport numpy as np\n"
        "from .core import A, B as C\n\n"
        "def f():\n    return np.zeros(A)\n"
    )
    assert unused_imports(tmp_path) == ["mod.math", "mod.os", "mod.C"]


def test_every_src_name_is_used_by_src():
    assert unreferenced_names(PACKAGE) == []


def test_test_oracles_are_not_exported():
    oracles = ("binomial_variance", "check_properties", "corruption_batch", "fk_distance_brute",
               "iter_k_run_subsets", "lift_subset", "max_corruption_subset_brute", "tv_distance")
    assert [name for name in oracles if hasattr(rb, name)] == []
