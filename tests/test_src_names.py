"""Every top-level name of the package's modules is used by the package:
a definition that only tests reach belongs in ``tests/oracles.py``.

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


def test_every_src_name_is_used_by_src():
    assert unreferenced_names(PACKAGE) == []


def test_test_oracles_are_not_exported():
    oracles = ("binomial_variance", "check_properties", "corruption_batch",
               "max_corruption_subset_brute", "tv_distance")
    assert [name for name in oracles if hasattr(rb, name)] == []
