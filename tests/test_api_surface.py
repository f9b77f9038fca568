"""The package holds no code that nothing calls, and no ``assert``
statement (``python -O`` would drop its check).

A function, method or class defined in ``src/infgon`` counts as used
when ``src/`` or ``bench/`` names it other than at its definition: as a
name, an attribute, or a dotted string (the benchmark's traced run
patches functions by such strings).  The names in ``__all__`` do not
count.  A name kept for another reason is listed in ``KEPT`` with it."""

from __future__ import annotations

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "infgon"

KEPT = {
    "less": "the order of the paper's crossing set Y, as a predicate",
    "greatest": "Y's greatest element, the mirror of least",
    "pred_in": "the paper's predecessor map in Y",
    "iso_to_y": "the paper's order isomorphism Y_ext -> Y",
    "psi": "the paper's map from intervals of Y to positive roots",
    "vector": "Root as a lattice vector; tests check psi's additivity",
    "add_vectors": "the sum in which psi's additivity is stated",
    "sign_coherent": "the Nakanishi-Zelevinsky sign property of c-vectors",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _trees(*dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(), str(path))


def _used_names() -> set[str]:
    used = set()
    for _, tree in _trees(ROOT / "src", ROOT / "bench"):
        exported = {id(n) for node in ast.walk(tree)
                    if isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)
                    for n in ast.walk(node.value)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str) and id(node) not in exported
                  and _DOTTED.fullmatch(node.value)):
                used.update(node.value.split("."))
    return used


def _defined() -> list[tuple[str, int, str]]:
    out = []
    for path, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                out.append((path.name, node.lineno, node.name))
    return out


def test_no_assert_statements():
    found = [(path.name, node.lineno) for path, tree in _trees(PACKAGE)
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_every_definition_is_used_or_kept():
    used = _used_names()
    unused = [(f, line, name) for f, line, name in _defined()
              if not (name.startswith("__") and name.endswith("__"))
              and name not in used and name not in KEPT]
    assert unused == []


def test_kept_names_exist_and_are_otherwise_unused():
    defined = {name for _, _, name in _defined()}
    used = _used_names()
    assert sorted(set(KEPT) - defined) == []
    assert sorted(set(KEPT) & used) == []
