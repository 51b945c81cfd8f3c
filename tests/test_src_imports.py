"""The library never imports the test suite.

Differential references (the loop kernels, the pointer-based Lemma 5
hierarchy, the keyed union-find, the set-based result model) live under
``tests/oracles/``.  They are oracles, not fallbacks: a production module
that imported one would quietly revive a second implementation of a
phase.  This guard parses every module under ``src/repro`` and fails on
any ``import tests...`` / ``from tests... import``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.lineno, node.module


def test_src_never_imports_tests():
    modules = sorted(SRC.rglob("*.py"))
    assert modules, f"no modules found under {SRC}"
    offenders = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for lineno, name in _imported_modules(tree):
            if name == "tests" or name.startswith("tests."):
                offenders.append(f"{path.relative_to(SRC.parent)}:{lineno}: {name}")
    assert not offenders, "production code imports the test suite:\n" + "\n".join(
        offenders
    )
