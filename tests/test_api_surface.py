"""Guard against dead code: every public function, class and method under
src/arbsurf/ has a reference outside its own body in the package or in the
benchmark harness. Tests do not count as callers.

A reference is a name or an attribute access with the definition's name,
so the check is by name, not by resolved binding: it catches a definition
nothing mentions, which is what deleted call sites leave behind.
"""

import ast
from pathlib import Path

import arbsurf

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "arbsurf").glob("*.py"))
CALLERS = SOURCES + sorted((ROOT / "benchmarks").glob("*.py"))

# public definitions kept without a caller, each for a stated reason
ALLOWED = {
    "read_vix2_csv": "interchange reader of the vix2.csv that write_panel writes",
    "gap_representer_regression": "acceptance criterion 11 reads it",
    "legendre_conjugate": "the paper's Legendre duality of the decoded potential",
    "save_checkpoint": "fold checkpoints, for a later `--from` that loads instead of retraining",
    "load_checkpoint": "fold checkpoints, for a later `--from` that loads instead of retraining",
}


def _definitions():
    """(file, qualified name, node) of every public top-level function and
    class and of every public method."""
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield path, node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield path, f"{node.name}.{sub.name}", sub


def _references():
    """(file, name, line) of every name and attribute access in the callers."""
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                yield path, node.id, node.lineno
            elif isinstance(node, ast.Attribute):
                yield path, node.attr, node.lineno


def test_every_public_definition_has_a_caller():
    refs = list(_references())
    dead = []
    for path, qualname, node in _definitions():
        name = node.name
        if name in arbsurf.__all__ or name in ALLOWED:
            continue
        if not any(ref == name and not (where == path and node.lineno <= line <= node.end_lineno)
                   for where, ref, line in refs):
            dead.append(f"{path.name}: {qualname}")
    assert dead == [], "public definitions with no caller in src/ or benchmarks/: " + ", ".join(dead)


def test_allowlist_names_existing_definitions():
    defined = {node.name for _, _, node in _definitions()}
    assert set(ALLOWED) <= defined, sorted(set(ALLOWED) - defined)
