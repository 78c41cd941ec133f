"""Guard against dead code and dead options: every public function, class
and method under src/arbsurf/ has a reference outside its own body in the
package or in the benchmark harness, every defaulted parameter of a
function or method there is passed by some call in them, and every
`TrainingConfig` field is set by a shipped config, a call or a benchmark.
Tests do not count as callers.

A reference is a name, or an attribute access with the definition's name
that is not an attribute of a module outside arbsurf, so the check is by
name, not by resolved binding: it catches a definition nothing mentions,
which is what deleted call sites leave behind. A call passes a parameter by
keyword or by position, the call of a class passing its `__init__`'s.
"""

import ast
import dataclasses
import sys
from configparser import ConfigParser
from pathlib import Path

import arbsurf
from arbsurf.training import TrainingConfig

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "arbsurf").glob("*.py"))
CALLERS = SOURCES + sorted((ROOT / "benchmarks").glob("*.py"))

# public definitions kept without a caller, each for a stated reason
ALLOWED = {
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


def _foreign_modules(tree):
    """Names that `import` statements of a file bind to modules outside
    arbsurf (`np` for `import numpy as np`, `os` for `import os.path`)."""
    return {alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names if alias.name.split(".")[0] != "arbsurf"}


def _references():
    """(file, name, line) of every name and attribute access in the callers.
    An attribute of a module outside arbsurf (`np.random`, `os.path.join`)
    names nothing of the package, so it is no reference."""
    for path in CALLERS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        foreign = _foreign_modules(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield path, node.id, node.lineno
            elif isinstance(node, ast.Attribute):
                base = node.value
                while isinstance(base, ast.Attribute):
                    base = base.value
                if not (isinstance(base, ast.Name) and base.id in foreign):
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


# defaulted parameters kept although no caller in src/ or benchmarks/ passes
# them, each for a stated reason
OPTIONS_ALLOWED = {
    "simulate_paths.keep": "stored spot and variance rows, which criterion 7 and the path tests read until the generator's remnant moves",
    "run_stress_to_fail.state": "a trained fold state, for a later `--from` that loads instead of retraining",
    "run_stress_to_fail.panels": "the panels that state is scored on, for the same `--from`",
}


def _functions():
    """(file, name, node, bound) of every top-level function and every
    method; bound counts the leading parameters a call fills implicitly
    (self or cls)."""
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                yield path, node.name, node, 0
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                     for d in sub.decorator_list)
                        name = node.name if sub.name == "__init__" else sub.name
                        yield path, name, sub, 0 if static else 1


def _defaulted(node, bound):
    """(name, position or None) of each parameter with a default; position
    counts from the first parameter a call passes explicitly."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, a in enumerate(positional[first:], start=first - bound):
        yield a.arg, i
    for a, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield a.arg, None


def _calls():
    """(file, callee name, line, positional count or None, keywords or None)
    of every call in the callers; None stands for a `*` or `**` unpacking,
    which may pass anything."""
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name is None:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            yield (path, name, node.lineno, None if starred else len(node.args),
                   None if None in keywords else keywords)


def test_every_option_has_a_caller():
    calls = list(_calls())
    unused = []
    for path, name, node, bound in _functions():
        outside = [(n_pos, kws) for where, callee, line, n_pos, kws in calls
                   if callee == name and not (where == path and node.lineno <= line <= node.end_lineno)]
        for param, position in _defaulted(node, bound):
            if f"{name}.{param}" in OPTIONS_ALLOWED:
                continue
            if not any(n_pos is None or kws is None or param in kws
                       or (position is not None and n_pos > position)
                       for n_pos, kws in outside):
                unused.append(f"{path.name}: {name}.{param}")
    assert unused == [], "defaulted parameters no caller in src/ or benchmarks/ passes: " + ", ".join(unused)


def test_option_allowlist_names_existing_parameters():
    defined = {f"{name}.{param}" for _, name, node, bound in _functions() for param, _ in _defaulted(node, bound)}
    assert set(OPTIONS_ALLOWED) <= defined, sorted(set(OPTIONS_ALLOWED) - defined)


# TrainingConfig fields kept although no config, call or benchmark sets them,
# each for a stated reason
FIELDS_ALLOWED = {
    "guard": "the safety guard's settings, which the benchmark checks read; a config file cannot set a nested group yet",
}


def _training_keywords(tree):
    """Keywords of the calls in a module that set `TrainingConfig` fields:
    `TrainingConfig(...)`, and `replace(x, ...)` where x is a training
    config by annotation, by being a `.training` attribute, or by an
    assignment from one in the same function (`t = cfg.training`). Calls of
    other callees, and `replace` on other dataclasses, do not count."""
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, ast.FunctionDef)):
            continue
        names = set()
        if isinstance(scope, ast.FunctionDef):
            args = scope.args
            names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs if a.annotation is not None
                     and any(isinstance(n, ast.Name) and n.id == "TrainingConfig" for n in ast.walk(a.annotation))}

        def is_config(node):
            return ((isinstance(node, ast.Attribute) and node.attr == "training")
                    or (isinstance(node, ast.Name) and node.id in names))

        for node in ast.walk(scope):
            if isinstance(node, ast.Assign) and is_config(node.value):
                names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        for node in ast.walk(scope):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name == "TrainingConfig" or (name == "replace" and node.args and is_config(node.args[0])):
                yield from (k.arg for k in node.keywords if k.arg is not None)


def _unset_training_fields():
    """`TrainingConfig` fields, in order, outside FIELDS_ALLOWED that no
    [training] key of a config in configs/, no keyword of a call in src/ or
    benchmarks/ that sets a training config (`_training_keywords`) and no
    string key of a dict in benchmarks/ (the overrides of a generated
    config) sets."""
    parser = ConfigParser()
    parser.read(sorted((ROOT / "configs").glob("*.ini")), encoding="utf-8")
    names = set(parser["training"])
    for path in CALLERS:
        names |= set(_training_keywords(ast.parse(path.read_text(encoding="utf-8"))))
    for path in sorted((ROOT / "benchmarks").glob("*.py")):
        names |= {key.value for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  if isinstance(node, ast.Dict) for key in node.keys
                  if isinstance(key, ast.Constant) and isinstance(key.value, str)}
    return [f.name for f in dataclasses.fields(TrainingConfig) if f.name not in names and f.name not in FIELDS_ALLOWED]


def test_every_training_field_is_set():
    """Every field is set by a shipped config, a call or a benchmark
    (`_unset_training_fields`); the other fields are constants of the
    protocol, not settings."""
    fields = [f.name for f in dataclasses.fields(TrainingConfig)]
    assert set(FIELDS_ALLOWED) <= set(fields), sorted(set(FIELDS_ALLOWED) - set(fields))
    unset = _unset_training_fields()
    assert unset == [], "TrainingConfig fields no config, call or benchmark sets: " + ", ".join(unset)


def test_training_field_scan_names_exactly_the_allowlist(monkeypatch):
    """Without its allowlist the scan names its entry: `guard=` in
    `replace(last, guard=...)` on a saddle state sets no training config."""
    monkeypatch.setattr(sys.modules[__name__], "FIELDS_ALLOWED", {})
    assert _unset_training_fields() == ["guard"]
