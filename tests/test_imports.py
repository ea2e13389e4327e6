"""What `import hyptorsion.cli` loads, the package's lazy re-exports, that
every import is used, every definition named and no library invariant an
`assert`, that the library names `perfbench/` spells resolve, and what
`setup.py build` puts in the package."""

import ast
import builtins
import collections
import importlib
import importlib.util
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hyptorsion

ROOT = Path(__file__).resolve().parent.parent

CORE = {"hyptorsion", "hyptorsion.cli", "hyptorsion.fields",
        "hyptorsion.polyring", "hyptorsion.jacobian", "hyptorsion.torsion",
        "hyptorsion.kernels"}


def test_cli_import_loads_only_the_core(run_fresh):
    proc = run_fresh("""
        import json, sys
        import hyptorsion.cli
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "hyptorsion")
        print(json.dumps([loaded, hyptorsion.cli.BACKEND]))
    """)
    assert proc.returncode == 0, proc.stderr
    loaded, backend = json.loads(proc.stdout)
    assert backend == "pure"
    assert set(loaded) == CORE


def test_star_import_binds_every_export(run_fresh):
    proc = run_fresh("""
        import json
        import hyptorsion
        namespace = {}
        exec("from hyptorsion import *", namespace)
        print(json.dumps([hyptorsion.__all__, sorted(namespace)]))
    """)
    assert proc.returncode == 0, proc.stderr
    exports, bound = json.loads(proc.stdout)
    assert exports and set(exports) <= set(bound)


def test_exports_are_the_submodule_objects():
    for name in hyptorsion.__all__:
        module = importlib.import_module(f"hyptorsion.{hyptorsion._SOURCE[name]}")
        assert getattr(hyptorsion, name) is getattr(module, name), name
    assert set(hyptorsion.__all__) <= set(dir(hyptorsion))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hyptorsion.no_such_name  # noqa: B018
    assert not hasattr(hyptorsion, "weil")


def test_fields_own_polynomial_arithmetic():
    from hyptorsion import fields, polyring
    assert not hasattr(polyring.Poly, "_kp")
    assert not hasattr(polyring, "PrimeField")
    # GF(p) runs the generic loops of Field, as GF(p^m) does
    for cls in (fields.PrimeField, fields.ExtField):
        assert not [name for name in vars(cls) if name.startswith("poly_")], cls


def _unused_imports(path):
    """(line, name) of each name an import binds in the file that no other
    node names.  `__future__` imports, and names listed in `__all__` or
    `_EXPORTS`, count as used."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("__all__", "_EXPORTS")
                for t in node.targets):
            used.update(c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_every_import_is_used():
    files = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])
    assert len(files) > 20
    unused = {str(p.relative_to(ROOT)): found for p in files
              if (found := _unused_imports(p))}
    assert unused == {}


def test_unused_import_check_sees_each_kind(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("from __future__ import annotations\n"
                      "import os.path\nimport json as j\nfrom a import b, c\n"
                      "from d import e\n_EXPORTS = {'d': ('e',)}\nprint(c)\n")
    assert _unused_imports(source) == [(2, "os"), (3, "j"), (4, "b")]


def _library_class(base):
    """The class a base-class expression names, if it lies outside the
    scanned files: a builtin such as `ValueError`, or `module.Class` such as
    `argparse.ArgumentParser`.  `object` for a class of the scanned files."""
    if isinstance(base, ast.Attribute):
        return getattr(importlib.import_module(ast.unparse(base.value)), base.attr)
    return getattr(builtins, base.id, object)


def _names(node):
    return collections.Counter(n.id if isinstance(n, ast.Name) else n.attr
                               for n in ast.walk(node)
                               if isinstance(n, (ast.Name, ast.Attribute)))


def _dead_definitions(defining, naming):
    """(file name, name) of each module-level function or class, and each
    method or property of a module-level class, of the `defining` files that
    no ast.Name or ast.Attribute of the `naming` files names, outside its own
    definition.  Dunders such as `__getattr__` count as named: Python calls
    them.  So does a method that overrides an attribute of a base class from
    outside the files, such as `argparse.ArgumentParser.error`: the library
    calls it."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in {*defining, *naming}}
    used = sum((_names(trees[path]) for path in naming), collections.Counter())
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for path in defining:
        for stmt in trees[path].body:
            if isinstance(stmt, ast.ClassDef):
                inherited = set().union(*(dir(_library_class(b)) for b in stmt.bases))
                found += [(path, d) for d in stmt.body
                          if isinstance(d, functions) and d.name not in inherited]
            if isinstance(stmt, (*functions, ast.ClassDef)):
                found.append((path, stmt))
    return sorted((path.name, d.name) for path, d in found
                  if not (d.name.startswith("__") and d.name.endswith("__"))
                  and used[d.name] <= _names(d)[d.name])


def test_every_definition_is_named():
    source = sorted((ROOT / "src" / "hyptorsion").glob("*.py"))
    naming = [*source, *sorted((ROOT / "perfbench").glob("*.py"))]
    assert len(source) > 10
    assert _dead_definitions(source, naming) == []


def test_dead_definition_check_sees_each_kind(tmp_path):
    source, other = tmp_path / "m.py", tmp_path / "n.py"
    source.write_text("import argparse\n"
                      "def used(): pass\ndef dead(): pass\ndef __dir__(): pass\n"
                      "def recursive(): return recursive()\n"
                      "class Used:\n"
                      "    def __init__(self): self.helper()\n"
                      "    def helper(self): pass\n"
                      "    def dead_method(self): return self.dead_method()\n"
                      "    @property\n"
                      "    def dead_property(self): pass\n"
                      "class Dead: pass\n"
                      "class Parser(argparse.ArgumentParser):\n"
                      "    def error(self, message): pass\n"
                      "class Refused(ValueError):\n"
                      "    def with_traceback(self, tb): pass\n"
                      "def caller(): return used(), Parser, Refused\n")
    other.write_text("import m\nm.Used\nm.caller()\n")
    assert _dead_definitions([source], [source, other]) == [
        ("m.py", "Dead"), ("m.py", "dead"), ("m.py", "dead_method"),
        ("m.py", "dead_property"), ("m.py", "recursive")]


def _asserts(path):
    """The line of each assert statement of the file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))


def test_library_holds_no_assert():
    """Library invariants raise typed exceptions, which `python -O` keeps."""
    source = sorted((ROOT / "src" / "hyptorsion").glob("*.py"))
    assert len(source) > 10
    found = {p.name: lines for p in source if (lines := _asserts(p))}
    assert found == {}


def test_assert_check_sees_each_kind(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("assert True\n"
                      "def f(x):\n    assert x, 'message'\n"
                      "class C:\n"
                      "    def g(self):\n"
                      "        if self:\n"
                      "            assert self\n"
                      "def h():\n    raise AssertionError('no statement')\n"
                      "s = 'assert 0'\n# assert 0\n")
    assert _asserts(source) == [1, 3, 7]


PERFBENCH = ROOT / "perfbench"

# The names perfbench spells that no longer name library code (ROADMAP
# item 2): the deleted u_pair methods, pairing.root_field and the _kernel
# module.  Mending one takes it off this set.
ROTTEN = {"families.CoprimeTemplate.u_pair", "families.CharTemplate.u_pair",
          "families._FixedPair.u_pair", "pairing.root_field", "_kernel"}


def _perfbench_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _metric_keys(path):
    """{table: keys} of the string literals `layer_metrics` looks up in the
    tracer's calls, incl and raised tables."""
    tree = ast.parse(path.read_text(), filename=str(path))
    (fn,) = [node for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name == "layer_metrics"]
    keys = collections.defaultdict(set)
    for node in ast.walk(fn):
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant) \
                and isinstance(node.slice.value, str):
            table = node.value
            keys[getattr(table, "attr", getattr(table, "id", None))].add(node.slice.value)
    return keys


def _traced(key, tracing):
    """Whether `Tracer.install` wraps the library function that a key
    `<layer>.<function>` or `<layer>.<Class>.<method>` names: a public
    function of a module of the layer, or a public (or listed dunder) method
    defined in the class itself."""
    layer, _, name = key.partition(".")
    owner, _, attr = name.rpartition(".")
    for modname in dict(tracing.LAYERS).get(layer, ()):
        if importlib.util.find_spec(f"hyptorsion.{modname}") is None:
            continue
        mod = importlib.import_module(f"hyptorsion.{modname}")
        if not owner:
            fn = vars(mod).get(attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ \
                    and not attr.startswith("_"):
                return True
            continue
        cls = vars(mod).get(owner)
        if not (inspect.isclass(cls) and cls.__module__ == mod.__name__):
            continue
        fn = cls.__dict__.get(attr)
        fn = fn.__func__ if isinstance(fn, (classmethod, staticmethod)) else fn
        if inspect.isfunction(fn) and (not attr.startswith("_")
                                       or attr in tracing._DUNDERS):
            return True
    return False


def test_perfbench_names_resolve():
    """A per-layer metric that names a renamed function reads 0 and fails
    nothing, so the names the tracer and `layer_metrics` spell must resolve
    to functions the tracer wraps."""
    tracing = _perfbench_tracing()
    modules = {m for _, mods in tracing.LAYERS for m in mods}
    unknown = {m for m in modules if importlib.util.find_spec(f"hyptorsion.{m}") is None}
    keys = _metric_keys(PERFBENCH / "run.py")
    assert keys["calls"] and keys["raised"]
    # incl is keyed by group name, as _GROUPS maps functions to groups
    assert keys["incl"] <= set(tracing._GROUPS.values())
    names = set(tracing._GROUPS) | tracing._MU_TRIED | keys["calls"] | keys["raised"]
    unknown |= {key for key in names if not _traced(key, tracing)}
    assert unknown == ROTTEN


def test_traced_check_sees_each_kind():
    tracing = _perfbench_tracing()
    for key in ("fields.field_make", "fields.ExtField.mul", "fields.PrimeField.__init__",
                "fields.FiniteFieldMixin.sqrt", "polyring.Poly.__mul__"):
        assert _traced(key, tracing), key
    # renamed, private, inherited, not a function, no such layer
    for key in ("fields.ExtField.no_such", "fields._is_irreducible",
                "fields.ExtField.sqrt", "fields.ExtField.__repr__", "fields.memo",
                "fields.FieldError", "nolayer.f"):
        assert not _traced(key, tracing), key


def test_setup_py_builds_the_pure_package(tmp_path):
    """Build from a staged copy of the sources, as the benchmark harness
    does: every module of src/hyptorsion and nothing compiled."""
    for rel in ("setup.py", "pyproject.toml", "README.md"):
        shutil.copy(ROOT / rel, tmp_path / rel)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    proc = subprocess.run([sys.executable, "setup.py", "-q", "build",
                           "--build-base", "build"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    (lib,) = (tmp_path / "build").glob("lib*")
    assert (lib / "hyptorsion" / "_kernel_py.py").is_file()
    built = {p.name for p in (lib / "hyptorsion").iterdir()}
    assert built == {p.name for p in (ROOT / "src" / "hyptorsion").glob("*.py")}
    output = [p.name for p in (tmp_path / "build").rglob("*")]
    assert not [n for n in output if n.endswith((".so", ".c"))], output
