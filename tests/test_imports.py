"""What `import hyptorsion.cli` loads, the package's lazy re-exports, and
what `setup.py build` puts in the package."""

import importlib
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
        "hyptorsion.kernels", "hyptorsion._kernel_py"}


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
    from hyptorsion import polyring
    assert not hasattr(polyring.Poly, "_kp")
    assert not hasattr(polyring, "PrimeField")


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
