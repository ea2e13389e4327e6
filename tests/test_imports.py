"""What `import hyptorsion.cli` loads, and the package's lazy re-exports."""

import importlib
import json

import pytest

import hyptorsion

CORE = {"hyptorsion", "hyptorsion.cli", "hyptorsion.fields",
        "hyptorsion.polyring", "hyptorsion.jacobian", "hyptorsion.torsion",
        "hyptorsion.kernels"}


@pytest.mark.parametrize("pure", [False, True])
def test_cli_import_loads_only_the_core(run_fresh, pure):
    proc = run_fresh(f"""
        import json, os, sys
        if {pure}:
            os.environ["HYPTORSION_PURE"] = "1"
        import hyptorsion.cli
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "hyptorsion")
        print(json.dumps([loaded, hyptorsion.cli.BACKEND]))
    """)
    assert proc.returncode == 0, proc.stderr
    loaded, backend = json.loads(proc.stdout)
    assert backend == "pure" or not pure
    expected = CORE | ({"hyptorsion._kernel"} if backend == "compiled" else set())
    assert set(loaded) == expected


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
