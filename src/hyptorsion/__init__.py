"""hyptorsion: odd-degree hyperelliptic curves y^2 = f(x) with torsion
points of order 2g+1 over Q and finite fields — construction via polynomial
certificates, independent verification via Cantor's algorithm, family
enumeration, and the Weil pairing of the marked points.

The names below are re-exported from their submodules, each submodule
imported the first time one of its names is looked up here (PEP 562), so
`import hyptorsion` itself loads no submodule.
"""

import importlib

_EXPORTS = {
    "fields": ("ExtField", "Field", "FieldError", "InsufficientFieldError",
               "PrimeField", "Rationals", "field_make", "nth_roots_of_unity"),
    "jacobian": ("AffinePoint", "Curve", "MumfordDivisor", "cantor_add", "embed",
                 "exact_order", "identity", "involution", "neg", "point_make",
                 "points_with_x", "scalar_mul"),
    "kernels": ("BACKEND",),
    "polyring": ("Poly", "cyclotomic", "diff_power", "is_squarefree", "poly_sqrt",
                 "reverse_scale"),
    "torsion": ("EnhancedCurve", "PairCert", "SingleCert", "decorations_of",
                "make_pair", "make_single", "normalize_enhanced", "recover_pair",
                "torsion_census", "verify_single"),
    "families": ("AdmissibleFn", "CoprimeTemplate", "CharTemplate", "eta_roots",
                 "find_good_mu", "nice_pairs_coprime", "rational_four_torsion",
                 "symmetry_classes", "upsilon_ij_enum"),
    "numth": ("TotientPartition", "hyperelliptic_cert", "hyperelliptic_scan",
              "overq_filter", "totient"),
    "pairing": ("weil_closed", "weil_explicit"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
