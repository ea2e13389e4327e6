"""Backend selection for the GF(p) polynomial kernels.

The compiled extension is used when it imported successfully and the prime
fits in 31 bits (its arithmetic runs in unsigned 64-bit C integers); otherwise
the pure-Python twin takes over.  Set HYPTORSION_PURE=1 to force pure Python,
e.g. for the backend benchmark.  The twin, `_kernel_py`, is imported the first
time `for_prime` returns it, so a process on the compiled backend that only
meets 31-bit primes never loads it.
"""

from __future__ import annotations

import os

_COMPILED = None
if not os.environ.get("HYPTORSION_PURE"):
    try:
        from . import _kernel as _COMPILED  # type: ignore[attr-defined]
    except ImportError:
        _COMPILED = None

BACKEND = "compiled" if _COMPILED is not None else "pure"

_PRIME_LIMIT = 1 << 31


def for_prime(p):
    """Return the kernel module to use for arithmetic mod p."""
    if _COMPILED is not None and p < _PRIME_LIMIT:
        return _COMPILED
    from . import _kernel_py
    return _kernel_py
