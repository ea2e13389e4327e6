"""Build script: compiles the GF(p) kernel extension from _kernel.c, the C
that Cython generated from _kernel.pyx, when a C compiler is available, and
falls back to the pure-Python kernels otherwise.  The installed package works
identically either way (see hyptorsion.kernels)."""

import os

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """Degrade gracefully to the pure-Python kernels if compilation fails."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # noqa: BLE001 - any toolchain failure
            print(f"warning: skipping compiled kernels ({exc})")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # noqa: BLE001
            print(f"warning: skipping {ext.name} ({exc})")


ext_modules = []
if not os.environ.get("HYPTORSION_PURE"):
    # Regenerate after editing _kernel.pyx: cython -3 src/hyptorsion/_kernel.pyx
    # (tests/test_polyring.py fails while the two differ).
    ext_modules = [Extension("hyptorsion._kernel", ["src/hyptorsion/_kernel.c"])]

setup(ext_modules=ext_modules, cmdclass={"build_ext": optional_build_ext})
