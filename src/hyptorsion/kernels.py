"""The name of the field arithmetic's backend.

There is one backend, the pure-Python loops of `fields.Field` over each
field's element operations; GF(p) has no polynomial kernels of its own.  The
name stays because every CLI envelope carries it as its "backend" key, the
package re-exports it as `hyptorsion.BACKEND`, and the benchmark harness
records it with each run.
"""

BACKEND = "pure"
