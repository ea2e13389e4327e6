"""The GF(p) polynomial kernels' backend name.

`_kernel_py` is the only backend: the fields' polynomials are small (degree
at most 2g+1 over p <= 29 in the workloads), and a compiled build of the
same kernels ran the benchmark only 6-9% faster on a 2-core host.  The name
stays because every CLI envelope carries it as its "backend" key, the
package re-exports it as `hyptorsion.BACKEND`, and the benchmark harness
records it with each run.
"""

BACKEND = "pure"
