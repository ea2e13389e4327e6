"""Empty: GF(p) polynomials run the generic loops of `fields.Field`.

This module once held the GF(p) polynomial kernels.  It stays, without code,
only because the benchmark's kernel twin check (`perfbench/run.py`
`twin_check`) still imports it; ROADMAP item 1 removes that import, and then
this file.
"""
