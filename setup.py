"""Build script: the package is pure Python, described in pyproject.toml.
The benchmark harness builds it with `setup.py build`."""

from setuptools import setup

setup()
