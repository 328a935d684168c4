"""Setuptools shim for environments without the `wheel` package.

`pip install -e .` uses pyproject.toml.  The compiled engine core is not
built here: ``repro.sim.fastcore`` compiles ``_fastcore.c`` on first
import into a per-user cache keyed by the source digest (DESIGN.md §13).
"""
from setuptools import setup

setup()
