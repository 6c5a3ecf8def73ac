"""Setuptools shim.

All project metadata — the ``numpy`` install requirement, the ``src``
package layout (including ``repro.service``), the ``repro-synopses``
console script — lives in ``pyproject.toml``.  This file exists for one
installation path: ``python setup.py develop``, an editable install that
works offline on machines without the ``wheel`` package.  There,
``pip install -e .`` fails with or without this file (``invalid command
'bdist_wheel'``), and ``pip install -e . --no-use-pep517`` refuses to run
without ``wheel``.
"""

from setuptools import setup

setup()
