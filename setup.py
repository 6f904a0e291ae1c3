"""Legacy setup shim.

All metadata lives in pyproject.toml; ``pip install -e ".[test]"`` is the
supported install.  The offline environment ships setuptools 65 without the
``wheel`` package, where pip's editable install fails with ``invalid command
'bdist_wheel'``; this shim keeps ``python setup.py develop`` working there.
"""

from setuptools import setup

setup()
