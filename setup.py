"""Setup shim.

The execution environment has no network access and no ``wheel`` package, so
PEP 660 editable installs (``pip install -e .``) cannot build editable wheels.
This shim lets ``python setup.py develop`` (and thus ``pip install -e .
--no-build-isolation`` with legacy fallbacks) work offline.

``numpy`` is a required dependency: it backs the CSR snapshots' index
arrays and powers the vectorized analytics kernels
(see ``repro/analytics/kernels.py``).
"""

from setuptools import setup

if __name__ == "__main__":
    setup(install_requires=["numpy"])
