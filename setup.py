"""Packaging for the fairDMS reproduction.

Kept as a plain ``setup.py`` (no ``pyproject.toml``) so legacy editable
installs (``python setup.py develop``) keep working in offline environments
where the ``wheel`` package (needed for PEP 660 editable wheels) is
unavailable.  The library needs only ``numpy``; ``src/`` on ``PYTHONPATH``
works without installing at all.
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.1.0",
    description=(
        "From-scratch reproduction of fairDMS: rapid model training by data "
        "and model reuse (IEEE CLUSTER 2022)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    # The py.typed marker opts downstream type-checkers into the package's
    # inline annotations (PEP 561); the preset specs are read at run time
    # through importlib.resources, so they must be installed with the code.
    package_data={"repro": ["py.typed"], "repro.api": ["presets/*.json"]},
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro=repro.__main__:main"]},
)
