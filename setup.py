"""Setuptools entry point.

The pyproject.toml carries the metadata; this file exists so the package can
also be installed in environments without the ``wheel`` package (legacy
``pip install -e . --no-use-pep517``).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Pointer disambiguation via strict inequalities (CGO 2017) - "
        "full Python reproduction"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
)
