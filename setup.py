"""Setuptools entry point.

Kept alongside pyproject.toml so `pip install -e .` works in offline
environments that lack the `wheel` package (pip falls back to the legacy
`setup.py develop` path when no [build-system] table is declared).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    description=(
        "Reproduction of 'Measurement and Evaluation of a Real World "
        "Deployment of a Challenge-Response Spam Filter' (IMC 2011)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
)
