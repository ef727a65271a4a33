"""Setup script.

The execution environment has no network access and no ``wheel`` package,
so editable installs must use the legacy ``setup.py develop`` path; keeping
the metadata here (and no ``[build-system]`` table in pyproject.toml) makes
``pip install -e .`` work offline.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "AggChecker reproduction: verifying text summaries of relational "
        "data sets (SIGMOD 2019)"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy>=1.26,<3"],
)
