"""Setuptools script for the ``repro`` package (sources under ``src/``).

The offline environment used for this reproduction ships an older
setuptools without the ``wheel`` package, so PEP 660 editable installs are
unavailable; ``pip install -e .`` falls back to the legacy
``setup.py develop`` path, which reads the metadata below.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', INIT.read_text(), re.M).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Reproduction of 'Impacts of packet scheduling and packet loss "
        "distribution on FEC performances'"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
