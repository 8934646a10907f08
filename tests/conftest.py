"""The suite runs from a plain checkout: pytest puts `src` on its own path
(`pythonpath` in pyproject.toml), and this puts the same directory on the
path of the `python -m geomnets` processes the CLI and acceptance tests
start."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
