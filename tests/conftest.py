"""The tests import ckverify from src/ (the pythonpath setting in
pyproject.toml); the child processes some tests start with
`python -m ckverify` must find the same package, so src/ goes on their
PYTHONPATH too."""
import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
