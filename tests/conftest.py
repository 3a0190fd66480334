"""Child interpreters that the tests start (``python -m finitepart``,
``python -c``) import the package from ``src`` too, as the ``pythonpath``
setting in pyproject.toml makes this one do."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
              if p])
