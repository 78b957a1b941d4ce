"""The tests import plqp from this checkout's `src` (pyproject.toml's
pytest `pythonpath`); the interpreters some of them start import it from
there too."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
