"""The environment for tests that run the package in a fresh interpreter."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def src_env() -> dict:
    """os.environ with this checkout's src first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
