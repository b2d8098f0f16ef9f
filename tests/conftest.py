import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


def pytest_configure(config):
    """Build the C kernels in place before any test module imports latflow,
    so the suite runs the compiled backend wherever a C compiler exists."""
    if shutil.which("cc") is None:
        return
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(
            [sys.executable, "setup.py", "-q", "build_ext", "--inplace",
             "--build-temp", tmp, "--build-lib", tmp],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
    if proc.returncode != 0:
        raise pytest.UsageError(f"setup.py build_ext failed:\n{proc.stderr}")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
