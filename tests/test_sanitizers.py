"""The kernel, lane and text I/O tests against a build of the C kernels under
AddressSanitizer and UndefinedBehaviorSanitizer.

The sanitized extension is built into a copy of the package and the tests
in a temporary directory, never into src/: a sanitized build there would
break every plain import, as the ASan runtime must be loaded first.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SANITIZE = "-fsanitize=address,undefined"
# the kernels, the lanes and the text scanners, which parse outside input
TESTS = ("test_kernels.py", "test_lane.py", "test_text_io.py", "test_loaders_fuzz.py")


def runtime(name):
    """The path of a sanitizer runtime that gcc links against, or None."""
    if shutil.which("gcc") is None:
        return None
    found = subprocess.run(["gcc", f"-print-file-name={name}"], capture_output=True,
                           text=True, check=False).stdout.strip()
    # gcc prints the bare name back when it has no such library
    return found if os.path.isabs(found) and os.path.exists(found) else None


LIBASAN, LIBUBSAN = runtime("libasan.so"), runtime("libubsan.so")


@pytest.mark.skipif(LIBASAN is None or LIBUBSAN is None, reason="gcc has no ASan/UBSan runtime")
def test_kernel_tests_pass_under_address_and_undefined_sanitizers(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("*.so"))
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy(ROOT / name, tmp_path)
    (tmp_path / "tests").mkdir()
    for name in ("conftest.py", "oracles.py", *TESTS):
        shutil.copy(ROOT / "tests" / name, tmp_path / "tests")
    logs = tmp_path / "logs"
    logs.mkdir()
    env = dict(
        os.environ,
        CC="gcc",
        CFLAGS=f"{SANITIZE} -fno-omit-frame-pointer -fno-sanitize-recover=undefined",
        LDFLAGS=SANITIZE,
        PYTHONPATH=str(tmp_path / "src"),
    )
    # the tests' conftest builds in place too, into the copy and with these flags
    build = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace", "--build-temp",
         str(tmp_path / "build")],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=False,
    )
    assert build.returncode == 0, build.stderr
    env.update(
        LD_PRELOAD=f"{LIBASAN} {LIBUBSAN}",
        # every object from malloc, so that ASan bounds the bytes and str
        # objects the text scanners read, not only numpy buffers
        PYTHONMALLOC="malloc",
        ASAN_OPTIONS=f"detect_leaks=0:log_path={logs / 'asan'}",
        UBSAN_OPTIONS=f"print_stacktrace=1:log_path={logs / 'ubsan'}",
    )
    probe = subprocess.run(
        [sys.executable, "-c", "from latflow import backend; print(backend._ckernels.__file__)"],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=False,
    )
    # the sanitized extension is the one the tests import, under either backend
    built = next((tmp_path / "src" / "latflow").glob("_ckernels*.so"))
    assert probe.stdout.strip() == str(built), probe.stderr
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *(f"tests/{name}" for name in TESTS)],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=False,
    )
    reports = {path.name: path.read_text() for path in logs.iterdir()}
    assert not reports, "\n".join(reports.values())
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
