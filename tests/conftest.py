"""The one `python -O` pass over the tests marked `guarantee`.

`python -O` strips assert statements, so every guarantee test runs again
under the flag. The fixture `optimize_pass` starts that run once per
session, alongside a collection of the same marker without the flag, and
the tests ending in `_under_optimize_flag` read its outcome for their
module; `tests/test_no_asserts.py` requires it to pass exactly the collected
set. Those readers are left out of both runs by name, so the pass never
starts itself.
"""
import os
import pathlib
import subprocess
import sys

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
READERS = "not _under_optimize_flag"


def _start_guarantee_tests(*pytest_args: str, optimize: bool = False) -> subprocess.Popen:
    """Start pytest on the tests marked `guarantee` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(TESTS.parent / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, *(["-O"] if optimize else []), "-m", "pytest", "-q",
         "-p", "no:cacheprovider", "-m", "guarantee", "-k", READERS, *pytest_args,
         str(TESTS)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        cwd=TESTS.parent,
    )


def _finish(proc: subprocess.Popen) -> tuple[int, str]:
    with proc:
        try:
            out, _ = proc.communicate(timeout=900)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    return proc.returncode, out


class OptimizePass:
    """What `python -O -m pytest -m guarantee` passed, against what the
    marker collects without the flag."""

    def __init__(self, collect: tuple[int, str], run: tuple[int, str]):
        self.collect_code, self.collect_out = collect
        self.code, self.out = run
        self.collected = {line for line in self.collect_out.splitlines() if "::" in line}
        self.passed = {line.removeprefix("PASSED ") for line in self.out.splitlines()
                       if line.startswith("PASSED ")}

    def not_passed(self, *files: str) -> list[str]:
        """The marked cases of the named test files that the -O run did not
        pass; raises if those files hold no marked case."""
        cases = sorted(case for case in self.collected
                       if pathlib.PurePosixPath(case.split("::")[0]).name in files)
        if not cases:
            raise LookupError(f"no test marked `guarantee` in {files}")
        return [case for case in cases if case not in self.passed]


@pytest.fixture(scope="session")
def optimize_pass() -> OptimizePass:
    collecting = _start_guarantee_tests("--collect-only")
    run = _finish(_start_guarantee_tests("-rp", optimize=True))
    return OptimizePass(_finish(collecting), run)
