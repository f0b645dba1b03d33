"""The one `python -O` pass over the tests marked `guarantee`.

`python -O` strips assert statements, so every guarantee test runs again
under the flag. When a collected test uses the fixture `optimize_pass`,
that run and a collection of the same marker without the flag start as soon
as collection finishes, so they share the machine with the session instead
of holding it up; the fixture waits for both. The tests ending in
`_under_optimize_flag` read its outcome for their module;
`tests/test_no_asserts.py` requires it to pass exactly the collected set.
Those readers are left out of both runs by name, so the pass never starts
itself.
"""
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
READERS = "not _under_optimize_flag"


class GuaranteeRun:
    """pytest on the tests marked `guarantee` in a fresh interpreter, its
    output going to an unnamed temporary file."""

    def __init__(self, *pytest_args: str, optimize: bool = False):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(TESTS.parent / "src") + os.pathsep + env.get("PYTHONPATH", "")
        self.out = tempfile.TemporaryFile("w+")
        self.proc = subprocess.Popen(
            [sys.executable, *(["-O"] if optimize else []), "-m", "pytest", "-q",
             "-p", "no:cacheprovider", "-m", "guarantee", "-k", READERS, *pytest_args,
             str(TESTS)],
            stdout=self.out, stderr=subprocess.STDOUT, text=True, env=env, cwd=TESTS.parent,
        )

    def finish(self) -> tuple[int, str]:
        """Wait for the run; its exit code and output."""
        with self.out:
            try:
                self.proc.wait(timeout=900)
            except subprocess.TimeoutExpired:
                self.stop()
                raise
            self.out.seek(0)
            return self.proc.returncode, self.out.read()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.out.close()


STARTED = pytest.StashKey[tuple[GuaranteeRun, GuaranteeRun]]()


def pytest_collection_finish(session: pytest.Session) -> None:
    if session.config.option.collectonly:
        return
    if any("optimize_pass" in getattr(item, "fixturenames", ()) for item in session.items):
        session.config.stash[STARTED] = (
            GuaranteeRun("--collect-only"), GuaranteeRun("-rp", optimize=True)
        )


def pytest_unconfigure(config: pytest.Config) -> None:
    # a session that ends before the fixture has waited, say on -x, stops them
    for started in config.stash.get(STARTED, ()):
        started.stop()


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
def optimize_pass(request: pytest.FixtureRequest) -> OptimizePass:
    collecting, running = request.config.stash[STARTED]
    return OptimizePass(collecting.finish(), running.finish())
