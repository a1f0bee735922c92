"""Shared helpers for the benchmark harnesses.

Each benchmark file regenerates one table or figure from the paper's evaluation section.  The
``emit`` fixture prints the regenerated rows/series (visible with ``pytest -s``) and also
writes them to ``benchmarks/results/<name>.txt`` so the output survives pytest's capture.
The committed results files are goldens: a regenerated file that differs from the one on
disk fails its test with a unified diff.
"""

import difflib
import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture(scope="session")
def results_dir():
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def emit(results_dir):
    """Return a function that prints a rendered table and persists it to the results dir.

    A new file is simply written.  When the text differs from what the file held, the new
    text is still written, so ``git diff`` shows the change for review, and the calling
    test fails with a unified diff; a fresh checkout (CI) therefore fails on any drift
    that was not committed.
    """

    def _emit(name: str, text: str) -> str:
        print("\n" + text + "\n")
        path = os.path.join(results_dir, f"{name}.txt")
        new = text + "\n"
        try:
            with open(path, encoding="utf-8") as fh:
                old = fh.read()
        except FileNotFoundError:
            old = None
        if old != new:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(new)
        if old is not None and old != new:
            diff = "".join(difflib.unified_diff(
                old.splitlines(keepends=True), new.splitlines(keepends=True),
                fromfile=f"{name}.txt (committed)", tofile=f"{name}.txt (regenerated)",
            ))
            pytest.fail(f"benchmarks/results/{name}.txt drifted from its committed "
                        f"text:\n{diff}", pytrace=False)
        return path

    return _emit
