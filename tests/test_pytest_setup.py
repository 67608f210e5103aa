"""The test run itself: one failing property test must not end the run."""

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

FAILING_THEN_PASSING = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, database=None)
@given(st.integers())
def test_a_failing_property(n):
    assert n != n


def test_a_later_test():
    pass
'''


def test_a_failing_given_test_leaves_the_later_tests_running(tmp_path):
    # the repo's pytest options (filterwarnings = error among them) and its
    # conftest, over a file whose first test fails under hypothesis
    shutil.copy(HERE.parent / "pyproject.toml", tmp_path)
    (tmp_path / "tests").mkdir()
    shutil.copy(HERE / "conftest.py", tmp_path / "tests")
    (tmp_path / "tests" / "test_probe.py").write_text(FAILING_THEN_PASSING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
