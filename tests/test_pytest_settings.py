"""The suite's own settings: one failing property test must not hide the rest.

``pyproject.toml`` turns every warning into an error. When a ``hypothesis``
property fails, the hypothesis pytest plugin touches a deprecated
``mypy_extensions`` name while it writes the report; unless that one warning
is ignored, pytest stops with an INTERNALERROR and reports nothing else.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

FAILING_PROPERTY = """\
import warnings

from hypothesis import given, settings, strategies as st


@settings(max_examples=5, database=None)
@given(st.integers())
def test_a_property_that_fails(n):
    assert n != n


def test_a_plain_test_that_passes():
    pass


def test_any_other_warning_is_still_an_error():
    warnings.warn("still an error", DeprecationWarning)
"""


def test_a_failing_property_is_reported_as_one_failure_among_the_others(tmp_path):
    (tmp_path / "test_sample.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    env = {key: value for key, value in os.environ.items() if key != "CI"}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), str(tmp_path / "test_sample.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.stdout.splitlines()[-1].startswith("2 failed, 1 passed")
