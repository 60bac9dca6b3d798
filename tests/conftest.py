from __future__ import annotations

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from escher.cli import main as cli_main
from escher.objects import ObjectRecord, deserialize
from escher.repository import (
    empty_repository,
    register_transformer,
    release,
    save_repository,
)
from escher.schema import parse_schema
from escher.transformer import parse_transformer

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # CI runs derandomized, so a red run fails the same way on a local
    # `CI=1 pytest`; local runs stay randomized.
    settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
    if os.environ.get("CI"):
        settings.load_profile("ci")

FIXTURES = Path(__file__).parent / "fixtures"

BANK_V1_TEXT = (FIXTURES / "bank_account_v1.esc").read_text(encoding="utf-8")
BANK_V2_TEXT = (FIXTURES / "bank_account_v2.esc").read_text(encoding="utf-8")
HAND_FIXED_TEXT = (FIXTURES / "bank_account_1_to_2.est").read_text(encoding="utf-8")
BANK_OBJECT_TEXT = (FIXTURES / "bank_account_v1.eso").read_text(encoding="utf-8")
OTHER_V1 = "class OTHER feature\n  x: INTEGER\nend\n"
OTHER_V2 = "class OTHER feature\n  x: REAL\nend\n"


@pytest.fixture
def bank_v1():
    return parse_schema(BANK_V1_TEXT)


@pytest.fixture
def bank_v2():
    return parse_schema(BANK_V2_TEXT)


@pytest.fixture
def bank_record() -> ObjectRecord:
    return ObjectRecord(
        0,
        "BANK_ACCOUNT",
        1,
        {"tot_deposits": 100, "tot_withdrawals": 30, "info": "42"},
    )


@pytest.fixture
def bank_graph():
    return deserialize(BANK_OBJECT_TEXT)


@pytest.fixture
def hand_fixed_transformer():
    return parse_transformer(HAND_FIXED_TEXT)


@pytest.fixture
def bank_repo(bank_v1, bank_v2):
    """Releases 1 and 2 of BANK_ACCOUNT plus the generated 1->2 stub."""
    repo = empty_repository("bank")
    repo, _ = release(repo, {"BANK_ACCOUNT": bank_v1})
    repo, _ = release(repo, {"BANK_ACCOUNT": bank_v2.with_version(1)})
    return repo


@pytest.fixture
def bank_repo_hand_fixed(bank_repo, hand_fixed_transformer):
    return register_transformer(bank_repo, hand_fixed_transformer, overwrite=True)


@pytest.fixture
def bank_project(bank_repo_hand_fixed, tmp_path) -> Path:
    """On-disk project with the hand-fixed transformer registered."""
    project = tmp_path / "bankproj"
    save_repository(bank_repo_hand_fixed, project)
    return project


@pytest.fixture
def bank_project_stub(bank_repo, tmp_path) -> Path:
    """On-disk project with only the generated (input-demanding) stub."""
    project = tmp_path / "bankproj_stub"
    save_repository(bank_repo, project)
    return project


@pytest.fixture
def two_class_project(tmp_path) -> Path:
    """BANK_ACCOUNT 1 -> 2 with the hand-fixed handler, and OTHER 1 -> 2
    with its generated stub, in releases 1 and 2."""
    repo, _ = release(empty_repository("two"), {
        "BANK_ACCOUNT": parse_schema(BANK_V1_TEXT), "OTHER": parse_schema(OTHER_V1),
    })
    repo, _ = release(repo, {
        "BANK_ACCOUNT": parse_schema(BANK_V2_TEXT), "OTHER": parse_schema(OTHER_V2),
    })
    repo = register_transformer(repo, parse_transformer(HAND_FIXED_TEXT), overwrite=True)
    project = tmp_path / "two"
    save_repository(repo, project)
    return project


def run_cli(*args: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(list(args))
    except SystemExit as exc:  # argparse usage failures
        code = int(exc.code or 0)
    return code, out.getvalue(), err.getvalue()
