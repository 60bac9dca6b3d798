"""Relations between whole ``escher migrate`` runs (metamorphic properties),
each checked in-process through ``cli.main``.

Assertions only refuse: the invariant gate and the attachment checks may
turn a run into an error, but never change what a run writes. Whenever a
run exits 0, the same run with ``--no-assert`` exits 0 with the same bytes.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

from conftest import run_cli  # noqa: E402
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from escher.exprs import render_value  # noqa: E402

# (withdrawals, deposits less withdrawals, info): the balance is mostly
# positive, and at most one info is not all digits, so that about half the
# runs pass every check.
def _accounts(infos: st.SearchStrategy[str]) -> st.SearchStrategy[tuple[int, int, str]]:
    return st.tuples(st.integers(0, 1000), st.integers(-2, 1000), infos)


accounts = st.tuples(
    st.lists(_accounts(st.integers(0, 10**6).map(str)), min_size=1, max_size=19),
    st.lists(_accounts(st.text(st.sampled_from(["1", "a", "-", " ", '"', "\\"]), max_size=4)),
             max_size=1),
).flatmap(lambda lists: st.permutations(lists[0] + lists[1]))


def _bank_objects(accounts: list[tuple[int, int, str]]) -> str:
    """A version-1 ``.eso`` file of one BANK_ACCOUNT record per account."""
    lines = ["ESCHER-OBJECTS 1"]
    for object_id, (withdrawals, balance, info) in enumerate(accounts):
        lines += [
            f"obj {object_id} BANK_ACCOUNT version 1",
            f"  tot_deposits: INTEGER = {withdrawals + balance}",
            f"  tot_withdrawals: INTEGER = {withdrawals}",
            f"  info: STRING = {render_value(info)}",
            "end",
        ]
    return "\n".join(lines) + "\n"


# The project is only read, so one copy serves every example.
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(accounts=accounts)
def test_assertions_only_refuse(bank_project, accounts):
    objects = bank_project.parent / "accounts.eso"
    objects.write_text(_bank_objects(accounts), encoding="utf-8")
    argv = ["migrate", str(objects), "--to-release", "2", "--project", str(bank_project)]
    code, out, _ = run_cli(*argv)
    if code == 0:
        assert run_cli(*argv, "--no-assert")[:2] == (0, out)
