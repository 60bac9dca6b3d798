"""
The bank-account schema evolution story, end to end
===================================================

A stored object of BANK_ACCOUNT version 1 must be retrieved by a program
whose BANK_ACCOUNT is now version 2: the derived `balance` query became a
stored attribute, and `info` turned from STRING into INTEGER. This script
walks the whole workflow: diff, template generation, the failure a default
value would cause, the hand-written fix, and the invariant gate that tells
the two apart.

Run:  python demos/bank_account_walkthrough.py
"""

import tempfile
from pathlib import Path

from escher import (
    IntVal,
    ObjectGraph,
    ObjectRecord,
    StringVal,
    deserialize,
    diff_schemas,
    empty_repository,
    eval_invariant,
    generate_transformer,
    interpret_transformer,
    parse_schema,
    parse_transformer,
    register_transformer,
    release,
    render_smo_report,
    render_transformer,
    retrieve,
    save_repository,
    serialize,
)
from escher.errors import InvariantViolation

# --- two versions of the same class, in the class DSL ----------------------

V1 = parse_schema("""
version 1
class BANK_ACCOUNT feature
  info: STRING
  tot_deposits: INTEGER
  tot_withdrawals: INTEGER
invariant
  valid_account: tot_deposits > tot_withdrawals
end
""")

V2 = parse_schema("""
version 2
class BANK_ACCOUNT feature
  balance: INTEGER
  info: INTEGER
invariant
  valid_account: balance > 0
end
""")

# --- what changed? the diff engine reports attribute-level operators --------

transformation = diff_schemas(V1, V2)
print("detected schema modification operators:")
print(render_smo_report(transformation))
# Two INTEGER attributes disappeared and one appeared, so this is reported as
# removals plus an addition, not a rename: the tool cannot know that
# balance = tot_deposits - tot_withdrawals. The info STRING -> INTEGER change
# is fully automatic thanks to the built-in converter.

# --- the generated template: correct where possible, honest where not -------

template = generate_transformer(transformation)
print("generated transformer template:")
print(render_transformer(template))
print("inputs the developer still owes:", sorted(template.required_inputs), "\n")

# --- a stored version-1 object ----------------------------------------------

stored = ObjectRecord(0, "BANK_ACCOUNT", 1, {
    "tot_deposits": IntVal(100),
    "tot_withdrawals": IntVal(30),
    "info": StringVal("42"),
})
graph = ObjectGraph((stored,))
print("stored object:")
print(serialize(graph))

# --- build a project: two releases, the stub registered automatically -------

repo = empty_repository("bank")
repo, _ = release(repo, {"BANK_ACCOUNT": V1})
repo, _ = release(repo, {"BANK_ACCOUNT": V2.with_version(1)})  # tool bumps the tag

# Migrating with the template and a lazy default (balance = 0) is exactly the
# silent corruption a tolerant retrieval would admit. The class invariant
# refuses it:
try:
    retrieve(graph, repo, {"BANK_ACCOUNT": 2}, {("BANK_ACCOUNT", "balance"): IntVal(0)})
except InvariantViolation as err:
    print(f"invariant gate fired: {err.cli_line()}\n")

# --- the five-minute human fix ----------------------------------------------

hand_fixed = parse_transformer("""
transform BANK_ACCOUNT from 1 to 2
  Result.info := convert STRING_TO_INTEGER (oldc.info)
  Result.balance := oldc.tot_deposits - oldc.tot_withdrawals
end
""")
repo = register_transformer(repo, hand_fixed, overwrite=True)

migrated = retrieve(graph, repo, {"BANK_ACCOUNT": 2}, {})
print("retrieved at version 2:")
print(serialize(migrated))
assert migrated.records[0].fields == {"balance": IntVal(70), "info": IntVal(42)}
eval_invariant(migrated.records[0], V2)  # raises InvariantViolation on a false clause

# Interpreting the fix directly shows the arithmetic at work:
record = interpret_transformer(hand_fixed, stored, {}, new_schema=V2)
print("balance =", record.fields["balance"].value, "(= 100 - 30)")

# --- everything lives in a plain project directory ---------------------------

with tempfile.TemporaryDirectory() as tmp:
    project = Path(tmp) / "bank"
    save_repository(repo, project)
    print("\non-disk layout:")
    for path in sorted(project.rglob("*")):
        if path.is_file():
            print(" ", path.relative_to(project))
    # the object file round-trips byte-exactly
    assert deserialize(serialize(migrated)) == migrated

print("\nwalkthrough complete.")
