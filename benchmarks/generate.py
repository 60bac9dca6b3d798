"""Seeded inputs and their independent oracle for the escher benchmark.

Every generator takes an explicit ``random.Random``. It writes escher's input
texts (``.esc``, ``.est``, ``.eso``, ``.hist`` and the manifest) and, from its
own values, the outputs escher must produce: migrated ``.eso`` bytes, error
lines, release reports and PER reports. This module never imports escher, so
the oracle cannot inherit a defect of the code it checks.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction
from pathlib import Path

# ---------------------------------------------------------------------------
# Values, records and the .eso text form
# ---------------------------------------------------------------------------

# A value is (kind, payload). Kinds are the .eso annotations of primitives,
# "NONE" for Void, and "REF" whose payload is a record index within its graph.
INT, REAL, STR, BOOL, VOID, REF = "INTEGER", "REAL", "STRING", "BOOLEAN", "NONE", "REF"
VOID_VALUE = (VOID, None)

INT64_MAX = 2**63 - 1
STRING_ALPHABET = 'ab "\\\n xyz_09\u00e9'
SPECIAL_REALS = (0.0, -0.0, 0.1, -2.25, 1e-07, 3.125e10, 1e16, -2.5e300)


@dataclass
class Rec:
    cls: str
    version: int
    fields: list[tuple[str, tuple]]

    def get(self, name: str) -> tuple:
        for field_name, value in self.fields:
            if field_name == name:
                return value
        raise KeyError(name)


def render_real(x: float) -> str:
    """Shortest round-tripping decimal with a mandatory dot, as the format
    specifies."""
    text = repr(x)
    if "e" in text:
        mantissa, _, exponent = text.partition("e")
        if "." not in mantissa:
            mantissa += ".0"
        return f"{mantissa}e{exponent}"
    return text if "." in text else text + ".0"


def quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'


def literal(value: tuple, offset: int = 0) -> str:
    kind, x = value
    if kind == INT:
        return str(x)
    if kind == REAL:
        return render_real(x)
    if kind == BOOL:
        return "true" if x else "false"
    if kind == STR:
        return quote(x)
    if kind == VOID:
        return "Void"
    return f"ref {x + offset}"


def render_records(records: list[Rec], offset: int = 0) -> list[str]:
    lines = []
    for index, rec in enumerate(records):
        lines.append(f"obj {index + offset} {rec.cls} version {rec.version}")
        for name, value in rec.fields:
            annotation = records[value[1]].cls if value[0] == REF else value[0]
            lines.append(f"  {name}: {annotation} = {literal(value, offset)}")
        lines.append("end")
    return lines


def render_eso(records: list[Rec]) -> str:
    return render_eso_many([records])


def render_eso_many(graphs: list[list[Rec]]) -> str:
    """Concatenate graphs into one file, shifting ids and references."""
    lines = ["ESCHER-OBJECTS 1"]
    offset = 0
    for records in graphs:
        lines += render_records(records, offset)
        offset += len(records)
    return "\n".join(lines) + "\n"


def draw_string(rng: random.Random) -> str:
    return "".join(rng.choice(STRING_ALPHABET) for _ in range(rng.randint(0, 12)))


def draw_real(rng: random.Random) -> float:
    if rng.random() < 0.3:
        return rng.choice(SPECIAL_REALS)
    return rng.uniform(-1000.0, 1000.0)


def truncating_div(a: int, b: int) -> int:
    """Integer division rounding toward zero, as ``//`` is specified."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def checked(n: int) -> int:
    if not -(2**63) <= n <= INT64_MAX:
        raise OverflowError(n)
    return n


# ---------------------------------------------------------------------------
# Projects on disk
# ---------------------------------------------------------------------------


@dataclass
class Project:
    """Release list (class -> (version, .esc text)) and handler texts."""

    releases: list[dict[str, tuple[int, str]]] = field(default_factory=list)
    handlers: dict[tuple[str, int, int], str] = field(default_factory=dict)

    def manifest(self) -> str:
        lines = []
        for number, classes in enumerate(self.releases, start=1):
            lines.append(f"release {number}")
            lines += [f"class {name} version {classes[name][0]}" for name in sorted(classes)]
        for (name, a, b), text in sorted(self.handlers.items()):
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            lines.append(f"transformer {name} {a} {b} {digest}")
        return "\n".join(lines) + "\n"

    def files(self) -> dict[str, str]:
        out = {"escher.manifest": self.manifest()}
        for number, classes in enumerate(self.releases, start=1):
            for name, (_, text) in classes.items():
                out[f"releases/{number}/{name}.esc"] = text
        for (name, a, b), text in self.handlers.items():
            out[f"handlers/{name}/{a}_to_{b}.est"] = text
        return out

    def write(self, directory: Path) -> None:
        for rel, text in self.files().items():
            path = directory / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")


def esc(name: str, version: int, attributes: list[tuple[str, str]], invariant: list[str] = ()) -> str:
    lines = [f"version {version}", f"class {name} feature"]
    lines += [f"  {attr}: {typ}" for attr, typ in attributes]
    if invariant:
        lines.append("invariant")
        lines += [f"  {clause}" for clause in invariant]
    lines.append("end")
    return "\n".join(lines) + "\n"


def est(name: str, a: int, b: int, statements: list[str]) -> str:
    body = [f"  {s}" for s in statements]
    return "\n".join([f"transform {name} from {a} to {b}", *body, "end"]) + "\n"


def signed(k: int) -> str:
    return f"+ {k}" if k >= 0 else f"- {-k}"


# ---------------------------------------------------------------------------
# bank_bulk: the paper's BANK_ACCOUNT, extended with an owner reference
# ---------------------------------------------------------------------------

BANK_V1 = [("info", "STRING"), ("tot_deposits", "INTEGER"), ("tot_withdrawals", "INTEGER"), ("owner", "PERSON")]
BANK_V2 = [("balance", "INTEGER"), ("info", "INTEGER"), ("owner", "PERSON")]
PERSON_ATTRS = [
    ("name", "STRING"), ("nickname", "detachable STRING"), ("age", "INTEGER"),
    ("height", "REAL"), ("active", "BOOLEAN"), ("account", "BANK_ACCOUNT"),
]
BANK_HANDLER = [
    "Result.info := convert STRING_TO_INTEGER (oldc.info)",
    "Result.balance := oldc.tot_deposits - oldc.tot_withdrawals",
    "Result.owner := oldc.owner",
]


def bank_project() -> Project:
    person = (1, esc("PERSON", 1, PERSON_ATTRS, ["sane_age: age >= 0 and age < 150"]))
    v1 = esc("BANK_ACCOUNT", 1, BANK_V1, ["valid_account: tot_deposits > tot_withdrawals"])
    v2 = esc("BANK_ACCOUNT", 2, BANK_V2, ["valid_account: balance > 0"])
    return Project(
        releases=[{"BANK_ACCOUNT": (1, v1), "PERSON": person}, {"BANK_ACCOUNT": (2, v2), "PERSON": person}],
        handlers={("BANK_ACCOUNT", 1, 2): est("BANK_ACCOUNT", 1, 2, BANK_HANDLER)},
    )


def bank_account_v1(info: str, deposits: int, withdrawals: int, owner: tuple) -> Rec:
    return Rec("BANK_ACCOUNT", 1, [
        ("tot_deposits", (INT, deposits)), ("tot_withdrawals", (INT, withdrawals)),
        ("info", (STR, info)), ("owner", owner),
    ])


def migrate_bank_account(rec: Rec) -> Rec:
    """The paper's hand-fixed transformer, computed by the oracle:
    balance = deposits - withdrawals, info = int(info)."""
    if rec.cls != "BANK_ACCOUNT" or rec.version != 1:
        return rec
    balance = rec.get("tot_deposits")[1] - rec.get("tot_withdrawals")[1]
    info = int(rec.get("info")[1])
    return Rec("BANK_ACCOUNT", 2, [("balance", (INT, balance)), ("info", (INT, info)), ("owner", rec.get("owner"))])


def bank_records(rng: random.Random, count: int) -> list[Rec]:
    """About a third PERSON records, each owning one to three accounts; a
    person points back at one of its accounts, closing a cycle. One group in
    ten is a single account without an owner."""
    records: list[Rec] = []
    while len(records) < count:
        remaining = count - len(records)
        person_index = None
        owner, owned = VOID_VALUE, 1
        if remaining >= 2 and rng.random() >= 0.1:
            person_index = len(records)
            owner, owned = (REF, person_index), min(rng.randint(1, 3), remaining - 1)
            records.append(None)  # filled once its accounts have indices
        first_account = len(records)
        for _ in range(owned):
            deposits = rng.randint(-(10**12), 10**12)
            withdrawals = deposits - rng.randint(1, 10**9)
            info = str(rng.randint(-(10**6), 10**9))
            if rng.random() < 0.05:
                info = "00" + info.lstrip("-")
            records.append(bank_account_v1(info, deposits, withdrawals, owner))
        if person_index is not None:
            nickname = VOID_VALUE if rng.random() < 0.3 else (STR, draw_string(rng))
            records[person_index] = Rec("PERSON", 1, [
                ("name", (STR, draw_string(rng))), ("nickname", nickname),
                ("age", (INT, rng.randint(0, 149))), ("height", (REAL, draw_real(rng))),
                ("active", (BOOL, rng.random() < 0.5)),
                ("account", (REF, rng.randint(first_account, first_account + owned - 1))),
            ])
    return records


@dataclass
class BankInputs:
    project: Project
    eso: str
    expected: str
    records: int
    migrated: int  # BANK_ACCOUNT records, one hop each; PERSON is gate-only


def bank_inputs(seed: int, count: int) -> BankInputs:
    rng = random.Random(f"bank_bulk:{seed}")
    records = bank_records(rng, count)
    migrated = [migrate_bank_account(r) for r in records]
    return BankInputs(
        bank_project(), render_eso(records), render_eso(migrated), len(records),
        sum(1 for r in records if r.cls == "BANK_ACCOUNT"),
    )


# ---------------------------------------------------------------------------
# chain_small: a 50-release project, long composed paths, planted failures
# ---------------------------------------------------------------------------

CHAIN_RELEASES = 50
B_EVERY = 5
B_LATEST = (CHAIN_RELEASES - 1) // B_EVERY + 1
B_MISSING_HOP = 3  # no 3 -> 4 handler and no long jump from 3
B_LONG_JUMPS = (1, 2)  # direct handlers v -> B_LATEST
B_REGION_FROM = 6  # B gains `region`, filled from an input, at this version
X_LIMIT = 10**12
A_INVARIANT = f"x_bounded: x < {X_LIMIT} and x > -{X_LIMIT}"
PLANT_SHARE = 0.04


@dataclass(frozen=True)
class Hop:
    kind: str  # "lin", "div" or "input"
    m: int
    k: int
    dw: float

    def x(self, x: int, bonus: int) -> int:
        if self.kind == "lin":
            return checked(checked(x * self.m) + self.k)
        if self.kind == "div":
            return checked(truncating_div(x, 3) + self.k)
        return checked(x + bonus)

    def statement(self) -> str:
        if self.kind == "lin":
            return f"Result.x := oldc.x * {self.m} {signed(self.k)}"
        if self.kind == "div":
            return f"Result.x := oldc.x // 3 {signed(self.k)}"
        return "Result.x := oldc.x + input bonus"


def a_attrs(v: int) -> list[tuple[str, str]]:
    return [("x", "INTEGER"), ("w", "REAL"), ("note", "STRING"), ("peer", "C"), (f"step_{v}", "INTEGER")]


def b_attrs(v: int) -> list[tuple[str, str]]:
    attrs = [("code", "STRING" if v % 2 else "INTEGER"), ("count", "INTEGER"), ("owner", "C")]
    return attrs + ([("region", "STRING")] if v >= B_REGION_FROM else [])


C_ATTRS = [("label", "STRING"), ("amount", "REAL"), ("flag", "BOOLEAN"), ("link", "A")]


def b_statements(a: int, b: int) -> list[str]:
    if a % 2 == b % 2:
        code = "Result.code := oldc.code"
    else:
        conv = "STRING_TO_INTEGER" if a % 2 else "INTEGER_TO_STRING"
        code = f"Result.code := convert {conv} (oldc.code)"
    statements = [code, f"Result.count := oldc.count + {b - a}", "Result.owner := oldc.owner"]
    if b >= B_REGION_FROM:
        statements.append("Result.region := " + ("oldc.region" if a >= B_REGION_FROM else "input region"))
    return statements


@dataclass
class ChainOracle:
    hops: list[Hop]  # hops[v - 1] takes A from v to v + 1
    bonus: int
    region: str

    def a_path(self, v: int) -> int:
        return CHAIN_RELEASES - v

    def b_path(self, v: int) -> int | None:
        if v == B_LATEST:
            return 0
        if v in B_LONG_JUMPS:
            return 1
        if v <= B_MISSING_HOP:
            return None
        return B_LATEST - v

    def hops_for(self, rec: Rec) -> int | None:
        if rec.cls == "A":
            return self.a_path(rec.version)
        if rec.cls == "B":
            return self.b_path(rec.version)
        return 0

    def migrate_a(self, rec: Rec) -> Rec:
        x, w = rec.get("x")[1], rec.get("w")[1]
        step = rec.get(f"step_{rec.version}")[1]
        for hop in self.hops[rec.version - 1:]:
            x = hop.x(x, self.bonus)
            w = w + hop.dw
            step += 1
        return Rec("A", CHAIN_RELEASES, [
            ("x", (INT, x)), ("w", (REAL, w)), ("note", rec.get("note")),
            ("peer", rec.get("peer")), (f"step_{CHAIN_RELEASES}", (INT, step)),
        ])

    def migrate_b(self, rec: Rec) -> Rec:
        code = rec.get("code")
        code_int = int(code[1]) if code[0] == STR else code[1]
        region = rec.get("region") if rec.version >= B_REGION_FROM else (STR, self.region)
        return Rec("B", B_LATEST, [
            ("code", (INT, code_int)), ("count", (INT, rec.get("count")[1] + B_LATEST - rec.version)),
            ("owner", rec.get("owner")), ("region", region),
        ])

    def migrate(self, rec: Rec) -> Rec:
        if rec.cls == "A" and rec.version != CHAIN_RELEASES:
            return self.migrate_a(rec)
        if rec.cls == "B" and rec.version != B_LATEST:
            return self.migrate_b(rec)
        return rec

    def evaluate(self, records: list[Rec]) -> tuple[str, int]:
        """The expected outcome, and the Repository.class_history calls that
        retrieve makes today up to and including a failing record: one
        schema lookup per hop plus one for the gate. The outcome is the
        migrated bytes, or the first error's CLI line after 'ERROR '."""
        out = []
        calls = 0
        for index, rec in enumerate(records):
            h = self.hops_for(rec)
            if h is None:
                return f"ERROR TransformationMissing B {rec.version} {B_LATEST}", calls
            calls += h + 1
            rec = self.migrate(rec)
            if rec.cls == "A" and not -X_LIMIT < rec.get("x")[1] < X_LIMIT:
                return f"ERROR InvariantViolation A {index} x_bounded", calls
            out.append(rec)
        return render_eso(out), calls


def chain_hops(rng: random.Random) -> list[Hop]:
    """At most six dividing hops, so a planted huge x still breaks the
    invariant after the longest path."""
    kinds = ["lin"] * (CHAIN_RELEASES - 1)
    for i in rng.sample(range(CHAIN_RELEASES - 1), 6):
        kinds[i] = "div"
    for i in rng.sample([i for i, k in enumerate(kinds) if k == "lin"], 3):
        kinds[i] = "input"
    return [
        Hop(kind, rng.choice((1, -1)), rng.randint(-(10**6), 10**6), rng.randint(-8, 8) * 0.125)
        for kind in kinds
    ]


def chain_project(hops: list[Hop]) -> Project:
    project = Project()
    c_text = (1, esc("C", 1, C_ATTRS, ["nonneg: amount >= 0.0"]))
    for r in range(1, CHAIN_RELEASES + 1):
        bv = (r - 1) // B_EVERY + 1
        project.releases.append({
            "A": (r, esc("A", r, a_attrs(r), [A_INVARIANT])),
            "B": (bv, esc("B", bv, b_attrs(bv), ["positive: count >= 0"])),
            "C": c_text,
        })
    for v, hop in enumerate(hops, start=1):
        project.handlers[("A", v, v + 1)] = est("A", v, v + 1, [
            hop.statement(), f"Result.w := oldc.w + {render_real(hop.dw)}", "Result.note := oldc.note",
            "Result.peer := oldc.peer", f"Result.step_{v + 1} := oldc.step_{v} + 1",
        ])
    for v in range(1, B_LATEST):
        if v != B_MISSING_HOP:
            project.handlers[("B", v, v + 1)] = est("B", v, v + 1, b_statements(v, v + 1))
    for v in B_LONG_JUMPS:
        project.handlers[("B", v, B_LATEST)] = est("B", v, B_LATEST, b_statements(v, B_LATEST))
    return project


def chain_graph(rng: random.Random, plant: str | None) -> list[Rec]:
    n = rng.randint(1, 30)
    classes = [rng.choice("AABC") for _ in range(n)]
    if plant is not None:
        classes[rng.randrange(n)] = "P"
    a_ids = [i for i, c in enumerate(classes) if c == "A" or (c == "P" and plant == "invariant")]
    c_ids = [i for i, c in enumerate(classes) if c == "C"]

    def ref_to(ids: list[int]) -> tuple:
        return (REF, rng.choice(ids)) if ids and rng.random() < 0.85 else VOID_VALUE

    records = []
    for cls in classes:
        if cls == "C":
            records.append(Rec("C", 1, [
                ("label", (STR, draw_string(rng))), ("amount", (REAL, abs(draw_real(rng)))),
                ("flag", (BOOL, rng.random() < 0.5)), ("link", ref_to(a_ids)),
            ]))
        elif cls == "B" or (cls == "P" and plant == "missing"):
            v = B_MISSING_HOP if cls == "P" else rng.choice([v for v in range(1, B_LATEST + 1) if v != B_MISSING_HOP])
            code = rng.randint(-(10**9), 10**9)
            fields = [
                ("code", (STR, str(code)) if v % 2 else (INT, code)),
                ("count", (INT, rng.randint(0, 10**6))), ("owner", ref_to(c_ids)),
            ]
            if v >= B_REGION_FROM:
                fields.append(("region", (STR, draw_string(rng))))
            records.append(Rec("B", v, fields))
        else:
            if cls == "P":  # plant == "invariant": a huge x on a migrated A
                v = rng.randint(1, CHAIN_RELEASES - 1)
                x = rng.choice((1, -1)) * (9 * 10**18)
            else:
                v = rng.randint(1, CHAIN_RELEASES)
                x = rng.randint(-(10**9), 10**9)
            records.append(Rec("A", v, [
                ("x", (INT, x)), ("w", (REAL, draw_real(rng))), ("note", (STR, draw_string(rng))),
                ("peer", ref_to(c_ids)), (f"step_{v}", (INT, rng.randint(-100, 100))),
            ]))
    return records


@dataclass
class ChainCase:
    eso: str
    expected: str
    records: int
    planted: str | None
    class_history_calls: int  # see ChainOracle.evaluate


@dataclass
class ChainInputs:
    project: Project
    inputs: dict[tuple[str, str], tuple]
    oracle: ChainOracle
    graphs: list[list[Rec]]
    cases: list[ChainCase]


def chain_inputs(seed: int, graph_count: int) -> ChainInputs:
    rng = random.Random(f"chain_small:{seed}")
    hops = chain_hops(rng)
    oracle = ChainOracle(hops, rng.randint(-1000, 1000), draw_string(rng))
    graphs, cases = [], []
    for _ in range(graph_count):
        plant = None
        if rng.random() < PLANT_SHARE:
            plant = rng.choice(("missing", "invariant"))
        records = chain_graph(rng, plant)
        graphs.append(records)
        expected, calls = oracle.evaluate(records)
        cases.append(ChainCase(render_eso(records), expected, len(records), plant, calls))
    inputs = {("A", "bonus"): (INT, oracle.bonus), ("B", "region"): (STR, oracle.region)}
    return ChainInputs(chain_project(hops), inputs, oracle, graphs, cases)


# ---------------------------------------------------------------------------
# release_cycle: generated working sets, PER reports and a ledger migration
# ---------------------------------------------------------------------------

# Class widths and the number of classes changed per release are fixed, so
# a cycle costs about the same for every seed; which classes change, and how,
# is drawn from the seed.
WIDTHS = (200, 6, 8, 10, 12, 14, 16, 18)
WORKING_CLASSES = len(WIDTHS)
NARROW_BUMPS = 3  # narrow classes changed per release
WIDE_EVERY = 3  # the wide class W0 changes every third release
PRIMITIVES = ("INTEGER", "REAL", "STRING", "BOOLEAN")
LEDGER_V1 = [("amount", "INTEGER"), ("memo", "STRING"), ("prev", "LEDGER")]
LEDGER_V2 = LEDGER_V1 + [("currency", "STRING")]
LEDGER_V3 = [("cents", "INTEGER"), ("memo", "STRING"), ("prev", "LEDGER"), ("currency", "STRING")]
LEDGER_INVARIANT = "bounded: cents > -1000000000000"
LEDGER_HANDLERS = {
    (1, 2): ["Result.amount := oldc.amount", "Result.memo := oldc.memo", "Result.prev := oldc.prev",
             "Result.currency := input currency"],
    (2, 3): ["Result.cents := oldc.amount * 100", "Result.memo := oldc.memo", "Result.prev := oldc.prev",
             "Result.currency := oldc.currency"],
    (1, 3): ["Result.cents := oldc.amount * 100", "Result.memo := oldc.memo", "Result.prev := oldc.prev",
             "Result.currency := input currency"],
    (3, 1): ["Result.amount := oldc.cents // 100", "Result.memo := oldc.memo", "Result.prev := oldc.prev"],
}


class WorkingClass:
    """One class of the working set; mutations change it as escher's
    equivalence sees it (names, types, attachment), never only by default
    attachment."""

    def __init__(self, rng: random.Random, name: str, width: int, others: list[str]):
        self.name = name
        self.version = 1
        self.others = others
        self.counter = 0
        self.attrs = [("id", "INTEGER")] + [(self.fresh(), self.draw_type(rng)) for _ in range(width - 1)]

    def fresh(self) -> str:
        self.counter += 1
        return f"f{self.counter}"

    def draw_type(self, rng: random.Random) -> str:
        roll = rng.random()
        if roll < 0.6:
            base = rng.choice(PRIMITIVES)
        elif roll < 0.85:
            base = rng.choice(self.others)
        else:
            base = f"{rng.choice(('LIST', 'ARRAY'))}[{rng.choice(PRIMITIVES + tuple(self.others))}]"
        marker = rng.random()
        if marker < 0.15:
            return f"attached {base}"
        if marker < 0.25:
            return f"detachable {base}"
        return base

    def shape(self) -> list[tuple[str, str]]:
        return [(name, typ.removeprefix("detachable ")) for name, typ in self.attrs]

    def mutate(self, rng: random.Random) -> None:
        before = self.shape()
        while self.shape() == before:
            self.mutate_once(rng)

    def mutate_once(self, rng: random.Random) -> None:
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(("rename", "retype", "add", "remove", "attach"))
            if len(self.attrs) < 4:
                kind = "add"
            i = rng.randrange(1, len(self.attrs))  # `id` stays put
            name, typ = self.attrs[i]
            if kind == "rename":
                self.attrs[i] = (self.fresh(), typ)
            elif kind == "retype":
                base = typ.split(" ")[-1]
                choices = [p for p in PRIMITIVES if p != base]
                self.attrs[i] = (name, rng.choice(choices))
            elif kind == "add":
                self.attrs.insert(rng.randint(1, len(self.attrs)), (self.fresh(), self.draw_type(rng)))
            elif kind == "remove":
                del self.attrs[i]
            else:
                base = typ.split(" ")[-1]
                self.attrs[i] = (name, base if typ.startswith("attached ") else f"attached {base}")

    def text(self) -> str:
        return esc(self.name, self.version, self.attrs, ["pos: id >= 0"])


def changed_classes(rng: random.Random, classes: list[WorkingClass], number: int) -> list[WorkingClass]:
    chosen = rng.sample(classes[1:], NARROW_BUMPS)
    if number % WIDE_EVERY == 0:
        chosen.append(classes[0])
    return sorted(chosen, key=lambda wc: wc.name)


def closure_size(m: int, edges: set[tuple[int, int]]) -> int:
    succ: dict[int, list[int]] = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    total = 0
    for source in range(1, m + 1):
        seen = {source}
        stack = [source]
        while stack:
            for nxt in succ.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        total += len(seen) - 1
    return total


def two_places(x: Fraction) -> str:
    return str((Decimal(x.numerator) / Decimal(x.denominator)).quantize(Decimal("0.01"), ROUND_HALF_EVEN))


def per_report(histories: list[tuple[str, int, set[tuple[int, int]]]]) -> str:
    """The PER report from the oracle's own closure counts."""
    lines, values = [], []
    for name, m, edges in histories:
        value = Fraction(1) if m == 1 else Fraction(closure_size(m, edges), m * (m - 1))
        values.append(value)
        lines.append(f"per {name} = {two_places(value)}")
        if m == 1:
            lines.append(f"note {name} has a single version; per is vacuous")
    if len(histories) > 1:
        lines.append(f"release per = {two_places(sum(values, Fraction(0)) / len(values))}")
    return "\n".join(lines) + "\n"


def hist_file(rng: random.Random) -> tuple[str, str]:
    """A .hist file whose largest class has m = 300 versions, with its
    expected PER report."""
    histories = []
    for index, m in enumerate((300, 40, 12, 5, 1)):
        edges = {(v, v + 1) for v in range(1, m) if rng.random() < 0.9}
        edges |= {(b, a) for a, b in ((rng.randint(1, m), rng.randint(1, m)) for _ in range(m // 10)) if a < b}
        histories.append((f"H{index}", m, edges))
    lines = []
    for name, m, edges in histories:
        lines += [f"class {name}", f"versions {m}"] + [f"tf {a} {b}" for a, b in sorted(edges)]
    return "\n".join(lines) + "\n", per_report(histories)


@dataclass
class ReleaseOp:
    kind: str  # "release", "per", "migrate" or "hist"
    expected: str
    working_set: list[str] = field(default_factory=list)  # .esc texts, for "release"
    records: int = 0  # ledger records, for "migrate"


@dataclass
class ReleaseInputs:
    base: Project
    ops: list[ReleaseOp]
    ledger_eso: str
    ledger_expected: str
    ledger_records: int
    currency: str
    hist: str
    final_release: int


def ledger_records(rng: random.Random, count: int) -> list[Rec]:
    records = []
    for index in range(count):
        v = rng.randint(1, 3)
        prev = (REF, rng.randrange(count)) if index and rng.random() < 0.8 else VOID_VALUE
        memo = (STR, draw_string(rng)) if rng.random() < 0.8 else VOID_VALUE
        if v == 3:
            fields = [("cents", (INT, rng.randint(-(10**10), 10**10))), ("memo", memo), ("prev", prev),
                      ("currency", (STR, draw_string(rng)))]
        else:
            fields = [("amount", (INT, rng.randint(-(10**8), 10**8))), ("memo", memo), ("prev", prev)]
            if v == 2:
                fields.append(("currency", (STR, draw_string(rng))))
        records.append(Rec("LEDGER", v, fields))
    return records


def migrate_ledger(rec: Rec, currency: str) -> Rec:
    if rec.version == 3:
        return rec
    own = rec.get("currency") if rec.version == 2 else (STR, currency)
    return Rec("LEDGER", 3, [("cents", (INT, rec.get("amount")[1] * 100)), ("memo", rec.get("memo")),
                             ("prev", rec.get("prev")), ("currency", own)])


def release_inputs(seed: int, base_releases: int, cycle_releases: int, ledger_count: int,
                   per_every: int, migrate_every: int) -> ReleaseInputs:
    rng = random.Random(f"release_cycle:{seed}")
    names = [f"W{i}" for i in range(WORKING_CLASSES)]
    classes = [
        WorkingClass(rng, name, width, [n for n in names if n != name] + ["LEDGER"])
        for name, width in zip(names, WIDTHS)
    ]
    ledger = {1: esc("LEDGER", 1, LEDGER_V1), 2: esc("LEDGER", 2, LEDGER_V2),
              3: esc("LEDGER", 3, LEDGER_V3, [LEDGER_INVARIANT])}
    # PER edges per class: generated stubs (forward) plus hand-written handlers
    edges: dict[str, set[tuple[int, int]]] = {n: set() for n in names}
    edges["LEDGER"] = set(LEDGER_HANDLERS)

    base = Project()
    for number in range(1, base_releases + 1):
        if number > 1:
            for wc in changed_classes(rng, classes, number):
                wc.mutate(rng)
                wc.version += 1
                edges[wc.name].add((wc.version - 1, wc.version))
        ledger_version = min(number, 3)
        release = {wc.name: (wc.version, wc.text()) for wc in classes}
        release["LEDGER"] = (ledger_version, ledger[ledger_version])
        base.releases.append(release)
    for wc in classes:
        for a, b in sorted(edges[wc.name]):
            base.handlers[(wc.name, a, b)] = est(wc.name, a, b, ["Result.id := oldc.id"])
    for back in rng.sample(classes, 3):  # hand-written backward handlers
        if back.version > 1:
            edges[back.name].add((back.version, back.version - 1))
            base.handlers[(back.name, back.version, back.version - 1)] = est(
                back.name, back.version, back.version - 1, ["Result.id := oldc.id"])
    for (a, b), statements in LEDGER_HANDLERS.items():
        base.handlers[("LEDGER", a, b)] = est("LEDGER", a, b, statements)

    currency = draw_string(rng)
    records = ledger_records(rng, ledger_count)
    ledger_expected = render_eso([migrate_ledger(r, currency) for r in records])

    ops: list[ReleaseOp] = []
    hist_text, hist_expected = hist_file(rng)
    ops.append(ReleaseOp("hist", hist_expected))
    number = base_releases
    for step in range(1, cycle_releases + 1):
        number += 1
        # the working set keeps each tag; release bumps the changed ones
        bumped = changed_classes(rng, classes, number)
        for wc in bumped:
            wc.mutate(rng)
        working = [wc.text() for wc in classes] + [ledger[3]]
        for wc in bumped:
            wc.version += 1
            edges[wc.name].add((wc.version - 1, wc.version))
        report = [f"release {number}", "class LEDGER version 3"]
        report += [f"class {wc.name} version {wc.version}" for wc in classes]
        report += [f"stub {wc.name} {wc.version - 1} {wc.version}" for wc in bumped]
        ops.append(ReleaseOp("release", "\n".join(report) + "\n", working_set=working))
        if step % migrate_every == 0:
            ops.append(ReleaseOp("migrate", ledger_expected, records=ledger_count))
        if step % per_every == 0:
            histories = [("LEDGER", 3, edges["LEDGER"])]
            histories += [(wc.name, wc.version, edges[wc.name]) for wc in classes]
            ops.append(ReleaseOp("per", per_report(histories)))
    return ReleaseInputs(base, ops, render_eso(records), ledger_expected, ledger_count, currency,
                         hist_text, number)
