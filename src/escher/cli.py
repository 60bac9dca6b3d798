"""Command-line entry point.

    escher parse FILE
    escher diff OLD_FILE NEW_FILE
    escher gen OLD_FILE NEW_FILE OUT_FILE
    escher release WORKING_DIR [--project DIR]
    escher migrate OBJECT_FILE [--to-release N | --to CLASS=V ...]
                   [--inputs CLASS.attr=value ...] [--out FILE]
                   [--project DIR] [--no-assert] [--strict-direct]
    escher per [HIST_FILE] [--project DIR]
    escher check OBJECT_FILE SCHEMA_FILE

``--project`` defaults to the current directory.

Exit codes: 0 success, 1 domain error (the error name is the first output
line), 2 usage or IO problems.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import EscherError, FormatError, NoRecordChecked, UnknownClass, UnknownVersion
from .objects import deserialize, eval_invariant, parse_value_text, retrieve, serialize
from .repository import (
    empty_repository,
    load_repository,
    naming,
    project_lock,
    read_text,
    release,
    replace_file,
    save_repository,
)
from .schema import ClassSchema, parse_schema, render_schema
from .smo import diff_schemas, render_smo_report
from .transformer import generate_transformer, render_transformer
from .values import ObjectValue


class _Usage(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    project = argparse.ArgumentParser(add_help=False)
    project.add_argument("--project", default=".", metavar="DIR", help="project directory")
    parser = argparse.ArgumentParser(prog="escher", description="schema evolution toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a class file, print canonical form")
    p.add_argument("file")

    p = sub.add_parser("diff", help="report SMOs between two class files")
    p.add_argument("old_file")
    p.add_argument("new_file")

    p = sub.add_parser("gen", help="generate a transformer template")
    p.add_argument("old_file")
    p.add_argument("new_file")
    p.add_argument("out_file")

    p = sub.add_parser("release", parents=[project], help="cut a release from a working set")
    p.add_argument("working_dir")

    p = sub.add_parser("migrate", parents=[project], help="retrieve an object file at target versions")
    p.add_argument("object_file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--to-release", type=int, dest="to_release", metavar="N")
    group.add_argument("--to", action="append", default=[], metavar="CLASS=V")
    p.add_argument("--inputs", action="append", default=[], metavar="CLASS.attr=value")
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--no-assert", action="store_true", dest="no_assert",
                   help="skip invariant gates and attachment checks (unsafe)")
    p.add_argument("--strict-direct", action="store_true", dest="strict_direct",
                   help="refuse composed multi-hop migrations")

    p = sub.add_parser("per", parents=[project], help="p-evolution-robustness report")
    p.add_argument("hist_file", nargs="?")

    p = sub.add_parser("check", help="check invariants of an object file")
    p.add_argument("object_file")
    p.add_argument("schema_file")
    return parser


def _read_schema(path: str) -> ClassSchema:
    """The schema of the ``.esc`` file ``path``; a ParseError names the file."""
    text = read_text(path)
    with naming(path):
        return parse_schema(text)


def cmd_parse(args: argparse.Namespace) -> int:
    print(render_schema(_read_schema(args.file)), end="")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    old = _read_schema(args.old_file)
    new = _read_schema(args.new_file)
    print(render_smo_report(diff_schemas(old, new)), end="")
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    old = _read_schema(args.old_file)
    new = _read_schema(args.new_file)
    if old.version == new.version:
        raise _Usage(f"both class files carry version {old.version}; a transformer changes it")
    transformer = generate_transformer(diff_schemas(old, new))
    replace_file(Path(args.out_file), render_transformer(transformer))
    print(f"wrote {args.out_file}")
    return 0


def cmd_release(args: argparse.Namespace) -> int:
    project = Path(args.project)
    if not project.is_dir():
        raise _Usage(f"project directory {project} does not exist")
    working_dir = Path(args.working_dir)
    if not working_dir.is_dir():
        raise _Usage(f"working directory {working_dir} does not exist")
    working_set = {}
    for path in sorted(working_dir.glob("*.esc")):
        schema = _read_schema(str(path))
        if schema.name in working_set:
            raise FormatError(0, f"class {schema.name} defined twice in the working set")
        working_set[schema.name] = schema
    with project_lock(project):
        if (project / "escher.manifest").exists():
            repo = load_repository(project)
        else:
            repo = empty_repository(project.name)
        repo, report = release(repo, working_set)
        if not report.noop:
            save_repository(repo, project)
    print(report.render(), end="")
    return 0


def _parse_targets(args: argparse.Namespace, repo) -> dict[str, int]:
    targets: dict[str, int] = {}
    if args.to_release is not None:
        if not (1 <= args.to_release <= len(repo.releases)):
            raise _Usage(f"release {args.to_release} does not exist")
        targets = dict(repo.releases[args.to_release - 1].versions)
    for entry in args.to:
        name, sep, version = entry.partition("=")
        usage = _Usage(f"--to wants CLASS=V, got {entry!r}")
        # str.isdigit() alone admits digits such as "²" that int() refuses
        if not name or not sep or not (version.isascii() and version.isdigit()):
            raise usage
        if repo.latest_version(name) is None:
            raise UnknownClass(name)
        try:
            target = int(version)
        except ValueError:  # more digits than int() converts
            raise usage from None
        if target not in repo.class_versions(name):
            raise UnknownVersion(name, target)
        targets[name] = target
    return targets


def _parse_inputs(entries: list[str]) -> dict[tuple[str, str], ObjectValue]:
    inputs: dict[tuple[str, str], ObjectValue] = {}
    for entry in entries:
        key, sep, literal = entry.partition("=")
        cls, dot, attr = key.partition(".")
        if not sep or not dot or not cls or not attr:
            raise _Usage(f"--inputs wants CLASS.attr=value, got {entry!r}")
        try:
            inputs[(cls, attr)] = parse_value_text(literal)
        except FormatError as err:
            raise FormatError(err.line, f"--inputs {key}: {err}") from err
    return inputs


def cmd_migrate(args: argparse.Namespace) -> int:
    repo = load_repository(args.project)
    graph = deserialize(read_text(args.object_file))
    targets = _parse_targets(args, repo)
    inputs = _parse_inputs(args.inputs)
    warnings: list[str] = []
    migrated = retrieve(
        graph,
        repo,
        targets,
        inputs,
        assertions=not args.no_assert,
        allow_composition=not args.strict_direct,
        warnings=warnings,
    )
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    text = serialize(migrated)
    if args.out:
        replace_file(Path(args.out), text)
    else:
        print(text, end="")
    return 0


def cmd_per(args: argparse.Namespace) -> int:
    # imported here, so that no other command loads per
    from .per import history_from_repository, parse_history_file, render_per_report

    if args.hist_file:
        histories = parse_history_file(read_text(args.hist_file))
    else:
        repo = load_repository(args.project)
        latest = repo.latest_release()
        names = sorted(latest.schemas) if latest else []
        histories = [history_from_repository(repo, name) for name in names]
        if not histories:
            raise _Usage("project has no released classes")
    print(render_per_report(histories), end="")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    schema = _read_schema(args.schema_file)
    graph = deserialize(read_text(args.object_file))
    checked = [record for record in graph.records  # of the schema's class and version only
               if record.class_name == schema.name and record.version == schema.version]
    if not checked:
        raise NoRecordChecked(schema.name, schema.version)
    for record in checked:  # every record first, so an error is the first line
        eval_invariant(record, schema)
    for record in checked:
        print(f"ok {record.class_name} {record.id}")
    return 0


_COMMANDS = {
    "parse": cmd_parse,
    "diff": cmd_diff,
    "gen": cmd_gen,
    "release": cmd_release,
    "migrate": cmd_migrate,
    "per": cmd_per,
    "check": cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # argparse binds a positional to [] when "--" is given twice
        if any(value == [] for name, value in vars(args).items() if name not in ("to", "inputs")):
            raise _Usage("'--' may be given only once")
        return _COMMANDS[args.command](args)
    except EscherError as err:
        print(err.cli_line())
        return 1
    except _Usage as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as err:
        print(f"io error: input is not UTF-8 text: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
