"""Command line interface.

Subcommands: check (full verification battery), profile (witness tables),
sweep (truncated-family divergence sweeps), axioms (ring diagnostics).
Exit codes: 0 all assertions passed, 1 verified counterexample or failed
check, 2 inconclusive entries or a search budget or enumeration limit
reached, 64 usage or parse errors.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources

from .errors import ParseError, ProkitError
from .tasks import emit_report, parse_spec, run_task

USAGE_EXIT = 64
# the analysis kind each subcommand runs on a ring task; sweep keeps the
# document's, and a sweep without a family section is refused below
COMMAND_KINDS = {"check": "verify", "profile": "profile", "axioms": "axioms"}


def _load_task_text(ref):
    if ref.startswith("fixture:"):
        name = ref.split(":", 1)[1]
        if not name.endswith(".json"):
            name += ".json"
        return resources.files("prokit.fixtures").joinpath(name).read_text()
    with open(ref, "r", encoding="utf-8") as fh:
        return fh.read()


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as ParseError (exit 64) instead of exiting 2."""

    def error(self, message):
        raise ParseError(message)


def build_parser():
    parser = _Parser(
        prog="prokit",
        description="exact proregularity checks over finite commutative rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, helptext in (
        ("check", "run the verification battery of a task file"),
        ("profile", "compute minimal-witness profile tables"),
        ("sweep", "run a truncated-family sweep with divergence detection"),
        ("axioms", "validate the task's ring axioms"),
    ):
        p = sub.add_parser(cmd, help=helptext)
        p.add_argument("taskfile", help="path to a task file, or fixture:<name>")
        p.add_argument("--format", choices=["json", "csv", "text"], default="json")
        p.add_argument("--seed", type=int, default=None, help="override the task seed")
        p.add_argument("--m-max", type=int, default=None, help="override the search bound")
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        text = _load_task_text(args.taskfile)
        task = parse_spec(text, COMMAND_KINDS.get(args.command))
    except (OSError, UnicodeDecodeError, ProkitError) as exc:
        # any error while the task's ring and modules are built is bad input
        print(f"prokit: {exc}", file=sys.stderr)
        return USAGE_EXIT
    if args.seed is not None:
        task.seed = args.seed & 0xFFFFFFFFFFFFFFFF
    if args.m_max is not None:
        if args.m_max < 1:
            print("prokit: --m-max must be positive", file=sys.stderr)
            return USAGE_EXIT
        task.bounds["m_max"] = args.m_max
    if args.command == "sweep" and task.family is None:
        print("prokit: sweep needs a task file with a family section", file=sys.stderr)
        return USAGE_EXIT
    try:
        report = run_task(task)
    except ParseError as exc:
        print(f"prokit: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except ProkitError as exc:
        print(f"prokit: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    sys.stdout.buffer.write(emit_report(report, args.format))
    sys.stdout.buffer.flush()
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
