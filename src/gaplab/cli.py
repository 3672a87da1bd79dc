"""Command-line front end.

Exit codes: 0 success (and, for verify, a valid labelling); 1 domain or
input errors, or out of memory; 2 usage errors; 3 search budget exhausted
(the budget comes from the GAPLAB_SEARCH_BUDGET environment variable).

``main`` may be called repeatedly in one process: every call parses with the
same parser, built on first use.  Only such in-process callers save work; a
``gaplab`` command is one process and builds the parser once either way.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .decide import decide, vertex_gap_number
from .errors import GapLabError, SearchBudgetExceeded
from .families import (
    COMPLETE,
    CYCLE_POWER,
    PATH_POWER,
    FamilySpec,
    build_family,
    family_labelling,
)
from .graph import parse_graph, serialize_graph
from .labelling import is_gap_labelling, parse_labelling, serialize_labelling
from .strength import (
    construct_upper,
    emit_tables,
    exact_strength,
    removed_edge_ledger,
)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _budget() -> int | None:
    raw = os.environ.get("GAPLAB_SEARCH_BUDGET")
    if raw is None:
        return None
    try:
        budget = int(raw)
    except ValueError:
        raise GapLabError(f"GAPLAB_SEARCH_BUDGET must be an integer, got {raw!r}") from None
    if budget < 0:
        raise GapLabError(f"GAPLAB_SEARCH_BUDGET must be >= 0, got {budget}")
    return budget


def _family_spec(args) -> FamilySpec:
    return FamilySpec(args.family, args.n, None if args.family == COMPLETE else args.k)


def _cmd_gen(args) -> int:
    _write(args.output, serialize_graph(build_family(_family_spec(args))))
    return 0


def _cmd_label(args) -> int:
    if args.family is not None:
        labels = family_labelling(_family_spec(args))
    else:
        g = parse_graph(_read(args.graph))
        result = decide(g, budget=_budget())
        if not result.labelable:
            raise GapLabError("graph is not gap-vertex-labelable; no labelling to write")
        labels = result.witness
    _write(args.output, serialize_labelling(labels))
    return 0


def _cmd_verify(args) -> int:
    g = parse_graph(_read(args.graph))
    labels = parse_labelling(_read(args.labels))
    ok, conflicts = is_gap_labelling(g, labels)
    if ok:
        print("VALID")
        return 0
    print("INVALID")
    for u, v in conflicts:
        print(f"conflict {u} {v}")
    return 1


def _cmd_decide(args) -> int:
    g = parse_graph(_read(args.graph))
    result = decide(g, budget=_budget())
    print(f"labelable: {'yes' if result.labelable else 'no'}")
    print(f"assignments: {result.assignments_tried}")
    if result.witness is not None:
        sys.stdout.write(serialize_labelling(result.witness))
    return 0


def _cmd_chi(args) -> int:
    g = parse_graph(_read(args.graph))
    least = vertex_gap_number(g, args.kmax, budget=_budget())
    print(least if least is not None else f"none <= {args.kmax}")
    return 0


def _cmd_strength_lb(args) -> int:
    sys.stdout.write(emit_tables(args.nmax))
    return 0


def _cmd_strength_ub(args) -> int:
    built = construct_upper(args.n)
    for order, i, x in built.plan.steps:
        print(f"iteration: n={order} i={i} x={x}")
    print(f"removed: {len(built.removed)}")
    ledger = removed_edge_ledger(args.n, built.removed)
    labels = serialize_labelling(built.labelling)
    if args.output:
        _write(args.output + ".removed", ledger)
        _write(args.output + ".labels", labels)
    else:
        sys.stdout.write(ledger)
        sys.stdout.write(labels)
    return 0


def _cmd_strength_exact(args) -> int:
    print(exact_strength(args.n))
    return 0


class _HelpFormatter(argparse.HelpFormatter):
    """Sized by ``shutil.get_terminal_size``'s rule without loading shutil, bz2, lzma."""

    def __init__(self, prog, **kwargs):
        try:
            columns = int(os.environ["COLUMNS"])
        except (KeyError, ValueError):
            columns = 0
        if columns <= 0:
            try:
                columns = os.get_terminal_size(sys.__stdout__.fileno()).columns or 80
            except (AttributeError, ValueError, OSError):
                columns = 80
        super().__init__(prog, width=columns - 2, **kwargs)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by later ones.

    Parsing leaves the parser unchanged, so every ``main`` call in a process
    can use the one instance; callers must not modify it.
    """
    parser_class = functools.partial(argparse.ArgumentParser, formatter_class=_HelpFormatter)
    parser = parser_class(prog="gaplab", description="Gap-vertex-labellings of graphs.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=parser_class)

    def add_family_flags(p, *, family_required: bool):
        p.add_argument(
            "--family", choices=(COMPLETE, CYCLE_POWER, PATH_POWER), required=family_required
        )
        p.add_argument("--n", type=int, required=family_required)
        p.add_argument("--k", type=int)

    p = sub.add_parser("gen", help="write a family graph in edge-list form")
    add_family_flags(p, family_required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_gen, parser=p)

    p = sub.add_parser("label", help="write a labelling (family rule or search witness)")
    add_family_flags(p, family_required=False)
    p.add_argument("--graph", help="decide this graph and emit the witness")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_label, parser=p)

    p = sub.add_parser("verify", help="check a labelling against a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--labels", required=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("decide", help="search for any gap labelling")
    p.add_argument("--graph", required=True)
    p.set_defaults(fn=_cmd_decide)

    p = sub.add_parser("chi", help="least label count up to a cap")
    p.add_argument("--graph", required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.set_defaults(fn=_cmd_chi)

    p = sub.add_parser("strength-lb", help="emit the lower-bound tables")
    p.add_argument("--nmax", type=int, required=True)
    p.set_defaults(fn=_cmd_strength_lb)

    p = sub.add_parser("strength-ub", help="edge-removal construction for K_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("-o", "--output", help="prefix for .removed and .labels files")
    p.set_defaults(fn=_cmd_strength_ub)

    p = sub.add_parser("strength-exact", help="exact strength of K_n (n = 4..6)")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_strength_exact)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Usage errors found here are reported by the subcommand's own parser.
    if args.fn is _cmd_label and (args.family is None) == (args.graph is None):
        args.parser.error("label needs exactly one of --family or --graph")
    family = getattr(args, "family", None)
    if family is not None and args.n is None:
        args.parser.error("--family requires --n")
    if family is not None and family != COMPLETE and args.k is None:
        args.parser.error(f"--family {family} requires --k")
    try:
        return args.fn(args)
    except SearchBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (GapLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
