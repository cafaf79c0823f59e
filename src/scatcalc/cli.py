"""Command-line surface.

Subcommands: ``type``, ``normalize``, ``compare``, ``generators``,
``hasse``, ``oracle``.  Exit codes: compare maps LE/NOT_LE/UNKNOWN to
0/1/2, oracle maps YES/NO to 0/1, parse errors exit 64, feasibility
bounds, undecided Hasse pairs, terms nested too deeply, gluings of
more than ``term.MAX_SUMMANDS`` summands and ``type`` of a
non-scattered sentinel exit 65.

There are no global options: each call that compares or normalizes
runs on one fresh :class:`~scatcalc.compare.Engine`.  The argument
parser is built once per process and reused by every ``main`` call.

Importing this module loads only the parser and the term and ordinal
syntax.  Each command imports the layers it runs: ``type`` the rank
layer, ``oracle`` the brute-force oracle, ``normalize`` and
``compare`` the engine, ``generators`` and ``hasse`` the enumeration
as well; ``json`` and ``hashlib`` load only for ``--json`` and
``--dot``.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from typing import TYPE_CHECKING

from .ordinal import parse_ordinal
from .term import TermTooLargeError, format_term, parse_term

if TYPE_CHECKING:
    from .compare import Engine

EX_PARSE = 64
EX_INFEASIBLE = 65

# by Outcome.name
_OUTCOME_EXIT = {"LE": 0, "NOT_LE": 1, "UNKNOWN": 2}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args``
    keeps no state between calls, so every ``main`` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="scatcalc",
        description="symbolic calculus for scattered continuous functions "
        "under continuous reducibility",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("type", help="print the CB-type of a term")
    p.add_argument("term")

    p = sub.add_parser("normalize", help="print the normalized term")
    p.add_argument("term")

    p = sub.add_parser("compare", help="decide continuous reducibility")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--trace", action="store_true", help="print the derivation")
    p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("generators", help="enumerate a generator set")
    p.add_argument("level")
    p.add_argument("--centered", action="store_true", help="centered set instead")
    shown = p.add_mutually_exclusive_group()
    shown.add_argument("--raw", action="store_true", help="list raw terms")
    shown.add_argument("--classes", action="store_true", help="list class representatives")

    p = sub.add_parser("hasse", help="covering relation of a generator set")
    p.add_argument("level")
    p.add_argument("--dot", action="store_true", help="emit a DOT digraph")

    p = sub.add_parser("oracle", help="brute-force reducibility of finite functions")
    p.add_argument("left")
    p.add_argument("right")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ValueError as exc:
        return _fail(exc, EX_PARSE)
    except TermTooLargeError as exc:
        return _fail(exc, EX_INFEASIBLE)
    except RecursionError:
        print("error: term nested too deeply", file=sys.stderr)
        return EX_INFEASIBLE


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def _dispatch(args) -> int:
    if args.command == "type":
        from .rank import NotScatteredError, cb_type

        t = parse_term(args.term)
        try:
            print(cb_type(t))
        except NotScatteredError as exc:
            return _fail(exc, EX_INFEASIBLE)
        return 0

    if args.command == "oracle":
        from . import oracle

        ok = oracle.brute_force_le(
            oracle.parse_finite_fn(args.left), oracle.parse_finite_fn(args.right)
        )
        print("YES" if ok else "NO")
        return 0 if ok else 1

    from . import rewrite
    from .compare import Engine

    engine = Engine()
    if args.command == "normalize":
        t = parse_term(args.term)
        print(format_term(rewrite.normalize(t, engine)))
        return 0

    if args.command == "compare":
        verdict = engine.compare(parse_term(args.left), parse_term(args.right))
        # a verdict decided by type derives its trace when read, which
        # may fail; read it before printing anything
        trace = verdict.trace if args.json or args.trace else ()
        outcome = verdict.outcome.name
        if args.json:
            import json

            print(
                json.dumps(
                    {
                        "schema": 1,
                        "outcome": outcome,
                        "trace": [{"rule": rule, "query": query} for rule, query in trace],
                    }
                )
            )
        else:
            print(outcome)
            for rule, query in trace:
                print(f"  {rule}: {query}")
        return _OUTCOME_EXIT[outcome]

    from . import generators as gen_mod

    try:
        if args.command == "generators":
            level = parse_ordinal(args.level)
            build = gen_mod.centered_set if args.centered else gen_mod.generator_set
            raw = build(level).raw
            terms = raw if args.raw else _representatives(raw, engine)
            for t in terms:
                print(format_term(t))
            return 0

        if args.command == "hasse":
            level = parse_ordinal(args.level)
            reps = _representatives(gen_mod.generator_set(level).raw, engine)
            edges = gen_mod.hasse(reps, engine)
            if args.dot:
                print(render_dot(reps, edges, engine))
            else:
                for a, b in edges:
                    print(f"{format_term(a)} -> {format_term(b)}")
            return 0
    except (gen_mod.FeasibilityError, gen_mod.UndecidedPairError) as exc:
        return _fail(exc, EX_INFEASIBLE)

    raise AssertionError(f"unhandled command {args.command}")


def _representatives(raw, engine: Engine) -> list:
    from .generators import equivalence_classes

    classes, _ = equivalence_classes(raw, engine)
    return [rep for rep, _ in classes]


def render_dot(terms, edges, engine: Engine) -> str:
    import hashlib

    from . import rewrite

    @cache  # one hash per node, however many edges name it
    def node_id(t) -> str:
        digest = hashlib.sha256(format_term(rewrite.normalize(t, engine)).encode()).hexdigest()
        return "n" + digest[:12]

    lines = ["digraph hasse {"]
    for t in terms:
        label = format_term(t).replace('"', '\\"')
        lines.append(f'  {node_id(t)} [label="{label}"];')
    for a, b in edges:
        lines.append(f"  {node_id(a)} -> {node_id(b)};")
    lines.append("}")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
