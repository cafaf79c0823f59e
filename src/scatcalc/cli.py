"""Command-line surface.

Subcommands: ``type``, ``normalize``, ``compare``, ``generators``,
``hasse``, ``oracle``.  Exit codes: compare maps LE/NOT_LE/UNKNOWN to
0/1/2, oracle maps YES/NO to 0/1, parse errors exit 64, feasibility
bounds, undecided Hasse pairs, terms nested too deeply and gluings of
more than ``term.MAX_SUMMANDS`` summands exit 65.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from . import generators as gen_mod
from . import oracle as oracle_mod
from . import rewrite
from .compare import Engine, Outcome
from .ordinal import OrdinalSyntaxError, parse_ordinal
from .rank import cb_type
from .term import TermSyntaxError, TermTooLargeError, format_term, parse_term

EX_PARSE = 64
EX_INFEASIBLE = 65

_OUTCOME_TEXT = {Outcome.LE: "LE", Outcome.NOT_LE: "NOT_LE", Outcome.UNKNOWN: "UNKNOWN"}
_OUTCOME_EXIT = {Outcome.LE: 0, Outcome.NOT_LE: 1, Outcome.UNKNOWN: 2}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scatcalc",
        description="symbolic calculus for scattered continuous functions "
        "under continuous reducibility",
    )
    parser.add_argument("--depth", type=int, default=64, help="comparison depth bound")
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
    p.add_argument("--raw", action="store_true", help="list raw terms")
    p.add_argument("--classes", action="store_true", help="list class representatives")

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
    except (TermSyntaxError, OrdinalSyntaxError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_PARSE
    except (gen_mod.FeasibilityError, gen_mod.UndecidedPairError, TermTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_INFEASIBLE
    except RecursionError:
        print("error: term nested too deeply", file=sys.stderr)
        return EX_INFEASIBLE


def _dispatch(args) -> int:
    engine = Engine(depth=args.depth)
    if args.command == "type":
        t = parse_term(args.term)
        print(cb_type(t))
        return 0

    if args.command == "normalize":
        t = parse_term(args.term)
        print(format_term(rewrite.normalize(t, engine)))
        return 0

    if args.command == "compare":
        verdict = engine.compare(parse_term(args.left), parse_term(args.right))
        # a verdict decided by type derives its trace when read, which
        # may fail; read it before printing anything
        trace = verdict.trace if args.json or args.trace else ()
        if args.json:
            print(
                json.dumps(
                    {
                        "schema": 1,
                        "outcome": _OUTCOME_TEXT[verdict.outcome],
                        "trace": [{"rule": rule, "query": query} for rule, query in trace],
                    }
                )
            )
        else:
            print(_OUTCOME_TEXT[verdict.outcome])
            for rule, query in trace:
                print(f"  {rule}: {query}")
        return _OUTCOME_EXIT[verdict.outcome]

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

    if args.command == "oracle":
        f = oracle_mod.parse_finite_fn(args.left)
        g = oracle_mod.parse_finite_fn(args.right)
        ok = oracle_mod.brute_force_le(f, g)
        print("YES" if ok else "NO")
        return 0 if ok else 1

    raise AssertionError(f"unhandled command {args.command}")


def _representatives(raw, engine: Engine) -> list:
    classes, _ = gen_mod.equivalence_classes(raw, engine)
    return [rep for rep, _ in classes]


def _node_id(t, engine: Engine) -> str:
    digest = hashlib.sha256(format_term(rewrite.normalize(t, engine)).encode()).hexdigest()
    return "n" + digest[:12]


def render_dot(terms, edges, engine: Engine) -> str:
    lines = ["digraph hasse {"]
    for t in terms:
        label = format_term(t).replace('"', '\\"')
        lines.append(f'  {_node_id(t, engine)} [label="{label}"];')
    for a, b in edges:
        lines.append(f"  {_node_id(a, engine)} -> {_node_id(b, engine)};")
    lines.append("}")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
