"""Correctness checks that do not trust the program.

Each check takes verdicts as the strings "LE", "NOT_LE" and "UNKNOWN"
and returns a list of problems; an empty list means the check passed.
The expected answers come from gen.py and from the documentation, never
from scatcalc itself.
"""

from __future__ import annotations

import json

import gen

# -- census-random ----------------------------------------------------


def finite_pairs(cases) -> list[str]:
    """``cases``: (f, g, engine verdict, brute_force_le answer) for
    finite functions f, g.  Both must agree with the image-size formula."""
    problems = []
    for f, g, verdict, brute in cases:
        want = gen.image_size(f) <= gen.image_size(g)
        if verdict != ("LE" if want else "NOT_LE"):
            problems.append(f"rank-1 {f} vs {g}: engine says {verdict}, image sizes say {want}")
        if brute != want:
            problems.append(f"rank-1 {f} vs {g}: brute_force_le says {brute}, image sizes say {want}")
    return problems


def compact_pairs(cases) -> list[str]:
    """``cases``: ((m, a), (n, b), verdict) for m*min(a+1) vs n*min(b+1)."""
    problems = []
    for x, y, verdict in cases:
        want = "LE" if gen.compact_le(x, y) else "NOT_LE"
        if verdict != want:
            problems.append(
                f"{gen.compact_text(*x)} vs {gen.compact_text(*y)}: {verdict}, lex order says {want}"
            )
    return problems


def reflexive(verdicts, label: str) -> list[str]:
    """``verdicts``: (term text, verdict of the term against itself)."""
    return [f"{label}: {text} vs itself is {v}" for text, v in verdicts if v != "LE"]


def cb_order(pool, pairs, verdicts) -> list[str]:
    """An LE verdict never goes against the lexicographic CB-type order,
    with types worked out from the trees."""
    types = {}
    problems = []
    for (i, j), verdict in zip(pairs, verdicts):
        if verdict != "LE":
            continue
        for k in (i, j):
            if k not in types:
                types[k] = gen.cb_type(pool[k])
        if types[i] > types[j]:
            problems.append(
                f"LE against CB-types: {gen.text(pool[i])} {types[i]} vs "
                f"{gen.text(pool[j])} {types[j]}"
            )
    return problems


def no_triangle(triples) -> list[str]:
    """``triples``: (a, b, c, v_ab, v_bc, v_ac).  LE, LE then NOT_LE
    breaks transitivity."""
    return [
        f"{a} <= {b} <= {c} but {a} NOT_LE {c}"
        for a, b, c, ab, bc, ac in triples
        if ab == "LE" and bc == "LE" and ac == "NOT_LE"
    ]


def same_verdicts(expected, got, label: str) -> list[str]:
    if len(expected) != len(got):
        return [f"{label}: {len(got)} verdicts where {len(expected)} were expected"]
    diffs = sum(1 for a, b in zip(expected, got) if a != b)
    return [f"{label}: {diffs} of {len(expected)} verdicts differ"] if diffs else []


# -- levels -----------------------------------------------------------

# The paper's covering relation among the six generators at lambda+1:
# max(lambda) -> min(lambda+1) -> {pgl{max(lambda)}, omega(min(lambda+1))}
# -> wedge({max(lambda)} | {min(lambda+1)}) -> max(lambda+1).
SIX_NAMES = ("max", "min", "pgl-max", "omega-min", "wedge", "max+1")
COVERING = {
    ("max", "min"),
    ("min", "pgl-max"),
    ("min", "omega-min"),
    ("pgl-max", "wedge"),
    ("omega-min", "wedge"),
    ("wedge", "max+1"),
}


def six_text(lam: tuple) -> list[str]:
    """The six generators at lam+1, as text, in SIX_NAMES order."""
    top, mx = gen.ord_text(lam), gen.ord_text(gen.succ(lam))
    return [
        f"max({top})",
        f"min({mx})",
        f"pgl{{max({top})}}",
        f"omega(min({mx}))",
        f"wedge({{max({top})}} | {{min({mx})}})",
        f"max({mx})",
    ]


def covering(lam_text: str, named_edges) -> list[str]:
    """``named_edges``: the Hasse edges of the six generators, each end
    given by its name in SIX_NAMES."""
    got = set(named_edges)
    if got == COVERING:
        return []
    return [f"six generators at {lam_text}+1: covering {sorted(got)}, paper says {sorted(COVERING)}"]


def class_count(label: str, classes: int, undecided: int, want_classes: int) -> list[str]:
    problems = []
    if classes != want_classes:
        problems.append(f"{label}: {classes} classes, expected {want_classes}")
    if undecided:
        problems.append(f"{label}: {undecided} undecided pairs, expected 0")
    return problems


def table_triangles(reps, verdict) -> list[str]:
    """No LE, LE, NOT_LE triangle over the class representatives;
    ``verdict(a, b)`` looks the pair up in the verdict table."""
    problems = []
    for a in reps:
        for b in reps:
            if verdict(a, b) != "LE":
                continue
            for c in reps:
                if verdict(b, c) == "LE" and verdict(a, c) == "NOT_LE":
                    problems.append(f"frontier triangle {a} <= {b} <= {c} but {a} NOT_LE {c}")
    return problems


# -- cli --------------------------------------------------------------
# The examples of the README's "Command line" section, with the answers
# it documents.  The outcome of `compare max(w) min(w+1)` is LE, the
# first step of the chain max(lam) -> min(lam+1) of its "Experiments"
# section; `one` <= `2*one` by image sizes.

README_CALLS = (
    ("type", ["type", "pgl{max(w)}"]),
    ("normalize", ["normalize", "glue(one, one, omega(one))"]),
    ("compare", ["compare", "pgl{max(w)}", "omega(min(w+1))"]),
    ("compare", ["compare", "max(w)", "min(w+1)", "--trace"]),
    ("compare", ["compare", "one", "2*one", "--json"]),
    ("generators", ["generators", "1", "--raw"]),
    ("generators", ["generators", "2", "--centered", "--classes"]),
    ("hasse", ["hasse", "w+1", "--dot"]),
    ("oracle", ["oracle", "3 2 0 1 0", "5 3 0 1 2 0 1"]),
)
# ROADMAP item 4: today this exits 1 with a RecursionError traceback
KNOWN_FAULT = ["normalize", "min(400)"]


def cli_answer(argv: list[str], code: int, out: str, err: str) -> list[str]:
    """Problems with one README example's exit code and output."""
    where = "scatcalc " + " ".join(argv)
    problems = [f"{where}: traceback on stderr"] if "Traceback" in err else []
    lines = out.splitlines()
    want_code, ok = _README_ANSWER[tuple(argv)](lines)
    if code != want_code:
        problems.append(f"{where}: exit {code}, expected {want_code}")
    if not ok:
        problems.append(f"{where}: unexpected output {out[:200]!r}")
    return problems


def _json_le(lines):
    try:
        doc = json.loads("\n".join(lines))
    except ValueError:
        return False
    return doc.get("schema") == 1 and doc.get("outcome") == "LE" and isinstance(doc.get("trace"), list)


def _dot(lines):
    if len(lines) < 3 or not lines[0].startswith("digraph") or lines[-1] != "}":
        return False
    labels = {}
    edges = []
    for line in lines[1:-1]:
        line = line.strip()
        if " -> " in line:
            edges.append(tuple(line.rstrip(";").split(" -> ")))
        elif "[label=" in line:
            node, label = line.split(" [label=", 1)
            labels[node] = label.rstrip("];").strip('"')
        else:
            return False
    wanted = {"min(w+1)", "pgl{max(w)}", "omega(min(w+1))", "wedge({max(w)} | {min(w+1)})"}
    return bool(edges) and all(a in labels and b in labels for a, b in edges) and wanted <= set(labels.values())


_README_ANSWER = {
    ("type", "pgl{max(w)}"): lambda lines: (0, lines == ["(w+1, 1)"]),
    ("normalize", "glue(one, one, omega(one))"): lambda lines: (0, lines == ["omega(one)"]),
    ("compare", "pgl{max(w)}", "omega(min(w+1))"): lambda lines: (1, lines == ["NOT_LE"]),
    ("compare", "max(w)", "min(w+1)", "--trace"): lambda lines: (
        0,
        len(lines) >= 2 and lines[0] == "LE" and all(x.startswith("  ") and ": " in x for x in lines[1:]),
    ),
    ("compare", "one", "2*one", "--json"): lambda lines: (0, _json_le(lines)),
    ("generators", "1", "--raw"): lambda lines: (0, lines == ["one", "omega(one)"]),
    ("generators", "2", "--centered", "--classes"): lambda lines: (0, len(lines) == 3),
    ("hasse", "w+1", "--dot"): lambda lines: (0, _dot(lines)),
    ("oracle", "3 2 0 1 0", "5 3 0 1 2 0 1"): lambda lines: (0, lines == ["YES"]),
}


def known_fault_mended(code: int, out: str, err: str) -> bool:
    """`normalize min(400)` is mended when it prints the normal form the
    min recurrence gives, or refuses with exit 65 and a one-line error."""
    if code == 0:
        return out.strip() == gen.min_recurrence_text(400) and "Traceback" not in err
    return code == 65 and len(err.strip().splitlines()) == 1 and "Traceback" not in err
