"""Batch command line interface with JSON input and output.

Subcommands: gen, delta, charts, flip, transport, act, verify-axioms,
verify-cactus, dim.  Data travels as UTF-8 JSON on files or stdin ("-");
output is emitted with sorted keys so identical invocations are byte
identical.  Exit codes: 0 success or all checks passed, 1 verification
failure (report with counterexamples still emitted), 2 usage error.
"""

import argparse
import io
import json
import math
import sys
from functools import lru_cache

from .flags import Configuration, FlagError
from .polygon import (Triangulation, ChartPoint, chart_indices, chart_dimension,
                      PolygonError)
from .mutation import flip_transport, transport, MutationError
from .reconstruct import (flags_to_charts, random_positive,
                          ChartValueError)
from .rational import scalar_str, DigitLimitError
from .cactus import word_from_json, act_word, verify_relations
from .axioms import AXIOMS, check_axiom, check_glue


class UsageError(ValueError):
    pass


def _parse_json(fh, source):
    """The JSON document in text file ``fh``.  Every decode failure is a usage
    error: not UTF-8, bad syntax, too many digits or too deep nesting."""
    try:
        return json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise UsageError("malformed JSON in %r: %s" % (source, exc))


def _read_json(source):
    """The JSON document in file ``source``, or on stdin for "-"."""
    if source == "-":
        return _parse_json(sys.stdin, source)
    with open(source, encoding="utf-8") as fh:
        return _parse_json(fh, source)


def _check_sizes(n, m, trials=1):
    """Usage errors, before any enumeration: fewer than one trial, or an n-gon
    chart at m of more than sys.maxsize coordinates, which no list can hold."""
    if trials < 1:
        raise UsageError("--trials must be at least 1, got %d" % trials)
    if n >= 3 and m >= 2 and chart_dimension(n, m) > sys.maxsize:
        raise UsageError("the %d-gon at m = %d has too many chart coordinates" % (n, m))


def _emit(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _parse_pairs(text):
    """The vertex pairs of "a-b,c-d" syntax; the empty string has none."""
    pairs = []
    for part in text.split(",") if text else []:
        try:
            a, b = (int(x) for x in part.split("-"))
        except ValueError:
            raise UsageError("bad diagonal %r, expected 'a-b'" % part)
        pairs.append((a, b))
    return pairs


def _load(cls, data):
    """``cls.from_json(data)``; a document of the wrong shape is a usage error."""
    try:
        return cls.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError("not a %s: %s" % (cls.__name__, exc))


def _svg(t, m, path):
    """Static diagram: the polygon with its diagonals and a bullet at the
    location of every chart coordinate, the barycentre of its weights."""
    n = t.n
    size, r = 400, 170
    cx = cy = size // 2

    def pos(v):
        a = -math.pi / 2 + 2 * math.pi * (v - 1) / n
        return (cx + r * math.cos(a), cy + r * math.sin(a))

    lines = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">'
             % (size, size)]
    for a, b in t.edges():
        (x1, y1), (x2, y2) = pos(a), pos(b)
        lines.append('<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" '
                     'stroke="black"/>' % (x1, y1, x2, y2))
    for v in range(1, n + 1):
        x, y = pos(v)
        lines.append('<text x="%.1f" y="%.1f" font-size="14">%d</text>'
                     % (1.08 * (x - cx) + cx, 1.08 * (y - cy) + cy, v))
    for idx in chart_indices(t, m):
        weighted = [(w, pos(v)) for v, w in enumerate(idx, 1) if w]
        lines.append('<circle cx="%.1f" cy="%.1f" r="3"/>'
                     % (sum(w * x for w, (x, _) in weighted) / m,
                        sum(w * y for w, (_, y) in weighted) / m))
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@lru_cache(maxsize=None)
def _parser():
    """The argument parser, built once per process: parse_args leaves it
    unchanged, so every run shares it."""
    ap = argparse.ArgumentParser(
        prog="totpos",
        description="exact charts, flips, and reversals for positive flag "
                    "configurations of the n-gon")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="random positive configuration")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=int, default=20)

    p = sub.add_parser("delta", help="one coordinate of a configuration")
    p.add_argument("config", help="configuration JSON file, or - for stdin")
    p.add_argument("--index", required=True, help="comma-separated weights")

    p = sub.add_parser("charts", help="all chart coordinates on a triangulation")
    p.add_argument("config")
    p.add_argument("--diagonals", default=None,
                   help="e.g. '1-3,1-4'; default: the fan at vertex 1")
    p.add_argument("--svg", default=None, help="also write a diagram here")

    p = sub.add_parser("flip", help="transport a chart point across one flip")
    p.add_argument("chart")
    p.add_argument("--diagonal", required=True, help="e.g. '1-3'")
    p.add_argument("--svg", default=None, help="diagram of the new triangulation")

    p = sub.add_parser("transport", help="transport a chart point to a triangulation")
    p.add_argument("chart")
    p.add_argument("--diagonals", required=True)

    p = sub.add_parser("act", help="apply a word of interval reversals")
    p.add_argument("input", help="configuration or chart point JSON")
    p.add_argument("--word", required=True,
                   help="JSON like [[1,3],[2,4]] inline, or a file path")

    p = sub.add_parser("verify-axioms", help="run the axiom harness")
    p.add_argument("config", nargs="?", default=None,
                   help="optional configuration; its m overrides --m")
    p.add_argument("--axiom", default="all", help="1..8, 'glue', or 'all'")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("verify-cactus", help="run the relation harness")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("dim", help="number of chart coordinates")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    return ap


def _cmd_gen(args):
    _check_sizes(args.n, args.m)
    _emit(random_positive(args.n, args.m, args.seed, args.bound).to_json())
    return 0


def _cmd_delta(args):
    c = _load(Configuration, _read_json(args.config))
    try:
        idx = tuple(int(x) for x in args.index.split(","))
    except ValueError:
        raise UsageError("bad index %r" % args.index)
    sys.stdout.write(scalar_str(c.delta(idx)) + "\n")
    return 0


def _cmd_charts(args):
    c = _load(Configuration, _read_json(args.config))
    if args.diagonals is None:
        t = Triangulation.fan(c.n)
    else:
        t = Triangulation(c.n, _parse_pairs(args.diagonals))
    p = flags_to_charts(c, t)
    if args.svg:
        _svg(t, c.m, args.svg)
    _emit(p.to_json())
    return 0


def _cmd_flip(args):
    p = _load(ChartPoint, _read_json(args.chart))
    pairs = _parse_pairs(args.diagonal)
    if len(pairs) != 1:
        raise UsageError("--diagonal takes one pair 'a-b', got %r" % args.diagonal)
    q = flip_transport(p, pairs[0])
    if args.svg:
        _svg(q.triangulation, q.m, args.svg)
    _emit(q.to_json())
    return 0


def _cmd_transport(args):
    p = _load(ChartPoint, _read_json(args.chart))
    t = Triangulation(p.triangulation.n, _parse_pairs(args.diagonals))
    _emit(transport(p, t).to_json())
    return 0


def _cmd_act(args):
    data = _read_json(args.input)
    if args.word.lstrip().startswith("["):
        word = word_from_json(_parse_json(io.StringIO(args.word), "--word"))
    else:
        word = word_from_json(_read_json(args.word))
    # a document that is not an object goes to the chart loader, which rejects it
    if isinstance(data, dict) and "flags" in data:
        _emit(act_word(_load(Configuration, data), word).to_json())
    else:
        p = _load(ChartPoint, data)
        _emit(transport(act_word(p, word), p.triangulation).to_json())
    return 0


def _cmd_verify_axioms(args):
    m = args.m
    if args.config is not None:
        m = _load(Configuration, _read_json(args.config)).m
    # the largest polygon the axioms sample is the pentagon
    _check_sizes(5, m, args.trials)
    if args.axiom == "all":
        ids = [*AXIOMS, "glue"]
    elif args.axiom == "glue":
        ids = ["glue"]
    else:
        try:
            k = int(args.axiom)
        except ValueError:
            k = None
        if k not in AXIOMS:
            raise UsageError("--axiom must be 1..8, 'glue', or 'all'")
        ids = [k]
    reports = [check_glue(m, args.trials, args.seed) if k == "glue"
               else check_axiom(k, m, args.trials, args.seed) for k in ids]
    _emit(reports)
    return 0 if all(r["passes"] == r["trials"] for r in reports) else 1


def _cmd_verify_cactus(args):
    _check_sizes(args.n, args.m, args.trials)
    reports = verify_relations(args.n, args.m, args.trials, args.seed)
    _emit(reports)
    return 0 if all(r["passes"] == r["trials"] for r in reports) else 1


_COMMANDS = {
    "gen": _cmd_gen,
    "delta": _cmd_delta,
    "charts": _cmd_charts,
    "flip": _cmd_flip,
    "transport": _cmd_transport,
    "act": _cmd_act,
    "verify-axioms": _cmd_verify_axioms,
    "verify-cactus": _cmd_verify_cactus,
    "dim": lambda args: print(scalar_str(chart_dimension(args.n, args.m))) or 0,
}


def run(argv):
    ap = _parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except (UsageError, PolygonError, FlagError, MutationError,
            ChartValueError, DigitLimitError, OSError) as exc:
        # a message may echo a long argument: keep its first 160 characters
        sys.stderr.write(json.dumps({"error": str(exc)[:160]}) + "\n")
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
