"""The benchmark's seeded workloads.

Each workload draws its inputs from one ``random.Random(seed)`` stream in
this file and hands the program only the generated values.  One op is one
verdict with a known answer.  The program is always reached through its
module objects at call time (``mutation.transport``, never a name imported
from it), so the traced run sees every call the benchmark makes.
"""

import io
import itertools
import json
import random
import sys
from fractions import Fraction

from totpos import axioms, cactus, cli, mutation, polygon, reconstruct

from tracer import bit_size


def random_triangulation(rng, n):
    """Triangulation of the n-gon by recursive splitting: each sub-polygon's
    base edge gets a uniformly chosen apex."""
    diagonals = []

    def split(vs):
        if len(vs) < 3:
            return
        k = rng.randrange(1, len(vs) - 1)
        for a in (vs[0], vs[-1]):
            if abs(a - vs[k]) not in (1, n - 1):
                diagonals.append(tuple(sorted((a, vs[k]))))
        split(vs[:k + 1])
        split(vs[k:])

    split(list(range(1, n + 1)))
    return polygon.Triangulation(n, diagonals)


def random_chart_point(rng, t, m, bound):
    """Chart values p/q with 1 <= p, q <= bound on every chart index of t."""
    return polygon.ChartPoint(t, m, {
        idx: Fraction(rng.randint(1, bound), rng.randint(1, bound))
        for idx in polygon.chart_indices(t, m)})


def interval(n, p, length):
    """Endpoints (p, q) of the cyclic vertex interval of a length from p."""
    return p, (p + length - 2) % n + 1


def random_interval(rng, n):
    """A cyclic vertex interval of random length 2..n at a random vertex."""
    length = rng.randint(2, n)
    return interval(n, rng.randint(1, n), length)


class Workload:
    """Inputs are an endless stream; ``run`` is the timed op and ``check``
    its known-answer test, made outside the timed interval."""

    def inputs(self, seed):
        rng = random.Random(seed)
        for i in itertools.count():
            yield self.make(rng, i)

    def check(self, inp, out):
        return out[0] is True

    def bits(self, out):
        return bit_size(out)

    def io_bytes(self, out):
        return 0


class Transport(Workload):
    """A random chart point goes to a second random triangulation and back
    and must come home exactly equal.  Only polygon and mutation work, and no
    determinant at all."""

    SIZES = ((10, 3), (10, 4), (12, 3), (12, 4))  # (n, m), cycled per op
    BOUND = 20

    def make(self, rng, i):
        n, m = self.SIZES[i % len(self.SIZES)]
        t1 = random_triangulation(rng, n)
        t2 = t1
        while t2 == t1:
            t2 = random_triangulation(rng, n)
        return random_chart_point(rng, t1, m, self.BOUND), t2

    def run(self, inp):
        p, target = inp
        q = mutation.transport(p, target)
        back = mutation.transport(q, p.triangulation)
        return back == p, q, back


class Reversal(Workload):
    """One axiom-harness verdict per op, whose known answer is PASS: many
    small determinants, inverses, sign normalisations and orthogonal flags."""

    CHECKS = tuple((k, m) for k in (5, 6, 7, "glue") for m in (2, 3, 4))

    def make(self, rng, i):
        k, m = self.CHECKS[i % len(self.CHECKS)]
        return k, m, rng.randrange(2 ** 31)

    def run(self, inp):
        k, m, seed = inp
        if k == "glue":
            report = axioms.check_glue(m, 1, seed)
        else:
            report = axioms.check_axiom(k, m, 1, seed)
        return report["trials"] == report["passes"] == 1, report


class Cactus(Workload):
    """A word of interval reversals, then the reversed word, must return to
    the same point.  The whole flag stack runs under number growth.

    Bit growth and cost depend mostly on the word, so words follow a fixed
    schedule: over every N * (N - 1) ops each (length, first vertex) pair
    appears once in each word position.  The start point is random.
    """

    N, M, WORD_LEN, BOUND = 8, 3, 3, 20

    def make(self, rng, i):
        start = random_chart_point(rng, polygon.Triangulation.fan(self.N), self.M, self.BOUND)
        word = [cactus.IntervalGen(*interval(self.N, 1 + (i + 3 * j) % self.N,
                                             2 + (i + 2 * j) % (self.N - 1)))
                for j in range(self.WORD_LEN)]
        return reconstruct.charts_to_flags(start), word

    def run(self, inp):
        c, word = inp
        mid = cactus.act_word(c, word)
        end = cactus.act_word(mid, word[::-1])
        return end.same_point(c), mid, end


def run_cli(argv, stdin):
    """``totpos.cli.run`` in process with stdin and stdout swapped."""
    saved = sys.stdin, sys.stdout
    out = io.StringIO()
    sys.stdin, sys.stdout = io.StringIO(stdin), out
    try:
        code = cli.run(argv)
    finally:
        sys.stdin, sys.stdout = saved
    return code, out.getvalue()


def _diagonals_arg(t):
    return ",".join("%d-%d" % d for d in sorted(t.diagonals))


def _dumps(x):
    return json.dumps(x.to_json(), sort_keys=True) + "\n"


class Cli(Workload):
    """The pipeline gen -> charts -> flip -> transport -> act through
    ``totpos.cli.run``, each stage reading the previous stage's stdout.  Every
    stdout must equal the library's own serialization, byte for byte."""

    SIZES = tuple((n, m) for n in range(5, 11) for m in (2, 3))
    BOUND = 20  # the gen subcommand's default bound

    def make(self, rng, i):
        n, m = self.SIZES[i % len(self.SIZES)]
        spec = {"n": n, "m": m, "seed": rng.randrange(2 ** 31),
                "t1": random_triangulation(rng, n)}
        spec["flip"] = rng.choice(sorted(spec["t1"].diagonals))
        spec["t2"] = random_triangulation(rng, n)
        spec["word"] = [list(random_interval(rng, n))]
        stages = [["gen", str(n), str(m), "--seed", str(spec["seed"])],
                  ["charts", "-", "--diagonals", _diagonals_arg(spec["t1"])],
                  ["flip", "-", "--diagonal", "%d-%d" % spec["flip"]],
                  ["transport", "-", "--diagonals", _diagonals_arg(spec["t2"])],
                  ["act", "-", "--word", json.dumps(spec["word"])]]
        return stages, spec

    def run(self, inp):
        stages, _ = inp
        out = []
        stdin = ""
        for argv in stages:
            code, stdin = run_cli(argv, stdin)
            out.append((code, stdin))
        return out

    def check(self, inp, out):
        _, s = inp
        c = reconstruct.random_positive(s["n"], s["m"], s["seed"], self.BOUND)
        p1 = reconstruct.flags_to_charts(c, s["t1"])
        p2 = mutation.flip_transport(p1, s["flip"])
        p3 = mutation.transport(p2, s["t2"])
        word = [cactus.IntervalGen(p, q) for p, q in s["word"]]
        p4 = reconstruct.flags_to_charts(
            cactus.act_word(reconstruct.charts_to_flags(p3), word), s["t2"])
        expected = [(0, _dumps(x)) for x in (c, p1, p2, p3, p4)]
        return out == expected

    def bits(self, out):
        return bit_size([json.loads(stdout) for _, stdout in out])

    def io_bytes(self, out):
        stdouts = [len(stdout.encode()) for _, stdout in out]
        return sum(stdouts) + sum(stdouts[:-1])  # stage k reads stage k-1's stdout


WORKLOADS = {"transport": Transport(), "reversal": Reversal(),
             "cactus": Cactus(), "cli": Cli()}
