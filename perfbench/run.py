"""The totpos benchmark: one seeded workload per process, one thread.

    python3 perfbench/run.py --workload transport --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``
without installation.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

MIN_OPS = 100  # p90 needs ten samples beyond it; max_bits and traces cover these ops
SETUP_PROBES = 5
WORKLOAD_NAMES = ("transport", "reversal", "cactus", "cli")
# The speed of a shared machine drifts by up to 2x within minutes, and the
# drift slows every stretch of Python alike.  So each timing is divided by
# the time of a fixed reference chunk measured right next to it, and
# reported as if that chunk took REFERENCE_S.
REFERENCE_S = 2.5e-3


def reference_seconds():
    """Time of the reference chunk: fixed exact arithmetic of the kind the
    program does."""
    start = time.perf_counter()
    x = Fraction(1)
    for i in range(1, 250):
        x = (x * 3 + Fraction(1, i)) / 2
        x = Fraction(x.numerator % 1000003, x.denominator % 1000003 or 1)
    return time.perf_counter() - start


def load_workload(name):
    """Import the program from this checkout's src/ and return the workload."""
    if not os.path.isfile(os.path.join(SRC, "totpos", "__init__.py")):
        sys.exit("perfbench: no totpos package under %s" % SRC)
    sys.path.insert(0, SRC)
    import totpos
    if not os.path.abspath(totpos.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: imported totpos from %s, not %s" % (totpos.__file__, SRC))
    from workloads import WORKLOADS
    return WORKLOADS[name]


def setup_probe(name, seed):
    """Seconds to import the program and generate the first MIN_OPS inputs,
    at reference speed."""
    before = statistics.median(reference_seconds() for _ in range(3))
    start = time.perf_counter()
    workload = load_workload(name)
    for _ in itertools.islice(workload.inputs(seed), MIN_OPS):
        pass
    elapsed = time.perf_counter() - start
    after = statistics.median(reference_seconds() for _ in range(3))
    return elapsed * 2 * REFERENCE_S / (before + after)


def setup_seconds(name, seed):
    """Median of SETUP_PROBES probes, each in a fresh process, one at a time."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            sys.exit("perfbench: setup probe failed:\n" + done.stderr)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def run_op(workload, inp, index, tracer=None):
    """One timed op and its known-answer check: (ok, output, seconds).

    A raising op or a wrong answer is a failed op; it is reported on stderr
    and counted, never dropped.
    """
    if tracer:
        tracer.start_op(index)
    start = time.perf_counter()
    try:
        out = workload.run(inp)
    except Exception as exc:  # a failed verdict, counted by the caller
        elapsed = time.perf_counter() - start
        sys.stderr.write("op %d raised %s: %s\n" % (index, type(exc).__name__, exc))
        return False, None, elapsed
    finally:
        if tracer:
            tracer.end_op()
    elapsed = time.perf_counter() - start
    try:
        ok = workload.check(inp, out)
    except Exception as exc:  # the library's reference answer failed: also a failed op
        sys.stderr.write("op %d: check raised %s: %s\n" % (index, type(exc).__name__, exc))
        return False, out, elapsed
    if not ok:
        sys.stderr.write("op %d gave a wrong answer\n" % index)
    return ok, out, elapsed


class Loop:
    """A closed loop: each op starts after the previous one has returned and
    been checked.  ``times`` are at reference speed, ``raw`` as measured;
    ``bits`` holds the first MIN_OPS correct ops' largest bit lengths."""

    def __init__(self, workload, inputs, seconds=0.0, tracer=None):
        self.times, self.raw, self.bits = [], [], []
        self.failed = self.io_bytes = 0
        start = time.perf_counter()
        before = reference_seconds()
        for i, inp in enumerate(inputs):
            if i >= MIN_OPS and time.perf_counter() - start >= seconds:
                break
            ok, out, elapsed = run_op(workload, inp, i, tracer)
            after = reference_seconds()
            self.raw.append(elapsed)
            self.times.append(elapsed * 2 * REFERENCE_S / (before + after))
            before = after
            self.failed += not ok
            if ok:
                if i < MIN_OPS:
                    self.bits.append(workload.bits(out))
                self.io_bytes += workload.io_bytes(out)
        self.wall = time.perf_counter() - start

    def ops_per_s(self):
        return (len(self.times) - self.failed) / sum(self.times)


def end_to_end(name, workload, seed, seconds):
    setup_s = setup_seconds(name, seed)
    loop = Loop(workload, workload.inputs(seed), seconds)
    times = loop.times
    metrics = {
        "ops_per_s": (loop.ops_per_s(), "1/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(times, n=10)[-1] * 1e3, "ms"),
        "max_bits": (statistics.mean(loop.bits) if loop.bits else 0, "bits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    print("%s seed %d: %d ops (%d failed) in %.1f s; as measured: %.2f ops/s, "
          "p50 %.2f ms, p90 %.2f ms; largest bit length of any of the first %d ops: %d"
          % (name, seed, len(times), loop.failed, loop.wall,
             len(times) / sum(loop.raw), statistics.median(loop.raw) * 1e3,
             statistics.quantiles(loop.raw, n=10)[-1] * 1e3, MIN_OPS, max(loop.bits, default=0)))
    return len(times), loop.failed, metrics


def traced(name, workload, seed):
    """The first MIN_OPS ops untraced, then the same ops again traced."""
    from tracer import Tracer

    untraced = Loop(workload, itertools.islice(workload.inputs(seed), MIN_OPS))
    tracer = Tracer()
    tracer.install()
    try:
        loop = Loop(workload, itertools.islice(workload.inputs(seed), MIN_OPS), tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["cli.bytes"] = (loop.io_bytes, "bytes")
    metrics["trace_overhead"] = (sum(loop.times) / sum(untraced.times), "ratio")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "spans-%s-%d.csv" % (name, seed))
    tracer.write_spans(path)
    for metric, (value, unit) in sorted(metrics.items()):
        print("%-40s %14.6g %s" % (metric, value, unit))
    if tracer.absent:
        print("absent from the program: %s" % ", ".join(tracer.absent))
    print("%s seed %d: %d ops traced, %d spans in %s"
          % (name, seed, MIN_OPS, len(tracer.spans), os.path.relpath(path, ROOT)))
    return 2 * MIN_OPS, untraced.failed + loop.failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return
    workload = load_workload(args.workload)
    if args.trace:
        attempted, failed, metrics = traced(args.workload, workload, args.seed)
    else:
        attempted, failed, metrics = end_to_end(args.workload, workload, args.seed, args.seconds)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
