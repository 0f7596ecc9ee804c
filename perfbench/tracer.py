"""Outside-in tracing of totpos's public functions, for the traced run only.

``Tracer.install`` replaces each function named below, wherever the same
object is bound in a ``totpos`` module namespace (``from .rational import
det`` copies the binding), by a wrapper; methods are replaced on their class.
``uninstall`` puts every original binding back.  A name the program no
longer has is reported as absent.  Nothing under ``src/`` changes.

A wrapper records only while an op is open (``start_op``/``end_op``), so
input generation and answer checks made by the benchmark stay out of the
counts.  Spans are kept in memory with their op id and parent span and
written out by ``write_spans``.  A span's self time is its duration minus
the time of the spans directly inside it.
"""

import re
import sys
from fractions import Fraction
from time import perf_counter_ns

LAYERS = ("rational", "flags", "polygon", "mutation", "reconstruct",
          "cactus", "axioms", "cli")

# metric prefix -> (module, attribute path); each call is a span
SPANNED = {
    "rational.det": ("totpos.rational", "det"),
    "rational.solve": ("totpos.rational", "solve"),
    "rational.inverse": ("totpos.rational", "inverse"),
    "flags.delta": ("totpos.flags", "Configuration.delta"),
    "flags.all_deltas": ("totpos.flags", "Configuration.all_deltas"),
    "flags.sign_normalize": ("totpos.flags", "sign_normalize"),
    "flags.orthogonal": ("totpos.flags", "DecoratedFlag.orthogonal"),
    "polygon.chart_indices": ("totpos.polygon", "chart_indices"),
    "polygon.flip_path": ("totpos.polygon", "flip_path"),
    "polygon.ChartPoint": ("totpos.polygon", "ChartPoint.__init__"),
    "mutation.flip_transport": ("totpos.mutation", "flip_transport"),
    "mutation.transport": ("totpos.mutation", "transport"),
    "reconstruct.charts_to_flags": ("totpos.reconstruct", "charts_to_flags"),
    "reconstruct.flags_to_charts": ("totpos.reconstruct", "flags_to_charts"),
    "cactus.act_generator": ("totpos.cactus", "act_generator"),
    "axioms.check_axiom": ("totpos.axioms", "check_axiom"),
    "axioms.check_glue": ("totpos.axioms", "check_glue"),
    "cli.run": ("totpos.cli", "run"),
}
# called too often and too cheaply for a span: only counted
COUNTED = {
    "rational.Mat": ("totpos.rational", "Mat.__init__"),
    "mutation.exchange": ("totpos.mutation", "exchange"),
}
WITH_BITS = ("mutation.flip_transport", "mutation.transport",
             "reconstruct.charts_to_flags", "reconstruct.flags_to_charts",
             "cactus.act_generator")
WITH_ERRORS = ("flags.sign_normalize", "cactus.act_generator")
CONVERSIONS = ("reconstruct.charts_to_flags", "reconstruct.flags_to_charts")

_NUMBER = re.compile(r"-?(\d+)(?:/(\d+))?\Z")


def bit_size(x):
    """Largest numerator or denominator bit length of any number in ``x``.

    Program objects are read through their ``to_json()`` form, the exact
    values the CLI would print; strings count when they spell a rational.
    """
    if x is None or isinstance(x, bool):
        return 0
    if isinstance(x, int):
        return x.bit_length()
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    if isinstance(x, str):
        match = _NUMBER.match(x)
        return max(int(g).bit_length() for g in match.groups() if g) if match else 0
    if isinstance(x, dict):
        return max(map(bit_size, x.values()), default=0)
    if isinstance(x, (list, tuple)):
        return max(map(bit_size, x), default=0)
    if hasattr(x, "to_json"):
        return bit_size(x.to_json())
    return 0


class _Stat:
    __slots__ = ("calls", "self_ns", "max_bits", "errors")

    def __init__(self):
        self.calls = self.self_ns = self.max_bits = self.errors = 0


def _totpos_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "totpos" or name.startswith("totpos.")]


def _lookup(module, path):
    """(owner, attribute, function) for a path; owner None when absent."""
    owner = sys.modules.get(module)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name, None)
    fn = vars(owner).get(attr) if classes and isinstance(owner, type) else getattr(owner, attr, None)
    return (owner, attr, fn) if callable(fn) else (None, attr, None)


class Tracer:
    def __init__(self):
        self.stats = {name: _Stat() for name in (*SPANNED, *COUNTED)}
        self.absent = []
        self.spans = []  # (op, span id, parent span id or -1, name, start ns, end ns)
        self.op = None
        self._stack = []  # open spans: [name, span id, child ns]
        self._next_id = 0
        self._restore = []
        self._det_inputs = set()
        self._delta_seen = {}  # id(configuration) -> (configuration, indices seen)
        self.delta_repeats = 0
        self.conversions = 0

    # -- installation ------------------------------------------------------

    def install(self):
        modules = _totpos_modules()
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for name, (module, path) in table.items():
                owner, attr, fn = _lookup(module, path)
                if fn is None:
                    self.absent.append(name)
                    continue
                wrapper = make(name, fn)
                if "." in path:
                    self._rebind(owner, attr, wrapper, fn)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._rebind(mod, key, wrapper, fn)

    def _rebind(self, owner, key, wrapper, fn):
        self._restore.append((owner, key, fn))
        setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, fn in reversed(self._restore):
            setattr(owner, key, fn)
        self._restore.clear()

    # -- recording -----------------------------------------------------------

    def start_op(self, op):
        self.op = op
        self._delta_seen.clear()

    def end_op(self):
        self.op = None
        self._delta_seen.clear()

    def _counted(self, name, fn):
        stat = self.stats[name]

        def wrapper(*args, **kwargs):
            if self.op is not None:
                stat.calls += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanned(self, name, fn):
        stat = self.stats[name]
        hook = {"rational.det": self._see_det, "flags.delta": self._see_delta,
                **{c: self._see_conversion for c in CONVERSIONS}}.get(name)
        bits = name in WITH_BITS
        stack = self._stack

        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            if hook:
                hook(args)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [name, span_id, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                stat.errors += 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                stat.calls += 1
                stat.self_ns += end - start - frame[2]
                self.spans.append((self.op, span_id, parent[1] if parent else -1,
                                   name, start, end))
                if parent:
                    parent[2] += end - start
            if bits:
                op, self.op = self.op, None  # the walk is not the program's work
                stat.max_bits = max(stat.max_bits, bit_size(out))
                self.op = op
                if parent:
                    parent[2] += perf_counter_ns() - end
            return out
        return wrapper

    def _see_det(self, args):
        m = args[0]
        key = getattr(m, "entries", m)
        try:
            self._det_inputs.add(hash(key))
        except TypeError:
            self._det_inputs.add(repr(key))

    def _see_delta(self, args):
        config, idx = args[0], tuple(args[1])
        _, seen = self._delta_seen.setdefault(id(config), (config, set()))
        if idx in seen:
            self.delta_repeats += 1
        seen.add(idx)

    def _see_conversion(self, args):
        if any(frame[0] == "cactus.act_generator" for frame in self._stack):
            self.conversions += 1

    # -- results ---------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        out = {}
        for name, stat in self.stats.items():
            out[name + ".calls"] = (stat.calls, "count")
            if name in SPANNED:
                out[name + ".self_s"] = (stat.self_ns / 1e9, "s")
            if name in WITH_BITS:
                out[name + ".max_bits"] = (stat.max_bits, "bits")
            if name in WITH_ERRORS:
                out[name + ".errors"] = (stat.errors, "count")
        for layer in LAYERS:
            out[layer + ".self_s"] = (sum(
                s.self_ns for n, s in self.stats.items() if n.startswith(layer + ".")) / 1e9, "s")
        det_calls = self.stats["rational.det"].calls
        delta_calls = self.stats["flags.delta"].calls
        generators = self.stats["cactus.act_generator"].calls
        # a ratio whose base is 0 reads 0; the base is reported beside it
        out["rational.det.distinct_ratio"] = (
            len(self._det_inputs) / det_calls if det_calls else 0, "ratio")
        out["flags.delta.repeat_ratio"] = (
            self.delta_repeats / delta_calls if delta_calls else 0, "ratio")
        out["cactus.conversions_per_generator"] = (
            self.conversions / generators if generators else 0, "ratio")
        out["trace.absent_functions"] = (len(self.absent), "count")
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("op,span,parent,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write("%d,%d,%d,%s,%d,%d\n" % span)
