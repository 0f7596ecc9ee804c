"""Interval-reversal generators, words, and the relation harness.

The group in question is generated by reversals s_{p,q} of cyclic vertex
intervals [p..q].  On a positive configuration the generator acts by the
sub-polygon reversal: the restriction of the point to the interval is
reversed (each flag replaced by the orthogonal flag of the mirrored one,
then sign-normalized to the positive chamber), the restriction to the
complementary interval is kept, and the two halves meet on a chart adapted
to the interval, from which the flags are rebuilt.  The result is
characterized by its two restrictions and the rebuilt flags by the point
alone, so neither depends on the adapted chart chosen here.

Reversing a proper sub-interval directly at the flag level does not land
in any sign-normalizable chamber; routing through the sub-polygon
restriction is what makes the recipe well defined.

The relation set (involutivity, disjoint commutation, nesting) is treated
as a hypothesis: verify_relations samples random positive points, checks
each relation exactly, and reports counts plus the first counterexample.
"""

import random

from .flags import Configuration, reverse, SignNormalizeError
from .polygon import (Triangulation, ChartPoint, chart_indices,
                      cyclic_interval, _is_boundary, PolygonError)
from .reconstruct import charts_to_flags, random_positive


class CactusError(ValueError):
    """The action recipe failed; carries the offending input serialized."""

    def __init__(self, message, config):
        self.config_json = config.to_json()
        super().__init__("%s (input: %s)" % (message, self.config_json))


class IntervalGen:
    """The reversal s_{p,q} of the cyclic interval [p..q]."""

    __slots__ = ("p", "q")

    def __init__(self, p, q):
        p, q = int(p), int(q)
        if p == q:
            raise PolygonError("interval endpoints must differ")
        self.p = p
        self.q = q

    def interval(self, n):
        if not (1 <= self.p <= n and 1 <= self.q <= n):
            raise PolygonError("generator s_{%d,%d} out of range for n = %d"
                               % (self.p, self.q, n))
        return cyclic_interval(self.p, self.q, n)

    def mirror(self, v, n):
        """The image of vertex v under the reversal, cyclic arithmetic."""
        return (self.p + self.q - v - 1) % n + 1

    def __eq__(self, other):
        return (isinstance(other, IntervalGen)
                and (self.p, self.q) == (other.p, other.q))

    def __repr__(self):
        return "IntervalGen(%d, %d)" % (self.p, self.q)


def word_from_json(data):
    """A CactusWord from its JSON form [[p, q], ...].

    Raises PolygonError unless ``data`` is a list of two-element lists of
    integers (booleans and floats are rejected, not coerced).
    """
    if not isinstance(data, list) or not all(
            isinstance(g, list) and len(g) == 2
            and all(type(v) is int for v in g) for g in data):
        raise PolygonError("a word must be a JSON list of [p, q] integer "
                           "pairs, got %r" % (data,))
    return [IntervalGen(p, q) for p, q in data]


def word_to_json(word):
    return [[g.p, g.q] for g in word]


def underlying_permutation(word, n):
    """Image of a word under the map to S_n; perm[v-1] is the image of v.

    Applied left to right, matching act_word.
    """
    perm = list(range(1, n + 1))
    for g in word:
        iv = g.interval(n)
        new = list(perm)
        for v in range(1, n + 1):
            if perm[v - 1] in iv:
                new[v - 1] = g.mirror(perm[v - 1], n)
        perm = new
    return tuple(perm)


def _adapted_triangulation(n, iv):
    """A triangulation cutting along {p, q}: inside fan at q, outside fan
    at p."""
    p, q = iv[0], iv[-1]
    diags = set()
    if not _is_boundary(p, q, n):
        diags.add(tuple(sorted((p, q))))
    for v in iv[1:-1]:
        if not _is_boundary(q, v, n):
            diags.add(tuple(sorted((q, v))))
    for v in cyclic_interval(q, p, n)[1:-1]:
        if not _is_boundary(p, v, n):
            diags.add(tuple(sorted((p, v))))
    return Triangulation(n, diags)


def act_generator(c, g):
    """Apply one interval reversal to a positive configuration.

    The interval's sub-polygon restriction is reversed as a standalone
    configuration.  The two halves meet on the adapted chart: coordinates
    supported inside the interval are read off the reversed restriction,
    all others are kept, and the flags are rebuilt from that chart point.
    """
    n, m = c.n, c.m
    iv = g.interval(n)
    try:
        rev = reverse(Configuration([c.flags[v - 1] for v in iv]))
    except SignNormalizeError as exc:
        raise CactusError("sign normalization failed at index %s" % (exc.index,), c)
    t = _adapted_triangulation(n, iv)
    ivset = set(iv)
    values = {}
    for idx in chart_indices(t, m):
        support = {k + 1 for k, x in enumerate(idx) if x}
        if support <= ivset:
            values[idx] = rev.delta(tuple(idx[v - 1] for v in iv))
        else:
            values[idx] = c.delta(idx)
    return charts_to_flags(ChartPoint(t, m, values))


def act_word(c, word):
    """Left-to-right composition of act_generator."""
    for g in word:
        c = act_generator(c, g)
    return c


def _random_interval(rng, n, min_len=2, max_len=None):
    if max_len is None:
        max_len = n
    length = rng.randint(min_len, max_len)
    p = rng.randint(1, n)
    q = (p + length - 2) % n + 1
    return IntervalGen(p, q)


def _relation_instances(rng, n):
    """One sampled instance per relation family, as (word_lhs, word_rhs)."""
    out = {}
    s = _random_interval(rng, n)
    out["R1"] = ([s, s], [])
    # disjoint pair: split the circle into two arcs with a gap on each side
    if n >= 4:
        l1 = rng.randint(2, n - 2)
        l2 = rng.randint(2, n - l1)
        p1 = rng.randint(1, n)
        q1 = (p1 + l1 - 2) % n + 1
        p2 = (q1 + rng.randint(1, n - l1 - l2 + 1) - 1) % n + 1
        q2 = (p2 + l2 - 2) % n + 1
        a, b = IntervalGen(p1, q1), IntervalGen(p2, q2)
        out["R2"] = ([a, b], [b, a])
    # nested pair: [k..l] inside [p..q], mirrored on the other side
    lo = rng.randint(3, n)
    p = rng.randint(1, n)
    q = (p + lo - 2) % n + 1
    li = rng.randint(2, lo - 1)
    k = (p + rng.randint(0, lo - li) - 1) % n + 1
    l = (k + li - 2) % n + 1
    outer, inner = IntervalGen(p, q), IntervalGen(k, l)
    mirrored = IntervalGen(outer.mirror(l, n), outer.mirror(k, n))
    out["R3"] = ([inner, outer], [outer, mirrored])
    return out


def verify_relations(n, m, trials, seed):
    """Exact relation reports over random positive points.

    One report per relation: {"relation", "trials", "passes",
    "counterexample"} where the counterexample is the first failing input
    serialized together with the offending words, or None.
    """
    reports = {r: {"relation": r, "trials": 0, "passes": 0, "counterexample": None}
               for r in ("R1", "R2", "R3")}
    for trial in range(trials):
        rng = random.Random(seed * 1000003 + 2 * trial)
        c = random_positive(n, m, seed * 1000003 + 2 * trial + 1)
        for rel, (lhs, rhs) in sorted(_relation_instances(rng, n).items()):
            rep = reports[rel]
            rep["trials"] += 1
            try:
                ok = act_word(c, lhs).same_point(act_word(c, rhs))
            except CactusError:
                ok = False
            if ok:
                rep["passes"] += 1
            elif rep["counterexample"] is None:
                rep["counterexample"] = {
                    "configuration": c.to_json(),
                    "lhs": word_to_json(lhs),
                    "rhs": word_to_json(rhs),
                }
    return [reports[r] for r in ("R1", "R2", "R3")]
