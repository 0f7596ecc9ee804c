"""Interval-reversal generators, words, and the relation harness.

The group in question is generated by reversals s_{p,q} of cyclic vertex
intervals [p..q].  On a positive point the generator acts by the
sub-polygon reversal: the point's restriction to the interval is replaced
by its reversal (the orthogonal flags of the mirrored vertices), and its
restriction to the complementary interval is kept.  The action runs on
chart values alone, with no flag and no determinant, on the chart's own
triangulation T:

1. insert the chord {p, q} if T lacks it: ``mutation._flip_toward`` p, one
   ``mutation._flip`` per crossing diagonal in the order of
   ``polygon._fan_flips``, on one copy of the values and one diagonal set;
2. wrap T's diagonals with an end outside the interval and the mirror
   images of T's diagonals inside by ``Triangulation._of``, which derives
   its faces, and fill its chart face by face, in three parts:
   - values supported outside the interval carry over as they are;
   - each face inside, its vertices (u1, u2, u3) in interval order, is
     reversed by ``_reversal_program``, run by ``mutation._run_program``, on
     its values read under keys rewritten in one list, and moved to its
     mirror image (mirror(u3), mirror(u2), mirror(u1)), the mirror read off
     one dict over the interval, at the weights of the per-m table
     ``_face_images``: interior weight (i, j, k) to (k, i, j), and an edge
     value as it is, weight m - i at the mirror of a vertex of weight i;
   - each inside face's keys leave a copy of the values as the face is
     done, and the image keys come in once every face is done, since inside
     faces share edges.

The exchange program of one m is C(m, 3) steps, written down by weight as
the flip's is.  They are the octahedron-recurrence form of the reversal
(Henriques-Kamnitzer): mutations of the Fock-Goncharov quiver of a
triangle, with its edge values frozen, so each step reads its interior
neighbours or, next to an edge, edge values.  Every step is subtraction
free, so the result is positive by construction.  A configuration acts
through its chart values on the fan at vertex 1: one that
``charts_to_flags`` built or a word returned holds them, and
``flags_to_charts`` reads them off any other.  It comes back holding only
the result's fan chart, and its flags are rebuilt from that chart on the
first read; the rebuilt flags depend only on the point, not on its chart.

The relation set (involutivity, disjoint commutation, nesting) is treated
as a hypothesis: verify_relations samples random positive points, checks
each relation exactly on both sides' chart values on the fan at vertex 1,
reached by ``_to_fan``, and reports counts plus the first counterexample.
"""

import random
from functools import lru_cache

from .flags import Configuration, admissible_indices
from .polygon import Triangulation, ChartPoint, cyclic_interval, PolygonError
from .mutation import _flip_toward, _run_program
from .reconstruct import charts_to_flags, flags_to_charts, random_chart_point, _to_fan


class IntervalGen:
    """The reversal s_{p,q} of the cyclic interval [p..q]."""

    __slots__ = ("p", "q")

    def __init__(self, p, q):
        if type(p) is not int or type(q) is not int or p == q:
            raise PolygonError("need two different integer ends, got %r, %r" % (p, q))
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
            isinstance(g, list) and len(g) == 2 for g in data):
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
        perm = [g.mirror(v, n) if v in iv else v for v in perm]
    return tuple(perm)


@lru_cache(maxsize=None)
def _reversal_program(m):
    """The exchange steps that reverse the interior values of one triangle,
    in closed form by weight.

    The points are the weights ``admissible_indices(3, m)``, referred to by
    position.  A step (t, out, inc, t) replaces x[t] by (prod x[out] + prod
    x[inc]) / x[t].  For l = 1..m-2, each interior weight (i, j, k) with
    k >= m-1-l is exchanged, in ascending (k, i) order, having been
    exchanged r = l + k - m + 1 times before.  Its out is (i+1, j, k-1) and
    (i-1, j, k+1), and its inc (i, j+1, k-1) and (i, j-1, k+1), save that
    the second on an edge gives way to two edge values: (0, j+1+r, m-j-1-r)
    and (1+r, 0, m-1-r) in out at i = 1, and (0, 1+r, m-1-r) and
    (i+1+r, 0, m-1-i-r) in inc at j = 1.  After the C(m, 3) steps, the
    reversed triangle has value x(j, k, i) at interior weight (i, j, k).
    """
    pos = {w: s for s, w in enumerate(admissible_indices(3, m))}
    steps = []
    for level in range(1, m - 1):
        for k in range(m - 1 - level, m - 1):
            r = level + k - m + 1
            for i in range(1, m - k):
                j = m - i - k
                out = [(i + 1, j, k - 1), (i - 1, j, k + 1)]
                inc = [(i, j + 1, k - 1), (i, j - 1, k + 1)]
                # a neighbour on an edge stands for two frozen edge values
                if i == 1:
                    out[1:] = (0, j + 1 + r, m - j - 1 - r), (1 + r, 0, m - 1 - r)
                if j == 1:
                    inc[1:] = (0, 1 + r, m - 1 - r), (i + 1 + r, 0, m - 1 - i - r)
                t = pos[i, j, k]
                steps.append((t, tuple(sorted(pos[w] for w in out)),
                              tuple(sorted(pos[w] for w in inc)), t))
    return tuple(steps)


def _with_chord(p, iv):
    """The triangulation and chart values of the chart point p with the
    chord joining the ends of the interval ``iv`` put in: p's own when no
    diagonal crosses it, otherwise a copy, with each crossing diagonal
    flipped toward iv[0] by ``_flip_toward`` (Hanke, Ottmann and Schuierer),
    where one side opposite iv[0] at a time crosses the chord."""
    t = p.triangulation
    lo, hi = sorted((iv[0], iv[-1]))
    crossing = {(x, y) for x, y in t.diagonals if x < lo < y < hi or lo < x < hi < y}
    if not crossing:
        return t, p.values
    values, diagonals = _flip_toward(p, crossing, iv[0])
    return Triangulation._of(t.n, frozenset(diagonals)), values


@lru_cache(maxsize=None)
def _face_images(m):
    """For each position of ``admissible_indices(3, m)``, the weights its
    value takes at the image face (w1, w2, w3) of an inside face: (k, i, j)
    from an interior weight (i, j, k), which ``_reversal_program`` reverses,
    and (k and m - k, j and m - j, i and m - i) from an edge weight, one of
    them 0, which the program leaves as it is: weight m - i at the mirror of
    a vertex of weight i."""
    return tuple((k, i, j) if i and j and k else (k and m - k, j and m - j, i and m - i)
                 for i, j, k in admissible_indices(3, m))


def _act_on_chart(p, g):
    """The generator on a chart point, in the steps of the module docstring.
    The mirror keeps distances within the interval, so it takes diagonals
    to diagonals.  Only the values depend on the point: each face's keys,
    its image weights and the mirror come from the interval and m.
    """
    n, m = p.triangulation.n, p.m
    iv = g.interval(n)
    t, values = _with_chord(p, iv)
    order = {v: s for s, v in enumerate(iv)}
    mirror = dict(zip(iv, reversed(iv)))
    pts, steps, images = admissible_indices(3, m), _reversal_program(m), _face_images(m)
    out, new = dict(values), []
    for f in t.triangles():
        if all(v in order for v in f):
            u1, u2, u3 = sorted(f, key=order.get)
            w1, w2, w3 = (mirror[v] - 1 for v in (u3, u2, u1))
            # one list, rewritten for each weight, as in ``chart_indices``
            idx = [0] * n
            keys = [tuple(idx) for idx[u1 - 1], idx[u2 - 1], idx[u3 - 1] in pts]
            x = [values[key] for key in keys]
            _run_program(x, steps)
            # faces share edges: the image keys come in once every face is done
            for key in keys:
                out.pop(key, None)
            idx = [0] * n
            new += [(tuple(idx), value)
                    for (idx[w1], idx[w2], idx[w3]), value in zip(images, x)]
    out.update(new)
    diagonals = frozenset(tuple(sorted((mirror[a], mirror[b])))
                          if a in mirror and b in mirror else (a, b) for a, b in t.diagonals)
    return ChartPoint._of(Triangulation._of(n, diagonals), m, out)


def act_generator(x, g):
    """Apply one interval reversal to a chart point or a configuration.

    A chart point comes back as a chart point on its own triangulation with
    the chord {p, q} put in and the inside mirrored; a configuration comes
    back as a configuration holding that point's fan chart, as
    ``act_word`` returns it.
    """
    if isinstance(x, ChartPoint):
        return _act_on_chart(x, g)
    return act_word(x, [g])


def act_word(x, word):
    """Left-to-right composition of act_generator, returning the kind it
    was given.  A configuration acts through its chart values on the fan at
    vertex 1: those it holds, or else those flags_to_charts reads off it.
    It comes back holding only the result's fan chart, reached by the walk
    ``charts_to_flags`` starts with; its flags are rebuilt from that chart on
    the first read, so a word acted on by the next word is never rebuilt."""
    if word and not isinstance(x, ChartPoint):
        p = x._fan
        if p is None:
            p = flags_to_charts(x, Triangulation.fan(x.n))
        return Configuration._of_fan(_to_fan(act_word(p, word)))
    for g in word:
        x = act_generator(x, g)
    return x


def _random_interval(rng, n):
    length = rng.randint(2, n)
    p = rng.randint(1, n)
    q = (p + length - 2) % n + 1
    return IntervalGen(p, q)


def _relation_instances(rng, n):
    """One sampled instance per relation family, as (word_lhs, word_rhs)."""
    out = {}
    s = _random_interval(rng, n)
    out["R1"] = ([s, s], [])
    # disjoint pair: two arcs of the circle; the gap on either side may be empty
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
    """Exact relation reports over random positive points, the two sides of
    a relation compared by their chart values on the fan at vertex 1.

    One report per relation: {"relation", "trials", "passes",
    "counterexample"} where the counterexample is the first failing input
    serialized together with the offending words, or None.
    """
    reports = {r: {"relation": r, "trials": 0, "passes": 0, "counterexample": None}
               for r in ("R1", "R2", "R3")}
    fan = Triangulation.fan(n)
    for trial in range(trials):
        rng = random.Random(seed * 1000003 + 2 * trial)
        p = random_chart_point(fan, m, seed * 1000003 + 2 * trial + 1)
        for rel, (lhs, rhs) in sorted(_relation_instances(rng, n).items()):
            rep = reports[rel]
            rep["trials"] += 1
            if _to_fan(act_word(p, lhs)).values == _to_fan(act_word(p, rhs)).values:
                rep["passes"] += 1
            elif rep["counterexample"] is None:
                rep["counterexample"] = {
                    "configuration": charts_to_flags(p).to_json(),
                    "lhs": word_to_json(lhs),
                    "rhs": word_to_json(rhs),
                }
    return [reports[r] for r in ("R1", "R2", "R3")]
