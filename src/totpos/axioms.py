"""Exact verification harness for the flip/reversal axioms and gluing.

Each check samples random positive points, tests one identity with exact
rational equality, and aggregates an AxiomReport dict: axiom id, trial
count, pass count, and the first counterexample (serialized input) or
None.  Failures are data, never exceptions; reports are reproducible
per seed.

Conventions used throughout (squares live on the diagonal-{1,3} chart):
half turn is the relabeling (3,4,1,2), quarter turn is (2,3,4,1), and the
double reversal in the commuting-square identity reflects the square
across its own diagonal with orthogonal flags.
"""

from .flags import Configuration, _shifted, reverse, rotate, rotate_inv, face, iota, theta
from .polygon import Triangulation, ChartPoint, chart_indices, glue_check
from .mutation import flip_transport
from .reconstruct import (flags_to_charts, charts_to_flags,
                          random_positive, random_chart_point)

HALF_TURN = (3, 4, 1, 2)
QUARTER_TURN = (2, 3, 4, 1)
# the reflection fixing the chart's own diagonal is the full reversal read
# cyclically from this 0-based position, keyed by that diagonal
DIAGONAL_SHIFTS = {(1, 3): 3, (2, 4): 1}
PENTAGON_FLIPS = ((1, 3), (1, 4), (2, 4), (2, 5), (3, 5))

SQUARE = Triangulation(4, [(1, 3)])


def relabel_chart(p, perm):
    """Chart relabeling: new vertex i carries what old vertex perm[i] did.

    Values relocate without sign factors; both sides of the relocation are
    chart values of positive configurations, hence positive.
    """
    t = p.triangulation
    n = t.n
    inv = {perm[i - 1]: i for i in range(1, n + 1)}
    new_t = Triangulation._of_chords(n, [(inv[a], inv[b]) for a, b in t.diagonals])
    values = {}
    for idx in chart_indices(new_t, p.m):
        old = [0] * n
        for i in range(n):
            old[perm[i] - 1] = idx[i]
        values[idx] = p.values[tuple(old)]
    return ChartPoint._of(new_t, p.m, values)


def double_reversal(p):
    """Reflect a square chart point across its own diagonal, with
    orthogonal flags: the reversal read cyclically so that the diagonal's
    ends keep their places, in the sign _shifted gives."""
    d = tuple(sorted(next(iter(p.triangulation.diagonals))))
    flipped = _shifted(reverse(charts_to_flags(p)).flags, DIAGONAL_SHIFTS[d])
    return flags_to_charts(flipped, p.triangulation)


def _report(axiom, trials, check, sample):
    out = {"axiom": axiom, "trials": trials, "passes": 0, "counterexample": None}
    for trial in range(trials):
        x = sample(trial)
        if check(x):
            out["passes"] += 1
        elif out["counterexample"] is None:
            out["counterexample"] = x.to_json()
    return out


def check_axiom(k, m, trials, seed):
    """Exact verdicts for one axiom over random positive points.

    1 flip preserves boundary-edge values; 2 flip commutes with the half
    turn; 3 flip intertwines the quarter turn; 4 the pentagon 5-cycle of
    flips is the identity; 5 faces of the reversed triangle are the
    twisted opposite faces; 6 reversal conjugates rotation to its inverse;
    7 the reversal is a positivity-preserving involution; 8 flip commutes
    with the double reversal up to a half turn.
    """

    def square(trial):
        return random_chart_point(SQUARE, m, seed * 1000003 + trial)

    def pentagon(trial):
        return random_chart_point(Triangulation.fan(5), m, seed * 1000003 + trial)

    def triangle(trial):
        return random_positive(3, m, seed * 1000003 + trial)

    if k == 1:
        def check(p):
            q = flip_transport(p, (1, 3))
            boundary = [idx for idx in p.values
                        if len([x for x in idx if x]) == 2
                        and idx[0] + idx[2] != m]
            return all(q.values[idx] == p.values[idx] for idx in boundary)
        return _report(1, trials, check, square)
    if k == 2:
        def check(p):
            lhs = flip_transport(relabel_chart(p, HALF_TURN), (1, 3))
            rhs = relabel_chart(flip_transport(p, (1, 3)), HALF_TURN)
            return lhs == rhs
        return _report(2, trials, check, square)
    if k == 3:
        def check(p):
            lhs = flip_transport(relabel_chart(p, QUARTER_TURN), (2, 4))
            rhs = relabel_chart(flip_transport(p, (1, 3)), QUARTER_TURN)
            return lhs == rhs
        return _report(3, trials, check, square)
    if k == 4:
        def check(p):
            q = p
            for d in PENTAGON_FLIPS:
                q = flip_transport(q, d)
            return q == p
        return _report(4, trials, check, pentagon)
    if k == 5:
        def check(c):
            tc = theta(c)
            return all(face(tc, i).same_point(iota(face(c, 4 - i)))
                       for i in (1, 2, 3))
        return _report(5, trials, check, triangle)
    if k == 6:
        def check(c):
            return theta(rotate(c)).same_point(rotate_inv(theta(c)))
        return _report(6, trials, check, triangle)
    if k == 7:
        def check(c):
            tc = theta(c)
            return tc.is_positive() and theta(tc).same_point(c)
        return _report(7, trials, check, triangle)
    if k == 8:
        def check(p):
            lhs = flip_transport(double_reversal(p), (1, 3))
            rhs = double_reversal(flip_transport(relabel_chart(p, HALF_TURN), (1, 3)))
            return lhs == rhs
        return _report(8, trials, check, square)
    raise ValueError("axiom id must be 1..8, got %r" % (k,))


def _triangle_restriction(c, tri):
    return Configuration([c.flags[v - 1] for v in tri])


def check_glue(m, trials, seed):
    """Square points correspond to pairs of triangle points glued along
    the diagonal: the restriction pair always glues, an independent second
    triangle is rejected, and (for m >= 3) changing only the second
    triangle's interior value is still accepted."""
    tri1, tri2 = SQUARE.triangles()

    def sample(trial):
        return random_positive(4, m, seed * 1000003 + trial)

    def check(c):
        a = {tri1: _triangle_restriction(c, tri1),
             tri2: _triangle_restriction(c, tri2)}
        if not glue_check(a, SQUARE):
            return False
        t3 = Triangulation.fan(3)
        p2 = flags_to_charts(a[tri2], t3)
        # tri2 = (1,3,4): the shared diagonal is its local edge {1,2}
        mismatched = {idx: v + 1 if idx[2] == 0 else v
                      for idx, v in p2.values.items()}
        other = charts_to_flags(ChartPoint._of(t3, m, mismatched))
        if glue_check({tri1: a[tri1], tri2: other}, SQUARE):
            return False
        if m >= 3:
            values = {idx: v + 1 if all(idx) else v
                      for idx, v in p2.values.items()}
            other = charts_to_flags(ChartPoint._of(t3, m, values))
            if not glue_check({tri1: a[tri1], tri2: other}, SQUARE):
                return False
        return True

    rep = _report("glue", trials, check, sample)
    return rep
