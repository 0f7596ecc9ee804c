"""Exact verification harness for the flip/reversal axioms and gluing.

Each check samples random positive points, tests one identity with exact
rational equality, and aggregates an AxiomReport dict: axiom id, trial
count, pass count, and the first counterexample (serialized input) or
None.  Failures are data, never exceptions; reports are reproducible
per seed.  ``AXIOMS`` maps each axiom id to its sampler and its identity,
whose docstring states it.

Conventions used throughout (squares live on the diagonal-{1,3} chart):
half turn is the relabeling (3,4,1,2), quarter turn is (2,3,4,1), and the
double reversal in the commuting-square identity reflects the square
across its own diagonal with orthogonal flags.
"""

from functools import partial, reduce

from .flags import Configuration, _shifted, reverse, rotate, rotate_inv, face, iota, theta
from .polygon import Triangulation, ChartPoint, glue_check
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
    inv = {v: i for i, v in enumerate(perm, 1)}
    new_t = Triangulation(t.n, [(inv[a], inv[b]) for a, b in t.diagonals])
    values = {tuple(idx[v - 1] for v in perm): x for idx, x in p.values.items()}
    return ChartPoint._of(new_t, p.m, values)


def double_reversal(p):
    """Reflect a square chart point across its own diagonal, with
    orthogonal flags: the reversal read cyclically so that the diagonal's
    ends keep their places, in the sign _shifted gives."""
    d = tuple(sorted(next(iter(p.triangulation.diagonals))))
    flipped = _shifted(reverse(charts_to_flags(p)).flags, DIAGONAL_SHIFTS[d])
    return flags_to_charts(flipped, p.triangulation)


def _flip_keeps_boundary(p):
    """Axiom 1: the flip preserves the square's boundary-edge values."""
    q = flip_transport(p, (1, 3))
    return all(q.values[idx] == v for idx, v in p.values.items()
               if idx.count(0) == 2 and idx[0] + idx[2] != p.m)


def _flip_commutes(perm, d):
    """Axioms 2 and 3: the flip commutes with the relabeling perm, which
    takes the diagonal {1, 3} to d."""
    def identity(p):
        return (flip_transport(relabel_chart(p, perm), d)
                == relabel_chart(flip_transport(p, (1, 3)), perm))
    return identity


def _pentagon_cycle(p):
    """Axiom 4: the pentagon 5-cycle of flips is the identity."""
    return reduce(flip_transport, PENTAGON_FLIPS, p) == p


def _reversed_faces(c):
    """Axiom 5: the faces of the reversed triangle are the twisted opposite faces."""
    tc = theta(c)
    return all(face(tc, i).same_point(iota(face(c, 4 - i))) for i in (1, 2, 3))


def _rotation_conjugated(c):
    """Axiom 6: the reversal conjugates the rotation to its inverse."""
    return theta(rotate(c)).same_point(rotate_inv(theta(c)))


def _positive_involution(c):
    """Axiom 7: the reversal is a positivity-preserving involution."""
    tc = theta(c)
    return tc.is_positive() and theta(tc).same_point(c)


def _flip_double_reversal(p):
    """Axiom 8: the flip commutes with the double reversal up to a half turn."""
    return (flip_transport(double_reversal(p), (1, 3))
            == double_reversal(flip_transport(relabel_chart(p, HALF_TURN), (1, 3))))


_square = partial(random_chart_point, SQUARE)
_pentagon = partial(random_chart_point, Triangulation.fan(5))
_triangle = partial(random_positive, 3)

# axiom id -> (sampler(m, seed), identity(point))
AXIOMS = {
    1: (_square, _flip_keeps_boundary),
    2: (_square, _flip_commutes(HALF_TURN, (1, 3))),
    3: (_square, _flip_commutes(QUARTER_TURN, (2, 4))),
    4: (_pentagon, _pentagon_cycle),
    5: (_triangle, _reversed_faces),
    6: (_triangle, _rotation_conjugated),
    7: (_triangle, _positive_involution),
    8: (_square, _flip_double_reversal),
}


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
    """Exact verdicts for axiom ``k`` of ``AXIOMS`` over random positive points."""
    try:
        sample, identity = AXIOMS[k]
    except (KeyError, TypeError):
        raise ValueError("axiom id must be 1..8, got %r" % (k,)) from None
    return _report(k, trials, identity, lambda trial: sample(m, seed * 1000003 + trial))


def check_glue(m, trials, seed):
    """Square points correspond to pairs of triangle points glued along
    the diagonal: the restriction pair always glues, an independent second
    triangle is rejected, and (for m >= 3) changing only the second
    triangle's interior value is still accepted."""
    tri1, tri2 = SQUARE.triangles()

    def sample(trial):
        return random_positive(4, m, seed * 1000003 + trial)

    def check(c):
        a = {tri: Configuration([c.flags[v - 1] for v in tri]) for tri in (tri1, tri2)}
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

    return _report("glue", trials, check, sample)
