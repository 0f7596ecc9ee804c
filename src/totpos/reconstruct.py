"""The triangulation chart isomorphism, in both directions.

flags_to_charts reads the chart coordinates off a configuration.
charts_to_flags rebuilds a gauge-fixed configuration from positive chart
values on the fan at vertex 1, a point on any other triangulation first
flipped there, each of its diagonals not at vertex 1 toward vertex 1 with
no flip path planned.  The first two flags are pinned explicitly (the
standard flag, shared per m, and int antidiagonal rows matched to the
{1, 2} edge values), and flag v = 3..n is solved row by row from the fan
triangle (1, v-1, v), under a plan built once per (n, m) that holds every
key the rebuild reads, with its sign.  A row's conditions are dot products
with cofactor vectors read straight off one elimination, each with one
more leading zero than the last and a nonzero pivot, so back substitution
meets them; taking out the projection on the flag's earlier rows, which
are mutually orthogonal, makes the row orthogonal to them.  Each flag's
last row is e_1 less its projection on the other rows, over the chart
value with weights (1, m-1) on the edge {1, v}: det 1 with no elimination.
Each row is cleared with one gcd; each flag is held as that clearing;
reading ``rep`` forms Fractions.
"""

import random
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .rational import (scalar_str, _bareiss, _clear_ratio, _prefix_scales,
                       _project_out)
from .flags import DecoratedFlag, Configuration, FlagError
from .polygon import Triangulation, ChartPoint, chart_indices, index_at, PolygonError
from .mutation import _flip_toward


class ChartValueError(ValueError):
    """A coordinate required to be positive is not."""

    def __init__(self, index, value):
        self.index = tuple(index)
        self.value = value
        super().__init__("chart value at %s is %s, expected > 0"
                         % (self.index, scalar_str(value)))


def flags_to_charts(config, t):
    """Evaluate every chart coordinate of ``t`` on a configuration."""
    if t.n != config.n:
        raise PolygonError("triangulation of the %d-gon, configuration of %d flags"
                           % (t.n, config.n))
    values = {}
    for idx in chart_indices(t, config.m):
        v = config._delta(idx)
        if v <= 0:
            raise ChartValueError(idx, v)
        values[idx] = v
    return ChartPoint._of(t, config.m, values)


def charts_to_flags(p):
    """Gauge-fixed configuration with the given positive chart coordinates.

    Exact round trip: flags_to_charts(charts_to_flags(p), p.triangulation)
    returns p value for value.  The point is read on the fan at vertex 1,
    reached by ``_to_fan``, so the representatives depend only on the
    point, and every chart of one point rebuilds the same flags.  The
    configuration keeps that fan chart point as ``_fan``, for
    ``cactus.act_word`` to act on.
    """
    fan = _to_fan(p)
    n, m, values = fan.triangulation.n, fan.m, fan.values
    edge, ends, solves = _rebuild_plan(n, m)
    # vertex 2: antidiagonal int rows lam_j = s_j s_{j-1} a_j b_{j-1} /
    # (b_j a_{j-1}), from the {1, 2} edge values a_j / b_j and signs s_j
    cleared, a, b, s = [], 1, 1, 1
    for j, (key, sign) in enumerate(edge, 1):
        v = values[key]
        cleared.append(_clear_ratio([0] * (m - j) + [sign * s * v.numerator * b]
                                    + [0] * (j - 1), v.denominator * a))
        a, b, s = v.numerator, v.denominator, sign
    known = _prefix_scales(cleared)
    flags = [_standard(m), _completed(known, values[ends[0]])]
    for plan, end in zip(solves, ends[1:]):
        known = _solve_flag(values, plan, known, m)
        flags.append(_completed(known, values[end]))
    c = Configuration(flags)
    c._fan = fan
    return c


def _to_fan(p):
    """The chart point of p on the fan at vertex 1, on a copy of the values:
    ``_flip_toward`` vertex 1 on p's diagonals not at vertex 1, with no flip
    path planned."""
    values, _ = _flip_toward(p, {d for d in p.triangulation.diagonals if d[0] != 1}, 1)
    return ChartPoint._of(Triangulation.fan(p.triangulation.n), p.m, values)


@lru_cache(maxsize=None)
def _standard(m):
    """Vertex 1's standard flag, shared per m: the antidiagonal rows, last first."""
    return DecoratedFlag._of(_antidiagonal(m)[::-1], [1] * (m + 1), 1)


def _completed(known, delta):
    """The flag of the m - 1 rows of integer clearing ``known``, completed
    by the row that makes its det exactly 1, canonically: wrapped unchecked.

    The rows R_l of ``known`` must be mutually orthogonal, and ``delta``
    must be det[e_1; rows], the chart value with weight 1 at vertex 1 and
    m - 1 at vertex v on the edge {1, v}.  Then y = (-1)^(m-1) (e_1 -
    proj e_1) / delta, proj the orthogonal projection on the rows, is
    orthogonal to every row and has det[rows; y] = 1: the completion
    c / (c . c) on the rows' cofactor vector c, with no elimination.
    """
    ints, scales = known
    nums, den = _project_out([1] + [0] * len(ints), ints)
    f = (-1) ** len(ints) * delta.denominator
    r, s = _clear_ratio([f * x for x in nums], den * delta.numerator)
    return DecoratedFlag._of(ints + [r], scales + [scales[-1] * s], 1)


@lru_cache(maxsize=None)
def _rebuild_plan(n, m):
    """(edge, ends, solves): flag 2's {1, 2} keys of weights (m - j, j), signed
    (-1)^(j(j-1)/2); the completion keys, weights (1, m-1) on {1, v}, v = 2..n;
    and for row k = 1..m-1 of flag v = 3..n, its m - k + 1 conditions, i = m-k
    down to 0, as (i, j = m-k-i, the key of weights (i, j, k) at (1, v-1, v), s_i)."""
    edge = tuple((index_at(n, (1, 2), (m - j, j)), (-1) ** (j * (j - 1) // 2))
                 for j in range(1, m))
    ends = tuple(index_at(n, (1, v), (1, m - 1)) for v in range(2, n + 1))
    return edge, ends, tuple(
        tuple(tuple((i, m - k - i, index_at(n, (1, v - 1, v), (i, m - k - i, k)),
                     (-1) ** ((k - 1) * (m - k - i) + (m - i) * (m - i - 1) // 2))
                    for i in range(m - k, -1, -1)) for k in range(1, m))
        for v in range(3, n + 1))


def _solve_flag(values, plan, prev, m):
    """The integer clearing (int rows, prefix scales) of the first m - 1
    rows of flag v, from the fan chart ``values`` under the keys of its
    ``_rebuild_plan`` and the integer clearing ``prev`` of flag v - 1.

    Row k meets m - k + 1 conditions x . C_i = r_i, i = 0..m-k, on the
    cofactor vectors of one ``_nested_cofactors``.  C_i has i leading zeros
    and a nonzero pivot C_i[i], a chart value times row scales, so back
    substitution on columns 0..m-k solves them.  Each C_i is orthogonal to
    the k - 1 earlier rows of flag v, which are mutually orthogonal, so
    taking out the solution's projection on them keeps the conditions and
    gives the coset representative.
    """
    ints, scales = [], [1]
    for k, conditions in enumerate(plan, 1):
        aug = _nested_cofactors(ints, prev[0], m)
        nums, den = [], 1
        for i, j, key, sign in conditions:
            # det[stack; x] = x . C / scale is the chart value a / b, so x . (b C)
            # = a scale: with nums / den the x_c for c = i+1..m-k, it fixes x_i
            row = aug[m - 1 - i]
            value = values[key]
            b = sign * value.denominator
            p = b * row[m - 1 + i]
            acc = (value.numerator * prev[1][j] * scales[-1] * den
                   - b * sum(map(mul, row[m + i:], nums)))
            nums = [acc] + [x * p for x in nums]
            den *= p
        nums, d = _project_out(nums + [0] * (k - 1), ints)
        r, s = _clear_ratio(nums, den * d)
        ints.append(r)
        scales.append(scales[-1] * s)
    return ints, scales


def _nested_cofactors(ints, prev, m):
    """One elimination whose row m - 1 - i holds s_i C_i at entries m - 1 + c,
    zero at c < i, for i = 0..m-k: C_i the integer cofactor vector of the
    stack R = e_1..e_i + prev[:m-k-i] + ints, det(R + [x]) = x . C_i, from
    the k - 1 int rows ``ints`` of flag v and the int rows of flag v - 1.

    Past e_1..e_i, det is a minor on the trailing q = m - i columns of the
    first q - 1 rows of A = ints + prev[:m-k] and the probe: Bareiss on
    [A's columns, last first | the shared antidiagonal block of ones]
    leaves it in row q - 1, the row and column order giving s_i.  Pivots
    are chart values times row scales, so no row is swapped.
    """
    a = ints + prev[:m - 1 - len(ints)]
    aug = [col + anti for col, anti in zip(list(zip(*a))[::-1], _antidiagonal(m))]
    _bareiss(aug, m - 1)
    return aug


@lru_cache(maxsize=None)
def _antidiagonal(m):
    """The m x m antidiagonal block of ones, as tuple rows, shared per m."""
    return tuple(tuple(int(r + t == m - 1) for t in range(m)) for r in range(m))


def random_positive(n, m, seed, bound=20):
    """A reproducible random positive configuration.

    Chart values on the fan triangulation at vertex 1 are drawn as
    uniform positive rationals with numerator and denominator at most
    ``bound``, then reconstructed.
    """
    if n < 3 or m < 2:
        raise FlagError("need n >= 3 and m >= 2")
    return charts_to_flags(random_chart_point(Triangulation.fan(n), m, seed, bound))


def random_chart_point(t, m, seed, bound=20):
    """A reproducible random positive chart point on a triangulation."""
    if bound < 1:
        raise FlagError("need bound >= 1")
    rng = random.Random(seed)
    values = {idx: Fraction(rng.randrange(bound) + 1, rng.randrange(bound) + 1)
              for idx in chart_indices(t, m)}
    return ChartPoint._of(t, m, values)
