"""The triangulation chart isomorphism, in both directions.

flags_to_charts reads the chart coordinates off a configuration.
charts_to_flags rebuilds a gauge-fixed configuration from positive chart
values: the first two flags are pinned explicitly (standard flag and a
scaled antidiagonal flag matched to the edge values), and every further
flag is solved row by row from the chart values of its triangle, walking
the dual tree of the triangulation.
"""

import random
from fractions import Fraction

from .rational import (Mat, solve, scalar_str, cofactor_vector,
                       _integer_clearing, _cofactor_cleared)
from .flags import DecoratedFlag, Configuration, FlagError
from .polygon import Triangulation, ChartPoint, chart_indices, PolygonError


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
        v = config.delta(idx)
        if v <= 0:
            raise ChartValueError(idx, v)
        values[idx] = v
    return ChartPoint(t, config.m, values)


def _dual_tree_order(t):
    """Triangles of ``t`` in BFS order from the triangle on edge {1, 2},
    with, for each non-root triangle, its vertex not shared with earlier
    triangles."""
    tris = t.triangles()
    root = next(tri for tri in tris if 1 in tri and 2 in tri)
    seen_vertices = set(root)
    order = [(root, None)]
    remaining = [tri for tri in tris if tri != root]
    while remaining:
        for tri in remaining:
            new = [v for v in tri if v not in seen_vertices]
            if len(new) == 1:
                order.append((tri, new[0]))
                seen_vertices.add(new[0])
                remaining.remove(tri)
                break
        else:
            raise PolygonError("disconnected dual graph")
    return order


def _weights_index(n, weights):
    idx = [0] * n
    for v, w in weights.items():
        idx[v - 1] = w
    return tuple(idx)


def _complete_last_row(rows, m):
    """Append a final row making the determinant exactly 1, canonically.

    The cofactor vector c of the m-1 given rows satisfies det(rows + [x]) =
    x . c; the completion c / (c . c) is rational and basis-free.
    """
    cof = cofactor_vector(rows, m - 1)
    norm = sum(x * x for x in cof)
    return [x / norm for x in cof]


def charts_to_flags(p):
    """Gauge-fixed configuration with the given positive chart coordinates.

    Exact round trip: flags_to_charts(charts_to_flags(p), p.triangulation)
    returns p value for value.  The representatives depend only on the
    point, so every chart of one point rebuilds the same flags.
    """
    t = p.triangulation
    n, m = t.n, p.m

    def value(weights):
        return p.values[_weights_index(n, weights)]

    rows_at = {}  # vertex -> list of determined rows

    # vertex 1: the standard flag
    rows_at[1] = [[Fraction(int(j == i)) for j in range(m)] for i in range(m)]

    # vertex 2: scaled antidiagonal rows, matched to the {1, 2} edge values
    rows_at[2] = []
    prod = Fraction(1)
    for j in range(1, m):
        target = (-1) ** (j * (j - 1) // 2) * value({1: m - j, 2: j})
        lam = target / prod
        prod = target
        rows_at[2].append([lam if c == m - j else Fraction(0) for c in range(m)])

    for tri, new_vertex in _dual_tree_order(t):
        if new_vertex is None:
            new_vertex = tri[2]  # root: vertices 1 and 2 are pinned above
        # the known flags' rows are cleared to integers once per new vertex
        cleared = {v: _integer_clearing(rows_at[v]) for v in tri if v != new_vertex}
        rows_at[new_vertex] = []
        for trow in range(1, m):
            cleared[new_vertex] = _integer_clearing(rows_at[new_vertex])
            _solve_row(rows_at[new_vertex], cleared, tri, new_vertex, trow, m, value)

    flags = []
    for v in range(1, n + 1):
        rows = rows_at[v]
        if len(rows) < m:
            rows = rows + [_complete_last_row(rows, m)]
        flags.append(DecoratedFlag(Mat(rows)).unimodularize())
    return Configuration(flags)


def _solve_row(rows, cleared, tri, new_vertex, trow, m, value):
    """Determine row ``trow`` of the flag at ``new_vertex`` and append it to
    ``rows``, the rows of that flag determined so far.

    ``cleared`` maps each vertex of the ascending triangle ``tri`` to the
    integer clearing of its known rows.  The chart values with weight trow
    at the new vertex give m - trow + 1 linear conditions on the row;
    Euclidean orthogonality to the already determined rows of the same flag
    supplies the remaining trow - 1 and fixes the coset representative.
    """
    u, v = (w for w in tri if w != new_vertex)
    lhs = []
    rhs = []
    for i in range(0, m - trow + 1):
        weights = {u: i, v: m - trow - i, new_vertex: trow}
        # stack blocks in ascending vertex order; the unknown row is the
        # last row of the new vertex's block, and the determinant is linear
        # in it with the cofactor vector as coefficients
        ints = []
        scale = 1
        for w in tri:
            k = weights[w] - (w == new_vertex)
            ints.extend(cleared[w][0][:k])
            scale *= cleared[w][1][k]
            if w == new_vertex:
                unknown_pos = len(ints)
        lhs.append(_cofactor_cleared(ints, scale, unknown_pos))
        rhs.append(value(weights))
    for prev in rows:
        lhs.append(list(prev))
        rhs.append(Fraction(0))
    rows.append(list(solve(Mat(lhs), rhs)))


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
    values = {idx: Fraction(rng.randint(1, bound), rng.randint(1, bound))
              for idx in chart_indices(t, m)}
    return ChartPoint(t, m, values)
