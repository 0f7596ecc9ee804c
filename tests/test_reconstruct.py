import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import totpos.flags as flags
import totpos.mutation as mutation
import totpos.polygon as polygon
import totpos.rational as rational
import totpos.reconstruct as reconstruct
from totpos.rational import Mat, _clear_row, _integer_clearing
from totpos.flags import DecoratedFlag, Configuration, reverse, _shifted
from totpos.polygon import Triangulation, ChartPoint, chart_dimension, chart_indices, index_at
from totpos.mutation import transport
from totpos.reconstruct import (flags_to_charts, charts_to_flags,
                                random_positive, random_chart_point,
                                ChartValueError, _nested_cofactors, _rebuild_plan)

from conftest import (_solve_cleared, cofactor_ints, identity, random_triangulation,
                      triangulations)


def _charts_to_flags_reference(p):
    """The old route of the rebuild, kept as an oracle: each row solved from
    an m x m integer system on cofactor vectors that are each read off an
    elimination of their own, each flag completed by its cofactor vector,
    and every flag's det checked."""
    n, m = p.triangulation.n, p.m
    values = transport(p, Triangulation.fan(n)).values
    standard = [[Fraction(int(j == i)) for j in range(m)] for i in range(m)]
    first = _integer_clearing(standard)
    rows = []
    prod = Fraction(1)
    for j in range(1, m):
        target = (-1) ** (j * (j - 1) // 2) * values[index_at(n, (1, 2), (m - j, j))]
        lam = target / prod
        prod = target
        rows.append([lam if c == m - j else Fraction(0) for c in range(m)])
    known = _integer_clearing(rows)
    flags = [standard, rows + [_completion_reference(known)]]
    for v in range(3, n + 1):
        rows, known = _solve_flag_reference(values, n, v, first, known, m)
        flags.append(rows + [_completion_reference(known)])
    return Configuration([DecoratedFlag(Mat._of(tuple(map(tuple, f))))
                          for f in flags])


def _completion_reference(known):
    """The completion c / (c . c) on the cofactor vector c of the cleared
    rows, which takes an elimination."""
    ints, scales = known
    cof = cofactor_ints(ints)
    norm = sum(x * x for x in cof)
    return [Fraction(x * scales[-1], norm) for x in cof]


def _solve_flag_reference(values, n, v, first, prev, m):
    rows, ints, scales = [], [], [1]
    for k in range(1, m):
        system = []
        for i in range(m - k + 1):
            j = m - k - i
            cof = cofactor_ints(first[0][:i] + prev[0][:j] + ints)
            scale = first[1][i] * prev[1][j] * scales[-1]
            value = values[index_at(n, (1, v - 1, v), (i, j, k))]
            system.append([value.denominator * c for c in cof]
                          + [value.numerator * scale])
        system.extend(r + [0] for r in ints)
        y, d = _solve_cleared(system, m)
        row = [Fraction(yi[0], d) for yi in y]
        r, s = _clear_row(row)
        rows.append(row)
        ints.append(r)
        scales.append(scales[-1] * s)
    return rows, (ints, scales)


def _fields(f):
    return f.m, f.rep, f._ints, f._scales, f._det


@settings(deadline=None, max_examples=30)
@given(st.integers(3, 9).flatmap(triangulations), st.integers(2, 5),
       st.integers(0, 2 ** 32), st.sampled_from([20, 80]))
def test_charts_to_flags_matches_the_reference(t, m, seed, bound):
    p = random_chart_point(t, m, seed, bound)
    got, want = charts_to_flags(p), _charts_to_flags_reference(p)
    assert [_fields(f) for f in got.flags] == [_fields(f) for f in want.flags]


# past the sweep above: n 10..11 or m 6..7.  The oracle takes about 2 s
# a point at (11, 7) with bound 80 and 0.7 s with bound 20, so bound 80 is
# drawn at m <= 6 only
@settings(deadline=None, max_examples=10)
@given(st.sampled_from([(n, m) for n in range(3, 12) for m in range(2, 8) if n > 9 or m > 5]),
       st.data())
def test_charts_to_flags_matches_the_reference_on_wider_charts(size, data):
    n, m = size
    t = data.draw(triangulations(n))
    bound = data.draw(st.sampled_from([20, 80] if m <= 6 else [20]))
    p = random_chart_point(t, m, data.draw(st.integers(0, 2 ** 32)), bound)
    got, want = charts_to_flags(p), _charts_to_flags_reference(p)
    assert [_fields(f) for f in got.flags] == [_fields(f) for f in want.flags]


@settings(deadline=None, max_examples=30)
@given(st.integers(3, 10).flatmap(triangulations), st.integers(2, 5),
       st.integers(0, 2 ** 32))
def test_rebuild_flips_each_diagonal_off_vertex_1_toward_it(t, m, seed):
    # the walk to the fan at vertex 1 plans no flip path: one flip per
    # diagonal not at vertex 1, landing where a transport there lands
    p = random_chart_point(t, m, seed)
    calls = []
    real = mutation._flip

    def refuse(*args):
        raise AssertionError("the rebuild planned a flip path")

    with pytest.MonkeyPatch.context() as patch:
        for module in (polygon, mutation):
            patch.setattr(module, "_flip_quadrilaterals", refuse)
        patch.setattr(mutation, "_flip", lambda *a: calls.append(a[4:]) or real(*a))
        got = charts_to_flags(p)
    assert len(calls) == sum(d[0] != 1 for d in t.diagonals)
    assert got._fan == transport(p, Triangulation.fan(t.n))
    want = _charts_to_flags_reference(p)
    assert [_fields(f) for f in got.flags] == [_fields(f) for f in want.flags]


def test_nested_cofactors_match_one_elimination_each(monkeypatch):
    # every vector equals its own elimination's, sign included, and the
    # nested elimination swaps no row
    signs = []
    real = reconstruct._bareiss
    monkeypatch.setattr(reconstruct, "_bareiss", lambda *a: signs.append(real(*a)) or 1)
    for (n, m, seed) in [(3, 2, 1), (5, 3, 2), (6, 4, 3), (5, 5, 4), (4, 5, 5)]:
        flags = random_positive(n, m, seed).flags
        first = flags[0]._ints
        _, _, solves = _rebuild_plan(n, m)
        for v in range(3, n + 1):
            prev, ints = list(flags[v - 2]._ints[:m - 1]), list(flags[v - 1]._ints)
            for k, conditions in enumerate(solves[v - 3], 1):
                aug = _nested_cofactors(ints[:k - 1], prev, m)
                assert [c[0] for c in conditions] == list(range(m - k, -1, -1))
                for i, j, key, sign in conditions:
                    cof = [sign * x for x in aug[m - 1 - i][m - 1:]]
                    assert cof == cofactor_ints(list(first[:i]) + prev[:m - k - i]
                                                + ints[:k - 1])
    assert signs and set(signs) == {1}


def test_rebuild_plan_covers_the_fan_chart():
    # the keys charts_to_flags reads, all taken from its plan: flag 2's
    # {1, 2} edge keys and the planned keys are the fan chart's, each once;
    # edge key j has weights (m - j, j) and sign (-1)^(j(j-1)/2), and the
    # completion key of flag v = 2..n weights (1, m - 1) on {1, v}
    for n in range(3, 13):
        fan = Triangulation.fan(n)
        for m in range(2, 9):
            edge, ends, solves = _rebuild_plan(n, m)
            keys = [key for key, _ in edge]
            keys += [key for plan in solves for conditions in plan
                     for _, _, key, _ in conditions]
            assert sorted(keys) == chart_indices(fan, m)
            assert [(key[:2], sign) for key, sign in edge] == [
                ((m - j, j), (-1) ** (j * (j - 1) // 2)) for j in range(1, m)]
            assert len(ends) == n - 1
            for v, key in enumerate(ends, 2):
                assert key in keys and key[0] == 1 and key[v - 1] == m - 1


@settings(deadline=None, max_examples=25)
@given(st.integers(3, 9), st.integers(2, 6), st.integers(0, 2 ** 32))
def test_rebuilt_flags_equal_checked_flags(n, m, seed):
    """Each rebuilt flag is the one the checked constructor makes of its
    rows, with det 1, and its held int rows are pairwise orthogonal: the
    condition under which the projections of the rebuild are exact."""
    for f in random_positive(n, m, seed).flags:
        assert _fields(f) == _fields(DecoratedFlag(f.rep))
        assert f._det == 1
        for a in range(m):
            for b in range(a):
                assert sum(x * y for x, y in zip(f._ints[a], f._ints[b])) == 0


@pytest.mark.parametrize("n, m", [(3, 2), (5, 3), (6, 4), (8, 5), (9, 6)])
def test_rebuild_runs_one_elimination_per_row(monkeypatch, n, m):
    """On a fan point the rebuild runs one elimination on m - 1 columns per
    row of flags 3..n that it solves, (n - 2)(m - 1) in all: flag 2 and
    every completion take none, and no row solves a square system."""
    calls = []
    real = rational._bareiss

    def counted(rows, ncols_reduce):
        calls.append(ncols_reduce)
        return real(rows, ncols_reduce)

    for module in (rational, reconstruct):
        monkeypatch.setattr(module, "_bareiss", counted)
    charts_to_flags(random_chart_point(Triangulation.fan(n), m, 67 * n + m))
    assert calls == [m - 1] * ((n - 2) * (m - 1))


def test_charts_to_flags_to_charts_is_value_identity():
    for (n, m) in [(3, 2), (4, 2), (5, 3), (4, 4), (6, 3)]:
        for seed in range(3):
            t = random_triangulation(n, seed)
            p = random_chart_point(t, m, 43 * n + m + seed)
            c = charts_to_flags(p)
            assert flags_to_charts(c, t).values == p.values


def test_flags_to_charts_to_flags_is_point_identity():
    for (n, m) in [(4, 2), (5, 3), (4, 4)]:
        c = random_positive(n, m, 47 * n + m)
        t = random_triangulation(n, 1)
        back = charts_to_flags(flags_to_charts(c, t))
        assert back.same_point(c)


@pytest.mark.parametrize("n,m", [(3, 2), (6, 3), (8, 4)])
def test_rebuilt_configuration_charts_by_computing_every_coordinate(monkeypatch, n, m):
    # the rebuilt configuration keeps its fan chart for act_word alone: its
    # memo starts empty, so reading the chart back computes each coordinate
    fan = Triangulation.fan(n)
    p = random_chart_point(fan, m, 61 * n + m)
    c = charts_to_flags(p)
    assert c._deltas == {}
    calls = []
    real = flags._det_cleared
    monkeypatch.setattr(flags, "_det_cleared", lambda *a: calls.append(a) or real(*a))
    assert flags_to_charts(c, fan) == p
    assert len(calls) == chart_dimension(n, m)


def test_reconstruction_gauge_pins_first_flag():
    p = random_chart_point(Triangulation.fan(5), 3, 51)
    c = charts_to_flags(p)
    assert c.flags[0].rep == identity(3)


def test_reconstruction_depends_only_on_the_point():
    # every chart of one point rebuilds the same representatives, which is
    # what lets act_generator rebuild straight from its adapted chart
    for (n, m) in [(4, 2), (5, 3), (6, 3), (7, 4)]:
        c = charts_to_flags(random_chart_point(Triangulation.fan(n), m, 53 * n + m))
        for seed in range(3):
            again = charts_to_flags(flags_to_charts(c, random_triangulation(n, seed)))
            assert [f.rep for f in again.flags] == [f.rep for f in c.flags]


@settings(deadline=None, max_examples=60)
@given(st.integers(3, 9).flatmap(lambda n: st.tuples(triangulations(n), triangulations(n))),
       st.integers(2, 5), st.integers(0, 2 ** 32))
def test_chart_round_trip_on_drawn_triangulations(pair, m, seed):
    """The round trip is the identity on any triangulation, and the same
    point given on a second one rebuilds the same representatives."""
    t, t2 = pair
    p = random_chart_point(t, m, seed)
    c = charts_to_flags(p)
    assert flags_to_charts(c, t) == p
    again = charts_to_flags(transport(p, t2))
    assert [f.rep for f in again.flags] == [f.rep for f in c.flags]


def test_reconstruction_forms_no_intermediate_matrix(monkeypatch):
    # the row solves stay in integers, and each rebuilt flag has det 1 by
    # construction, so no Mat is coerced and no flag goes through the
    # checked constructor
    def refuse(*args):
        raise AssertionError("intermediate matrix or checked flag")
    monkeypatch.setattr(Mat, "__init__", refuse)
    monkeypatch.setattr(DecoratedFlag, "__init__", refuse)
    for (n, m) in [(3, 2), (5, 3), (7, 5)]:
        t = random_triangulation(n, 2)
        p = random_chart_point(t, m, 59 * n + m)
        assert flags_to_charts(charts_to_flags(p), t) == p


def test_all_ones_triangle():
    t = Triangulation.fan(3)
    p = ChartPoint(t, 2, {idx: 1 for idx in chart_indices(t, 2)})
    c = charts_to_flags(p)
    assert c.all_deltas() == {(1, 1, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}


def test_flags_to_charts_rejects_nonpositive(v_config):
    from totpos.flags import Configuration
    t = Triangulation(4, [(1, 3)])
    bad = Configuration([v_config.flags[0].scale_rows([-1, -1]),
                         *v_config.flags[1:]])
    with pytest.raises(ChartValueError) as exc:
        flags_to_charts(bad, t)
    assert exc.value.index in set(chart_indices(t, 2))


def test_random_positive_is_reproducible_and_positive():
    a = random_positive(5, 3, 123)
    b = random_positive(5, 3, 123)
    assert a.to_json() == b.to_json()
    assert a.is_positive()
    assert random_positive(5, 3, 124).to_json() != a.to_json()


def test_random_chart_point_bound():
    p = random_chart_point(Triangulation.fan(6), 2, 7, bound=5)
    for v in p.values.values():
        assert 1 <= v.numerator <= 5 and 1 <= v.denominator <= 5


def test_random_chart_point_draws_as_randint():
    # randrange(bound) + 1 reads the _randbelow(bound) stream that
    # randint(1, bound) reads, so every chart draws the values it drew
    for bound in (1, 2, 20, 80, 10 ** 30):
        for n in range(3, 10):
            for m in range(2, 6):
                t = random_triangulation(n, n + m)
                seed = 1000 * n + 10 * m + bound % 97
                rng = random.Random(seed)
                want = {idx: Fraction(rng.randint(1, bound), rng.randint(1, bound))
                        for idx in chart_indices(t, m)}
                p = random_chart_point(t, m, seed, bound)
                assert p.triangulation == t and p.m == m
                assert list(p.values.items()) == list(want.items())


def test_shared_rebuild_constants_are_immutable():
    # vertex 1's standard flag and the antidiagonal block are one object
    # per m, held as tuples, and no map of flags changes them
    for m in range(2, 6):
        a, b = random_positive(4, m, 3), random_positive(5, m, 4)
        standard = a.flags[0]
        assert b.flags[0] is standard
        assert type(standard._ints) is tuple
        assert all(type(row) is tuple for row in standard._ints)
        anti = reconstruct._antidiagonal(m)
        ones = tuple(tuple(int(r + t == m - 1) for t in range(m)) for r in range(m))
        assert anti is reconstruct._antidiagonal(m) and anti == ones
        assert type(anti) is tuple and all(type(row) is tuple for row in anti)
        with pytest.raises(TypeError):
            standard._ints[0][0] = 2
        with pytest.raises(TypeError):
            anti[0][m - 1] = 2
        _shifted(a.flags, 1)
        _shifted(b.flags, 3)
        reverse(a)
        standard.scale_rows([-1] * m)
        standard.scale_rows(range(1, m + 1))
        standard.orthogonal().orthogonal()
        charts_to_flags(random_chart_point(Triangulation.fan(6), m, 5))
        checked = DecoratedFlag(identity(m))
        assert standard == checked and hash(standard) == hash(checked)
        assert _fields(standard) == _fields(checked)
        assert anti == ones
