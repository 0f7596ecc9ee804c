import pytest
from hypothesis import given, settings, strategies as st

from totpos.rational import Mat
from totpos.flags import DecoratedFlag
from totpos.polygon import Triangulation, ChartPoint, chart_indices
from totpos.mutation import transport
from totpos.reconstruct import (flags_to_charts, charts_to_flags,
                                random_positive, random_chart_point,
                                ChartValueError)

from conftest import random_triangulation, triangulations


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


def test_reconstruction_gauge_pins_first_flag():
    p = random_chart_point(Triangulation.fan(5), 3, 51)
    c = charts_to_flags(p)
    assert c.flags[0].rep == Mat.identity(3)


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
    # construction, so no Mat is coerced and no flag rescaled
    def refuse(*args):
        raise AssertionError("intermediate matrix or rescaling")
    monkeypatch.setattr(Mat, "__init__", refuse)
    monkeypatch.setattr(DecoratedFlag, "unimodularize", refuse)
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
