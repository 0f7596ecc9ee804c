from fractions import Fraction
from functools import reduce
from math import comb
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from totpos import mutation
from totpos.polygon import Triangulation, ChartPoint, chart_indices
from totpos.mutation import (flip_transport, transport, MutationError, _flip,
                             _flip_program, _run_program)
from totpos.cactus import _reversal_program
from totpos.flags import admissible_indices
from totpos.reconstruct import (flags_to_charts, charts_to_flags,
                                random_positive, random_chart_point)

from conftest import flip_path, random_triangulation, sharing_pairs, triangulations


def exchange(ab, cd, bc, ad, ac):
    """One exchange step, (ab * cd + bc * ad) / ac, on Fraction operators:
    the relation that each step of the flip's program takes in one gcd."""
    if ac == 0:
        raise MutationError("zero denominator in exchange relation")
    return (ab * cd + bc * ad) / ac


def _flip_transport_reference(p, d):
    """The recursive flip the exchange program replaced, kept as an oracle:
    each weight with j, l > 0 by the exchange relation, memoised, grounding
    in the old chart (j = 0 or l = 0)."""
    t = p.triangulation
    a, b, c, e = t.quadrilateral(d)
    n, m = t.n, p.m

    def key(i, j, k, l):
        idx = [0] * n
        idx[a - 1], idx[b - 1], idx[c - 1], idx[e - 1] = i, j, k, l
        return tuple(idx)

    memo = {}

    def value(i, j, k, l):
        if j == 0 or l == 0:
            return p.values[key(i, j, k, l)]
        w = (i, j, k, l)
        if w not in memo:
            memo[w] = exchange(
                value(i + 1, j, k, l - 1), value(i, j - 1, k + 1, l),
                value(i, j, k + 1, l - 1), value(i + 1, j - 1, k, l),
                value(i + 1, j - 1, k + 1, l - 1))
        return memo[w]

    # weights of the face interiors: three positive parts summing to m
    inner = [(i, j, m - i - j) for i in range(1, m - 1) for j in range(1, m - i)]
    values = dict(p.values)
    for i in range(1, m):
        del values[key(i, 0, m - i, 0)]
        values[key(0, i, 0, m - i)] = value(0, i, 0, m - i)
    for i, j, k in inner:
        del values[key(i, j, k, 0)], values[key(i, 0, j, k)]
        values[key(i, j, 0, k)] = value(i, j, 0, k)
        values[key(0, i, j, k)] = value(0, i, j, k)
    return ChartPoint(t.flip(d), m, values)


def exchange_instances(m):
    """All weight quadruples (i,j,k,l), sum m, whose six exchange terms are
    admissible (every index keeps at least two nonzero entries)."""
    out = []
    for i in range(m + 1):
        for j in range(m + 1 - i):
            for k in range(m + 1 - i - j):
                l = m - i - j - k
                shifts = [(i, j, k, l), (i + 1, j, k, l - 1),
                          (i, j - 1, k + 1, l), (i, j, k + 1, l - 1),
                          (i + 1, j - 1, k, l), (i + 1, j - 1, k + 1, l - 1)]
                if all(min(s) >= 0 and sum(1 for x in s if x) >= 2
                       for s in shifts):
                    out.append((i, j, k, l))
    return out


def check_exchange_on(config, positions):
    """The exchange identity on one quadruple of vertex positions, every
    admissible weight instance, against delta values."""
    n, m = config.n, config.m

    def d(w):
        idx = [0] * n
        for v, x in zip(positions, w):
            idx[v - 1] = x
        return config.delta(idx)

    count = 0
    for (i, j, k, l) in exchange_instances(m):
        lhs = d((i, j, k, l)) * d((i + 1, j - 1, k + 1, l - 1))
        rhs = (d((i + 1, j, k, l - 1)) * d((i, j - 1, k + 1, l))
               + d((i, j, k + 1, l - 1)) * d((i + 1, j - 1, k, l)))
        assert lhs == rhs, (positions, (i, j, k, l))
        count += 1
    return count


def test_exchange_step():
    assert exchange(Fraction(1), Fraction(1), Fraction(1), Fraction(1),
                    Fraction(1)) == 2
    assert exchange(Fraction(2), Fraction(3), Fraction(1, 2), Fraction(4),
                    Fraction(2)) == 4
    with pytest.raises(MutationError):
        exchange(1, 1, 1, 1, Fraction(0))


def test_ptolemy_on_v_configuration(v_config):
    # m=2 instance (0,1,0,1): (ab*cd + bc*ad)/ac with all five inputs 1
    d = v_config.delta
    assert d((0, 1, 0, 1)) == exchange(
        d((1, 1, 0, 0)), d((0, 0, 1, 1)), d((0, 1, 1, 0)), d((1, 0, 0, 1)),
        d((1, 0, 1, 0)))
    assert d((0, 1, 0, 1)) == 2


def test_exchange_identity_random():
    from itertools import combinations
    for (m, n) in [(2, 4), (2, 5), (3, 4), (4, 4), (3, 5)]:
        c = random_positive(n, m, 13 * m + n)
        for positions in combinations(range(1, n + 1), 4):
            assert check_exchange_on(c, positions) > 0


def test_flip_transport_matches_reconstruction_oracle():
    for (m, n) in [(2, 4), (2, 6), (3, 5), (4, 4)]:
        t = Triangulation.fan(n)
        p = random_chart_point(t, m, 19 * m + n)
        d = (1, 3)
        q = flip_transport(p, d)
        oracle = flags_to_charts(charts_to_flags(p), t.flip(d))
        assert q == oracle


def test_flip_is_involutive():
    t = Triangulation.fan(5)
    p = random_chart_point(t, 3, 23)
    q = flip_transport(flip_transport(p, (1, 3)), (2, 4))
    assert q == p


def test_flip_preserves_boundary_values():
    t = Triangulation.fan(6)
    m = 3
    p = random_chart_point(t, m, 29)
    q = flip_transport(p, (1, 4))
    for idx in p.values:
        support = [v + 1 for v, x in enumerate(idx) if x]
        if len(support) == 2 and tuple(support) not in {(1, 4)}:
            if tuple(support) in map(tuple, map(sorted, q.triangulation.edges())):
                assert q.values[idx] == p.values[idx]


def test_flip_transport_subtraction_free_positivity():
    # all outputs positive by construction; ChartPoint would reject otherwise
    t = Triangulation.fan(7)
    p = random_chart_point(t, 3, 31)
    q = transport(p, random_triangulation(7, 5))
    assert all(v > 0 for v in q.values.values())


def test_pentagon_cycle_all_ones():
    t = Triangulation.fan(5)
    p = ChartPoint(t, 2, {idx: 1 for idx in chart_indices(t, 2)})
    q = p
    for d in [(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)]:
        q = flip_transport(q, d)
    assert q == p


def test_transport_path_independence():
    for n in (5, 6, 7):
        t1 = random_triangulation(n, 1)
        t2 = random_triangulation(n, 2)
        t3 = random_triangulation(n, 3)
        p = random_chart_point(t1, 2, 37 + n)
        direct = transport(p, t2)
        detour = transport(transport(p, t3), t2)
        assert direct == detour


def test_transport_rejects_size_mismatch():
    p = random_chart_point(Triangulation.fan(5), 2, 1)
    from totpos.polygon import PolygonError
    with pytest.raises(PolygonError):
        transport(p, Triangulation.fan(6))


@st.composite
def chart_points(draw):
    """A random positive chart point on a drawn triangulation, n 4..12,
    m 2..5."""
    n = draw(st.integers(4, 12))
    m = draw(st.integers(2, 5))
    t = draw(triangulations(n))
    return random_chart_point(t, m, draw(st.integers(0, 10 ** 6)))


def random_walk(draw, p, max_len):
    """The chart point p carried along a drawn sequence of flips."""
    for _ in range(draw(st.integers(1, max_len))):
        p = flip_transport(p, draw(st.sampled_from(sorted(p.triangulation.diagonals))))
    return p


@settings(deadline=None, max_examples=100)
@given(chart_points(), st.data())
def test_flip_transport_result_passes_public_checks(p, data):
    d = data.draw(st.sampled_from(sorted(p.triangulation.diagonals)))
    q = flip_transport(p, d)
    assert ChartPoint(q.triangulation, p.m, q.values) == q
    public = Triangulation(p.triangulation.n, q.triangulation.diagonals)
    assert ChartPoint(public, p.m, q.values) == q


@settings(deadline=None, max_examples=100)
@given(chart_points(), st.data())
def test_flip_is_an_involution_on_chart_points(p, data):
    d = data.draw(st.sampled_from(sorted(p.triangulation.diagonals)))
    _, b, _, e = p.triangulation.quadrilateral(d)
    assert flip_transport(flip_transport(p, d), (b, e)) == p


@settings(deadline=None, max_examples=60)
@given(chart_points(), st.data())
def test_transport_is_path_independent(p, data):
    """Two random flip walks, the second completed by transport, reach the
    same chart point as the direct transport through the fan."""
    n = p.triangulation.n
    q = random_walk(data.draw, p, n)
    r = random_walk(data.draw, p, n)
    assert transport(r, q.triangulation) == q
    assert transport(p, q.triangulation) == q


@settings(deadline=None, max_examples=40)
@given(st.integers(4, 9).flatmap(sharing_pairs), st.integers(2, 4), st.integers(0, 10**6))
def test_transport_between_sharing_triangulations_matches_the_oracle(pair, m, seed):
    """The path leaves the shared diagonals in place and still lands on the
    determinant oracle's chart of the same point."""
    t1, t2 = pair
    p = random_chart_point(t1, m, seed)
    assert transport(p, t2) == flags_to_charts(charts_to_flags(p), t2)


def test_transport_raises_when_the_path_misses_the_target(monkeypatch):
    p = random_chart_point(Triangulation.fan(5), 2, 1)
    real = mutation._flip_quadrilaterals
    monkeypatch.setattr(mutation, "_flip_quadrilaterals", lambda t1, t2: [])
    with pytest.raises(MutationError):
        transport(p, Triangulation.fan(5, apex=3))
    # a path one flip short: only the tracked diagonal set sees it
    assert real(p.triangulation, Triangulation.fan(5, apex=3))
    monkeypatch.setattr(mutation, "_flip_quadrilaterals", lambda t1, t2: real(t1, t2)[:-1])
    with pytest.raises(MutationError):
        transport(p, Triangulation.fan(5, apex=3))


def test_transport_finds_no_quadrilateral_and_builds_no_triangulation(monkeypatch):
    p = random_chart_point(random_triangulation(10, 4), 3, 9)
    target = random_triangulation(10, 5)
    flips = len(flip_path(p.triangulation, target))
    calls = []
    real_quadrilateral, real_of = Triangulation.quadrilateral, Triangulation._of
    monkeypatch.setattr(Triangulation, "quadrilateral",
                        lambda t, d: calls.append(d) or real_quadrilateral(t, d))
    monkeypatch.setattr(Triangulation, "_of", classmethod(
        lambda cls, n, diagonals: calls.append(diagonals) or real_of(n, diagonals)))
    transport(p, target)
    # the path hands over each quadrilateral, and the flips run on one dict
    assert flips and calls == []


def test_transport_onto_its_own_triangulation_copies_the_values(monkeypatch):
    def refuse(t1, t2):
        raise AssertionError("planned a flip path onto the same triangulation")

    monkeypatch.setattr(mutation, "_flip_quadrilaterals", refuse)
    for n, m in [(3, 2), (5, 3), (8, 4)]:
        for t in (Triangulation.fan(n), random_triangulation(n, n + m)):
            p = random_chart_point(t, m, 7 * n + m)
            values = dict(p.values)
            # an equal triangulation that is another object
            q = transport(p, Triangulation(n, t.diagonals))
            assert q == p and q is not p and q.values is not p.values
            q.values[next(iter(q.values))] = Fraction(99)
            q.values.popitem()
            assert p.values == values
    # the fan chart of a configuration rebuilt from a fan point is its own
    p = random_chart_point(Triangulation.fan(6), 3, 5)
    values = dict(p.values)
    c = charts_to_flags(p)
    assert c._fan == p and c._fan.values is not p.values
    c._fan.values.clear()
    assert p.values == values


def _transport_reference(p, target):
    """The transport that one dict replaced, kept as an oracle: a fold of
    flip_transport, one chart point per flip, over flip_path."""
    for d in flip_path(p.triangulation, target):
        p = flip_transport(p, d)
    return p


@settings(deadline=None, max_examples=50)
@given(st.integers(4, 12).flatmap(lambda n: st.one_of(
           st.tuples(triangulations(n), triangulations(n)), sharing_pairs(n))),
       st.integers(2, 5), st.integers(0, 10 ** 6))
def test_transport_matches_the_fold_of_flip_transports(pair, m, seed):
    """Running every flip on one dict gives the fold's chart point, lands on
    the target itself, and leaves the input's values alone."""
    t1, t2 = pair
    p = random_chart_point(t1, m, seed)
    before = dict(p.values)
    q = transport(p, t2)
    assert q == _transport_reference(p, t2)
    assert q.triangulation is t2 and q.triangulation == t2
    assert p.values == before and q.values is not p.values
    assert transport(p, t1) == p


@settings(deadline=None, max_examples=50)
@given(st.integers(4, 10), st.integers(2, 7), st.data())
def test_flip_program_matches_the_recursive_flip(n, m, data):
    """Every diagonal of a drawn triangulation: the exchange program gives
    the recursive flip's values, value for value, in C(m+1, 3) steps."""
    t = data.draw(triangulations(n))
    p = random_chart_point(t, m, data.draw(st.integers(0, 10 ** 6)))
    for d in sorted(t.diagonals):
        q = flip_transport(p, d)
        assert q.values == _flip_transport_reference(p, d).values
        assert q.triangulation == t.flip(d)
    assert len(_flip_program(m)[1]) == comb(m + 1, 3)


@settings(deadline=None, max_examples=60)
@given(st.integers(4, 12), st.integers(2, 5), st.data())
def test_flip_takes_either_rotation_and_rebuilds_the_faces(n, m, data):
    """Every diagonal {a, c} of a drawn triangulation: the step on (a, b, c, e)
    and on (c, e, a, b) gives the same values in the same key order and the
    same diagonals, whose faces the checked constructor also gives."""
    t = data.draw(triangulations(n))
    p = random_chart_point(t, m, data.draw(st.integers(0, 10 ** 6)))
    for d in sorted(t.diagonals):
        a, b, c, e = t.quadrilateral(d)
        flipped = []
        for quad in ((a, b, c, e), (c, e, a, b)):
            values, diagonals = dict(p.values), set(t.diagonals)
            _flip(values, diagonals, n, m, *quad)
            flipped.append((list(values.items()), diagonals))
        assert flipped[0] == flipped[1]
        faces = Triangulation(n, flipped[0][1]).triangles()
        assert flip_transport(p, d).triangulation.triangles() == faces
        assert t.flip(d).triangles() == faces


@pytest.mark.parametrize("m", range(2, 9))
def test_flip_plan_deletes_the_old_chart_and_makes_the_new(m):
    """On the square (1, 2, 3, 4), the flip deletes the positions of the chart
    on {1, 3} that the chart on {2, 4} lacks and makes the reverse ones; every
    position a step reads before any step writes it is in the chart on
    {1, 3}, so the program never reads an unset value."""
    pts, steps, gone, made = _flip_program(m)
    old = set(chart_indices(Triangulation(4, [(1, 3)]), m))
    new = set(chart_indices(Triangulation(4, [(2, 4)]), m))
    assert {pts[s] for s in gone} == old - new
    assert {pts[s] for s in made} == new - old
    assert not set(gone) & set(made)
    written = set()
    for t, out, inc, d in steps:
        assert {pts[s] for s in (*out, *inc, d) if s not in written} <= old
        written.add(t)
    assert set(made) <= written


def _run_program_reference(x, steps):
    """The exchange program evaluator on Fraction operators, kept as an
    oracle: products, sum and quotient one operation at a time."""
    get = x.__getitem__
    for t, out, inc, d in steps:
        x[t] = (reduce(mul, map(get, out)) + reduce(mul, map(get, inc))) / x[d]


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 7), st.booleans(), st.data())
def test_run_program_matches_the_fraction_evaluator(m, flip, data):
    """Both programs, the flip's and the triangle reversal, on positive
    Fractions with numerators and denominators up to 2**64: one Fraction per
    step gives the operator-by-operator values, value for value."""
    pts, steps = _flip_program(m)[:2] if flip else (admissible_indices(3, m),
                                                    _reversal_program(m))
    part = st.integers(1, 2 ** 64)
    x = [Fraction(data.draw(part), data.draw(part)) for _ in pts]
    y = list(x)
    _run_program(x, steps)
    _run_program_reference(y, steps)
    assert x == y
    assert all(type(v) is Fraction for v in x)
