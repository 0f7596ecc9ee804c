import json
import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from totpos import polygon
from totpos.polygon import (Triangulation, ChartPoint, chart_indices,
                            chart_dimension, glue_check,
                            edge_values, cyclic_interval, PolygonError)
from totpos.flags import Configuration
from totpos.reconstruct import flags_to_charts, random_positive, random_chart_point
from totpos.mutation import transport, flip_transport, _flip_toward
from totpos.cactus import IntervalGen, act_word, _act_on_chart, _with_chord
from totpos.axioms import relabel_chart

from conftest import (beyond_reference, chords_cross, flip_path, flip_quadrilaterals_reference,
                      random_triangulation, sharing_pairs, triangulations)


def test_triangulation_validation():
    with pytest.raises(PolygonError):
        Triangulation(4, [])  # wrong count
    with pytest.raises(PolygonError):
        Triangulation(4, [(1, 2)])  # boundary edge
    with pytest.raises(PolygonError):
        Triangulation(5, [(1, 3), (2, 4)])  # crossing
    with pytest.raises(PolygonError):
        Triangulation(4, [(1, 5)])  # out of range


def test_non_integer_sizes_are_rejected():
    # int() would truncate each of these to a valid size or label
    for n, diagonals in [(5.5, [(1, 3), (1, 4)]), (5, [(1, 3.7), (1, 4)]),
                         (True, []), (4, [(1, "3")])]:
        with pytest.raises(PolygonError):
            Triangulation(n, diagonals)
    t = Triangulation.fan(4)
    values = {idx: 1 for idx in chart_indices(t, 2)}
    with pytest.raises(PolygonError):
        ChartPoint(t, 2.0, values)


def test_fan_and_triangles():
    t = Triangulation.fan(6)
    assert t.diagonals == frozenset({(1, 3), (1, 4), (1, 5)})
    assert t.triangles() == [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6)]
    t2 = Triangulation.fan(6, apex=3)
    assert t2.diagonals == frozenset({(3, 5), (3, 6), (1, 3)})


def _adjacent_or_equal(a, b, n):
    return (a - b) % n in (0, 1, n - 1)


def test_fans_match_the_public_constructor():
    """The closed-form fan at every apex has the diagonals and the face
    list, in order, of the validated triangulation on its chords."""
    for n in range(3, 13):
        for apex in range(1, n + 1):
            t = Triangulation.fan(n, apex)
            public = Triangulation(n, [(apex, v) for v in range(1, n + 1)
                                       if not _adjacent_or_equal(apex, v, n)])
            assert t.diagonals == public.diagonals
            assert t.triangles() == public.triangles()
    # a bool apex too, whose fan to_json would write as from_json rejects it
    for n, apex in [(2, 1), (5.0, 1), (5, 0), (5, 6), (5, True), (5, 2.5)]:
        with pytest.raises(PolygonError):
            Triangulation.fan(n, apex)


def test_fans_are_shared_and_never_changed():
    """One fan per (n, apex), which no flip, transport or action changes."""
    for n in range(3, 9):
        assert Triangulation.fan(n) is Triangulation.fan(n, 1)
        assert Triangulation.fan(n, 2) is Triangulation.fan(n, 2)
        assert (Triangulation.fan(n, 2) == Triangulation.fan(n)) == (n == 3)
    fan = Triangulation.fan(8)
    faces, diagonals = list(fan.triangles()), fan.diagonals
    c = random_positive(8, 3, 5)
    assert fan.flip((1, 4)) != fan
    assert act_word(c, [IntervalGen(2, 6), IntervalGen(7, 3)]).is_positive()
    assert transport(flags_to_charts(c, random_triangulation(8, 1)), fan).triangulation is fan
    assert type(fan.triangles()) is list and fan.triangles() == faces
    assert fan.diagonals == diagonals and fan is Triangulation.fan(8)


@st.composite
def diagonal_sets(draw):
    """n and n - 3 distinct diagonals of the n-gon, either end first: some
    diagonals of a drawn triangulation, many sharing endpoints, and others
    drawn from all diagonals, which may cross them."""
    n = draw(st.integers(4, 16))
    kept = draw(st.sets(st.sampled_from(sorted(draw(triangulations(n)).diagonals))))
    others = [(a, b) for a, b in combinations(range(1, n + 1), 2)
              if 1 < b - a < n - 1 and (a, b) not in kept]
    size = n - 3 - len(kept)
    drawn = draw(st.lists(st.sampled_from(others), min_size=size, max_size=size,
                          unique=True))
    return n, [d[::-1] if draw(st.booleans()) else d for d in [*kept, *drawn]]


@settings(deadline=None, max_examples=300)
@given(diagonal_sets())
def test_crossings_are_found_as_by_pairwise_comparison(case):
    """The stack check accepts exactly the sets no two of whose diagonals
    cross, and names two that cross in every other."""
    n, diagonals = case
    pairs = sorted(tuple(sorted(d)) for d in diagonals)
    if not any(chords_cross(d1, d2, n) for d1, d2 in combinations(pairs, 2)):
        assert sorted(Triangulation(n, diagonals).diagonals) == pairs
        return
    with pytest.raises(PolygonError, match="cross") as info:
        Triangulation(n, diagonals)
    a, b, c, d = map(int, re.findall(r"\d+", str(info.value)))
    assert {(a, b), (c, d)} <= set(pairs) and chords_cross((a, b), (c, d), n)


def test_cyclic_helpers():
    assert cyclic_interval(5, 2, 6) == [5, 6, 1, 2]
    assert chords_cross((1, 3), (2, 4), 5)
    assert not chords_cross((1, 3), (3, 5), 5)


def test_quadrilateral_and_flip():
    t = Triangulation.fan(5)
    assert t.quadrilateral((1, 3)) == (1, 2, 3, 4)
    t2 = t.flip((1, 3))
    assert t2.diagonals == frozenset({(2, 4), (1, 4)})
    assert t2.flip((2, 4)) == t
    with pytest.raises(PolygonError):
        t.flip((2, 4))


def test_flip_path_replay():
    for n in (4, 5, 6, 8):
        for seed in range(3):
            t1 = random_triangulation(n, seed)
            t2 = random_triangulation(n, seed + 100)
            t = t1
            for d in flip_path(t1, t2):
                t = t.flip(d)
            assert t == t2
    assert flip_path(Triangulation.fan(5), Triangulation.fan(5)) == []


def _degree(t, v):
    return sum(v in d for d in t.diagonals)


def _pieces(t1, t2):
    """The vertex sets of the pieces that the shared diagonals cut the
    polygon into, as t1's faces joined across its unshared diagonals."""
    pieces = [set(f) for f in t1.triangles()]
    for d in t1.diagonals - t2.diagonals:
        a, b = [s for s in pieces if set(d) <= s]  # the two sides of d
        pieces.remove(b)
        a |= b
    return pieces


@settings(deadline=None, max_examples=60)
@given(st.integers(4, 12).flatmap(lambda n: st.one_of(
    st.tuples(triangulations(n), triangulations(n)), sharing_pairs(n))))
def test_flip_path_routes_through_the_busiest_fan(pair):
    t1, t2 = pair
    n = t1.n
    shared = t1.diagonals & t2.diagonals
    path = flip_path(t1, t2)
    t = t1
    for d in path:
        assert d not in shared
        t = t.flip(d)
    assert t == t2
    # each piece with k + 3 vertices takes 2k flips less the most unshared
    # diagonals of t1 and t2 at one of its vertices
    unshared = t1.diagonals ^ t2.diagonals
    expected = 0
    for s in _pieces(t1, t2):
        k = len(s) - 3
        inside = [d for d in unshared if set(d) <= s]
        expected += 2 * k - max(sum(v in d for d in inside) for v in s)
    assert len(path) == expected
    # never longer than the route through the fan at the busiest vertex of
    # the whole polygon, and never shorter than the unshared diagonals
    best = max(_degree(t1, v) + _degree(t2, v) for v in range(1, n + 1))
    assert len(t1.diagonals - t2.diagonals) <= len(path) <= 2 * (n - 3) - best
    for p in range(1, n + 1):
        assert len(flip_path(t1, Triangulation.fan(n, p))) == n - 3 - _degree(t1, p)


@settings(deadline=None, max_examples=150)
@given(st.integers(4, 16).flatmap(lambda n: st.one_of(
    st.tuples(triangulations(n), triangulations(n)), sharing_pairs(n),
    triangulations(n).map(lambda t: (t, Triangulation(t.n, t.diagonals))))))
def test_flip_path_is_the_reference_planners(pair):
    """Quadrilateral for quadrilateral, in both directions, the flip path is
    the one planned on fresh side maps with a Counter of degrees per piece."""
    for t1, t2 in (pair, pair[::-1]):
        assert polygon._flip_quadrilaterals(t1, t2) == flip_quadrilaterals_reference(t1, t2)


def _made_triangulations(n, seed):
    """A triangulation from each constructor, and from each operation that
    makes one, named."""
    drawn = random_triangulation(n, seed)
    public = Triangulation(n, drawn.diagonals)
    d = min(public.diagonals)
    chord = cyclic_interval(2, n - 1, n)  # crosses the fan's diagonal (1, 3), n >= 5
    # d crosses the diagonal that flipping d puts in, on a chart off the fan
    flipped = random_chart_point(public.flip(d), 3, seed)
    assert flipped.triangulation != Triangulation.fan(n)
    rotation = tuple(range(2, n + 1)) + (1,)
    return [
        ("Triangulation", public),
        ("_of", Triangulation._of(n, drawn.diagonals)),
        ("fan", Triangulation.fan(n, seed % n + 1)),
        ("flip", public.flip(d)),
        ("flip_transport", flip_transport(random_chart_point(public, 3, seed), d).triangulation),
        ("_with_chord", _with_chord(random_chart_point(Triangulation.fan(n), 3, seed), chord)[0]),
        ("_act_on_chart", _act_on_chart(flipped, IntervalGen(*d)).triangulation),
        ("relabel_chart", relabel_chart(random_chart_point(public, 3, seed), rotation).triangulation),
    ]


@pytest.mark.parametrize("n", [5, 9, 12])
def test_triangulations_hold_one_side_map_that_no_reader_changes(n):
    for seed in range(3):
        for name, t in _made_triangulations(n, seed):
            assert t.triangles() == Triangulation(n, t.diagonals).triangles(), name
            held = t._beyond
            assert held == beyond_reference(t), name
            before = dict(held)
            p = random_chart_point(t, 3, seed)
            other = random_triangulation(n, seed + 50)
            assert transport(transport(p, other), t) == p
            for d in sorted(t.diagonals):
                t.quadrilateral(d)
            for apex in range(1, n + 1):
                _flip_toward(p, {d for d in t.diagonals if apex not in d}, apex)
            assert t._beyond is held and held == before, name
            # equality and hashing read the diagonals, not the side map
            fresh = Triangulation(n, t.diagonals)
            assert fresh == t and t == fresh and hash(fresh) == hash(t), name


def _boundary_and_diagonals(t):
    n = t.n
    return {(v, v + 1) for v in range(1, n)} | {(1, n)} | t.diagonals


def _clique_faces(t):
    """The faces as the 3-cliques of the edge graph, ascending: in a
    noncrossing triangulation every 3-clique bounds a face.  The search
    the constructor's closed form replaced, kept as its oracle."""
    edges = _boundary_and_diagonals(t)
    adj = {v: set() for v in range(1, t.n + 1)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return [(a, b, c) for a, b in sorted(edges) for c in sorted(adj[a] & adj[b]) if c > b]


def _two_loop_chart_indices(t, m):
    """The chart indices as one index per edge and weight split, plus the
    all-positive weights of each face; the enumeration that the per-face
    one replaced, kept as its oracle."""
    n = t.n
    out = set()
    for a, b in _boundary_and_diagonals(t):
        for i in range(1, m):
            idx = [0] * n
            idx[a - 1], idx[b - 1] = i, m - i
            out.add(tuple(idx))
    for a, b, c in _clique_faces(t):
        for i in range(1, m - 1):
            for j in range(1, m - i):
                idx = [0] * n
                idx[a - 1], idx[b - 1], idx[c - 1] = i, j, m - i - j
                out.add(tuple(idx))
    return sorted(out)


@settings(deadline=None, max_examples=100)
@given(st.integers(3, 14).flatmap(triangulations))
def test_faces_edges_and_chart_indices_match_the_search(t):
    assert t.triangles() == _clique_faces(t)
    assert t.edges() == sorted(_boundary_and_diagonals(t))
    for m in range(2, 7):
        assert chart_indices(t, m) == _two_loop_chart_indices(t, m)


def test_chart_dimension_formula():
    # brute-force index enumeration against the closed form
    for n in range(3, 11):
        for m in range(2, 6):
            t = Triangulation.fan(n)
            count = len(chart_indices(t, m))
            assert count == chart_dimension(n, m)
            assert count == (2 * n - 3) * (m - 1) + (n - 2) * (m - 1) * (m - 2) // 2
    assert chart_dimension(8, 4) == 57


def test_chart_indices_independent_of_triangulation():
    for seed in range(3):
        t = random_triangulation(6, seed)
        assert len(chart_indices(t, 3)) == chart_dimension(6, 3)


def test_chart_point_validation():
    t = Triangulation.fan(4)
    idxs = chart_indices(t, 2)
    good = {idx: 1 for idx in idxs}
    ChartPoint(t, 2, good)
    bad = dict(good)
    bad[idxs[0]] = -1
    with pytest.raises(PolygonError):
        ChartPoint(t, 2, bad)
    with pytest.raises(PolygonError):
        ChartPoint(t, 2, {idx: 1 for idx in idxs[1:]})


def test_chart_point_from_json_keeps_its_checks():
    p = random_chart_point(Triangulation.fan(5), 3, 5)
    good = p.to_json()
    ChartPoint.from_json(good)
    keys = sorted(good["values"])
    missing = dict(good, values={k: good["values"][k] for k in keys[1:]})
    extra = dict(good, values=dict(good["values"], **{"0,1,0,1,1": "1"}))
    for bad in (missing, extra):
        with pytest.raises(PolygonError, match="keyed"):
            ChartPoint.from_json(bad)
    for v in ("0", "-1/2"):
        with pytest.raises(PolygonError, match="not positive"):
            ChartPoint.from_json(dict(good, values=dict(good["values"], **{keys[0]: v})))
    with pytest.raises(PolygonError, match="object"):
        ChartPoint.from_json(dict(good, values=[]))
    with pytest.raises(ValueError, match="zero denominator"):
        ChartPoint.from_json(dict(good, values=dict(good["values"], **{keys[0]: "1/0"})))


def test_chart_point_json_enumerates_the_chart_once_and_spells_keys_as_str(monkeypatch):
    # one enumeration spells the keys and checks the key set
    calls = []

    def counted(t, m):
        calls.append((t, m))
        return chart_indices(t, m)

    p = random_chart_point(random_triangulation(10, 3), 3, 7)
    doc = json.loads(json.dumps(p.to_json()))
    monkeypatch.setattr(polygon, "chart_indices", counted)
    assert ChartPoint.from_json(doc) == p
    assert calls == [(p.triangulation, 3)]
    monkeypatch.undo()
    # the cached format spells each key as str does, two-digit weights too
    for n in range(3, 13):
        for m in range(2, 13):
            t = random_triangulation(n, m)
            q = ChartPoint._of(t, m, dict.fromkeys(chart_indices(t, m), Fraction(1)))
            assert list(q.to_json()["values"]) == [",".join(map(str, k))
                                                   for k in sorted(q.values)]


@settings(deadline=None, max_examples=100)
@given(st.integers(4, 12).flatmap(triangulations), st.data())
def test_flip_faces_match_the_public_constructor(t, data):
    """Along a random walk of flips, each flipped triangulation lists the
    faces of a freshly validated one, in the same order."""
    for _ in range(data.draw(st.integers(1, t.n))):
        t = t.flip(data.draw(st.sampled_from(sorted(t.diagonals))))
        public = Triangulation(t.n, t.diagonals)
        assert t.triangles() == public.triangles()
        assert t == public


def test_inconsistent_faces_raise_without_asserts(v_config):
    # trusted, crossing diagonals: three faces, and (2, 4) borders only
    # one of them; the checks that remain on the flip path are raises,
    # which python -O keeps
    t = Triangulation._of(4, frozenset({(1, 3), (2, 4)}))
    with pytest.raises(PolygonError, match="does not border two faces"):
        t.quadrilateral((2, 4))
    triangle = Configuration(v_config.flags[:3])
    with pytest.raises(PolygonError, match="does not border two faces"):
        glue_check(dict.fromkeys(t.triangles(), triangle), t)


def test_chart_point_serialization_round_trip():
    p = random_chart_point(Triangulation.fan(5), 3, 5)
    data = p.to_json()
    text = json.dumps(data, sort_keys=True)
    back = ChartPoint.from_json(json.loads(text))
    assert back == p
    assert json.dumps(back.to_json(), sort_keys=True) == text


@settings(deadline=None, max_examples=40)
@given(st.integers(3, 12).flatmap(triangulations), st.integers(2, 12),
       st.integers(0, 10 ** 6))
def test_chart_point_json_round_trip_keeps_the_document_order(t, m, seed):
    """Keys read by one lookup give the point back, in the document's key
    order: JSON's string order, which is tuple order until a weight of 10,
    from m = 11, puts "10,1,..." before "2,9,..."."""
    p = random_chart_point(t, m, seed)
    doc = json.loads(json.dumps(p.to_json(), sort_keys=True))
    back = ChartPoint.from_json(doc)
    assert back == p
    assert list(back.values) == [tuple(map(int, k.split(","))) for k in doc["values"]]
    assert (list(back.values) == sorted(back.values)) == (m < 11)


def test_v_configuration_chart_is_all_ones(v_config):
    t = Triangulation(4, [(1, 3)])
    p = flags_to_charts(v_config, t)
    expected = {(1, 1, 0, 0): 1, (0, 1, 1, 0): 1, (0, 0, 1, 1): 1,
                (1, 0, 0, 1): 1, (1, 0, 1, 0): 1}
    assert p.values == expected


def test_edge_values_and_glue(v_config):
    t = Triangulation(4, [(1, 3)])
    tri1, tri2 = t.triangles()
    a = {tri: Configuration([v_config.flags[v - 1] for v in tri])
         for tri in (tri1, tri2)}
    assert glue_check(a, t)
    other = random_positive(3, 2, 77)
    assert not glue_check({tri1: a[tri1], tri2: other}, t)
    assert edge_values(v_config, 1, 3, 2) == [v_config.delta((1, 0, 1, 0))]


def test_glue_check_validates_assignment(v_config):
    t = Triangulation(4, [(1, 3)])
    tri1, tri2 = t.triangles()
    with pytest.raises(PolygonError):
        glue_check({tri1: Configuration(v_config.flags[:3])}, t)
