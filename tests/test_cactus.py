import pytest
from hypothesis import given, settings, strategies as st

from totpos.flags import theta, iota, face, Configuration, admissible_indices
from totpos.polygon import (Triangulation, ChartPoint, chart_indices,
                            cyclic_interval, PolygonError)
from totpos.cactus import (IntervalGen, word_from_json, word_to_json,
                           underlying_permutation, act_generator, act_word,
                           verify_relations, _face_images, _reversal_program,
                           _with_chord)
from totpos.mutation import transport, _run_program
from totpos.reconstruct import (random_positive, random_chart_point,
                                charts_to_flags, flags_to_charts)
import totpos.cactus as cactus_module
import totpos.reconstruct as reconstruct
import totpos.mutation as mutation
import totpos.rational as rational

from conftest import (act_on_chart_reference, chords_cross, relabel, sign_normalize,
                      triangulations, _reversal_program_reference)


def _adapted_triangulation(n, iv):
    """A triangulation cutting along {p, q}: inside fan at q, outside fan
    at p."""
    p, q = iv[0], iv[-1]
    chords = [(q, v) for v in iv] + [(p, v) for v in cyclic_interval(q, p, n)]
    return Triangulation(n, [c for c in chords if (c[0] - c[1]) % n not in (0, 1, n - 1)])


def _act_generator_reference(c, g):
    """The flag-level recipe act_generator replaced, kept as an oracle.

    The full interval reverses every flag in place, and the flags are read
    back to the fan chart and rebuilt.  A proper sub-interval reassembles
    on the adapted chart and rebuilds flags from it; charts_to_flags fixes
    its gauge from the point alone, so no second round trip is needed.
    """
    n, m = c.n, c.m
    iv = g.interval(n)
    if len(iv) == n:
        out = sign_normalize(Configuration(
            [c.flags[g.mirror(v, n) - 1].orthogonal() for v in range(1, n + 1)]))
        return charts_to_flags(flags_to_charts(out, Triangulation.fan(n)))
    rev = sign_normalize(Configuration(
        [c.flags[v - 1].orthogonal() for v in reversed(iv)]))
    t = _adapted_triangulation(n, iv)
    values = {}
    for idx in chart_indices(t, m):
        if {k + 1 for k, x in enumerate(idx) if x} <= set(iv):
            values[idx] = rev.delta(tuple(idx[v - 1] for v in iv))
        else:
            values[idx] = c.delta(idx)
    return charts_to_flags(ChartPoint(t, m, values))


@st.composite
def points_and_intervals(draw):
    n = draw(st.integers(3, 8))
    m = draw(st.integers(2, 4))
    length = draw(st.integers(2, n))
    p = draw(st.integers(1, n))
    c = random_positive(n, m, draw(st.integers(0, 10 ** 6)))
    return c, IntervalGen(p, (p + length - 2) % n + 1)


@settings(deadline=None, max_examples=40)
@given(points_and_intervals())
def test_generator_matches_flag_level_reference(case):
    c, g = case
    assert ([f.rep for f in act_generator(c, g).flags]
            == [f.rep for f in _act_generator_reference(c, g).flags])


def test_interval_gen_validation():
    with pytest.raises(PolygonError):
        IntervalGen(2, 2)
    # interval ends are integers as they are, never truncated or converted
    for p, q in [(1.7, 3.2), (1, 3.0), (True, 3), ("1", 3)]:
        with pytest.raises(PolygonError):
            IntervalGen(p, q)
    g = IntervalGen(5, 2)
    assert g.interval(6) == [5, 6, 1, 2]
    with pytest.raises(PolygonError):
        g.interval(4)


def test_word_json_round_trip():
    w = word_from_json([[1, 3], [2, 5]])
    assert word_to_json(w) == [[1, 3], [2, 5]]


def test_underlying_permutation_examples():
    assert underlying_permutation([IntervalGen(1, 3)], 4) == (3, 2, 1, 4)
    g = IntervalGen(2, 4)
    assert underlying_permutation([g, g], 6) == (1, 2, 3, 4, 5, 6)
    # full reversal then inner swap, composed by hand
    assert underlying_permutation(word_from_json([[1, 4], [2, 3]]), 4) == (4, 2, 3, 1)


def test_underlying_permutation_is_a_homomorphism():
    import random
    rng = random.Random(5)

    def gen():
        p = rng.randint(1, 6)
        q = rng.randint(1, 6)
        while q == p:
            q = rng.randint(1, 6)
        return IntervalGen(p, q)

    for _ in range(25):
        w1 = [gen(), gen()]
        w2 = [gen(), gen()]
        p1 = underlying_permutation(w1, 6)
        p2 = underlying_permutation(w2, 6)
        joint = underlying_permutation(w1 + w2, 6)
        assert joint == tuple(p2[p1[v - 1] - 1] for v in range(1, 7))


def test_full_triangle_generator_is_theta():
    for m in (2, 3):
        c = random_positive(3, m, 81 + m)
        assert act_generator(c, IntervalGen(1, 3)).same_point(theta(c))


def test_generator_is_involutive_and_positive():
    for (n, m) in [(4, 2), (5, 2), (6, 2), (4, 3), (5, 3), (4, 5)]:
        c = random_positive(n, m, 83 * n + m)
        for (p, q) in [(1, 2), (2, 3), (1, 3), (2, n), (n, 2)]:
            g = IntervalGen(p, q)
            gc = act_generator(c, g)
            assert gc.is_positive()
            assert act_generator(gc, g).same_point(c)


def test_generator_restrictions_characterize_the_output(v_config):
    # s_{2,3} on the (v1..v4) configuration: the {2,3} edge restriction is
    # reversed via iota, every coordinate not involving the inside of the
    # interval is unchanged, and the result is positive
    g = IntervalGen(2, 3)
    out = act_generator(v_config, g)
    assert out.is_positive()
    old_pair = sign_normalize(Configuration([v_config.flags[1], v_config.flags[2]]))
    new_pair = sign_normalize(Configuration([out.flags[1], out.flags[2]]))
    assert new_pair.same_point(iota(old_pair))
    # faces of the adapted chart not supported inside the interval keep
    # their values: boundary edges off the {2,3} edge and the {2,4} cut
    for idx in [(1, 0, 0, 1), (1, 1, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1)]:
        assert out.delta(idx) == v_config.delta(idx)


def test_generator_outside_restriction_unchanged():
    c = random_positive(6, 2, 87)
    out = act_generator(c, IntervalGen(2, 4))
    # complement interval [4..2]: its sub-configuration is untouched
    comp = cyclic_interval(4, 2, 6)
    old = sign_normalize(Configuration([c.flags[v - 1] for v in comp]))
    new = sign_normalize(Configuration([out.flags[v - 1] for v in comp]))
    assert new.same_point(old)


def test_generator_inside_restriction_is_reversed():
    c = random_positive(6, 2, 89)
    iv = cyclic_interval(2, 4, 6)
    out = act_generator(c, IntervalGen(2, 4))
    old = Configuration([c.flags[v - 1] for v in iv])
    new = sign_normalize(Configuration([out.flags[v - 1] for v in iv]))
    reversed_old = sign_normalize(Configuration(
        [f.orthogonal() for f in reversed(old.flags)]))
    assert new.same_point(reversed_old)


def test_act_word_composition():
    c = random_positive(4, 2, 91)
    assert act_word(c, []).same_point(c)
    g = IntervalGen(2, 4)
    assert act_word(c, [g, g]).same_point(c)


def test_full_interval_commutes_with_rotation():
    for (n, m) in [(4, 2), (5, 2)]:
        c = random_positive(n, m, 93 + n)
        rot = tuple(list(range(2, n + 1)) + [1])
        a = act_generator(sign_normalize(relabel(c, rot)), IntervalGen(n, n - 1))
        b = sign_normalize(relabel(act_generator(c, IntervalGen(1, n)), rot))
        assert a.same_point(b)


def test_verify_relations_all_pass():
    for (n, m) in [(4, 2), (5, 2), (5, 3)]:
        reports = verify_relations(n, m, 4, 7)
        assert [r["relation"] for r in reports] == ["R1", "R2", "R3"]
        for r in reports:
            assert r["passes"] == r["trials"] > 0
            assert r["counterexample"] is None


def test_verify_relations_reports_are_reproducible():
    assert verify_relations(5, 2, 3, 11) == verify_relations(5, 2, 3, 11)


def test_verify_relations_serializes_counterexamples(monkeypatch):
    # a deliberately broken action: ignores intervals starting at an odd
    # vertex; the harness must catch the failures and ship the offending
    # input
    real = act_generator

    def broken(c, g):
        if g.p % 2:
            return c
        return real(c, g)

    monkeypatch.setattr(cactus_module, "act_generator", broken)
    reports = verify_relations(5, 2, 6, 13)
    failed = [r for r in reports if r["passes"] < r["trials"]]
    assert failed
    for r in failed:
        cex = r["counterexample"]
        assert cex is not None
        assert set(cex) == {"configuration", "lhs", "rhs"}
        Configuration.from_json(cex["configuration"])


@st.composite
def chart_points_and_words(draw):
    n = draw(st.integers(3, 9))
    m = draw(st.integers(2, 5))
    p = random_chart_point(draw(triangulations(n)), m, draw(st.integers(0, 10 ** 6)))
    word = []
    for _ in range(draw(st.integers(1, 4))):
        q = draw(st.integers(1, n))
        word.append(IntervalGen(q, (q + draw(st.integers(2, n)) - 2) % n + 1))
    return p, word


@settings(deadline=None, max_examples=25)
@given(chart_points_and_words())
def test_chart_word_matches_flag_level_reference(case):
    p, word = case
    ref = charts_to_flags(p)
    for g in word:
        ref = _act_generator_reference(ref, g)
    out = act_word(p, word)
    assert isinstance(out, ChartPoint)
    # the library's own checks accept the trusted result
    assert ChartPoint(out.triangulation, out.m, out.values) == out
    assert [f.rep for f in charts_to_flags(out).flags] == [f.rep for f in ref.flags]


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 6), st.integers(0, 10 ** 6))
def test_exchange_program_is_theta_on_triangle_interiors(m, seed):
    c = charts_to_flags(random_chart_point(Triangulation.fan(3), m, seed))
    pts = admissible_indices(3, m)
    x = [c.delta(w) for w in pts]
    _run_program(x, _reversal_program(m))
    after = dict(zip(pts, x))
    rev = theta(c)
    for i, j, k in pts:
        if i and j and k:
            assert rev.delta((i, j, k)) == after[j, k, i]
    assert len(_reversal_program(m)) == m * (m - 1) * (m - 2) // 6


@pytest.mark.parametrize("m", range(2, 15))
def test_reversal_program_closed_form_is_the_quiver_mutations(m):
    # CI takes m = 15..24, where the simulation takes seconds
    assert _reversal_program(m) == _reversal_program_reference(m)


def test_face_images_are_the_per_weight_rule():
    # by position, the weight at the image face (w1, w2, w3): the reversed
    # triangle's value x(j, k, i) lands on (i, j, k), and an edge value keeps
    # its edge, weight m - i at the mirror of a vertex of weight i
    for m in range(2, 13):
        pts = admissible_indices(3, m)
        images = _face_images(m)
        assert len(images) == len(pts)
        for (i, j, k), image in zip(pts, images):
            if i and j and k:
                assert image == (k, i, j), (m, i, j, k)
            else:
                assert image == (k and m - k, j and m - j, i and m - i), (m, i, j, k)
            assert image in pts


def test_chart_action_runs_no_elimination(monkeypatch):
    def no_elimination(*args):
        raise AssertionError("elimination on the chart-level action path")

    points = [random_chart_point(Triangulation.fan(6), m, 7 * m) for m in range(2, 6)]
    monkeypatch.setattr(rational, "_bareiss", no_elimination)
    for p in points:
        for g in (IntervalGen(2, 4), IntervalGen(5, 2), IntervalGen(1, 6), IntervalGen(3, 4)):
            out = act_generator(p, g)
            # the result's triangulation has the chord {p, q}, a side of a
            # face, and keeps the input's diagonals with an end outside the
            # interval that do not cross the chord
            iv = g.interval(6)
            chord = (g.p, g.q)
            assert any(set(chord) <= set(f) for f in out.triangulation.triangles())
            assert {d for d in p.triangulation.diagonals
                    if not set(d) <= set(iv) and not chords_cross(d, chord, 6)
                    } <= out.triangulation.diagonals
            assert all(v > 0 for v in out.values.values())
            back = transport(act_generator(out, g), p.triangulation)
            assert back == p


FAN6 = [(1, 3), (1, 4), (1, 5)]
ZIGZAG7 = [(2, 7), (2, 6), (3, 6), (3, 5)]


@pytest.mark.parametrize("n,diagonals,p,q,flips", [
    (6, FAN6, 1, 4, 0),  # the fan at 1 has the chord
    (6, FAN6, 2, 4, 1),  # the fan at 2 is three flips away
    (6, FAN6, 5, 2, 2),
    (6, FAN6, 3, 2, 0),  # the whole polygon
    (6, FAN6, 3, 4, 0),  # a boundary edge
    (7, ZIGZAG7, 1, 4, 4),  # every diagonal of the zigzag
    (7, ZIGZAG7, 4, 7, 3),
    (7, ZIGZAG7, 5, 2, 1),
    (7, ZIGZAG7, 6, 2, 0),  # a diagonal of the zigzag
])
def test_chord_insertion_flips_each_crossing_diagonal_once(monkeypatch, n, diagonals,
                                                           p, q, flips):
    """A chart point takes one flip per input diagonal crossing {p, q}."""
    t = Triangulation(n, diagonals)
    calls = []
    real = mutation._flip

    def counted(*args):
        calls.append(args[4:])
        return real(*args)

    monkeypatch.setattr(mutation, "_flip", counted)
    for m in (2, 3):
        calls.clear()
        point = random_chart_point(t, m, 17 * m)
        act_generator(point, IntervalGen(p, q))
        assert len(calls) == flips == sum(chords_cross(d, (p, q), t.n)
                                          for d in t.diagonals)


@settings(deadline=None, max_examples=200)
@given(st.integers(4, 12).flatmap(lambda n: st.tuples(triangulations(n), st.integers(1, n),
                                                      st.integers(1, n - 1))),
       st.integers(2, 3), st.integers(0, 10 ** 6))
def test_chord_insertion_is_a_transport_to_a_triangulation_with_the_chord(case, m, seed):
    """The chord goes in by one flip per crossing diagonal, keeps every
    diagonal that does not cross it, and lands on the values that a
    transport along the flip path to the same triangulation gives."""
    t, p, step = case
    n = t.n
    q = (p + step - 1) % n + 1
    point = random_chart_point(t, m, seed)
    calls = []
    real = mutation._flip

    def counted(*args):
        calls.append(args[4:])
        return real(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mutation, "_flip", counted)
        t_out, values = _with_chord(point, IntervalGen(p, q).interval(n))
    lo, hi = sorted((p, q))
    assert (lo, hi) in t_out.diagonals or hi - lo in (1, n - 1)
    assert {d for d in t.diagonals if not chords_cross(d, (p, q), n)} <= t_out.diagonals
    assert len(calls) == sum(chords_cross(d, (p, q), n) for d in t.diagonals)
    assert values == transport(point, t_out).values


def _count_conversions(monkeypatch):
    # the first read of a word's flags rebuilds them through the binding in
    # reconstruct, so that one is counted beside cactus's own
    calls = []
    for module, name in ((cactus_module, "charts_to_flags"), (reconstruct, "charts_to_flags"),
                         (cactus_module, "flags_to_charts")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, real=real, name=name: calls.append(name) or real(*a))
    return calls


WORD = [IntervalGen(1, 3), IntervalGen(2, 5), IntervalGen(4, 1)]


def test_rebuilt_configuration_word_acts_on_its_held_fan_chart(monkeypatch):
    # charts_to_flags keeps the fan chart it built the flags from, so the
    # word reads no chart off the flags; the result holds its own fan chart
    # and is rebuilt once, at the first read of its flags
    c = random_positive(6, 3, 11)
    calls = _count_conversions(monkeypatch)
    out = act_word(c, WORD)
    assert isinstance(out, Configuration)
    assert calls == []
    flags = out.flags
    assert calls == ["charts_to_flags"]
    assert out.flags is flags
    assert calls == ["charts_to_flags"]


def test_configuration_word_is_converted_once_each_way(monkeypatch):
    # flags with no held chart, as from JSON, are read once on the way in,
    # and the result is rebuilt once, at the first read of its flags
    c = random_positive(6, 3, 11)
    calls = _count_conversions(monkeypatch)
    for flags_only in (Configuration(c.flags), Configuration.from_json(c.to_json())):
        assert flags_only._fan is None
        del calls[:]
        out = act_word(flags_only, WORD)
        assert isinstance(out, Configuration)
        assert calls == ["flags_to_charts"]
        out.flags
        assert calls == ["flags_to_charts", "charts_to_flags"]
        out.flags
        assert calls == ["flags_to_charts", "charts_to_flags"]
    assert act_word(c, []) is c


@st.composite
def configurations_and_words(draw):
    n = draw(st.integers(3, 9))
    m = draw(st.integers(2, 5))
    c = random_positive(n, m, draw(st.integers(0, 10 ** 6)))
    word = []
    for _ in range(draw(st.integers(1, 3))):
        q = draw(st.integers(1, n))
        word.append(IntervalGen(q, (q + draw(st.integers(2, n)) - 2) % n + 1))
    return c, word


@settings(deadline=None, max_examples=20)
@given(configurations_and_words())
def test_held_fan_chart_acts_as_the_chart_read_off_the_flags(case):
    c, word = case
    held = dict(c._fan.values)
    out = act_word(c, word)
    read = act_word(Configuration(c.flags), word)
    assert ([(f._ints, f._scales) for f in out.flags]
            == [(f._ints, f._scales) for f in read.flags])
    # the action copies the held chart and leaves it as it was
    assert c._fan.values == held
    assert out._fan.values is not c._fan.values


def _clearings(c):
    return [(f._ints, f._scales) for f in c.flags]


@settings(deadline=None, max_examples=20)
@given(configurations_and_words())
def test_word_result_reads_as_the_rebuild_of_its_fan_chart(case):
    # a word's result holds only its fan chart; each reader below starts
    # from no flags and sees what the eager rebuild of that chart gives
    c, word = case
    out = act_word(c, word)
    assert out._flags is None and (out.n, out.m) == (c.n, c.m)
    assert out._fan.triangulation == Triangulation.fan(c.n)
    eager = charts_to_flags(out._fan)
    assert _clearings(out) == _clearings(eager)
    by_json, by_delta, left, right = (Configuration._of_fan(out._fan) for _ in range(4))
    assert by_json.to_json() == eager.to_json()
    assert all(by_delta.delta(idx) == eager.delta(idx) for idx in admissible_indices(c.n, c.m))
    assert left.same_point(eager) and eager.same_point(right)
    # a chain of words is rebuilt once, at the read; the reversed word
    # gives back the start's flags, clearing for clearing
    calls = []
    real = reconstruct.charts_to_flags
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reconstruct, "charts_to_flags", lambda p: calls.append(p) or real(p))
        patch.setattr(cactus_module, "charts_to_flags", reconstruct.charts_to_flags)
        back = act_word(act_word(c, word), word[::-1])
        assert calls == [] and back._flags is None
        assert _clearings(back) == _clearings(c) and len(calls) == 1
        back.flags
        assert len(calls) == 1
    assert act_word(c, []) is c


@settings(deadline=None, max_examples=40)
@given(st.integers(3, 9).flatmap(lambda n: st.tuples(triangulations(n), st.integers(1, n),
                                                     st.integers(2, n))),
       st.integers(2, 5), st.integers(0, 10 ** 6))
def test_face_by_face_action_matches_whole_chart_relabel(case, m, seed):
    t, a, length = case
    p = random_chart_point(t, m, seed)
    g = IntervalGen(a, (a + length - 2) % t.n + 1)
    before = dict(p.values)
    out, ref = act_generator(p, g), act_on_chart_reference(p, g)
    assert out.triangulation == ref.triangulation
    # equality compares diagonals alone: the faces carried through are the
    # validated constructor's, in order
    assert (out.triangulation.triangles()
            == Triangulation(t.n, out.triangulation.diagonals).triangles())
    assert out.values == ref.values
    assert p.values == before


@settings(deadline=None, max_examples=15)
@given(st.integers(4, 7), st.integers(2, 4), st.integers(0, 10 ** 6))
def test_relations_hold_at_random_sizes(n, m, seed):
    for r in verify_relations(n, m, 1, seed):
        assert r["passes"] == r["trials"], r


def test_adapted_triangulations_have_the_closed_form_faces():
    """The adapted triangulation of every interval [p..q] has, in ascending
    order, the faces of the fan at q inside the interval, (q, u, w) for
    consecutive u, w in [p..q-1], and of the fan at p outside it, (p, u, w)
    for consecutive u, w in [q..p-1]; its diagonals are their sides that are
    not polygon edges."""
    for n in range(3, 13):
        edges = {tuple(sorted((v, v % n + 1))) for v in range(1, n + 1)}
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                if p == q:
                    continue
                iv = cyclic_interval(p, q, n)
                faces = sorted(tuple(sorted((apex, u, w)))
                               for apex, side in ((q, iv), (p, cyclic_interval(q, p, n)))
                               for u, w in zip(side, side[1:-1]))
                t = _adapted_triangulation(n, iv)
                assert len(faces) == n - 2
                assert t.triangles() == faces
                assert t.diagonals == {s for a, b, c in faces
                                       for s in ((a, b), (a, c), (b, c))} - edges
