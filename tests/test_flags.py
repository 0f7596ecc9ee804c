import json
import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from totpos import flags, rational
from totpos.rational import Mat, det, _integer_clearing
from totpos.flags import (DecoratedFlag, Configuration, admissible_indices,
                          check_index, rotate, rotate_inv, face, iota, theta,
                          reverse, FlagError, NotGenericError)
from totpos.polygon import Triangulation, ChartPoint, PolygonError, chart_indices, index_at
from totpos.reconstruct import (random_positive, random_chart_point,
                                charts_to_flags, flags_to_charts)
from totpos.cactus import IntervalGen, act_word

from conftest import (SignNormalizeError, add_multiple_of_row, clearings,
                      config_json_reference, det_oracle, mat_mul, orthogonal_reference,
                      random_triangulation, relabel, reversal_sign_cases, scale_row,
                      sign_normalize, transpose)
from test_calibration import antidiagonal, closed_form_convention, perp_with


def test_admissible_index_count():
    # compositions of m into n parts, minus the n one-hot ones (for m >= 2)
    for n in (2, 3, 4, 5):
        for m in (2, 3, 4):
            idxs = admissible_indices(n, m)
            assert len(idxs) == comb(m + n - 1, n - 1) - n
            assert list(idxs) == sorted(idxs)
            assert all(sum(i) == m and sum(1 for x in i if x) >= 2
                       for i in idxs)


def test_check_index_rejections():
    with pytest.raises(FlagError):
        check_index((1, 1), 3, 2)
    with pytest.raises(FlagError):
        check_index((2, 0, 0), 3, 2)
    with pytest.raises(FlagError):
        check_index((1, 2, 0), 3, 2)
    with pytest.raises(FlagError):
        check_index((-1, 2, 1), 3, 2)
    # entries are integers as they are, never truncated or converted
    for idx in [(1.0, 1, 0), (1.9, 1, 0), ("1", 1, 0), (True, 1, 0)]:
        with pytest.raises(FlagError):
            check_index(idx, 3, 2)
    with pytest.raises(FlagError):
        random_positive(4, 2, 1).delta((1.9, 1.9, 0, 0))


def test_v_configuration_deltas(v_config):
    expected = {
        (1, 1, 0, 0): 1, (0, 1, 1, 0): 1, (1, 0, 1, 0): 1,
        (0, 1, 0, 1): 2, (1, 0, 0, 1): 1, (0, 0, 1, 1): 1,
    }
    for idx, v in expected.items():
        assert v_config.delta(idx) == v
        # independent cofactor oracle on the stacked rows
        rows = []
        for k, i in enumerate(idx):
            rows.extend(v_config.flags[k].rep.entries[:i])
        assert det_oracle(Mat(rows)) == v
    assert v_config.is_positive()
    assert all(v != 0 for v in v_config.all_deltas().values())
    assert v_config.first_nonpositive() is None


def test_delta_is_coset_invariant():
    c = random_positive(4, 3, 3)
    # add a multiple of an earlier row to a later row of one flag
    f = c.flags[2]
    moved = DecoratedFlag(add_multiple_of_row(f.rep, 2, 0, Fraction(5, 3)))
    c2 = Configuration([c.flags[0], c.flags[1], moved, c.flags[3]])
    assert c.same_point(c2)
    assert f == moved


def test_delta_is_unimodular_invariant():
    c = random_positive(4, 3, 4)
    g = Mat([[1, 2, 0], [0, 1, 3], [1, 0, 1]])  # det 7
    g = scale_row(g, 2, Fraction(1, det(g)))
    c2 = Configuration([DecoratedFlag(mat_mul(f.rep, g)) for f in c.flags])
    assert c.same_point(c2)


def test_flag_validation():
    with pytest.raises(FlagError):
        DecoratedFlag(Mat([[1, 2], [2, 4]]))
    with pytest.raises(FlagError):
        DecoratedFlag(Mat([[2, 0], [0, 1]]))
    assert DecoratedFlag(Mat([[1, 0], [0, 1]])).scale_rows([2, 1])._det == 2


def test_canonicalize_is_idempotent_and_constant_on_cosets():
    f = DecoratedFlag(Mat([[1, 2, 3], [0, 1, 4], [0, 0, 1]]))
    g = DecoratedFlag(add_multiple_of_row(add_multiple_of_row(f.rep, 1, 0, 7), 2, 1, -2))
    # the checked constructor holds the canonical rows, so constructing
    # again from them is the identity
    assert (f._ints, f._scales, f._det) == (g._ints, g._scales, g._det)
    h = DecoratedFlag(f.rep)
    assert (h._ints, h._scales, h._det) == (f._ints, f._scales, f._det)
    assert f == g


def test_configuration_serialization_round_trip(v_config):
    data = v_config.to_json()
    text = json.dumps(data, sort_keys=True)
    back = Configuration.from_json(json.loads(text))
    assert back.to_json() == data
    assert back.same_point(v_config)
    assert json.dumps(back.to_json(), sort_keys=True) == text


def test_serialization_rejects_mismatched_header(v_config):
    data = v_config.to_json()
    data["n"] = 5
    with pytest.raises(FlagError):
        Configuration.from_json(data)


def test_orthogonal_is_an_involution_on_cosets():
    for m in (2, 3, 4, 5):
        c = random_positive(3, m, 17 + m)
        for f in c.flags:
            assert f.orthogonal().orthogonal() == f


def test_orthogonal_exchanges_prefix_and_suffix_spans():
    # row i of the orthogonal representative is B-orthogonal to the first
    # m-i rows of the input, for the antidiagonal form B = J
    for m in (2, 3, 4, 5):
        b = Mat(antidiagonal(m))
        c = random_positive(3, m, 23 + m)
        for f in c.flags:
            g = f.orthogonal()
            gb = mat_mul(g.rep, transpose(b))
            for i in range(m):
                for j in range(m - 1 - i):
                    pairing = sum(gb.entries[i][k] * f.rep.entries[j][k]
                                  for k in range(m))
                    assert pairing == 0


def test_derived_flags_skip_the_checked_constructor(monkeypatch):
    # every flag derived from a held one is wrapped on its own integer
    # clearing, with its det in closed form: no second elimination, and
    # the orthogonal flag with no elimination at all
    points = {m: random_positive(3, m, 31 + m) for m in range(2, 6)}

    def refuse(*args):
        raise AssertionError("checked flag constructor or elimination")

    monkeypatch.setattr(DecoratedFlag, "__init__", refuse)
    for m, c in points.items():
        assert reverse(reverse(c)).same_point(c)
        assert theta(theta(c)).same_point(c)
        assert rotate_inv(rotate(c)).same_point(c)
        e = face(c, 2)
        assert iota(iota(e)).same_point(e)
        f = c.flags[0]
        flipped = Configuration([f.scale_rows([-1] + [1] * (m - 1)), *c.flags[1:]])
        with monkeypatch.context() as patch:
            patch.setattr(rational, "_bareiss", refuse)
            twice = f.orthogonal().orthogonal()
            # the sign of row 1 moves to the last row, which the det undoes
            unflipped = flipped.flags[0].orthogonal()
        assert twice == f and unflipped == f.orthogonal()
        for g in (*c.flags, *reverse(c).flags):
            ints = g._ints
            assert all(sum(a * b for a, b in zip(ints[i], ints[j])) == 0
                       for j in range(m) for i in range(j))
        assert flipped.flags[0]._det == -1 and not flipped.is_positive()
        assert sign_normalize(flipped).same_point(c)


def test_flag_paths_never_form_the_fraction_representative(monkeypatch):
    # a flag is held as its integer clearing; only rep, and so __repr__,
    # forms Fractions from it, and only the checked constructor and det
    # clear Fraction rows: charts_to_flags, == and hash, and to_json, which
    # writes each entry from the clearing, work on int rows alone
    p = random_chart_point(random_triangulation(6, 2), 3, 43)
    moved = DecoratedFlag(add_multiple_of_row(charts_to_flags(p).flags[2].rep, 2, 0,
                                              Fraction(5, 3)))
    written = [config_json_reference(c) for c in (charts_to_flags(p),
                                                  reverse(charts_to_flags(p)))]

    def refuse(*args):
        raise AssertionError("a Fraction representative was formed or cleared")

    clearing = rational._integer_clearing
    binders = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "totpos"
               and vars(mod).get("_integer_clearing") is clearing]
    assert rational in binders and flags in binders
    for mod in binders:
        monkeypatch.setattr(mod, "_integer_clearing", refuse)
    monkeypatch.setattr(DecoratedFlag, "rep", property(refuse))
    a, b = charts_to_flags(p), charts_to_flags(p)
    assert act_word(a, [IntervalGen(2, 5), IntervalGen(6, 3)]).is_positive()
    assert flags_to_charts(a, p.triangulation).values == p.values
    assert reverse(reverse(a)).same_point(a)
    f = a.flags[2]
    flipped = Configuration([*a.flags[:2], f.scale_rows([-1, -1, 1]), *a.flags[3:]])
    assert not flipped.is_positive() and sign_normalize(flipped).same_point(a)
    assert f.orthogonal().orthogonal()._det == 1
    assert (moved._ints, moved._scales, moved._det) == (f._ints, f._scales, f._det)
    assert moved == f and hash(moved) == hash(f) and moved != a.flags[3]
    assert len({*a.flags, *b.flags, moved}) == a.n
    assert [a.to_json(), reverse(b).to_json()] == written
    assert a.same_point(b)
    monkeypatch.setattr(Configuration, "_delta", refuse)
    assert a.same_point(b) and b.same_point(a)


nonzero_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 6), st.integers(0, 10 ** 6), st.data())
def test_derived_flags_hold_their_own_clearing_and_det(m, seed, data):
    f = random_positive(3, m, seed).flags[data.draw(st.integers(0, 2))]
    factors = data.draw(st.lists(nonzero_rationals, min_size=m, max_size=m))
    for g in (f, f.scale_rows(factors)):
        assert g.orthogonal().rep == perp_with(g, *closed_form_convention(m)).rep
        for d in (g.orthogonal(), g.scale_rows(factors), g):
            ints, scales = _integer_clearing(d.rep.entries)
            assert d._ints == tuple(map(tuple, ints)) and d._scales == scales
            assert d._det == det(d.rep)
    for bad in ([0] + [1] * (m - 1), [1] * (m - 1), [1] * (m + 1)):
        with pytest.raises(FlagError):
            f.scale_rows(bad)


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 7), st.integers(0, 10 ** 6), st.data())
def test_orthogonal_closed_form_matches_elimination(m, seed, data):
    # every flag the library makes has mutually orthogonal int rows, so the
    # closed form gives the clearing and det the elimination route gives
    c = random_positive(3, m, seed)
    factors = data.draw(st.lists(nonzero_rationals, min_size=m, max_size=m))
    for f in (*c.flags, *reverse(c).flags, c.flags[2].scale_rows(factors)):
        ints = f._ints
        assert all(sum(a * b for a, b in zip(ints[i], ints[j])) == 0
                   for j in range(m) for i in range(j))
        g, ref = f.orthogonal(), orthogonal_reference(f)
        assert (g._ints, g._scales, g._det) == (ref._ints, ref._scales, ref._det)


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 7), st.integers(0, 10 ** 6), st.data())
def test_orthogonal_depends_only_on_the_coset(m, seed, data):
    # a lower-unitriangular move L F of a flag F with orthogonal rows makes
    # its rows non-orthogonal; the checked constructor takes them back to
    # F's rows, so the orthogonal flag is F's
    f = random_positive(3, m, seed).flags[data.draw(st.integers(0, 2))]
    entries = st.integers(-4, 4).filter(bool)
    lower = [[data.draw(entries) if j < i else int(i == j) for j in range(m)]
             for i in range(m)]
    rows = mat_mul(Mat(lower), f.rep).entries
    assert sum(a * b for a, b in zip(rows[0], rows[1])) != 0
    moved = DecoratedFlag(rows)
    assert (moved._ints, moved._scales, moved._det) == (f._ints, f._scales, f._det)
    g, h = moved.orthogonal(), f.orthogonal()
    assert (g._ints, g._scales, g._det) == (h._ints, h._scales, h._det)
    assert g == perp_with(moved, *closed_form_convention(m))
    assert moved == f and hash(moved) == hash(f)


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 7), st.integers(0, 10 ** 6), st.data())
def test_the_checked_constructor_is_the_one_place_that_canonicalizes(m, seed, data):
    # outside input L F holds F's clearing from construction on, so no
    # later comparison, hash or orthogonal flag takes a projection
    c = random_positive(3, m, seed)
    entries = st.integers(-4, 4).filter(bool)
    lower = [[data.draw(entries) if j < i else int(i == j) for j in range(m)]
             for i in range(m)]
    moved = [DecoratedFlag(mat_mul(Mat(lower), f.rep)) for f in c.flags]
    for f, g in zip(c.flags, moved):
        assert (g._ints, g._scales, g._det) == (f._ints, f._scales, f._det)

    def refuse(*args):
        raise AssertionError("a projection was taken after construction")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flags, "_project_out", refuse)
        for f, g in zip(c.flags, moved):
            assert g == f and hash(g) == hash(f)
            h, k = g.orthogonal(), f.orthogonal()
            assert (h._ints, h._scales, h._det) == (k._ints, k._scales, k._det)
        a, b = Configuration(moved), Configuration(c.flags)
        assert a.same_point(b) and b.same_point(a)
        assert a._deltas == {} and b._deltas == {}


def _checked_clearing_reference(rows):
    """The checked constructor's (int rows, prefix scales, det) with every row
    taken less its projection on the rows before it and cleared again."""
    ints, s = _integer_clearing(Mat(rows).entries)
    out, scales = [], [1]
    for l, row in enumerate(ints):
        nums, den = rational._project_out(row, out)
        r, e = rational._clear_ratio(nums, den * (s[l + 1] // s[l]))
        out.append(tuple(r))
        scales.append(scales[-1] * e)
    return tuple(out), scales, det(Mat(rows))


@settings(deadline=None, max_examples=25)
@given(st.integers(3, 6), st.integers(2, 6), st.integers(0, 10 ** 6), st.data())
def test_checked_constructor_keeps_orthogonal_rows_as_cleared(n, m, seed, data):
    # a library document's rows are orthogonal and reduced: read back, no row
    # is projected or cleared again, and the clearing is the one the full
    # path gives, as it is for rows moved by L, which are not orthogonal
    c = random_positive(n, m, seed)
    docs = [json.loads(json.dumps(x.to_json())) for x in (c, reverse(c))]

    def refuse(*args):
        raise AssertionError("an orthogonal row was projected or cleared again")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flags, "_project_out", refuse)
        patch.setattr(flags, "_clear_ratio", refuse)
        read = [Configuration.from_json(doc) for doc in docs]
    entries = st.integers(-4, 4).filter(bool)
    lower = [[data.draw(entries) if j < i else int(i == j) for j in range(m)]
             for i in range(m)]
    for doc, x in zip(docs, read):
        for rows, f in zip(doc["flags"], x.flags):
            assert (f._ints, f._scales, f._det) == _checked_clearing_reference(rows)
            moved = mat_mul(Mat(lower), Mat(rows)).entries
            g = DecoratedFlag(moved)
            assert (g._ints, g._scales, g._det) == _checked_clearing_reference(moved)
            assert g == f


def test_library_flags_are_their_own_canonical_representatives():
    for m in (2, 3, 4, 5):
        c = random_positive(3, m, 37 + m)
        made = [*c.flags, *reverse(c).flags, *rotate(c).flags, *rotate_inv(c).flags,
                *face(c, 1).flags, *face(c, 2).flags, *(f.orthogonal() for f in c.flags)]
        for f in made:
            g = DecoratedFlag(f.rep)
            assert g == f and hash(g) == hash(f)


@settings(deadline=None, max_examples=25)
@given(st.integers(3, 6), st.integers(2, 7), st.integers(0, 10 ** 6), st.data())
def test_to_json_spells_the_fraction_rows(n, m, seed, data):
    # each entry is written from the clearing, int x over its row scale d in
    # lowest terms, and must spell the Fraction rows of rep: on rebuilt,
    # reversed and rescaled flags (negative and fractional factors) and on
    # outside input L F, which the checked constructor holds as F's rows
    c = random_positive(n, m, seed)
    factors = data.draw(st.lists(nonzero_rationals, min_size=m, max_size=m))
    entries = st.integers(-4, 4).filter(bool)
    lower = [[data.draw(entries) if j < i else int(i == j) for j in range(m)]
             for i in range(m)]
    moved = DecoratedFlag(mat_mul(Mat(lower), c.flags[-1].rep))
    for x in (c, reverse(c), Configuration([*c.flags[:-1], moved]),
              Configuration([f.scale_rows(factors) for f in c.flags]),
              Configuration([f.scale_rows([Fraction(-2, 3)] * m) for f in c.flags])):
        assert x.to_json() == config_json_reference(x)


def test_sign_normalize_reaches_positive_chamber():
    c = random_positive(4, 3, 9)
    flipped = Configuration([
        c.flags[0].scale_rows([-1, -1, 1]),
        c.flags[1],
        c.flags[2].scale_rows([1, -1, -1]),
        c.flags[3].scale_rows([-1, 1, 1]),
    ])
    assert not flipped.is_positive()
    fixed = sign_normalize(flipped)
    assert fixed.is_positive()
    assert fixed.same_point(c)


def test_sign_normalize_failure_carries_witness():
    c = random_positive(4, 2, 9)
    # an interior sign flip that no decoration rescaling can repair:
    # negate a single coordinate pattern by perturbing one flag's span
    bad = Configuration([
        c.flags[0],
        DecoratedFlag(c.flags[2].rep),
        DecoratedFlag(c.flags[1].rep),
        c.flags[3],
    ])
    try:
        out = sign_normalize(bad)
    except SignNormalizeError as exc:
        assert len(exc.index) == 4
    else:
        # a swapped pair can happen to be normalizable; then it is positive
        assert out.is_positive()


def test_reversal_maps_change_no_sign_off_the_positive_chamber():
    # the row-negated configuration above reverses to its orthogonal flags
    # in reversed order exactly, and the swapped-flag input above, which no
    # sign pattern makes positive, reverses without raising
    c = random_positive(4, 3, 9)
    flipped = Configuration([
        c.flags[0].scale_rows([-1, -1, 1]),
        c.flags[1],
        c.flags[2].scale_rows([1, -1, -1]),
        c.flags[3].scale_rows([-1, 1, 1]),
    ])
    c = random_positive(4, 2, 9)
    bad = Configuration([
        c.flags[0],
        DecoratedFlag(c.flags[2].rep),
        DecoratedFlag(c.flags[1].rep),
        c.flags[3],
    ])
    with pytest.raises(SignNormalizeError):
        sign_normalize(bad)
    for source in (flipped, bad):
        raw = Configuration([f.orthogonal() for f in reversed(source.flags)])
        assert not raw.is_positive()
        assert clearings(reverse(source)) == clearings(raw)


@settings(deadline=None, max_examples=120)
@given(st.integers(2, 6), st.integers(2, 7), st.integers(0, 10 ** 6))
def test_closed_form_signs_match_the_sign_search(n, m, seed):
    # the reversal keeps a positive configuration positive, so each map's
    # sign depends on (n, m) alone: the one the GF(2) search finds
    c = random_positive(max(n, 3), m, seed)
    if n == 2:
        c = Configuration(c.flags[:2])
    for name, out, oracle in reversal_sign_cases(c):
        assert clearings(out) == clearings(oracle), name


def test_theta_involution_and_positivity():
    for m in (2, 3, 4):
        for seed in range(3):
            c = random_positive(3, m, 31 * m + seed)
            tc = theta(c)
            assert tc.is_positive()
            assert theta(tc).same_point(c)


def test_theta_m2_chart_transposition():
    for seed in range(5):
        c = random_positive(3, 2, 41 + seed)
        tc = theta(c)
        assert tc.delta((1, 1, 0)) == c.delta((0, 1, 1))
        assert tc.delta((0, 1, 1)) == c.delta((1, 1, 0))
        assert tc.delta((1, 0, 1)) == c.delta((1, 0, 1))


def test_iota_involution_and_edge_relocation():
    # iota reverses the pair, so the weight that sat on the first flag now
    # sits on the second position; read flag-wise the coordinates swap,
    # read position-wise they are fixed
    for m in (2, 3, 4):
        c = random_positive(3, m, 53 + m)
        e = face(c, 3)
        ie = iota(e)
        assert iota(ie).same_point(e)
        for i in range(1, m):
            # weight i on the original first flag, now in second position
            assert ie.delta((m - i, i)) == e.delta((m - i, i))


def test_rotate_order_three():
    c = random_positive(3, 3, 61)
    assert rotate(rotate(rotate(c))).same_point(c)
    assert rotate_inv(rotate(c)).same_point(c)


def test_face_rotate_compatibility():
    c = random_positive(3, 3, 67)
    for i in (2, 3):
        assert face(rotate(c), i).same_point(face(c, i - 1))
    assert face(rotate(c), 1).same_point(face(c, 3))


def test_face_of_non_generic_triangle_raises():
    # the face keeping flags 1 and 2 pairs F with itself: a vanishing
    # coordinate, which no sign pattern can make positive
    f, _, g = random_positive(3, 2, 67).flags
    with pytest.raises(NotGenericError):
        face(Configuration([f, f, g]), 3)


def test_relabel_moves_supports():
    c = random_positive(4, 2, 71)
    r = relabel(c, (2, 3, 4, 1))
    assert r.delta((1, 1, 0, 0)) in (c.delta((0, 1, 1, 0)), -c.delta((0, 1, 1, 0)))


def stacked_det(c, idx):
    """A coordinate from scratch: the determinant of the stacked rows."""
    rows = []
    for k, i in enumerate(idx):
        rows.extend(c.flags[k].rep.entries[:i])
    return det(Mat(rows))


def test_delta_memo_repeats_the_stacked_determinant():
    c = random_positive(5, 3, 73)
    for idx in admissible_indices(5, 3):
        first = c.delta(idx)
        assert c.delta(idx) == first == stacked_det(c, idx)
        assert c.delta(list(idx)) == first


def test_derived_configurations_do_not_share_the_memo():
    c = random_positive(4, 3, 9)
    flipped = Configuration([
        c.flags[0].scale_rows([-1, -1, 1]),
        c.flags[1],
        c.flags[2].scale_rows([1, -1, -1]),
        c.flags[3].scale_rows([-1, 1, 1]),
    ])
    for source in (c, flipped):
        before = source.all_deltas()  # fill the source's memo first
        for out in (sign_normalize(source), reverse(source),
                    relabel(source, (2, 3, 4, 1))):
            fresh = Configuration(out.flags)
            assert out.all_deltas() == fresh.all_deltas()
            assert all(out.delta(idx) == stacked_det(out, idx)
                       for idx in admissible_indices(4, 3))
        assert source.all_deltas() == before
    assert sign_normalize(flipped).all_deltas() != flipped.all_deltas()


def test_all_deltas_unchanged_by_same_point_and_by_callers():
    c = random_positive(4, 3, 5)
    other = random_positive(4, 3, 6)
    before = {idx: stacked_det(c, idx) for idx in admissible_indices(4, 3)}
    assert c.same_point(c) and not c.same_point(other)
    assert c.all_deltas() == before
    returned = c.all_deltas()
    returned[next(iter(returned))] = Fraction(0)
    assert c.all_deltas() == before


def _unimodular_change_of_basis(draw, m):
    """A det-1 integer matrix L U other than the identity: L lower and U
    upper unitriangular, U with a nonzero corner, so that U != L^{-1}."""
    entry = st.integers(-3, 3)
    corner = draw(st.integers(1, 3))
    rows = []
    for i in range(m):
        rows.append([1 if i == j else (draw(entry) if j < i else 0) for j in range(m)])
    lower = Mat(rows)
    upper = Mat([[1 if i == j else (corner if (i, j) == (0, m - 1) else
                                    draw(entry) if j > i else 0)
                  for j in range(m)] for i in range(m)])
    return mat_mul(lower, upper)


@settings(deadline=None, max_examples=100)
@given(st.integers(3, 8), st.integers(2, 4), st.integers(0, 10 ** 6),
       st.sampled_from(["identical", "basis", "row move", "last row", "center",
                        "unequal"]),
       st.data())
def test_same_point_agrees_with_the_full_comparison(n, m, seed, kind, data):
    p = flags_to_charts(random_positive(n, m, seed), Triangulation.fan(n))
    a = charts_to_flags(p)
    k = data.draw(st.integers(0, n - 1))
    moved = list(a.flags)
    if kind == "identical":
        b = charts_to_flags(p)
    elif kind == "basis":
        g = _unimodular_change_of_basis(data.draw, m)
        b = Configuration([DecoratedFlag(mat_mul(f.rep, g)) for f in a.flags])
    elif kind == "row move":
        i = data.draw(st.integers(0, m - 2))
        j = data.draw(st.integers(i + 1, m - 1))
        x = data.draw(st.sampled_from([-2, -1, Fraction(1, 3), 1, 5]))
        moved[k] = DecoratedFlag(add_multiple_of_row(moved[k].rep, j, i, x))
        b = Configuration(moved)
    elif kind == "last row":
        x = data.draw(st.sampled_from([-1, 2, Fraction(-3, 7)]))
        moved[k] = moved[k].scale_rows([1] * (m - 1) + [x])
        b = Configuration(moved)
    elif kind == "center":
        # the global action of -I: the same point exactly when det(-I) = 1
        b = Configuration([f.scale_rows([-1] * m) for f in a.flags])
    else:
        values = dict(p.values)
        idx = data.draw(st.sampled_from(sorted(values)))
        values[idx] += data.draw(st.sampled_from([1, Fraction(1, 2)]))
        b = charts_to_flags(ChartPoint(p.triangulation, m, values))
    # a row move keeps the coset, whose canonical clearing the checked
    # constructor holds; the other kinds reach the coordinate comparison
    identical = all(f.rep == g.rep for f, g in zip(a.flags, b.flags))
    assert identical == (kind in ("identical", "row move"))
    full = Configuration(a.flags).all_deltas() == Configuration(b.flags).all_deltas()
    assert full == (m % 2 == 0 if kind == "center" else kind != "unequal")
    assert a.same_point(b) == b.same_point(a) == full


def test_same_point_on_identical_representatives_does_no_arithmetic(monkeypatch):
    p = random_chart_point(Triangulation.fan(6), 3, 41)
    a, b = charts_to_flags(p), charts_to_flags(p)

    def refuse(*args):
        raise AssertionError("a determinant was computed")

    monkeypatch.setattr(flags, "_det_cleared", refuse)
    assert a.same_point(b) and b.same_point(a)
    assert a._deltas == {} and b._deltas == {}


@pytest.mark.parametrize("m", [2, 4, 6])
def test_same_point_on_negated_representatives_does_no_arithmetic(monkeypatch, m):
    # at even m, -I has det 1: negating every flag is the global action of
    # a unimodular matrix, which the negated clearings decide at once
    a = random_positive(5, m, 43)
    b = Configuration([f.scale_rows([-1] * m) for f in a.flags])

    def refuse(*args):
        raise AssertionError("a determinant was computed")

    monkeypatch.setattr(flags, "_det_cleared", refuse)
    assert a.same_point(b) and b.same_point(a)
    assert a._deltas == {} and b._deltas == {}


@settings(deadline=None, max_examples=25)
@given(st.sampled_from([2, 4, 6, 8]), st.integers(0, 10 ** 6), st.data())
def test_wrapped_flags_are_negated_as_scale_rows_negates_them(m, seed, data):
    # _shifted negates the int rows of each wrapped flag under the same row
    # scales; a held clearing is reduced, so that is scale_rows' clearing,
    # on library flags and on outside input L F through the checked constructor
    c = random_positive(3, m, seed)
    entries = st.integers(-4, 4).filter(bool)
    lower = [[data.draw(entries) if j < i else int(i == j) for j in range(m)]
             for i in range(m)]
    moved = DecoratedFlag(mat_mul(Mat(lower), c.flags[0].rep))
    for fs in (c.flags, reverse(c).flags, (moved, *c.flags[1:])):
        k = data.draw(st.integers(1, 3))
        out = flags._shifted(fs, k)
        for f, g in zip(fs[:k], out.flags[3 - k:], strict=True):
            ref = f.scale_rows([-1] * m)
            assert (g._ints, g._scales, g._det) == (ref._ints, ref._scales, ref._det)


def test_same_point_stops_at_the_first_differing_coordinate():
    n, m = 6, 3
    p = random_chart_point(Triangulation.fan(n), m, 42)
    first = admissible_indices(n, m)[0]
    # the first admissible index lies on the edge {n - 1, n} of the fan
    assert first == index_at(n, (n - 1, n), (1, m - 1))
    values = dict(p.values)
    values[first] *= 2
    a, b = charts_to_flags(p), charts_to_flags(ChartPoint(p.triangulation, m, values))
    assert not a.same_point(b)
    assert list(a._deltas) == list(b._deltas) == [first]


def test_only_the_public_delta_checks_its_index(monkeypatch):
    calls = []

    def counting(idx, n, m):
        calls.append(idx)
        return check_index(idx, n, m)

    monkeypatch.setattr(flags, "check_index", counting)
    c = random_positive(5, 3, 17)
    flipped = Configuration([c.flags[0].scale_rows([-1, -1, 1])] + list(c.flags[1:]))
    assert c.all_deltas()
    assert sign_normalize(flipped).is_positive()
    point = flags_to_charts(Configuration(c.flags), random_triangulation(5, 3))
    assert charts_to_flags(point).same_point(c)
    assert calls == []
    assert c.delta((1, 0, 2, 0, 0)) == c.all_deltas()[(1, 0, 2, 0, 0)]
    assert calls == [(1, 0, 2, 0, 0)]


_TRIANGLE, _SQUARE = random_positive(3, 2, 0), random_positive(4, 2, 0)

_INVALID_SHAPES = {
    "2x3-flag": (FlagError, lambda: DecoratedFlag(Mat([[1, 0, 0], [0, 1, 0]]))),
    "one-flag": (FlagError, lambda: Configuration(_TRIANGLE.flags[:1])),
    "mixed-m": (FlagError, lambda: Configuration([_TRIANGLE.flags[0],
                                                 random_positive(3, 3, 0).flags[1]])),
    "rotate-4-flags": (FlagError, lambda: rotate(_SQUARE)),
    "rotate_inv-4-flags": (FlagError, lambda: rotate_inv(_SQUARE)),
    "face-of-4-flags": (FlagError, lambda: face(_SQUARE, 1)),
    "theta-4-flags": (FlagError, lambda: theta(_SQUARE)),
    "iota-triangle": (FlagError, lambda: iota(_TRIANGLE)),
    "face-0": (FlagError, lambda: face(_TRIANGLE, 0)),
    "face-4": (FlagError, lambda: face(_TRIANGLE, 4)),
    "random-n-2": (FlagError, lambda: random_positive(2, 2, 0)),
    "triangle-on-square": (PolygonError, lambda: flags_to_charts(_TRIANGLE, Triangulation.fan(4))),
    "chart-m-1": (PolygonError, lambda: chart_indices(Triangulation.fan(4), 1)),
    "2-gon": (PolygonError, lambda: Triangulation(2, [])),
}


@pytest.mark.parametrize("name", _INVALID_SHAPES)
def test_invalid_shapes_raise_their_layer_error(name):
    error, call = _INVALID_SHAPES[name]
    with pytest.raises(error) as caught:
        call()
    assert caught.type is error
    # a reversal-layer map names itself, not another map
    function = name.split("-")[0]
    if function in ("rotate", "rotate_inv", "face", "iota", "theta"):
        assert str(caught.value).startswith(function + " "), caught.value
