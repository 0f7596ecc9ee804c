import pytest

from totpos import axioms, flags
from totpos.flags import Configuration
from totpos.mutation import flip_transport
from totpos.polygon import ChartPoint, Triangulation
from totpos.axioms import (check_axiom, check_glue, relabel_chart,
                           double_reversal, HALF_TURN, QUARTER_TURN, SQUARE)
from totpos.reconstruct import (flags_to_charts, charts_to_flags, random_chart_point,
                                random_positive)

from conftest import random_triangulation, relabel, relabel_chart_reference, sign_normalize


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("k", list(range(1, 9)))
def test_axiom_passes(k, m):
    r = check_axiom(k, m, 6, 101)
    assert r["axiom"] == k
    assert r["passes"] == r["trials"] == 6
    assert r["counterexample"] is None


@pytest.mark.parametrize("k", [5, 6, 7])
def test_triangle_axioms_m4(k):
    r = check_axiom(k, 4, 4, 103)
    assert r["passes"] == r["trials"]


@pytest.mark.parametrize("m", [2, 4, 6])
def test_rotation_conjugation_takes_no_determinant_at_even_m(monkeypatch, m):
    # theta(rotate(c)) and rotate_inv(theta(c)) hold clearings that differ
    # by -I, which same_point decides with no coordinate
    def refuse(*args):
        raise AssertionError("a determinant was computed")

    monkeypatch.setattr(flags, "_det_cleared", refuse)
    r = check_axiom(6, m, 5, 3)
    assert r["passes"] == r["trials"] == 5


def test_axiom_id_validation():
    # an id that is not a key of the table, an unhashable one included
    for k in (0, 9, "glue", None, [1]):
        with pytest.raises(ValueError):
            check_axiom(k, 2, 1, 0)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("k", list(range(1, 9)))
def test_each_axiom_reports_its_own_sampler_point(monkeypatch, k, m):
    # every identity made to fail: the first counterexample is the first
    # point the axiom's own sampler draws
    def shifted_flip(p, d):
        q = flip_transport(p, d)
        return ChartPoint._of(q.triangulation, q.m, {i: v + 1 for i, v in q.values.items()})

    monkeypatch.setattr(Configuration, "same_point", lambda self, other: False)
    monkeypatch.setattr(ChartPoint, "__eq__", lambda self, other: False)
    monkeypatch.setattr(axioms, "flip_transport", shifted_flip)
    seed = 17
    first = (random_chart_point(Triangulation.fan(5), m, seed * 1000003) if k == 4
             else random_positive(3, m, seed * 1000003) if k in (5, 6, 7)
             else random_chart_point(SQUARE, m, seed * 1000003))
    r = check_axiom(k, m, 3, seed)
    assert r == {"axiom": k, "trials": 3, "passes": 0, "counterexample": first.to_json()}


def test_reports_are_reproducible():
    assert check_axiom(4, 2, 5, 7) == check_axiom(4, 2, 5, 7)
    assert check_glue(3, 3, 7) == check_glue(3, 3, 7)


@pytest.mark.parametrize("m", [2, 3])
def test_glue_passes(m):
    r = check_glue(m, 5, 107)
    assert r["axiom"] == "glue"
    assert r["passes"] == r["trials"] == 5


def test_relabel_chart_matches_flag_level_relabeling():
    for perm in (HALF_TURN, QUARTER_TURN):
        p = random_chart_point(SQUARE, 3, 109)
        q = relabel_chart(p, perm)
        c = sign_normalize(relabel(charts_to_flags(p), perm))
        assert flags_to_charts(c, q.triangulation) == q


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("n", range(4, 10))
def test_relabel_chart_matches_the_enumerating_reference(n, m):
    # every rotation and reflection of a random triangulation
    t = random_triangulation(n, 10 * n + m)
    p = random_chart_point(t, m, 100 * n + m)
    for r in range(n):
        for perm in ([(i + r) % n + 1 for i in range(n)],
                     [(r - i) % n + 1 for i in range(n)]):
            assert relabel_chart(p, perm) == relabel_chart_reference(p, perm), perm


def test_relabel_chart_moves_the_diagonal():
    p = random_chart_point(SQUARE, 2, 113)
    q = relabel_chart(p, QUARTER_TURN)
    assert q.triangulation.diagonals == frozenset({(2, 4)})
    assert relabel_chart(p, HALF_TURN).triangulation == p.triangulation


def test_double_reversal_is_involutive():
    for m in (2, 3):
        p = random_chart_point(SQUARE, m, 127 + m)
        assert double_reversal(double_reversal(p)) == p


def test_axiom_harness_detects_failure():
    # the report machinery must count failures and keep the first
    # counterexample serialized
    from totpos.axioms import _report

    def sample(trial):
        return random_chart_point(SQUARE, 2, 131 + trial)

    rep = _report("demo", 4, lambda p: False, sample)
    assert rep["passes"] == 0 and rep["trials"] == 4
    assert rep["counterexample"] == sample(0).to_json()


def test_boundary_indices_of_axiom_one():
    m = 3
    p = random_chart_point(SQUARE, m, 137)
    q = flip_transport(p, (1, 3))
    for idx in p.values:
        support = tuple(v + 1 for v, x in enumerate(idx) if x)
        if len(support) == 2 and support != (1, 3):
            assert q.values[idx] == p.values[idx]
