import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from totpos import rational
from totpos.rational import (Mat, det, scalar, scalar_str, SingularMatrixError,
                             _clear_ratio, _clear_row, _integer_clearing)

from conftest import (SCALAR_ALPHABET, add_multiple_of_row, cofactor_ints, det_oracle,
                      identity, inverse, mat_mul, scalar_outcome, scalar_reference,
                      solve, transpose)

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12)


def square(n):
    return st.lists(st.lists(rationals, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(Mat)


def unit(n, j):
    return [Fraction(int(i == j)) for i in range(n)]


def cofactor_vector(rows, pos):
    """The vector c with det(rows[:pos] + [x] + rows[pos:]) = x . c for all x,
    from ``cofactor_ints``; ``rows`` holds m - 1 >= 1 rows of length m."""
    int_rows, scales = _integer_clearing(rows)
    # moving the probe row from the end to position pos takes m-1-pos swaps
    sign = (-1) ** (len(rows) - pos)
    return tuple(Fraction(sign * v, scales[-1]) for v in cofactor_ints(int_rows))


def inverse_by_columns(a):
    """Reference inverse: one solve per column of the identity."""
    n = a.rows
    return transpose(Mat([solve(a, unit(n, j)) for j in range(n)]))


def first_dependent_column(a):
    """The first k whose column lies in the span of columns 0..k-1, by plain
    Fraction elimination: the stage at which Bareiss finds no pivot."""
    basis = []  # reduced columns, each with its pivot position
    for k, col in enumerate(zip(*a.entries)):
        v = list(col)
        for p, b in basis:
            if v[p]:
                f = v[p] / b[p]
                v = [x - f * y for x, y in zip(v, b)]
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            return k
        basis.append((p, v))
    return None


@given(st.lists(st.one_of(st.just(0), st.integers(-10 ** 6, 10 ** 6)),
                min_size=1, max_size=7),
       st.integers(-10 ** 6, 10 ** 6).filter(bool))
def test_clear_ratio_is_the_clearing_of_the_fraction_row(nums, den):
    assert _clear_ratio(nums, den) == _clear_row([Fraction(x, den) for x in nums])


@given(rationals, rationals)
def test_scalar_arithmetic_is_exact(a, b):
    assert (scalar(a) + scalar(b)) - scalar(b) == scalar(a)


@given(rationals)
def test_scalar_string_round_trip(a):
    assert scalar(scalar_str(scalar(a))) == a


def test_scalar_rejects_floats():
    with pytest.raises(TypeError):
        scalar(0.5)
    with pytest.raises(TypeError):
        Mat([[0.5]])


def test_scalar_parses_strings():
    assert scalar("-3/7") == Fraction(-3, 7)
    assert scalar_str(Fraction(4, 2)) == "2"


_BIG = "7" * 5000  # over Python's 4,300-digit limit on int(str)

SCALAR_STRINGS = [
    "-6/-4", "3/-4", "--3", "-", "", "3/", "/4", "0/0", "3/00", " 3/4", "+3",
    "1_0", "1.5", "1e3", "\u0661\u0662/\u0663", "\u00b2", "-0/7", "007/003",
    "3/\u0660\u0660", "-62351/204288", "12", "-12", _BIG, "-" + _BIG, "3/" + _BIG, "-" + _BIG + "/3",
    # exponents within the digit limit, and one of more digits than int() reads
    "1e4300", "-1e-4300", "1.5e-3", "1E+0_7", "1e0001", "1e" + "0" * 4301 + "5",
]


@pytest.mark.parametrize("s", SCALAR_STRINGS,
                         ids=lambda s: ascii(s) if len(s) < 20 else "%d chars" % len(s))
def test_scalar_reads_strings_as_fraction_does(s):
    outcome = scalar_outcome(scalar, s)
    assert outcome == scalar_outcome(scalar_reference, s)
    if _BIG in s:
        assert outcome[0] is ValueError and "Exceeds the limit" in outcome[1]


@pytest.mark.parametrize("s", ["1e4301", "-1e-4301", "1E+9999", "1e9999999", "1e9_999_999",
                               " -2.5E-0_4_301 ", "1e\u0664\u0663\u0660\u0661"])
def test_scalar_refuses_an_exponent_over_the_digit_limit(s):
    # Fraction reads "1e9999999" as an int of 10**7 digits, which takes seconds
    start = time.perf_counter()
    outcome = scalar_outcome(scalar, s)
    assert time.perf_counter() - start < 0.1
    assert outcome == (ValueError, "Exceeds the limit (4300) for a decimal exponent; use "
                                   "sys.set_int_max_str_digits() to increase the limit")
    assert outcome == scalar_outcome(scalar_reference, s)


def test_scalar_exponent_bound_follows_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        assert scalar("1e4301") == Fraction(10 ** 4301)
        sys.set_int_max_str_digits(640)
        assert scalar("1e-640") == Fraction(1, 10 ** 640)
        with pytest.raises(ValueError, match=r"Exceeds the limit \(640\)"):
            scalar("1e-641")
    finally:
        sys.set_int_max_str_digits(limit)


@given(st.text(alphabet=SCALAR_ALPHABET, max_size=12))
def test_scalar_agrees_with_fraction_on_random_strings(s):
    assert scalar_outcome(scalar, s) == scalar_outcome(scalar_reference, s)


def test_scalar_reads_every_decimal_digit_as_fraction_does():
    # int() and Fraction's regex read any Unicode decimal digit, as
    # str.isdecimal finds them
    digits = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isdecimal()]
    assert len(digits) > 10
    for d in digits:
        for s in (d, "-" + d + d, d + "/" + d, "-" + d + "/" + d + d):
            assert scalar_outcome(scalar, s) == scalar_outcome(scalar_reference, s), s


@pytest.mark.parametrize("s", ["7", "-7", "007/003", "-0/7", "-62351/204288",
                               "\u0661\u0662/\u0663"])
def test_scalar_reads_signed_ratios_with_ints_alone(monkeypatch, s):
    class IntsOnly(Fraction):
        def __new__(cls, *args):
            assert all(type(a) is int for a in args), args
            return Fraction(*args)

    monkeypatch.setattr(rational, "Fraction", IntsOnly)
    assert scalar(s) == Fraction(s)


@settings(max_examples=40)
@given(square(3))
def test_det_matches_cofactor_oracle(m):
    assert det(m) == det_oracle(m)


@settings(max_examples=20)
@given(square(4))
def test_det_matches_cofactor_oracle_4x4(m):
    assert det(m) == det_oracle(m)


@settings(max_examples=30)
@given(square(3), square(3))
def test_det_is_multiplicative(a, b):
    assert det(mat_mul(a, b)) == det(a) * det(b)


@given(square(3), st.integers(0, 2), st.integers(0, 2), rationals)
def test_det_row_operation_invariance(m, dst, src, f):
    if dst == src:
        return
    assert det(add_multiple_of_row(m, dst, src, f)) == det(m)


@settings(max_examples=30)
@given(square(3), st.lists(rationals, min_size=3, max_size=3))
def test_solve_satisfies_the_system(a, b):
    if det(a) == 0:
        with pytest.raises(SingularMatrixError):
            solve(a, b)
        return
    x = solve(a, b)
    for row, rhs in zip(a.entries, b):
        assert sum(c * xi for c, xi in zip(row, x)) == rhs


@settings(max_examples=20)
@given(square(3))
def test_inverse_transpose(m):
    if det(m) == 0:
        with pytest.raises(SingularMatrixError):
            inverse(m)
        return
    assert mat_mul(m, inverse(m)) == identity(3)
    assert det(transpose(inverse(m))) == 1 / det(m)


@settings(max_examples=40)
@given(st.integers(2, 5).flatmap(square))
def test_inverse_matches_column_solves(a):
    if det(a) == 0:
        return
    assert inverse(a) == inverse_by_columns(a)
    assert mat_mul(a, inverse(a)) == identity(a.rows)


@settings(max_examples=40)
@given(st.integers(2, 5).flatmap(
    lambda n: st.tuples(square(n), st.integers(0, n - 1),
                        st.lists(rationals, min_size=n, max_size=n))))
def test_inverse_of_singular_matrix_raises_at_its_stage(case):
    # replace column k by a combination of the earlier ones
    a, k, coeffs = case
    rows = [list(r[:k]) + [sum((c * x for c, x in zip(coeffs, r[:k])), Fraction(0))]
            + list(r[k + 1:]) for r in a.entries]
    singular = Mat(rows)
    stage = first_dependent_column(singular)
    assert stage is not None and stage <= k
    with pytest.raises(SingularMatrixError) as exc:
        inverse(singular)
    assert exc.value.stage == stage


@pytest.mark.parametrize("rows,stage", [
    ([[1, 2], [2, 4]], 1),
    ([[0, 1], [0, 2]], 0),
    ([[1, 0, 1], [0, 1, 1], [2, 3, 5]], 2),
    ([[0, 1, 0], [1, 0, 0], [0, 0, 0]], 2),
])
def test_inverse_singular_stage_examples(rows, stage):
    with pytest.raises(SingularMatrixError) as exc:
        inverse(Mat(rows))
    assert exc.value.stage == stage


@settings(max_examples=60)
@given(st.integers(2, 5).flatmap(
    lambda m: st.tuples(st.lists(st.lists(rationals, min_size=m, max_size=m),
                                 min_size=m - 1, max_size=m - 1),
                        st.integers(0, m - 1))))
def test_cofactor_vector_matches_probe_determinants(case):
    rows, pos = case
    m = len(rows) + 1
    probes = [det(Mat(rows[:pos] + [unit(m, t)] + rows[pos:])) for t in range(m)]
    assert cofactor_vector(rows, pos) == tuple(probes)


def test_cofactor_vector_of_dependent_rows_is_zero():
    rows = [[Fraction(1), Fraction(2), Fraction(3)],
            [Fraction(-2), Fraction(-4), Fraction(-6)]]
    for pos in range(3):
        assert cofactor_vector(rows, pos) == (0, 0, 0)
    # a middle probe position on a 4 x 4 stack
    rows = [[Fraction(1, 2), 0, 0, 1], [0, Fraction(2, 3), 1, 0], [1, 1, 1, 1]]
    rows = [[Fraction(x) for x in r] for r in rows]
    expected = tuple(det(Mat(rows[:1] + [unit(4, t)] + rows[1:])) for t in range(4))
    assert cofactor_vector(rows, 1) == expected
    assert any(expected)


def test_singular_matrix_error_carries_stage():
    a = Mat([[1, 2], [2, 4]])
    try:
        solve(a, [1, 1])
    except SingularMatrixError as exc:
        assert exc.stage == 1
    else:
        assert False, "expected SingularMatrixError"


def test_singular_det_is_zero():
    assert det(Mat([[1, 2], [2, 4]])) == 0


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        Mat([[1, 2], [3]])
    # a row is a list or tuple, never a string's characters or a mapping's keys
    for rows in ("11", ["12", "34"], [{"1": 0}]):
        with pytest.raises(TypeError):
            Mat(rows)
    with pytest.raises(ValueError):
        det(Mat([[1, 2, 3], [4, 5, 6]]))
    with pytest.raises(ValueError):
        mat_mul(Mat([[1, 2]]), Mat([[1, 2]]))
