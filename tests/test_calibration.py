"""Reference oracle for the orthogonal-flag convention.

A candidate convention is a sign vector eps applied after row reversal of
the inverse transpose, followed by right multiplication with a fixed
symmetric matrix Q (the inverse of the bilinear form realizing
orthogonality).  Only some candidates make the map an involution on flag
cosets while the triangle reversal preserves positivity and squares to the
identity; for m = 2 a parity obstruction rules out the naive Euclidean
choice outright.

The library ships one closed form, J F^{-T} J, which is the candidate with
every sign +1 and Q = J.  The brute-force search below checks that this is
the first passer in a fixed candidate order.
"""

from itertools import product

from totpos.flags import Configuration, DecoratedFlag, FlagError
from totpos.rational import Mat, det
from totpos.reconstruct import random_positive

from conftest import inverse, mat_mul, scale_row, sign_normalize, transpose

CALIBRATION_SEED = 20260825
TRIALS = 8


def antidiagonal(m):
    return tuple(tuple(int(j == m - 1 - i) for j in range(m)) for i in range(m))


def closed_form_convention(m):
    """The (eps, Q) candidate that DecoratedFlag.orthogonal computes."""
    return (1,) * m, antidiagonal(m)


def perp_with(flag, eps, q):
    """Signed row reversal of the inverse transpose, times a fixed symmetric Q,
    with the last row rescaled to det 1."""
    m = flag.m
    c = transpose(inverse(flag.rep))
    rows = [[eps[i] * x for x in c.entries[m - 1 - i]] for i in range(m)]
    out = mat_mul(Mat(rows), Mat(q))
    return DecoratedFlag(scale_row(out, m - 1, 1 / det(out)))


def _candidate_q_matrices(m):
    """Symmetric sign-reversal and sign-diagonal candidates, canonical order:
    plain antidiagonal first, then identity, then signed variants."""
    base = []
    rev = antidiagonal(m)
    eye = tuple(tuple(int(j == i) for j in range(m)) for i in range(m))
    for signs in product((1, -1), repeat=m):
        for pattern in (rev, eye):
            q = tuple(tuple(signs[i] * x for x in row) for i, row in enumerate(pattern))
            if q == tuple(zip(*q)):  # symmetric only
                base.append(q)
    # stable dedup preserving order
    seen = []
    for q in base:
        if q not in seen:
            seen.append(q)
    return seen


_samples = {}


def _sample(m, seed):
    if (m, seed) not in _samples:
        _samples[m, seed] = random_positive(3, m, seed)
    return _samples[m, seed]


def convention_passes(m, eps, q, trials=TRIALS, seed=CALIBRATION_SEED):
    """Whether one (eps, Q) candidate satisfies the involution, positivity
    and squaring requirements on random positive triangles."""
    for trial in range(trials):
        c = _sample(m, seed + trial)
        try:
            perped = [perp_with(f, eps, q) for f in c.flags]
        except FlagError:
            return False
        # involution on cosets, decoration for decoration
        for f, g in zip(c.flags, perped):
            if perp_with(g, eps, q) != f:
                return False
        # triangle reversal lands in the positive chamber...
        raw = Configuration([perped[2], perped[1], perped[0]])
        try:
            tc = sign_normalize(raw)
        except FlagError:
            return False
        if not tc.is_positive():
            return False
        # ... and squares to the identity on the quotient
        back = sign_normalize(Configuration(
            [perp_with(tc.flags[2], eps, q),
             perp_with(tc.flags[1], eps, q),
             perp_with(tc.flags[0], eps, q)]))
        if not back.same_point(c):
            return False
    return True


def search_conventions(m, trials=TRIALS, seed=CALIBRATION_SEED):
    """Yield every passing (eps, Q) candidate, in deterministic search order."""
    for eps in product((1, -1), repeat=m):
        for q in _candidate_q_matrices(m):
            if convention_passes(m, eps, q, trials, seed):
                yield eps, q


def test_search_finds_shipped_constants():
    for m in (2, 3):
        assert next(search_conventions(m), None) == closed_form_convention(m)


def test_closed_form_passes_for_m2_to_m6():
    for m in range(2, 7):
        assert convention_passes(m, *closed_form_convention(m))


def test_naive_euclidean_fails_for_m2():
    # identity form: the double orthogonal is a half turn of the plane, so
    # the triangle reversal cannot square to the identity
    eye = ((1, 0), (0, 1))
    assert not convention_passes(2, (1, 1), eye)
    assert not convention_passes(2, (1, -1), eye)
