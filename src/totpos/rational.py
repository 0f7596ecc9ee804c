"""Exact rational scalars and dense exact linear algebra.

Scalars are ``fractions.Fraction`` throughout: always in canonical reduced
form, with the sign carried on the numerator.  They serialize as the string
``"p/q"`` (or just ``"p"`` when the denominator is 1).  ``scalar`` reads
that form, signed, with int() alone, and hands every other string to
``Fraction(str)``, so it accepts exactly the strings Fraction does and
raises its errors, but refuses a decimal exponent over Python's limit on
integer string conversion before the value is formed.

Matrices are immutable tuples of tuples of Fractions.  The public ``Mat``
constructor takes rows that are lists or tuples (not strings or mappings)
and coerces every entry through ``scalar`` (so it rejects floats); paths
that already hold Fractions (the rows of flags the library derives) wrap
them as they are with the internal ``Mat._of``.

Determinants and eliminations run on Python ints.  Each row is cleared to
integers once, as numerator * (lcm // denominator) with no Fraction
arithmetic, and fraction-free Bareiss elimination (Math. Comp. 22, 1968)
keeps every intermediate entry a minor of the cleared matrix, so its
divisions are exact and its entries polynomially bounded.  Fractions are
formed only for the results.  ``_project_out`` takes a row's projection on
mutually orthogonal int rows, for the checked flag constructor's canonical
rows and the rebuilt flag rows.  Exact dot products of int rows are taken
as ``sum(map(mul, u, v))``, with no generator frame per term.
"""

import re
import sys
from fractions import Fraction
from math import gcd, lcm
from operator import mul

# the decimal exponent that ends a string, as Fraction(str) reads one
_EXPONENT = re.compile(r"[eE][-+]?(\d[\d_]*)\s*\Z")


class SingularMatrixError(ValueError):
    """Raised when elimination hits a zero pivot column.

    ``stage`` is the 0-based elimination step at which every candidate
    pivot vanished.
    """

    def __init__(self, stage):
        self.stage = stage
        super().__init__("singular matrix: no pivot at elimination stage %d" % stage)


def scalar(x):
    """Coerce ints, strings like "p/q", and Fractions to a canonical Fraction.

    A string ``p``, ``-p``, ``p/q`` or ``-p/q`` of decimal digits
    (``str.isdecimal``), with a nonzero denominator, is read with int()
    alone; every other string goes to ``Fraction(str)``, so the accepted set
    and the errors are Fraction's, but for one bound: a decimal exponent over
    ``sys.get_int_max_str_digits()`` in magnitude (none when that is 0) is
    refused before ``10 ** exponent`` is formed.  Floats and booleans raise
    TypeError, and such an exponent or a zero denominator ValueError.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("booleans are not numbers; got %r" % x)
    if isinstance(x, str):
        p, slash, q = x.partition("/")
        if (p[1:] if p[:1] == "-" else p).isdecimal() and (not slash or q.isdecimal()):
            # the numerator first, as Fraction reads it: the first to exceed
            # the digit limit names its length
            num, den = int(p), int(q) if slash else 1
            if den:
                return Fraction(num, den)
        e, limit = _EXPONENT.search(x), sys.get_int_max_str_digits()
        if e and limit:
            digits = e.group(1).replace("_", "")
            # over the limit in digits, Fraction's own int() refuses it
            if len(digits) <= limit < int(digits):
                raise ValueError("Exceeds the limit (%d) for a decimal exponent; use "
                                 "sys.set_int_max_str_digits() to increase the limit" % limit)
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError("zero denominator in %r" % x) from None
    if isinstance(x, float):
        raise TypeError("floats are not exact; got %r" % x)
    return Fraction(x)


class DigitLimitError(ValueError):
    """A value over Python's limit on integer string conversion."""


def scalar_str(x):
    """Serialize a Fraction as "p/q", or "p" when the denominator is 1, as its
    str does; over Python's integer string limit, raise DigitLimitError."""
    try:
        return str(x)
    except ValueError as exc:
        raise DigitLimitError("output value: %s" % exc) from None


def _ratio_str(x, d):
    """scalar_str(Fraction(x, d)) for ints x and d > 0, with no Fraction formed."""
    g = gcd(x, d)
    return scalar_str(x // g) + ("" if g == d else "/" + scalar_str(d // g))


class Mat:
    """Immutable dense matrix of Fractions."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = tuple(entries)
        if not all(isinstance(row, (list, tuple)) for row in entries):
            raise TypeError("matrix rows must be lists or tuples")
        entries = tuple(tuple(scalar(x) for x in row) for row in entries)
        if not entries:
            raise ValueError("empty matrix")
        cols = len(entries[0])
        if any(len(row) != cols for row in entries):
            raise ValueError("ragged rows")
        self.entries = entries
        self.rows = len(entries)
        self.cols = cols

    @classmethod
    def _of(cls, entries):
        """Wrap a non-empty tuple of equal-length tuples of Fractions as is,
        without coercing or checking; for entries computed from Fractions."""
        m = object.__new__(cls)
        m.entries = entries
        m.rows = len(entries)
        m.cols = len(entries[0])
        return m

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, Mat) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "Mat(%r)" % [[scalar_str(x) for x in row] for row in self.entries]

    @property
    def is_square(self):
        return self.rows == self.cols


def _clear_row(row):
    """(integer row, d) with the integer row equal to d * row, d the lcm of
    the denominators; numerator * (d // denominator) skips Fraction
    arithmetic."""
    d = lcm(*[x.denominator for x in row])
    return [x.numerator * (d // x.denominator) for x in row], d


def _clear_ratio(nums, den):
    """The ``_clear_row`` of the row nums / den, a nonzero int ``den``, with
    no Fraction: one gcd g, signed as ``den``, reduces every entry at once."""
    g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
    return [x // g for x in nums], den // g


def _integer_clearing(rows):
    """Scale each row to integers; return (int rows, prefix scales)."""
    return _prefix_scales(map(_clear_row, rows))


def _prefix_scales(cleared):
    """(int rows, prefix scales) from (int row, scale) pairs: the first k int
    rows are scales[k] times the first k rows as a block."""
    int_rows = []
    scales = [1]
    for ints, d in cleared:
        int_rows.append(ints)
        scales.append(scales[-1] * d)
    return int_rows, scales


def _project_out(nums, rows):
    """(nums', d) with nums' / d = nums minus its orthogonal projection on
    the mutually orthogonal int ``rows``, nums' integral.

    The rows are orthogonal, so taking them out one at a time leaves each
    later row's dot product as it was.
    """
    d = 1
    for r in rows:
        dot = sum(map(mul, nums, r))
        if dot:
            norm = sum(map(mul, r, r))
            g = gcd(dot, norm)
            dot, norm = dot // g, norm // g
            nums = [a * norm - dot * b for a, b in zip(nums, r)]
            d *= norm
    return nums, d


def _bareiss(rows, ncols_reduce):
    """Fraction-free elimination on the list of integer ``rows``.

    Reduces the first ``ncols_reduce`` columns, replacing entries of the
    list by new rows; the row sequences passed in are never written to.
    Returns the sign from row swaps.  Raises SingularMatrixError when some
    stage has no pivot.
    """
    n = len(rows)
    sign = 1
    prev = 1
    for k in range(ncols_reduce):
        if rows[k][k] == 0:
            # pivot on the first later row that is nonzero in column k
            for i in range(k + 1, n):
                if rows[i][k]:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                raise SingularMatrixError(k)
        p = rows[k][k]
        tail = rows[k][k + 1:]
        for i in range(k + 1, n):
            row = rows[i]
            f = row[k]
            # entries left of column k are already zero
            rows[i] = [0] * (k + 1) + [(p * a - f * b) // prev
                                       for a, b in zip(row[k + 1:], tail)]
        prev = p
    return sign


def _det_cleared(rows, scale):
    """det of the matrix whose integer clearing is (rows, scale)."""
    n = len(rows)
    try:
        sign = _bareiss(rows, n - 1)
    except SingularMatrixError:
        return Fraction(0)
    return Fraction(sign * rows[n - 1][n - 1], scale)


def det(m):
    """Exact determinant by fraction-free Bareiss elimination."""
    if not m.is_square:
        raise ValueError("determinant of non-square %dx%d matrix" % (m.rows, m.cols))
    rows, scales = _integer_clearing(m.entries)
    return _det_cleared(rows, scales[-1])

