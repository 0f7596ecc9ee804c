"""Decorated flags, configurations, and their coordinate functions.

A decorated flag in R^m is stored as an m x m matrix whose prefix row spans
give the flag subspaces V_1 c ... c V_{m-1} and whose prefix wedges
r_1 ^ ... ^ r_i give the volume decorations.  Two representatives describe
the same decorated flag exactly when one is obtained from the other by
adding multiples of earlier rows to later rows (a lower-unitriangular left
move), which leaves every prefix wedge alone.

A configuration is an ordered tuple of n such flags taken modulo one global
unimodular right multiplication.  Its invariants are the coordinates
delta(idx): the determinant obtained by stacking, in vertex order, the first
idx[k] rows of flag k, for each multi-index idx with sum m and at least two
nonzero entries.  Equality of configurations is equality of all coordinates;
identical clearings, that is identical representatives, decide it at once,
since they give identical coordinates, and at even m so do clearings that
differ by -I, the global action of a unimodular matrix there.

The reversal map (reverse, with its edge and triangle cases iota and theta)
is built from the orthogonal flag J F^{-T} J of a representative F, where J
is the antidiagonal matrix of ones; this one closed form serves every m.
Its rows come straight from F's canonical rows (below), so it takes no
elimination.  The reversal keeps configurations positive, so the signs
these maps need depend only on (n, m): reverse needs none, and rotate,
rotate_inv and face take theirs in closed form from _shifted, which at
even m negates the int rows of each flag that wraps round.

A flag is held as its integer clearing only, always that of its coset's
canonical representative, with mutually orthogonal rows, so flags compare
and hash as held.  The checked constructor, for outside input, eliminates
once to find the det and then takes each row less its projection on the
rows before it, keeping a row already orthogonal to them as cleared; every
derived flag holds such rows already, wrapped unchecked with its det in
closed form.  Fraction rows are formed only by ``rep``, for ``repr``;
``to_json`` writes each entry from the clearing.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import prod
from operator import mul

from .rational import (Mat, scalar, scalar_str, _clear_ratio, _integer_clearing,
                       _prefix_scales, _project_out, _det_cleared, _ratio_str)


class FlagError(ValueError):
    pass


class NotGenericError(FlagError):
    """A coordinate that must be nonzero vanished."""

    def __init__(self, index):
        self.index = tuple(index)
        super().__init__("vanishing coordinate at multi-index %s" % (self.index,))


@lru_cache(maxsize=None)
def admissible_indices(n, m):
    """All multi-indices (i_1..i_n) with sum m and at least two nonzero entries.

    Enumerated in lexicographic order, once per (n, m): the result is a
    shared tuple.
    """
    out = []
    # stars and bars: bar positions in a row of m stars
    for bars in combinations(range(m + n - 1), n - 1):
        prev = -1
        idx = []
        for b in bars:
            idx.append(b - prev - 1)
            prev = b
        idx.append(m + n - 2 - prev)
        if sum(1 for x in idx if x) >= 2:
            out.append(tuple(idx))
    return tuple(out)


def check_index(idx, n, m):
    idx = tuple(idx)
    if len(idx) != n:
        raise FlagError("multi-index length %d != n = %d" % (len(idx), n))
    if not all(type(x) is int and x >= 0 for x in idx) or sum(idx) != m:
        raise FlagError("multi-index %r is not of nonnegative integers summing "
                        "to m = %d" % (idx, m))
    if n - idx.count(0) < 2:
        raise FlagError("multi-index %s needs at least two nonzero entries" % (idx,))
    return idx


class DecoratedFlag:
    """A complete flag of R^m with volume decorations, as an m x m matrix.

    A flag is held as its integer clearing only: tuple int rows, the prefix
    products of their row scales, and the det, always those of the coset's
    canonical representative, with mutually orthogonal rows.  Coordinates
    stack the int rows, ``==`` and ``hash`` compare the clearing as held,
    and ``Configuration.to_json`` writes it, so none of them touches
    Fraction arithmetic; ``rep`` forms the Fraction rows, for ``repr``.
    The checked constructor requires det 1, and ``scale_rows`` is the one
    way to a flag of another det.
    """

    __slots__ = ("m", "_ints", "_scales", "_det")

    def __init__(self, rep):
        if not isinstance(rep, Mat):
            rep = Mat(rep)
        if not rep.is_square:
            raise FlagError("flag representative must be square")
        self.m = rep.rows
        rows, s = _integer_clearing(rep.entries)
        d = _det_cleared(list(rows), s[-1])  # elimination rebinds the entries
        if d == 0:
            raise FlagError("flag representative is singular")
        if d != 1:
            raise FlagError("flag representative has det %s != 1" % scalar_str(d))
        # the canonical rows: each row less its projection on the rows before
        # it (by which row l varies over a coset), cleared with one gcd; a row
        # already orthogonal to them, as every row a library document holds,
        # is kept as cleared, which has gcd 1 with its scale
        ints, scales = [], [1]
        for l, row in enumerate(rows):
            e = s[l + 1] // s[l]
            if any(sum(map(mul, row, r)) for r in ints):
                nums, den = _project_out(row, ints)
                row, e = _clear_ratio(nums, den * e)
            ints.append(row)
            scales.append(scales[-1] * e)
        self._ints, self._scales, self._det = tuple(map(tuple, ints)), scales, d

    @classmethod
    def _of(cls, ints, scales, det):
        """Wrap the canonical integer clearing (int rows, prefix scales) of a
        representative of det ``det`` without checking, its rows as tuples."""
        f = object.__new__(cls)
        f.m, f._ints, f._scales, f._det = len(ints), tuple(map(tuple, ints)), scales, det
        return f

    @property
    def rep(self):
        """The representative, a Mat of Fractions: row i is int row i over its scale."""
        s = self._scales
        return Mat._of(tuple(tuple(Fraction(x, s[i + 1] // s[i]) for x in row)
                             for i, row in enumerate(self._ints)))

    def __eq__(self, other):
        """Equality of decorated flags, i.e. of their canonical clearings."""
        if not isinstance(other, DecoratedFlag):
            return False
        return self._ints == other._ints and self._scales == other._scales

    def __hash__(self):
        return hash((self._ints, tuple(self._scales)))

    def __repr__(self):
        return "DecoratedFlag(%r)" % (self.rep,)

    def orthogonal(self):
        """The orthogonal flag: J F^{-T} J, rescaled to det 1.

        J, the antidiagonal matrix of ones, reverses the row order on the
        left and the column order on the right.  Prefix spans of the result
        are the orthocomplements of the input's suffix spans under the
        bilinear form x J y^T; applying the map twice returns the same coset.

        No elimination: each held int row R_l is row l of D F, with D the
        diagonal of row scales d_l, and the held rows are mutually
        orthogonal.  For such rows F^{-T} = diag(1 / (r_l . r_l)) F, so row
        i of J F^{-T} J is reversed(R_l) d_l / (R_l . R_l), l = m - 1 - i;
        J F^{-T} J has det 1 / det F, so its last row is scaled by the held
        det F.
        """
        s, det = self._scales, self._det
        cleared = []
        for l, row in enumerate(self._ints):
            f, norm = s[l + 1] // s[l], sum(map(mul, row, row))
            if not l:
                f, norm = f * det.numerator, norm * det.denominator
            cleared.append(_clear_ratio([f * x for x in reversed(row)], norm))
        return DecoratedFlag._of(*_prefix_scales(reversed(cleared)), 1)

    def scale_rows(self, factors):
        """Row i scaled by factors[i], all nonzero; the det scales by their product."""
        factors = [scalar(f) for f in factors]
        if len(factors) != self.m or not all(factors):
            raise FlagError("scale_rows needs %d nonzero factors" % self.m)
        s = self._scales
        rows = [[f.numerator * x for x in row] for f, row in zip(factors, self._ints)]
        dens = [f.denominator * (s[i + 1] // s[i]) for i, f in enumerate(factors)]
        det = self._det * prod(factors)
        return DecoratedFlag._of(*_prefix_scales(map(_clear_ratio, rows, dens)), det)


class Configuration:
    """An ordered tuple of decorated flags modulo the global unimodular action.

    A configuration is immutable, so each coordinate is computed once:
    _delta keeps a memo from multi-index to value, which all_deltas,
    same_point, face's check and every later reader share.  The memo
    belongs to this object only; configurations built from it start with
    their own.  delta is the checked entry point for indices from outside;
    the library's own readers, whose indices come from admissible_indices or
    chart_indices, call _delta and skip the check.

    _fan is the chart point on the fan at vertex 1 that the flags are built
    from, or None for flags from anywhere else; nothing writes it.  Only
    cactus.act_word reads it, in place of reading those values back; the
    memo never takes from it, so flags_to_charts still computes every
    coordinate it returns.  A configuration that cactus.act_word returns
    holds only its fan chart: ``flags``, a read-only property over
    ``_flags``, rebuilds them by charts_to_flags on the first read and keeps
    them, so a word acted on by the next word is never rebuilt.
    """

    __slots__ = ("m", "n", "_flags", "_deltas", "_fan")

    def __init__(self, flags):
        flags = tuple(flags)
        if len(flags) < 2:
            raise FlagError("a configuration needs at least two flags")
        m = flags[0].m
        if any(f.m != m for f in flags):
            raise FlagError("all flags must share the same ambient dimension")
        self.m = m
        self.n = len(flags)
        self._flags = flags
        self._deltas = {}
        self._fan = None

    @classmethod
    def _of_fan(cls, fan):
        """The configuration of the fan chart point ``fan`` at vertex 1,
        holding no flags until they are read."""
        c = object.__new__(cls)
        c.m, c.n, c._flags, c._deltas, c._fan = fan.m, fan.triangulation.n, None, {}, fan
        return c

    @property
    def flags(self):
        """The tuple of decorated flags, rebuilt from ``_fan`` on the first read
        when none are held."""
        if self._flags is None:
            from .reconstruct import charts_to_flags  # reconstruct imports this module
            self._flags = charts_to_flags(self._fan)._flags
        return self._flags

    def __repr__(self):
        return "Configuration(n=%d, m=%d)" % (self.n, self.m)

    def delta(self, idx):
        """The coordinate at a multi-index, which check_index validates first
        (FlagError on a malformed one)."""
        return self._delta(check_index(idx, self.n, self.m))

    def _delta(self, idx):
        """The coordinate at a valid multi-index tuple, unchecked: one stacked
        determinant, taken from the memo after the first call."""
        v = self._deltas.get(idx)
        if v is None:
            rows = []
            scale = 1
            for f, i in zip(self.flags, idx):
                if i:
                    rows.extend(f._ints[:i])
                    scale *= f._scales[i]
            v = self._deltas[idx] = _det_cleared(rows, scale)
        return v

    def all_deltas(self):
        """Every admissible coordinate, as a dict multi-index -> value."""
        return {idx: self._delta(idx) for idx in admissible_indices(self.n, self.m)}

    def first_nonpositive(self):
        for idx in admissible_indices(self.n, self.m):
            if self._delta(idx) <= 0:
                return idx
        return None

    def is_positive(self):
        return self.first_nonpositive() is None

    def same_point(self, other):
        """Equality as configurations: every coordinate agrees exactly.

        Equal flags, i.e. identical canonical clearings, give identical
        coordinates, so they decide it at once (charts_to_flags fixes its
        gauge from the point alone).  At even m so do negated ones: every
        flag of ``other`` holding the negated int rows and the same row
        scales of its flag in ``self`` is the global right action of -I,
        which has det 1 there (at odd m it has det -1 and negates every
        coordinate).  Otherwise the coordinates are compared in admissible
        order, through the unchecked _delta, up to the first that differs.
        """
        if self.n != other.n or self.m != other.m:
            return False
        if self.flags == other.flags:
            return True
        if self.m % 2 == 0 and all(
                f._scales == g._scales
                and all(tuple([-x for x in r]) == s for r, s in zip(f._ints, g._ints))
                for f, g in zip(self.flags, other.flags)):
            return True
        return all(self._delta(idx) == other._delta(idx)
                   for idx in admissible_indices(self.n, self.m))

    # -- serialization ----------------------------------------------------

    def to_json(self):
        """Each flag's ``rep``, written from its clearing: int row over scale."""
        return {"m": self.m, "n": self.n,
                "flags": [[[_ratio_str(x, b // a) for x in row]
                           for row, a, b in zip(f._ints, f._scales, f._scales[1:])]
                          for f in self.flags]}

    @classmethod
    def from_json(cls, data):
        flags = [DecoratedFlag(Mat(rows)) for rows in data["flags"]]
        c = cls(flags)
        n, m = data["n"], data["m"]
        if type(n) is not int or type(m) is not int:
            raise FlagError("n and m must be integers, got %r and %r" % (n, m))
        if c.m != m or c.n != n:
            raise FlagError("declared (n, m) does not match the flag data")
        return c


def _shifted(flags, k):
    """The configuration of ``flags`` read cyclically from 0-based position k.

    Moving the i rows that the flags before k give a coordinate past its
    other m - i rows multiplies it by (-1)^(i (m - i)): 1 at odd m, (-1)^i
    at even m.  So at even m every row of each flag that wraps round is
    negated, which undoes that and keeps the flag's det, as (-1)^m = 1.
    The int rows are negated one by one under the same row scales: a held
    clearing is reduced, so this is the clearing ``scale_rows([-1] * m)``
    would reach.
    """
    flags = tuple(flags)
    m = flags[0].m
    wrapped = flags[:k] if m % 2 else [
        DecoratedFlag._of([[-x for x in row] for row in f._ints], f._scales, f._det)
        for f in flags[:k]]
    return Configuration((*flags[k:], *wrapped))


def rotate(c):
    """Cyclic shift of a triangle; three applications give the identity."""
    if c.n != 3:
        raise FlagError("rotate needs a triangle configuration")
    return _shifted(c.flags, 2)


def rotate_inv(c):
    if c.n != 3:
        raise FlagError("rotate_inv needs a triangle configuration")
    return _shifted(c.flags, 1)


def face(c, i):
    """The edge configuration obtained by forgetting flag i of a triangle.

    The remaining pair is kept in cyclic order starting after i, so that
    face(rotate(c), i) = face(c, i-1 mod 3): from vertex order, a shift by
    1 when i = 2.  On input that is not positive it is the same map, with
    no sign chosen from the input; only a vanishing coordinate of the pair,
    read into the memo of the pair returned, raises NotGenericError.
    """
    if c.n != 3:
        raise FlagError("face needs a triangle configuration")
    if i not in (1, 2, 3):
        raise FlagError("face index must be 1, 2 or 3")
    out = _shifted((f for v, f in enumerate(c.flags, 1) if v != i), 1 if i == 2 else 0)
    for idx in admissible_indices(2, c.m):
        if not out._delta(idx):
            raise NotGenericError(idx)
    return out


def reverse(c):
    """The full reversal: the orthogonal flags in reversed order.  It keeps a
    configuration positive; on input that is not positive it is the same
    map, with no sign change and no check."""
    return Configuration([f.orthogonal() for f in reversed(c.flags)])


def iota(c):
    """The involution of edge configurations: swap and take orthogonals
    (reverse, so with no sign change and no check on any input)."""
    if c.n != 2:
        raise FlagError("iota needs an edge configuration")
    return reverse(c)


def theta(c):
    """The reversal involution of triangle configurations (reverse, so with
    no sign change and no check on any input)."""
    if c.n != 3:
        raise FlagError("theta needs a triangle configuration")
    return reverse(c)
