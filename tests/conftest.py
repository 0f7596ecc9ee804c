import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import strategies as st

import totpos
from totpos.rational import (Mat, scalar, scalar_str, SingularMatrixError, _bareiss,
                             _clear_ratio, _clear_row, _integer_clearing, _prefix_scales)
from totpos.flags import (DecoratedFlag, Configuration, FlagError, NotGenericError,
                          admissible_indices, _shifted, face, reverse, rotate, rotate_inv)
from totpos.axioms import DIAGONAL_SHIFTS
from totpos.polygon import (Triangulation, ChartPoint, PolygonError, chart_indices,
                            index_at, _fan_flips, _flip_quadrilaterals)
from totpos.mutation import _run_program
from totpos.cactus import _reversal_program, _with_chord


# the characters at which scalar's int fast path and Fraction(str) could
# part: digits, signs, the slash, a decimal point, an exponent, an
# underscore, a space, ARABIC-INDIC DIGIT ONE (a decimal digit) and
# SUPERSCRIPT TWO (a digit that is not decimal)
SCALAR_ALPHABET = "0123456789-+/.e_ \u0661\u00b2"


def exponent_over_limit(s):
    """Whether s ends in a decimal exponent (e or E, an optional sign, then a
    digit followed by digits and underscores) of at most
    sys.get_int_max_str_digits() digits, as int() reads no more, whose value
    is over that limit; a limit of 0 bounds nothing."""
    limit = sys.get_int_max_str_digits()
    _, e, exp = s.rstrip().lower().rpartition("e")
    body = exp[1:] if exp[:1] in ("+", "-") else exp
    digits = body.replace("_", "")
    return (bool(e and limit) and body[:1].isdecimal() and digits.isdecimal()
            and len(digits) <= limit < int(digits))


def scalar_reference(s):
    """scalar(s) for a string s, read by Fraction(s) alone, with no int fast
    path, once an exponent over the digit limit is refused."""
    if exponent_over_limit(s):
        raise ValueError("Exceeds the limit (%d) for a decimal exponent; use "
                         "sys.set_int_max_str_digits() to increase the limit"
                         % sys.get_int_max_str_digits())
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % s) from None


def scalar_outcome(read, s):
    """What read(s) gives: the class, numerator and denominator of its value,
    or the class and message of the exception it raises."""
    try:
        x = read(s)
    except Exception as exc:
        return type(exc), str(exc)
    return type(x), x.numerator, x.denominator


def det_oracle(m):
    """Independent determinant by cofactor expansion along the first row."""
    n = m.rows
    if n == 1:
        return m.entries[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = Mat([[row[c] for c in range(n) if c != j]
                     for row in m.entries[1:]])
        total += (-1) ** j * m.entries[0][j] * det_oracle(minor)
    return total


def _solve_cleared(rows, n):
    """Solve the integer system [A | B] (n rows, any number of right-hand
    side columns); return (Y, p) with A^-1 B = Y / p entrywise, Y a list of
    integer rows.  The library solves no square system; the oracles here do.

    p is the last Bareiss pivot, +-det(A), so Y = p A^-1 B = +-adj(A) B is
    integral and back substitution divides exactly.  Raises
    SingularMatrixError (with the vanishing pivot stage) when A is singular.
    """
    _bareiss(rows, n)
    p = rows[n - 1][n - 1]
    y = [None] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        acc = [p * b for b in row[n:]]
        for j in range(i + 1, n):
            if row[j]:
                acc = [a - row[j] * v for a, v in zip(acc, y[j])]
        y[i] = [a // row[i] for a in acc]
    return y, p


def solve(a, b):
    """Solve a*x = b exactly; ``b`` is a sequence of scalars."""
    if not a.is_square:
        raise ValueError("solve needs a square matrix")
    if len(b) != a.rows:
        raise ValueError("right-hand side length %d != %d" % (len(b), a.rows))
    rows, _ = _integer_clearing([row + (scalar(x),) for row, x in zip(a.entries, b)])
    y, p = _solve_cleared(rows, a.rows)
    return tuple(Fraction(yi[0], p) for yi in y)


def inverse(a):
    """Exact inverse by one elimination on [D a | D], where D holds the
    row-clearing scales, so that (D a)^-1 D = a^-1."""
    if not a.is_square:
        raise ValueError("inverse of non-square %dx%d matrix" % (a.rows, a.cols))
    n = a.rows
    rows = []
    for i, row in enumerate(a.entries):
        ints, d = _clear_row(row)
        rows.append(ints + [d if j == i else 0 for j in range(n)])
    y, p = _solve_cleared(rows, n)
    return Mat([[Fraction(v, p) for v in yi] for yi in y])


def cofactor_ints(int_rows):
    """The integer vector c with det(int_rows + [x]) = x . c for all x, from
    one elimination of its own: the oracle for the cofactor vectors that
    reconstruct reads off nested eliminations.

    With R the cleared rows, det([R; e_t]) = det([R^T | e_t]), and these m
    matrices share their first m - 1 columns, so one elimination of
    [R^T | I] on those columns leaves every probe determinant in its last
    row.
    """
    m = len(int_rows) + 1
    aug = [list(col) + [int(i == t) for t in range(m)]
           for i, col in enumerate(zip(*int_rows))]
    try:
        sign = _bareiss(aug, m - 1)
    except SingularMatrixError:
        return [0] * m
    return [sign * v for v in aug[m - 1][m - 1:]]


def orthogonal_reference(flag):
    """J F^{-T} J of a flag F, rescaled to det 1, by the elimination route
    the library no longer takes: the oracle for the closed form of
    DecoratedFlag.orthogonal.

    The held int rows are D F, D the diagonal of row scales, so one
    elimination of [D F | D] gives F^{-1} = Y / p; the last row is scaled
    by the held det F.
    """
    m, s, d = flag.m, flag._scales, flag._det
    aug = [list(row) + [s[i + 1] // s[i] if j == i else 0 for j in range(m)]
           for i, row in enumerate(flag._ints)]
    y, p = _solve_cleared(aug, m)
    # row i of J F^{-T} J is column m - 1 - i of F^{-1}, read upwards
    rows = [col[::-1] for col in reversed(list(zip(*y)))]
    rows[-1] = [x * d.numerator for x in rows[-1]]
    dens = [p] * (m - 1) + [p * d.denominator]
    return DecoratedFlag._of(*_prefix_scales(map(_clear_ratio, rows, dens)), 1)


def config_json_reference(c):
    """A configuration's JSON, each entry of each flag's Fraction rows spelled
    by scalar_str: the oracle for Configuration.to_json, which writes the
    entries straight from the clearing with no Fraction formed."""
    return {"m": c.m, "n": c.n,
            "flags": [[[scalar_str(x) for x in row] for row in f.rep.entries]
                      for f in c.flags]}


class SignNormalizeError(FlagError):
    """No decoration sign pattern reaches the all-positive chamber."""

    def __init__(self, index):
        self.index = tuple(index)
        super().__init__(
            "no sign pattern makes all coordinates positive; "
            "witness multi-index %s" % (self.index,))


def sign_normalize(c):
    """Flip decoration signs per flag and level to reach the positive chamber:
    the GF(2) search the library no longer runs, kept as the oracle for the
    closed-form signs of flags._shifted and flags.reverse.

    Solves, over GF(2), for sign flips of each flag's decorations making
    every coordinate positive.  Free choices are resolved by not flipping.
    There are m - 1 of them for n = 2; for n >= 3 there is exactly one at
    even m (level 1 of flag 1) and none at odd m.  Raises
    SignNormalizeError with a witness multi-index when no pattern works,
    and NotGenericError on a vanishing coordinate.
    """
    m, n = c.m, c.n
    nvars = n * (m - 1)
    pivots = {}  # pivot bit -> (mask, rhs)
    for idx in admissible_indices(n, m):
        v = c._delta(idx)
        if v == 0:
            raise NotGenericError(idx)
        mask = 0
        for k, i in enumerate(idx):
            if 1 <= i <= m - 1:
                mask |= 1 << (k * (m - 1) + (i - 1))
        rhs = 1 if v < 0 else 0
        for b, (pm, pr) in pivots.items():
            if mask >> b & 1:
                mask ^= pm
                rhs ^= pr
        if mask == 0:
            if rhs:
                raise SignNormalizeError(idx)
            continue
        b = mask.bit_length() - 1
        # keep earlier pivot rows fully reduced (Gauss-Jordan)
        for pb in list(pivots):
            pm, pr = pivots[pb]
            if pm >> b & 1:
                pivots[pb] = (pm ^ mask, pr ^ rhs)
        pivots[b] = (mask, rhs)
    x = [0] * nvars
    for b, (_, rhs) in pivots.items():
        x[b] = rhs
    if not any(x):
        return c
    flags = []
    for k, f in enumerate(c.flags):
        s = [1] + [(-1) ** x[k * (m - 1) + i] for i in range(m - 1)] + [1]
        factors = [s[i] * s[i - 1] for i in range(1, m + 1)]
        if all(f == 1 for f in factors):
            flags.append(f)
        else:
            flags.append(f.scale_rows(factors))
    return Configuration(flags)


def relabel(c, perm):
    """New configuration whose flag at position i is the old flag perm[i],
    with no sign change: the raw input of the sign_normalize oracle.

    ``perm`` is 1-based, with values in 1..n; a shorter one selects flags.
    """
    return Configuration([c.flags[p - 1] for p in perm])


def clearings(c):
    """Each flag's held int rows, prefix row scales and det."""
    return [(f._ints, f._scales, f._det) for f in c.flags]


def reversal_sign_cases(c):
    """(map, output, oracle) for each reversal-layer map that takes c: the
    oracle is sign_normalize on the raw relabel, the same flags with no
    sign change.  The double reversal's flags are the full reversal read
    cyclically as axioms.double_reversal reads it, with its oracle on the
    reflection fixing the square's diagonal."""
    orth = Configuration([f.orthogonal() for f in c.flags])
    cases = [("reverse", reverse(c), sign_normalize(relabel(orth, range(c.n, 0, -1))))]
    if c.n == 3:
        cases += [("rotate", rotate(c), sign_normalize(relabel(c, (3, 1, 2)))),
                  ("rotate_inv", rotate_inv(c), sign_normalize(relabel(c, (2, 3, 1))))]
        cases += [("face %d" % i, face(c, i), sign_normalize(relabel(c, pair)))
                  for i, pair in ((1, (2, 3)), (2, (3, 1)), (3, (1, 2)))]
    if c.n == 4:
        for d, reflection in (((1, 3), (1, 4, 3, 2)), ((2, 4), (3, 2, 1, 4))):
            cases.append(("double_reversal %s" % (d,),
                          _shifted(reverse(c).flags, DIAGONAL_SHIFTS[d]),
                          sign_normalize(relabel(orth, reflection))))
    return cases


def _reversal_program_reference(m):
    """The exchange steps that reverse the interior values of one triangle,
    by the quiver mutations the library no longer simulates: the oracle for
    the closed form of cactus._reversal_program.

    The points are the weights ``admissible_indices(3, m)``, referred to by
    position.  The quiver is Fock-Goncharov's: arrows w -> w + (1, 0, -1),
    w -> w + (-1, 1, 0) and w -> w + (0, -1, 1), none joining two points of
    one edge.  For l = 1..m-2 the interior points with k >= m-1-l are
    mutated in ascending (k, i) order.  A step (t, out, inc, t) replaces x[t]
    by (prod x[out] + prod x[inc]) / x[t], a position repeated once per arrow.
    After the C(m, 3) steps, the reversed triangle has value x(j, k, i) at
    interior weight (i, j, k).
    """
    pts = admissible_indices(3, m)
    pos = {w: s for s, w in enumerate(pts)}
    b = [[0] * len(pts) for _ in pts]
    for u in pts:
        for d in ((1, 0, -1), (-1, 1, 0), (0, -1, 1)):
            v = tuple(x + y for x, y in zip(u, d))
            if v in pos and not any(x == y == 0 for x, y in zip(u, v)):
                b[pos[u]][pos[v]] += 1
                b[pos[v]][pos[u]] -= 1
    steps = []
    for level in range(1, m - 1):
        for w in sorted((w for w in pts if min(w) and w[2] >= m - 1 - level),
                        key=lambda w: (w[2], w[0])):
            t = pos[w]
            row = b[t]
            steps.append((t, tuple(s for s, e in enumerate(row) for _ in range(e)),
                          tuple(s for s, e in enumerate(row) for _ in range(-e)), t))
            # quiver mutation at t
            for r in b:
                if r is not row and r[t]:
                    for s, e in enumerate(row):
                        r[s] += (abs(r[t]) * e + r[t] * abs(e)) // 2
            for r in b:
                r[t] = -r[t]
            b[t] = [-e for e in row]
    return tuple(steps)


def beyond_reference(t):
    """The side map of t built afresh from its faces, as the library built
    it on every call before a triangulation held it: (u, w, v) is a face
    exactly when the map takes (v, u) to w."""
    beyond = {}
    for x, y, z in t.triangles():
        beyond[x, y], beyond[y, z], beyond[z, x] = z, x, y
    return beyond


def flip_quadrilaterals_reference(t1, t2):
    """polygon._flip_quadrilaterals as it was before each triangulation held
    its side map and each piece's degrees were counted in one pass: fresh
    side maps, and a Counter over the unshared diagonals for each piece.
    The oracle for the library's flip path, quadrilateral for
    quadrilateral."""
    if t1.n != t2.n:
        raise PolygonError("triangulations of different polygons")
    shared = t1.diagonals & t2.diagonals
    own1, own2 = t1.diagonals - shared, t2.diagonals - shared
    # each piece is an ascending vertex list, its boundary counterclockwise
    pieces = [list(range(1, t1.n + 1))]
    for a, b in sorted(shared):
        s = next(s for s in pieces if a in s and b in s)
        pieces.remove(s)
        i, j = s.index(a), s.index(b)
        pieces += [s[i:j + 1], s[:i + 1] + s[j:]]
    beyond1, beyond2 = beyond_reference(t1), beyond_reference(t2)
    path = []
    for s in pieces:
        if len(s) < 4:
            continue
        inside = set(s)
        degree = Counter(v for d in own1 | own2
                         if d[0] in inside and d[1] in inside for v in d)
        apex = min(s, key=lambda v: (-degree[v], v))
        path += [(u, w, v, a) for a, u, w, v in _fan_flips(beyond1, own1, s, apex)]
        # t2's created diagonals {apex, w}, flipped in reverse order, lead back to t2
        path += reversed(_fan_flips(beyond2, own2, s, apex))
    return path


def flip_path(t1, t2):
    """The flipped diagonals of ``polygon._flip_quadrilaterals``, from t1 to
    t2, as ascending pairs: what the flip path's tests replay and count,
    kept here since no library code reads a path as diagonals."""
    return [(a, c) if a < c else (c, a) for a, _, c, _ in _flip_quadrilaterals(t1, t2)]


def act_on_chart_reference(p, g):
    """The interval reversal g on the chart point p by the whole-chart
    relabel the library no longer takes: the oracle for the face-by-face
    fill of cactus._act_on_chart.

    The chord goes in as the library puts it in.  Then every chart value
    is scanned: one supported outside the interval carries over, an edge
    value inside is relabelled, out[idx] = in[idx'] with idx'[mirror(w)] =
    m - idx[w], and each face inside is reversed at its mirror image, one
    index_at per weight.
    """
    n, m = p.triangulation.n, p.m
    iv = g.interval(n)
    t, values = _with_chord(p, iv)
    order = {v: s for s, v in enumerate(iv)}
    outside = [v - 1 for v in range(1, n + 1) if v not in order]
    mirror = [g.mirror(v, n) - 1 for v in range(1, n + 1)]
    out = {}
    for idx, value in values.items():
        if any(idx[w] for w in outside):
            out[idx] = value
        elif idx.count(0) == n - 2:  # an edge inside; interiors come below
            edge = [0] * n
            for w, i in enumerate(idx):
                if i:
                    edge[mirror[w]] = m - i
            out[tuple(edge)] = value
    # each face inside, its vertices (u1, u2, u3) in interval order, to its
    # mirror image, (mirror(u3), mirror(u2), mirror(u1)) in interval order
    pts = admissible_indices(3, m)
    for f in t.triangles():
        if all(v in order for v in f):
            tri = sorted(f, key=order.get)
            x = [values[index_at(n, tri, w)] for w in pts]
            _run_program(x, _reversal_program(m))
            image = [g.mirror(v, n) for v in reversed(tri)]
            # the reversed value at weight (k, i, j) is x(i, j, k)
            for (i, j, k), value in zip(pts, x):
                if i and j and k:
                    out[index_at(n, image, (k, i, j))] = value
    chords = [d if any(v not in order for v in d) else [g.mirror(v, n) for v in d]
              for d in t.diagonals]
    return ChartPoint._of(Triangulation(n, chords), m, out)


def chords_cross(d1, d2, n):
    """Whether two chords of the n-gon cross in the interior."""
    a, b = sorted(d1)
    c, d = sorted(d2)
    return (a < c < b < d) or (c < a < d < b)


def relabel_chart_reference(p, perm):
    """axioms.relabel_chart by enumerating the chart indices of the new
    triangulation and reading each value at its old index: the oracle for
    the library's move of each value by permuting its key."""
    t = p.triangulation
    n = t.n
    inv = {perm[i - 1]: i for i in range(1, n + 1)}
    new_t = Triangulation(n, [(inv[a], inv[b]) for a, b in t.diagonals])
    values = {}
    for idx in chart_indices(new_t, p.m):
        old = [0] * n
        for i in range(n):
            old[perm[i] - 1] = idx[i]
        values[idx] = p.values[tuple(old)]
    return ChartPoint._of(new_t, p.m, values)


def identity(n):
    return Mat([[int(i == j) for j in range(n)] for i in range(n)])


def mat_mul(a, b):
    """The matrix product a b."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch: %dx%d * %dx%d" % (a.rows, a.cols, b.rows, b.cols))
    return Mat([[sum(x * y for x, y in zip(row, col)) for col in zip(*b.entries)]
                for row in a.entries])


def transpose(m):
    return Mat(list(zip(*m.entries)))


def scale_row(m, i, factor):
    """Row i times factor, as a new Mat."""
    factor = scalar(factor)
    rows = list(m.entries)
    rows[i] = [factor * x for x in rows[i]]
    return Mat(rows)


def add_multiple_of_row(m, dst, src, factor):
    """The row operation dst += factor * src, as a new Mat."""
    factor = scalar(factor)
    rows = list(m.entries)
    rows[dst] = [a + factor * b for a, b in zip(rows[dst], rows[src])]
    return Mat(rows)


@pytest.fixture
def v_config():
    """The m=2, n=4 configuration with first rows (1,0), (0,1), (-1,1), (-2,1),
    each completed to a det-1 representative."""
    return Configuration([
        DecoratedFlag(Mat([[1, 0], [0, 1]])),
        DecoratedFlag(Mat([[0, 1], [-1, 0]])),
        DecoratedFlag(Mat([[-1, 1], [0, -1]])),
        DecoratedFlag(Mat([[-2, 1], [-1, 0]])),
    ])


def random_triangulation(n, seed):
    """A reproducible random triangulation, by random flips from the fan."""
    rng = random.Random(seed)
    t = Triangulation.fan(n)
    if n == 3:
        return t
    for _ in range(3 * n):
        d = rng.choice(sorted(t.diagonals))
        t = t.flip(d)
    return t


@st.composite
def triangulations(draw, n):
    """A triangulation of the n-gon built through the public constructor by
    recursive splitting: each sub-polygon's base edge gets a drawn apex."""
    diagonals = []

    def split(vs):
        if len(vs) < 3:
            return
        k = draw(st.integers(1, len(vs) - 2))
        for a in (vs[0], vs[-1]):
            if abs(a - vs[k]) not in (1, n - 1):
                diagonals.append((a, vs[k]))
        split(vs[:k + 1])
        split(vs[k:])

    split(list(range(1, n + 1)))
    return Triangulation(n, diagonals)


@st.composite
def sharing_pairs(draw, n):
    """Two triangulations of the n-gon, n >= 4, with a drawn nonempty set of
    diagonals in common: the second is the first after random flips of its
    other diagonals."""
    t1 = draw(triangulations(n))
    keep = draw(st.sets(st.sampled_from(sorted(t1.diagonals)), min_size=1))
    t2 = t1
    for _ in range(draw(st.integers(0, 2 * n))):
        free = sorted(t2.diagonals - keep)
        if not free:
            break
        t2 = t2.flip(draw(st.sampled_from(free)))
    return t1, t2


# The directory holding the `totpos` package this test process imported.
SOURCE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(totpos.__file__)))


def run_totpos(args, stdin="", python_flags=()):
    """Run `python PYTHON_FLAGS -m totpos ARGS` in a fresh interpreter on the
    same source tree this process imported, with real argv, stdin, stdout
    and exit code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SOURCE_ROOT, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *python_flags, "-m", "totpos", *args],
                          input=stdin, capture_output=True, text=True, env=env)
