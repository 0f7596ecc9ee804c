"""Exchange programs, the flip step, and chart transport along flips.

An exchange program is a tuple of steps (t, out, inc, d) on a list of values
x, each setting x[t] = (prod x[out] + prod x[inc]) / x[d] as one Fraction.
``_run_program`` runs the flip's program here and the triangle reversal of
``cactus``.  ``_flip`` is every flip in the library: it replaces diagonal
{a, c} of a counterclockwise quadrilateral (a, b, c, e) by {b, e}, in place
on a dict of chart values and on a set of diagonals, in the C(m+1, 3) steps
of Fock and Goncharov's rank-m flip; all are subtraction free, so positivity
propagates for free.  Its per-m plan names the positions it deletes from
the dict, the old chart's weights that the new one lacks, and those it
makes, the reverse; the intermediate weights, with all four entries
positive, live only in the program's list.  ``flip_transport`` takes one
step, ``transport`` one per quadrilateral of ``polygon._flip_quadrilaterals``,
and ``_flip_toward`` one per diagonal it flips toward an apex: for ``cactus``
each diagonal that crosses the chord it puts in, and for ``reconstruct``
each diagonal not at vertex 1, the walk to the fan there.  The flips read
the side map each triangulation holds from construction, and a new one is
wrapped from its diagonals alone by ``Triangulation._of``.
"""

from fractions import Fraction
from functools import lru_cache

from .flags import admissible_indices
from .polygon import Triangulation, ChartPoint, _fan_flips, _flip_quadrilaterals


class MutationError(ValueError):
    pass


def _run_program(x, steps):
    """Run an exchange program in place on the list of Fractions ``x``.  With
    a/b and c/e the products at out and inc, and f/g = x[d], a step forms
    x[t] = (a*e + c*b)*g / (b*e*f) from ints as one Fraction, with one gcd.
    The one loop of both programs, the flip's and the triangle reversal's,
    whatever the arity of their steps."""
    for t, out, inc, d in steps:
        a = b = c = e = 1
        for s in out:
            v = x[s]
            a, b = a * v.numerator, b * v.denominator
        for s in inc:
            v = x[s]
            c, e = c * v.numerator, e * v.denominator
        v = x[d]
        x[t] = Fraction((a * e + c * b) * v.denominator, b * e * v.numerator)


@lru_cache(maxsize=None)
def _flip_program(m):
    """The weights ``admissible_indices(4, m)`` at (a, b, c, e), the flip's
    program on them by position: each (i, j, k, l) with j, l > 0, in ascending
    j + l, by the exchange relation from five weights of smaller j + l; and
    its plan, the positions ``gone`` with i, k > 0 and not both j, l > 0,
    which leave the chart, and ``made`` with j, l > 0 and not both i, k > 0,
    which enter it.  The program reads an unwritten position only in the
    old chart, the weights with j = 0 or l = 0."""
    pts = admissible_indices(4, m)
    pos = {w: s for s, w in enumerate(pts)}
    steps = tuple((pos[i, j, k, l],
                   (pos[i + 1, j, k, l - 1], pos[i, j - 1, k + 1, l]),
                   (pos[i, j, k + 1, l - 1], pos[i + 1, j - 1, k, l]),
                   pos[i + 1, j - 1, k + 1, l - 1])
                  for i, j, k, l in sorted(pts, key=lambda w: w[1] + w[3]) if j and l)
    gone = tuple(s for s, (i, j, k, l) in enumerate(pts) if i and k and not (j and l))
    made = tuple(s for s, (i, j, k, l) in enumerate(pts) if j and l and not (i and k))
    return pts, steps, gone, made


def _flip(values, diagonals, n, m, a, b, c, e):
    """Flip {a, c} of the counterclockwise quadrilateral (a, b, c, e), given
    in any rotation, in place on chart values of the n-gon and on the set of
    its ascending diagonal pairs: only the {a, c} edge and the interiors of
    faces (a, b, c) and (a, c, e) give way, to the {b, e} edge and those of
    (a, b, e), (b, c, e).  The values of the quadrilateral go into one list
    by position, read by one ``map`` of ``values.get`` over its keys (None
    at the new chart's weights), the program runs on it, and the plan
    deletes its ``gone`` keys and sets its ``made`` ones, in the order of
    the weights."""
    if a > c:  # one rotation per flip, so the new keys go in in one order
        a, b, c, e = c, e, a, b
    pts, steps, gone, made = _flip_program(m)
    # one list, rewritten for each weight, as in ``chart_indices``
    idx = [0] * n
    keys = [tuple(idx) for idx[a - 1], idx[b - 1], idx[c - 1], idx[e - 1] in pts]
    # the new chart's weights with j, l > 0 start unset: the program fills them
    x = list(map(values.get, keys))
    _run_program(x, steps)
    for s in gone:
        del values[keys[s]]
    for s in made:
        values[keys[s]] = x[s]
    diagonals.remove((a, c))
    diagonals.add((b, e) if b < e else (e, b))


def flip_transport(p, d):
    """Chart point of the triangulation flipped at d, for the same point."""
    t = p.triangulation
    values, diagonals = dict(p.values), set(t.diagonals)
    _flip(values, diagonals, t.n, p.m, *t.quadrilateral(d))
    return ChartPoint._of(Triangulation._of(t.n, frozenset(diagonals)), p.m, values)


def _flip_toward(p, own, apex):
    """(values, diagonals): copies of the chart values and the diagonal set
    of p, with each diagonal of p in ``own`` flipped toward ``apex`` by one
    ``_flip``, in the order of ``polygon._fan_flips`` over the whole
    polygon: each lies opposite the apex on a face at the apex when its
    turn comes, and becomes a diagonal at the apex."""
    t = p.triangulation
    values, diagonals = dict(p.values), set(t.diagonals)
    if own:
        for _, u, w, v in _fan_flips(t._beyond, own, list(range(1, t.n + 1)), apex):
            _flip(values, diagonals, t.n, p.m, u, w, v, apex)
    return values, diagonals


def transport(p, target):
    """Chart point of the target triangulation for the same point; the harness
    checks, rather than assumes, that it does not depend on the path."""
    if p.triangulation == target:
        return ChartPoint._of(target, p.m, dict(p.values))
    values, diagonals = dict(p.values), set(p.triangulation.diagonals)
    for quad in _flip_quadrilaterals(p.triangulation, target):
        _flip(values, diagonals, target.n, p.m, *quad)
    if diagonals != target.diagonals:
        raise MutationError("flip path ended at %s, not at %r" % (sorted(diagonals), target))
    return ChartPoint._of(target, p.m, values)
