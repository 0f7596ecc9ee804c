"""The exchange relation, exchange programs, and chart transport along flips.

An exchange program is a tuple of steps (t, out, inc, d) on a list of values
x, each setting x[t] = (prod x[out] + prod x[inc]) / x[d] as one Fraction.
``_run_program`` runs the flip's program here and the triangle reversal of
``cactus``.  A flip replaces diagonal {a, c} of a quadrilateral (a, b, c, e)
by {b, e}, in the C(m+1, 3) steps of Fock and Goncharov's rank-m flip.  All
steps are subtraction free, so positivity propagates for free.
"""

from fractions import Fraction
from functools import lru_cache

from .flags import admissible_indices
from .polygon import ChartPoint, PolygonError, flip_path


class MutationError(ValueError):
    pass


def exchange(ab, cd, bc, ad, ac):
    """One exchange step: (ab * cd + bc * ad) / ac."""
    if ac == 0:
        raise MutationError("zero denominator in exchange relation")
    return (ab * cd + bc * ad) / ac


def _run_program(x, steps):
    """Run an exchange program in place on the list of Fractions ``x``.  With
    a/b and c/e the products at out and inc, and f/g = x[d], a step forms
    x[t] = (a*e + c*b)*g / (b*e*f) from ints as one Fraction, with one gcd."""
    for t, out, inc, d in steps:
        a = b = c = e = 1
        for v in map(x.__getitem__, out):
            a, b = a * v.numerator, b * v.denominator
        for v in map(x.__getitem__, inc):
            c, e = c * v.numerator, e * v.denominator
        v = x[d]
        x[t] = Fraction((a * e + c * b) * v.denominator, b * e * v.numerator)


@lru_cache(maxsize=None)
def _flip_program(m):
    """The weights ``admissible_indices(4, m)`` at (a, b, c, e), and the flip's
    program on them by position: each (i, j, k, l) with j, l > 0, in ascending
    j + l, by the exchange relation from five weights of smaller j + l."""
    pts = admissible_indices(4, m)
    pos = {w: s for s, w in enumerate(pts)}
    steps = tuple((pos[i, j, k, l],
                   (pos[i + 1, j, k, l - 1], pos[i, j - 1, k + 1, l]),
                   (pos[i, j, k + 1, l - 1], pos[i + 1, j - 1, k, l]),
                   pos[i + 1, j - 1, k + 1, l - 1])
                  for i, j, k, l in sorted(pts, key=lambda w: w[1] + w[3]) if j and l)
    return pts, steps


def flip_transport(p, d):
    """Chart point of the flipped triangulation for the same underlying point.

    Only the quadrilateral (a, b, c, e) around d = {a, c} changes: the {a, c}
    edge and the interiors of faces (a, b, c) and (a, c, e) leave the chart,
    and the {b, e} edge and the interiors of (a, b, e) and (b, c, e) join
    it.  Every other value carries over.
    """
    t = p.triangulation
    a, b, c, e = quad = t.quadrilateral(d)
    pts, steps = _flip_program(p.m)
    # one list, rewritten for each weight, as in ``chart_indices``
    idx = [0] * t.n
    keys = [tuple(idx) for idx[a - 1], idx[b - 1], idx[c - 1], idx[e - 1] in pts]
    values = dict(p.values)
    # the new chart's weights with j, l > 0 start unset: the program fills them
    x = [values.get(key) for key in keys]
    _run_program(x, steps)
    for (i, j, k, l), key, value in zip(pts, keys, x):
        if i and k:
            values.pop(key, None)  # the old chart's, or none when j, l > 0 too
        elif j and l:
            values[key] = value
    return ChartPoint._of(t._flip(*quad), p.m, values)


def transport(p, target):
    """Compose flip transports along a flip path to the target triangulation.

    The result does not depend on the chosen path; the verification harness
    checks this rather than assuming it.
    """
    if target.n != p.triangulation.n:
        raise PolygonError("mismatched polygon sizes")
    for d in flip_path(p.triangulation, target):
        p = flip_transport(p, d)
    if p.triangulation != target:
        raise MutationError("flip path ended at %r, not at %r" % (p.triangulation, target))
    return p
