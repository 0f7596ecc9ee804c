"""The exchange relation and chart transport along flips.

A flip replaces the diagonal {a, c} of a quadrilateral (a, b, c, d) by
{b, d}.  On chart values the transport fills in every coordinate supported
on the quadrilateral by induction on the total weight at b and d: each
application of the exchange relation expresses a coordinate through five
siblings of strictly smaller such weight, grounding in old-chart values.
All steps are subtraction free, so positivity propagates for free.
"""

from .polygon import ChartPoint, PolygonError, flip_path


class MutationError(ValueError):
    pass


def exchange(ab, cd, bc, ad, ac):
    """One exchange step: (ab * cd + bc * ad) / ac."""
    if ac == 0:
        raise MutationError("zero denominator in exchange relation")
    return (ab * cd + bc * ad) / ac


def flip_transport(p, d):
    """Chart point of the flipped triangulation for the same underlying point.

    Only the quadrilateral (a, b, c, e) around d = {a, c} changes: the {a, c}
    edge and the interiors of faces (a, b, c) and (a, c, e) leave the chart,
    and the {b, e} edge and the interiors of (a, b, e) and (b, c, e) join
    it.  Every other value carries over.
    """
    t = p.triangulation
    a, b, c, e = t.quadrilateral(d)
    n, m = t.n, p.m

    def key(i, j, k, l):
        idx = [0] * n
        idx[a - 1], idx[b - 1], idx[c - 1], idx[e - 1] = i, j, k, l
        return tuple(idx)

    memo = {}

    def value(i, j, k, l):
        # induction on j + l, seeded by the old chart (j = 0 or l = 0)
        if j == 0 or l == 0:
            return p.values[key(i, j, k, l)]
        w = (i, j, k, l)
        if w not in memo:
            memo[w] = exchange(
                value(i + 1, j, k, l - 1), value(i, j - 1, k + 1, l),
                value(i, j, k + 1, l - 1), value(i + 1, j - 1, k, l),
                value(i + 1, j - 1, k + 1, l - 1))
        return memo[w]

    # weights of the face interiors: three positive parts summing to m
    inner = [(i, j, m - i - j) for i in range(1, m - 1) for j in range(1, m - i)]
    values = dict(p.values)
    for i in range(1, m):
        del values[key(i, 0, m - i, 0)]
        values[key(0, i, 0, m - i)] = value(0, i, 0, m - i)
    for i, j, k in inner:
        del values[key(i, j, k, 0)], values[key(i, 0, j, k)]
        values[key(i, j, 0, k)] = value(i, j, 0, k)
        values[key(0, i, j, k)] = value(0, i, j, k)
    return ChartPoint._of(t._flip(a, b, c, e), m, values)


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
