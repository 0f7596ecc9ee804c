"""Combinatorics of the labeled n-gon: triangulations, flips, charts.

Vertices are labeled 1..n counterclockwise.  ``cyclic_interval`` lists [p..q]
in closed form; ``cactus`` does its own ``% n + 1`` for mirrors and intervals.
A triangulation is built from its diagonals alone, checked by the
constructor or trusted by ``Triangulation._of``; both derive its faces and
its side map in ``_wrap``, the one place that says how faces follow from
diagonals.
"""

from functools import lru_cache
from itertools import combinations

from .flags import admissible_indices, check_index
from .rational import scalar, scalar_str


class PolygonError(ValueError):
    pass


def cyclic_interval(p, q, n):
    """Vertex labels of the cyclic interval [p..q] of 1..n, forward from p."""
    return [(p + k - 1) % n + 1 for k in range((q - p) % n + 1)]


class Triangulation:
    """A triangulation of the labeled n-gon by noncrossing diagonals.

    Besides its diagonals it holds its faces and its side map, ``_beyond``,
    which both constructors derive from the diagonals by ``_wrap``: no reader
    changes them, and they live as long as the triangulation does.  ``==``
    and ``hash`` read n and the diagonals only."""

    __slots__ = ("n", "diagonals", "_faces", "_beyond")

    def __init__(self, n, diagonals):
        if type(n) is not int:
            raise PolygonError("n must be an integer, got %r" % (n,))
        if n < 3:
            raise PolygonError("need at least 3 vertices")
        diags = set()
        for d in diagonals:
            if not all(type(x) is int for x in d):
                raise PolygonError("diagonal ends must be integers, got %r" % (d,))
            a, b = sorted(d)
            if not (1 <= a < b <= n):
                raise PolygonError("bad vertex pair (%d, %d)" % (a, b))
            if b - a in (1, n - 1):
                raise PolygonError("(%d, %d) is a boundary edge, not a diagonal" % (a, b))
            diags.add((a, b))
        if len(diags) != n - 3:
            raise PolygonError("a triangulation of the %d-gon needs %d diagonals, got %d"
                               % (n, n - 3, len(diags)))
        stack = []  # as for brackets: the nested diagonals that end past a
        for a, b in sorted(diags, key=lambda d: (d[0], -d[1])):
            while stack and stack[-1][1] <= a:
                stack.pop()
            if stack and stack[-1][1] < b:  # ends beyond the innermost
                raise PolygonError("diagonals %s and %s cross" % (stack[-1], (a, b)))
            stack.append((a, b))
        _wrap(self, n, frozenset(diags))

    @classmethod
    def _of(cls, n, diagonals):
        """Wrap a frozenset of ascending diagonal pairs as is, without
        checking; for triangulations derived from a valid one, such as by a
        flip."""
        return _wrap(object.__new__(cls), n, diagonals)

    @staticmethod
    def fan(n, apex=1):
        """The triangulation whose diagonals all end at ``apex``, one shared
        object per (n, apex): no triangulation is ever changed."""
        if type(n) is not int or type(apex) is not int or n < 3 or not 1 <= apex <= n:
            raise PolygonError("no fan at vertex %r of the %r-gon" % (apex, n))
        return _fan(n, apex)

    def __eq__(self, other):
        return (isinstance(other, Triangulation)
                and self.n == other.n and self.diagonals == other.diagonals)

    def __hash__(self):
        return hash((self.n, self.diagonals))

    def __repr__(self):
        return "Triangulation(%d, %s)" % (self.n, sorted(self.diagonals))

    def edges(self):
        """The boundary edges and diagonals, as ascending pairs: the sides
        of the faces."""
        return sorted({e for f in self._faces for e in combinations(f, 2)})

    def triangles(self):
        """The n-2 triangular faces, each as an ascending vertex triple, in
        ascending order."""
        return self._faces

    def quadrilateral(self, d):
        """The four vertices around diagonal d, in cyclic order (a, b, c, e)
        with d = {a, c} and a < c: the faces (a, b, c) and (c, e, a) beyond
        its two sides."""
        a, c = d = tuple(sorted(d))
        if d not in self.diagonals:
            raise PolygonError("%s is not a diagonal" % (d,))
        b, e = self._beyond.get((c, a)), self._beyond.get((a, c))
        if b is None or e is None:  # only trusted, crossing diagonals
            raise PolygonError("diagonal %s does not border two faces" % (d,))
        return (a, b, c, e)

    def flip(self, d):
        """Replace diagonal d by the opposite diagonal of its quadrilateral."""
        a, b, c, e = self.quadrilateral(d)
        return Triangulation._of(self.n, self.diagonals - {(a, c)} | {(b, e) if b < e else (e, b)})

    def to_json(self):
        return {"n": self.n, "diagonals": [list(d) for d in sorted(self.diagonals)]}

    @classmethod
    def from_json(cls, data):
        return cls(data["n"], data["diagonals"])


def _wrap(t, n, diagonals):
    """Set t's n, diagonals, faces and side map, the two derived from the
    frozenset of ascending pairs ``diagonals`` in one pass over one sort of
    them, with the edge (1, n) as the last pair at vertex 1: each pair (a, v)
    closes the face (a, u, v), u the end of the pair before it at a, or
    a + 1.  So the faces come out ascending, and ascending face triples run
    counterclockwise: (u, w, v) is a face exactly when ``t._beyond[v, u] ==
    w``, the third vertex of the face beyond side (v, u)."""
    faces, beyond = [], {}
    a = 0
    for x, v in sorted([*diagonals, (1, n)]):
        if x != a:
            a, u = x, x + 1
        faces.append((a, u, v))
        beyond[a, u], beyond[u, v], beyond[v, a] = v, a, u
        u = v
    t.n, t.diagonals, t._faces, t._beyond = n, diagonals, faces, beyond
    return t


@lru_cache(maxsize=None)
def _fan(n, apex):
    ends = [v for v in range(1, n + 1) if (v - apex) % n not in (0, 1, n - 1)]
    return Triangulation._of(n, frozenset((min(apex, v), max(apex, v)) for v in ends))


def _fan_flips(beyond, own, piece, apex):
    """The flips to the fan at ``apex`` inside ``piece``, an ascending vertex
    list bounded by polygon edges and diagonals outside ``own``, read off the
    faces whose ``_beyond`` map is given.  Flipping side (u, v) of face
    (apex, u, v) joins the apex to w for the face (u, w, v) beyond it: the
    counterclockwise quadrilateral (apex, u, w, v).  (u, w) and (w, v) then
    lie opposite the apex, with the original faces beyond them.  Callers:
    ``_flip_quadrilaterals`` on each piece of a flip path, and
    ``mutation._flip_toward`` on the whole polygon, for
    ``cactus._with_chord`` with ``own`` the diagonals crossing a chord and
    for ``reconstruct.charts_to_flags`` with ``own`` every diagonal not at
    vertex 1."""
    i = piece.index(apex)
    u, last = piece[(i + 1) % len(piece)], piece[i - 1]
    sides = []
    while u != last:  # the faces at the apex, counterclockwise
        v = beyond[apex, u]
        sides.append((u, v))
        u = v
    flips = []
    while sides:
        u, v = sides.pop()
        if ((u, v) if u < v else (v, u)) in own:
            w = beyond[v, u]
            flips.append((apex, u, w, v))
            sides += [(u, w), (w, v)]
    return flips


def _flip_quadrilaterals(t1, t2):
    """The flips of a path from t1 to t2 that never flips a diagonal of both
    (Sleator, Tarjan and Thurston), as counterclockwise quadrilaterals
    (a, b, c, e) flipping {a, c}, in the rotation the faces give: a > c may
    hold, and ``mutation._flip`` takes any rotation.

    The shared diagonals cut the polygon into pieces; flips in different
    pieces commute.  Each piece goes through the fan at its vertex with the
    most unshared diagonals of t1 and t2 in the piece (ties go to the lowest
    label), counted in one pass over the unshared diagonals per piece: a
    piece with k + 3 vertices takes k flips less the apex's diagonals in
    each half.
    """
    if t1.n != t2.n:
        raise PolygonError("triangulations of different polygons")
    shared = t1.diagonals & t2.diagonals
    own1, own2 = t1.diagonals - shared, t2.diagonals - shared
    own = own1 | own2
    # each piece is an ascending vertex list, its boundary counterclockwise
    pieces = [list(range(1, t1.n + 1))]
    for a, b in sorted(shared):
        s = next(s for s in pieces if a in s and b in s)
        pieces.remove(s)
        i, j = s.index(a), s.index(b)
        pieces += [s[i:j + 1], s[:i + 1] + s[j:]]
    beyond1, beyond2 = t1._beyond, t2._beyond
    path = []
    for s in pieces:
        if len(s) < 4:
            continue
        inside, degree = set(s), [0] * (t1.n + 1)
        for a, b in own:
            if a in inside and b in inside:
                degree[a] += 1
                degree[b] += 1
        apex = max(s, key=degree.__getitem__)  # the first, lowest, of the busiest
        path += [(u, w, v, a) for a, u, w, v in _fan_flips(beyond1, own1, s, apex)]
        # t2's created diagonals {apex, w}, flipped in reverse order, lead back to t2
        path += reversed(_fan_flips(beyond2, own2, s, apex))
    return path


def index_at(n, vertices, weights):
    """The multi-index of length n with weights[k] at vertex vertices[k],
    and 0 elsewhere."""
    idx = [0] * n
    for v, w in zip(vertices, weights):
        idx[v - 1] = w
    return tuple(idx)


def chart_indices(t, m):
    """All multi-indices supported on the faces of a triangulation.

    Each face contributes the chart of a triangle, ``admissible_indices(3,
    m)``, placed at its vertices; faces that share an edge share its
    indices, which count once.
    """
    if m < 2:
        raise PolygonError("need m >= 2")
    out = set()
    for a, b, c in t.triangles():
        # one list per face, rewritten for each weight: half the cost of an
        # index_at call per weight
        idx = [0] * t.n
        for i, j, k in admissible_indices(3, m):
            idx[a - 1], idx[b - 1], idx[c - 1] = i, j, k
            out.add(tuple(idx))
    return sorted(out)


def chart_dimension(n, m):
    """Closed-form count of chart coordinates."""
    if n < 3 or m < 2:
        raise PolygonError("need n >= 3 and m >= 2")
    return (n - 2) * (m + 1) * m // 2 + (m + 1) - n


class ChartPoint:
    """Positive values assigned to every chart index of a triangulation."""

    __slots__ = ("triangulation", "m", "values")

    def __init__(self, triangulation, m, values):
        self.values = _checked_values(triangulation, m, values)
        self.triangulation = triangulation
        self.m = m

    @classmethod
    def _of(cls, triangulation, m, values):
        """Wrap a dict of positive Fractions keyed by exactly the chart
        indices as is, without checking; for chart points the library
        makes, such as by flip transport or at random."""
        p = object.__new__(cls)
        p.triangulation = triangulation
        p.m = m
        p.values = values
        return p

    def __eq__(self, other):
        return (isinstance(other, ChartPoint)
                and self.triangulation == other.triangulation
                and self.m == other.m and self.values == other.values)

    def __repr__(self):
        return "ChartPoint(%r, m=%d)" % (self.triangulation, self.m)

    def to_json(self):
        key = _key_format(self.triangulation.n)
        return {
            "triangulation": self.triangulation.to_json(),
            "m": self.m,
            "values": {key % k: scalar_str(v) for k, v in sorted(self.values.items())},
        }

    @classmethod
    def from_json(cls, data):
        """Each key is read by one lookup of its ``to_json`` spelling, and parsed
        only when it is not one; the constructor's checks validate the point,
        on the one enumeration of the chart indices that spelled the keys."""
        t = Triangulation.from_json(data["triangulation"])
        values = data["values"]
        if not isinstance(values, dict):
            raise PolygonError("chart values must be an object keyed by chart indices")
        m, spelling, indices = data["m"], {}, None
        if type(m) is int and m >= 2 and len(values) == chart_dimension(t.n, m):
            indices = chart_indices(t, m)
            key = _key_format(t.n)
            spelling = {key % idx: idx for idx in indices}
        values = {spelling.get(k) or _parse_key(k): v for k, v in values.items()}
        return cls._of(t, m, _checked_values(t, m, values, indices))


def _checked_values(triangulation, m, values, indices=None):
    """The values as a dict of positive Fractions keyed by exactly the chart
    indices, ``indices`` when the caller has enumerated them."""
    if type(m) is not int:
        raise PolygonError("m must be an integer, got %r" % (m,))
    values = {tuple(k): scalar(v) for k, v in values.items()}
    # the closed-form count first, so that enumerating the chart indices
    # is bounded by the size of the input
    count = chart_dimension(triangulation.n, m)
    if len(values) != count or sorted(values) != (indices or chart_indices(triangulation, m)):
        raise PolygonError("chart values must be keyed by exactly the %d chart "
                           "indices" % count)
    for k, v in values.items():
        if v.numerator <= 0:  # a Fraction carries its sign on the numerator
            raise PolygonError("chart value at %s is %s, not positive"
                               % (k, scalar_str(v)))
    return values


@lru_cache(maxsize=256)
def _key_format(n):
    """The %-format that spells a chart index of length n as ``to_json`` does,
    "i,j,...,k"; the cache is bounded, as a malformed key may be any length."""
    return ",".join(["%d"] * n)


def _parse_key(k):
    """The index k spells, in ``to_json``'s spelling only: no value shadows another."""
    idx = tuple(int(x) for x in k.split(","))
    form = _key_format(len(idx)) % idx
    if k != form:
        raise PolygonError("chart index %r is not in the form %r" % (k, form))
    return idx


def edge_values(config, a, b, m):
    """The m-1 coordinates of a configuration supported on edge {a, b}.

    The indices share one support and one sum, so checking the first
    validates the edge and m for all of them (FlagError otherwise).
    """
    idxs = [index_at(config.n, (a, b), (i, m - i)) for i in range(1, m)]
    if idxs:
        check_index(idxs[0], config.n, config.m)
    return [config._delta(idx) for idx in idxs]


def glue_check(assignment, t):
    """Whether per-triangle configurations agree along every shared diagonal.

    ``assignment`` maps each ascending triangle triple of ``t`` to an n=3
    Configuration whose flags sit at the triple's vertices in order.  True
    iff for every internal edge the two induced edge restrictions carry
    identical coordinates.
    """
    if sorted(assignment) != t.triangles():
        raise PolygonError("assignment keys must be the triangles of the triangulation")
    m = next(iter(assignment.values())).m
    for c in assignment.values():
        if c.n != 3 or c.m != m:
            raise PolygonError("each triangle needs an n=3 configuration of matching m")
    for d in t.diagonals:
        a, b, c, e = t.quadrilateral(d)
        vals = []
        for tri in (tuple(sorted((a, b, c))), tuple(sorted((a, c, e)))):
            pa, pb = tri.index(d[0]) + 1, tri.index(d[1]) + 1
            vals.append(edge_values(assignment[tri], pa, pb, m))
        if vals[0] != vals[1]:
            return False
    return True
