"""Discrepancy calculus on resolution dual graphs.

For a graph with intersection matrix M we solve, in exact rationals,

    M e = -kappa,   kappa_i = weight_i - 2,
    M d = -a,       a_i = local intersection multiplicities of a curve,

and derive b = d + e and the log discrepancies f = 1 - b.  The pairing
<a, b> decides whether a curve configuration keeps (K + C . C) <= 0, and
the closed-form expressions below reproduce f vertex by vertex from
subgraph determinants alone.

With delta = det(-M) and adj its adjugate, delta*d = adj.a and
delta*e = adj.kappa are integer vectors.  The incidence sweep therefore
checks everything as integer identities: the pairing as delta*<a, b>
against 2*delta, and each display, cross-multiplied by delta, as
delta*f_v = delta - (adj.a)_v - (adj.kappa)_v.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .graphs import (
    InvariantError,
    NotNegativeDefiniteError,
    _pivot_determinant,
    _tree_elimination,
    _tree_solve,
    format_graph,
    is_negative_definite,
)

LOG_RESOLUTION = "LogResolution"
ALMOST_LC_A = "AlmostLC_a"
ALMOST_LC_B = "AlmostLC_b"
ALMOST_LC_C = "AlmostLC_c"
REJECTED = "Rejected"
UNSUPPORTED = "Unsupported"  # a sweep row whose support pattern no case covers


class IndexMismatchError(ValueError):
    pass


class ZeroIncidenceError(ValueError):
    pass


class AllDuValError(ValueError):
    pass


class UnsupportedConfigurationError(ValueError):
    pass


_ND_CACHE = {}


def _require_usable(g):
    if g.is_empty():
        raise ValueError("graph must be nonempty")
    key = (g.vertices, g.edges)
    nd = _ND_CACHE.get(key)
    if nd is None:
        nd = is_negative_definite(g)
        _ND_CACHE[key] = nd
    if not nd:
        raise NotNegativeDefiniteError(f"{format_graph(g)} is not negative definite")


_GRAPH_CACHE = {}


def _structural_key(g):
    # hash by literal vertex order, not canonical form: the cached vectors
    # and matrices are indexed by g.vertices
    return (g.vertices, g.edges)


def _continuants(weights):
    """det(-M) of the first k vertices of a chain with these weights, for
    k = 0..len(weights): 1, w1, w1 w2 - 1, ..."""
    out = [1]
    below = 0
    for w in weights:
        out.append(w * out[-1] - below)
        below = out[-2]
    return out


class _Shape:
    """Vertex positions of a chain or star, and the subgraph determinants
    (det of -M on a vertex subset) that the closed-form displays read.

    Chain: `order` lists the positions end to end, `at[p]` is the index of
    position p in it, and `pre[k]` / `suf[k]` are the determinants of the
    first k vertices of the order and of all but the first k.

    Star: `center`, and `at[p]` = (branch, index from the center outward)
    for every other position p; `d[b]` is the determinant of branch b,
    `outer[b][k]` that of branch b from its k-th vertex outward, and
    `trunc[b][k]` that of the whole graph with branch b cut down to its
    first k vertices.
    """

    def __init__(self, g):
        index = {v: i for i, (v, _) in enumerate(g.vertices)}
        weights = [w for _, w in g.vertices]
        self.chain = g.is_chain()
        if self.chain:
            self.order = [index[v] for v in g.chain_order()]
            self.at = {p: k for k, p in enumerate(self.order)}
            ws = [weights[p] for p in self.order]
            self.pre = _continuants(ws)
            self.suf = _continuants(ws[::-1])[::-1]
            return
        center, branches = g.star_parts()
        c = self.center = index[center]
        branches = [[index[v] for v in br] for br in branches]
        self.at = {p: (b, k) for b, br in enumerate(branches) for k, p in enumerate(br)}
        self.outer = [_continuants([weights[p] for p in br][::-1])[::-1] for br in branches]
        self.d = [s[0] for s in self.outer]
        self.trunc = []
        for b, br in enumerate(branches):
            s, t = (self.outer[j] for j in range(3) if j != b)
            # trunc[b][0] expands along the center, then joining two branches;
            # trunc[b][k] along the k-th vertex of branch b, a leaf there:
            # w * trunc[b][k - 1] - trunc[b][k - 2], where one step below 0
            # (the center cut away too) leaves the other two branches
            below = s[0] * t[0]
            cur = weights[c] * s[0] * t[0] - s[1] * t[0] - s[0] * t[1]
            row = [cur]
            for p in br:
                below, cur = cur, weights[p] * cur - below
                row.append(cur)
            self.trunc.append(row)


@dataclass(frozen=True, eq=False)
class _GraphData:
    """The per-graph record: delta = det(-M), the adjugate of -M, e, kappa
    and adj.kappa = delta*e, with the shape built on first use."""

    g: object
    delta: int
    adj: list
    e: tuple
    kappa: tuple
    adj_kappa: tuple

    @cached_property
    def shape(self):
        return _Shape(self.g)


def _graph_data(g):
    """The _GraphData of a negative definite graph, cached.

    adjugate/delta is the inverse of -M, so solves of M x = -rhs reduce to
    one integer matrix-vector product.  delta is the pivot product of one
    tree elimination, and the adjugate takes n tree solves, O(n^2) in all.
    """
    key = _structural_key(g)
    hit = _GRAPH_CACHE.get(key)
    if hit is not None:
        return hit
    elimination = _tree_elimination(g)
    if elimination is None:
        raise NotNegativeDefiniteError(f"{format_graph(g)} is not negative definite")
    delta = _pivot_determinant(elimination[2])
    if delta <= 0:
        raise InvariantError(f"det(-M) = {delta} of a negative definite graph is not positive")
    n = len(g.vertices)
    # -M is symmetric, so the solve for delta times the j-th unit vector is
    # row j of the adjugate
    adj = [
        _tree_solve(elimination, [delta if i == j else 0 for i in range(n)])
        for j in range(n)
    ]
    if any(x.denominator != 1 for row in adj for x in row):
        raise InvariantError(f"adjugate of {format_graph(g)} is not integral")
    adj = [[int(x) for x in row] for row in adj]
    kappa = tuple(w - 2 for _, w in g.vertices)
    adj_kappa = tuple(sum(r * k for r, k in zip(row, kappa)) for row in adj)
    e = tuple(Fraction(x, delta) for x in adj_kappa)
    data = _GraphData(g, delta, adj, e, kappa, adj_kappa)
    _GRAPH_CACHE[key] = data
    return data


def _check_incidence(g, a):
    if len(a) != len(g.vertices):
        raise IndexMismatchError(
            f"incidence vector has {len(a)} entries for {len(g.vertices)} vertices"
        )
    if any(x < 0 for x in a):
        raise IndexMismatchError("incidence entries must be >= 0")


def discrepancies(g):
    """Coefficients e with M e = -kappa, ordered like g.vertices.

    Entries are >= 0 since -M^{-1} has nonnegative entries; they stay < 1
    exactly for klt graphs (a few negative definite stars, e.g.
    [2;[2],[4],[4]], are log canonical but not klt and reach e = 1).
    """
    _require_usable(g)
    e = _graph_data(g).e
    if any(x < 0 for x in e):
        raise InvariantError(f"negative discrepancy {e} on {format_graph(g)}")
    return e


@dataclass(frozen=True)
class DiscrepancyData:
    a: tuple
    d: tuple
    e: tuple
    b: tuple
    f: tuple

    @property
    def pairing(self):
        """<a, b>."""
        return sum(ai * bi for ai, bi in zip(self.a, self.b))


def pair_coefficients(g, a):
    _require_usable(g)
    a = tuple(int(x) for x in a)
    _check_incidence(g, a)
    data = _graph_data(g)
    delta, adj, e = data.delta, data.adj, data.e
    n = len(a)
    d = tuple(
        Fraction(sum(adj[i][j] * a[j] for j in range(n)), delta) for i in range(n)
    )
    if any(x < 0 for x in d):
        raise InvariantError(f"negative coefficient {d} for incidence {a}")
    b = tuple(di + ei for di, ei in zip(d, e))
    f = tuple(1 - bi for bi in b)
    return DiscrepancyData(a, d, e, b, f)


def selfint_kc(g, a, pa=0):
    """(K + C . C) for a curve of arithmetic genus pa meeting the graph in a."""
    if pa < 0:
        raise ValueError("arithmetic genus must be >= 0")
    if g.is_empty():
        if any(a):
            raise IndexMismatchError("nonzero incidence on the empty graph")
        return Fraction(2 * (pa - 1))
    return 2 * (pa - 1) + pair_coefficients(g, a).pairing


def _scaled_pairing(data, a):
    """delta*<a, b> = sum over the support of a_i ((adj.a)_i + (adj.kappa)_i)."""
    adj, ak = data.adj, data.adj_kappa
    return sum(
        ai * (sum(r * x for r, x in zip(adj[i], a)) + ak[i])
        for i, ai in enumerate(a)
        if ai
    )


def pairing_scaled(g, a):
    """<a, b> times the graph determinant, as an integer.

    Avoids rational arithmetic in brute-force sweeps: <a, b> <= 2 iff
    pairing_scaled(g, a) <= 2 * graph_determinant(g).
    """
    _require_usable(g)
    return _scaled_pairing(_graph_data(g), a)


@dataclass(frozen=True)
class IncidenceClassification:
    verdicts: tuple  # one or two of the verdict constants
    case: str  # which shape case fired, "1a".."2f"; None for UNSUPPORTED
    pairing: Fraction

    @property
    def verdict(self):
        return self.verdicts[0]


def _support_case(shape, support):
    """Shape label of the incidence support: 1a-1c on chains, 2a-2f on stars."""
    if shape.chain:
        return {1: "1a", 2: "1b"}.get(len(support), "1c")
    if len(support) == 1:
        return "2a" if support[0] == shape.center else "2b"
    if len(support) == 2:
        i, j = support
        if shape.center in support:
            return "2e"
        return "2d" if shape.at[i][0] == shape.at[j][0] else "2c"
    return "2f"


def _classify(data, a, support, scaled):
    """classify_incidence from the scaled pairing delta*<a, b>."""
    pairing = Fraction(scaled, data.delta)
    shape = data.shape
    case = _support_case(shape, support)
    if scaled > 2 * data.delta:
        return IncidenceClassification((REJECTED,), case, pairing)
    if len(support) == 1 and a[support[0]] == 1:
        return IncidenceClassification((LOG_RESOLUTION,), case, pairing)
    if len(a) == 1 and a[0] == 2:
        # a single curve meeting one exceptional curve twice: tangency and a
        # pair of transverse branches give the same incidence vector
        return IncidenceClassification((ALMOST_LC_A, ALMOST_LC_B), case, pairing)
    if (
        shape.chain
        and len(support) == 2
        and all(a[i] == 1 for i in support)
        and set(support) == {shape.order[0], shape.order[-1]}
    ):
        return IncidenceClassification((ALMOST_LC_C,), case, pairing)
    raise UnsupportedConfigurationError(
        f"pairing {pairing} <= 2 on unexpected support pattern (case {case})"
    )


def classify_incidence(g, a):
    _require_usable(g)
    a = tuple(int(x) for x in a)
    _check_incidence(g, a)
    if not any(a):
        raise ZeroIncidenceError("incidence vector is zero")
    data = _graph_data(g)
    support = [i for i, x in enumerate(a) if x]
    return _classify(data, a, support, _scaled_pairing(data, a))


# -- closed-form log discrepancies -------------------------------------------


def _display_scaled(shape, a, support, vertex):
    """delta*f at a support vertex by the display for the support pattern,
    or None where no display covers it.  Each display is
    (product of subgraph determinants / delta) * (sum of reciprocals),
    multiplied out here by delta."""
    if len(support) > 2 or (len(support) == 2 and any(a[i] != 1 for i in support)):
        return None
    other = sum(support) - vertex  # the other support vertex, if there is one
    if shape.chain:
        # the meeting points split the chain; g1 and g3 are the outer parts
        k = shape.at[vertex]
        pre, suf = shape.pre, shape.suf
        if len(support) == 1:
            g1, g2 = pre[k], suf[k + 1]
            return g1 + g2 - a[vertex] * g1 * g2
        j = shape.at[other]
        if k < j:
            g1, g3, g23 = pre[k], suf[j + 1], suf[k + 1]
        else:
            g1, g3, g23 = suf[k + 1], pre[j], pre[k]
        return g23 * (1 - g1) + g1 * (1 - g3)

    c, d, outer, trunc = shape.center, shape.d, shape.outer, shape.trunc
    if len(support) == 1 and vertex == c:
        d1, d2, d3 = d
        return d2 * d3 + d1 * d3 + d1 * d2 - (1 + a[c]) * d1 * d2 * d3
    if c in support:
        bi, k = shape.at[sum(support) - c]
        d1 = d[bi]
        d2, d3 = (d[j] for j in range(3) if j != bi)
        g11 = outer[bi][k + 1]
        if vertex == c:
            return d2 * d3 + d1 * d3 + d1 * d2 - 2 * d1 * d2 * d3 - g11 * d2 * d3
        x = (d2 - 1) * (d3 - 1)
        gp = trunc[bi][k]
        return g11 * (1 - x) + gp * (1 - g11) - g11 * d2 * d3

    bi, k = shape.at[vertex]
    d2, d3 = (d[j] for j in range(3) if j != bi)
    x = (d2 - 1) * (d3 - 1)
    g11 = outer[bi][k + 1]  # the branch beyond the vertex
    if len(support) == 1:
        gp = trunc[bi][k]
        return g11 * (1 - x) + gp - a[vertex] * g11 * gp
    bj, j = shape.at[other]
    if bj != bi:
        g21 = outer[bj][j + 1]
        gp = trunc[bi][k]
        return g11 * (1 - x) + gp * (1 - g11) - g11 * g21 * d[3 - bi - bj]
    # both points on one branch: v1 farther from the center, v2 nearer
    i1, i2 = max(k, j), min(k, j)
    g11 = outer[bi][i1 + 1]
    gc = outer[bi][i2 + 1]
    ga, gb = trunc[bi][i1], trunc[bi][i2]
    if k == i1:
        return g11 * (1 - x) + ga * (1 - g11) - g11 * gb
    return gc * (1 - x) + gb * (1 - gc) - gb * g11


def closed_form_scaled(g, a, vertex):
    """delta*f at the given vertex position, as an integer, by the displayed
    determinant formula matching the support pattern; raises if no display
    covers (g, a, vertex)."""
    _require_usable(g)
    a = tuple(int(x) for x in a)
    _check_incidence(g, a)
    support = [i for i, x in enumerate(a) if x]
    if vertex not in support:
        raise UnsupportedConfigurationError("vertex is not in the support")
    shape = _graph_data(g).shape
    out = _display_scaled(shape, a, support, vertex)
    if out is None:
        kind = "chain" if shape.chain else "star"
        raise UnsupportedConfigurationError(f"no {kind} display for this support")
    return out


def closed_form_f(g, a, vertex):
    """f at the given vertex position, by the displayed determinant formula
    matching the support pattern; raises if no display covers (g, a, vertex)."""
    return Fraction(closed_form_scaled(g, a, vertex), _graph_data(g).delta)


# -- incidence sweep -----------------------------------------------------------


def _multisets(n, total):
    """Every incidence vector on n vertices with entries summing to total, as
    its support positions repeated by multiplicity (a sorted tuple), in
    lexicographic order of the vectors."""
    return reversed(list(itertools.combinations_with_replacement(range(n), total)))


def incidence_sweep(g, max_a):
    """Every nonzero incidence vector with entries summing to at most max_a,
    by sum and then in lexicographic order, checked in integers.

    Yields (a, dd, scaled, cls, displays, mismatches) per vector: dd =
    delta*d = adj.a, scaled = delta*<a, b>, cls the classification when
    <a, b> <= 2 (verdict UNSUPPORTED, case None, where no case covers the
    support) and None above 2, displays the number of support vertices a
    closed-form display covers, and mismatches how many of those displays
    disagree with the solver.  Each vector is one unit step from a vector of
    the previous sum, so dd costs one row addition and scaled O(1); the
    sweep keeps reading dd, so callers must not modify it.
    """
    _require_usable(g)
    data = _graph_data(g)
    delta, adj, ak = data.delta, data.adj, data.adj_kappa
    shape = data.shape
    n = len(adj)
    # delta*<a + e_j, b> - delta*<a, b> = 2 (adj.a)_j + adj_jj + (adj.kappa)_j
    step = [adj[j][j] + ak[j] for j in range(n)]
    below = {(): ((0,) * n, [0] * n, 0)}
    for total in range(1, max_a + 1):
        level = {}
        for m in _multisets(n, total):
            a, dd, scaled = below[m[:-1]]
            j = m[-1]
            scaled += 2 * dd[j] + step[j]
            a = a[:j] + (a[j] + 1,) + a[j + 1 :]
            dd = list(map(operator.add, dd, adj[j]))
            if min(dd) < 0:
                raise InvariantError(f"negative coefficient {dd}/{delta} for incidence {a}")
            if total < max_a:
                level[m] = a, dd, scaled
            cls = None
            if scaled <= 2 * delta:
                try:
                    cls = _classify(data, a, sorted(set(m)), scaled)
                except UnsupportedConfigurationError:
                    cls = IncidenceClassification((UNSUPPORTED,), None, Fraction(scaled, delta))
            # the displays cover one point of any multiplicity and two
            # points of multiplicity one
            covered = (j,) if m[0] == j else m if total == 2 else ()
            mismatches = 0
            for v in covered:
                mismatches += _display_scaled(shape, a, covered, v) != delta - dd[v] - ak[v]
            yield a, dd, scaled, cls, len(covered), mismatches
        below = level


def lct_min_resolution(g, a):
    """min (1 - e_i)/d_i over vertices with d_i > 0; exact whenever the
    minimal resolution already resolves the pair, an upper bound otherwise."""
    data = pair_coefficients(g, a)
    if not any(data.a):
        raise ZeroIncidenceError("incidence vector is zero")
    return min((1 - ei) / di for di, ei in zip(data.d, data.e) if di > 0)


# -- whole-type quantities ----------------------------------------------------


def cartier_index(t):
    """Smallest r making rK integral at every singularity: the lcm of the
    denominators of all e entries."""
    r = 1
    for g in t.components:
        for x in discrepancies(g):
            r = math.lcm(r, x.denominator)
    return r


def anticanonical_selfint(t):
    """K^2 of the rank-one surface with this singularity type: (9 - n) plus
    the discrepancy correction sum e_i (weight_i - 2)."""
    n = sum(len(g.vertices) for g in t.components)
    total = Fraction(9 - n)
    for g in t.components:
        e = discrepancies(g)
        total += sum(
            ei * (w - 2) for ei, (_, w) in zip(e, g.vertices)
        )
    return total


def is_klt(t):
    return all(all(x < 1 for x in discrepancies(g)) for g in t.components)


def select_hunt_divisor(t):
    """(component, vertex id, e) of the extraction target: the largest
    discrepancy coefficient among star centers and non-(-2) chain vertices."""
    best = None
    for g in t.sorted_components():
        g = g.canonical()
        e = discrepancies(g)
        if g.is_chain():
            candidates = [
                (i, v) for i, (v, w) in enumerate(g.vertices) if w >= 3
            ]
        else:
            c = g.center()
            candidates = [(i, v) for i, (v, _) in enumerate(g.vertices) if v == c]
        for i, v in candidates:
            if e[i] > 0 and (best is None or e[i] > best[2]):
                best = (g, v, e[i])
    if best is None:
        raise AllDuValError("every component is Du Val; no hunt divisor")
    return best
