"""Discrepancy calculus on resolution dual graphs.

For a graph with intersection matrix M we solve, in exact rationals,

    M e = -kappa,   kappa_i = weight_i - 2,
    M d = -a,       a_i = local intersection multiplicities of a curve,

and derive b = d + e and the log discrepancies f = 1 - b.  The pairing
<a, b> decides whether a curve configuration keeps (K + C . C) <= 0, and
the closed-form expressions below reproduce f vertex by vertex from
subgraph determinants alone.

With delta = det(-M) and adj its adjugate, delta*d = adj.a and
delta*e = adj.kappa are integer vectors, each an O(n) sum of products of
the subgraph determinants (continuants) of the chain or star.  The
incidence sweep therefore checks everything as integer identities: the
pairing as delta*<a, b> against 2*delta, and each display,
cross-multiplied by delta, as delta*f_v = delta - (adj.a)_v - (adj.kappa)_v.
The whole-type quantities read the same integers: per component,
sum e_i kappa_i = kappa.adj.kappa / delta, e < 1 exactly when
adj.kappa < delta, and the lcm of the denominators of e is
delta / gcd(delta, adj.kappa).  Fractions are made only at the output
edge: e itself, the lct bound, K^2, the hunt coefficient, one error message.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .graphs import (
    InvariantError,
    NotNegativeDefiniteError,
    _Shape,
    format_graph,
    graph_determinant,
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


def _require_usable(g):
    """The _GraphData of a nonempty negative definite graph, built on first
    use and kept on the graph object itself, so a kept record is one that
    passed the checks below.

    delta and the shape come from `graphs`, adj.kappa from the continuants
    of the shape in O(n), and the adjugate, when asked for, in O(n^2), all
    of them integers.
    """
    data = vars(g).get("_data")
    if data is None:
        if g.is_empty():
            raise ValueError("graph must be nonempty")
        if not is_negative_definite(g):
            raise NotNegativeDefiniteError(f"{format_graph(g)} is not negative definite")
        delta = graph_determinant(g)
        shape = g._shape
        kappa = tuple(w - 2 for w in g.weights)
        adj_kappa = tuple(_adj_times(shape, kappa))
        if min(adj_kappa) < 0:
            raise InvariantError(f"negative discrepancy {adj_kappa}/{delta} on {format_graph(g)}")
        # stored the way a cached_property stores, past the frozen dataclass
        data = vars(g)["_data"] = _GraphData(shape, delta, kappa, adj_kappa)
    return data


def _adj_times(shape, x):
    """adj(-M).x for an integer vector x by walk position, in O(n) integers.

    On a tree, the (u, v) entry of the adjugate of -M is the determinant of
    -M on the forest left when the u-v path is deleted (every path edge
    carries -1 in -M, so no sign appears; Eisenbud-Neumann 1985).  On a
    chain that is pre[i] * suf[j + 1] for positions i <= j.  On a star it
    is d of the other two branches times outer[b][k + 1] between the center
    and (b, k); trunc[b][i] * outer[b][j + 1] between (b, i) and
    (b, j) with i <= j; and outer[b][i + 1] * outer[b'][j + 1] * d[b'']
    between (b, i) and (b', j) on different branches.  The sums over v run
    as prefix and suffix sums along each path.
    """
    out = [0] * len(x)
    if shape.chain:
        pre, suf = shape.pre, shape.suf
        # low[i] = sum over j <= i of pre[j] x_j
        low = list(itertools.accumulate(map(operator.mul, pre, x)))
        high = 0  # sum over j > i of suf[j + 1] x_j
        for i in reversed(range(len(x))):
            out[i] = suf[i + 1] * low[i] + pre[i] * high
            high += suf[i + 1] * x[i]
        return out
    d, outer, trunc = shape.d, shape.outer, shape.trunc
    others = (d[1] * d[2], d[0] * d[2], d[0] * d[1])  # d of the other two branches
    tails = [sum(x[p] * outer[b][k + 1] for k, p in enumerate(br))
             for b, br in enumerate(shape.branches)]
    out[0] = d[0] * others[0] * x[0] + sum(map(operator.mul, others, tails))
    for b, br in enumerate(shape.branches):
        # near: the terms of the center, of the other two branches and of
        # branch b before (b, i), each a multiple of outer[b][i + 1]; far:
        # those of (b, i) and beyond it, each a multiple of trunc[b][i]
        near = others[b] * x[0] + sum(d[3 - b - o] * tails[o] for o in range(3) if o != b)
        far = tails[b]
        for i, p in enumerate(br):
            out[p] = outer[b][i + 1] * near + trunc[b][i] * far
            near += trunc[b][i] * x[p]
            far -= outer[b][i + 1] * x[p]
    return out


def _adjugate(shape, n):
    """adj(-M) as n rows by walk position, each entry set directly by the product
    formula in _adj_times's docstring, O(n^2) in all; the two entries of a
    symmetric pair are one integer."""
    rows = [[0] * n for _ in range(n)]
    if shape.chain:
        pre, suf = shape.pre, shape.suf
        for i in range(n):
            row, left = rows[i], pre[i]
            for j in range(i, n):
                row[j] = rows[j][i] = left * suf[j + 1]
        return rows
    d, outer, trunc = shape.d, shape.outer, shape.trunc
    branches = shape.branches
    others = (d[1] * d[2], d[0] * d[2], d[0] * d[1])  # d of the other two branches
    rows[0][0] = d[0] * others[0]
    for b, br in enumerate(branches):
        for i, p in enumerate(br):
            row, beyond = rows[p], outer[b][i + 1]
            row[0] = rows[0][p] = others[b] * beyond
            for j in range(i, len(br)):
                q = br[j]
                row[q] = rows[q][p] = trunc[b][i] * outer[b][j + 1]
            for o in range(b + 1, 3):
                f = beyond * d[3 - b - o]
                for j, q in enumerate(branches[o]):
                    row[q] = rows[q][p] = f * outer[o][j + 1]
    return rows


@dataclass(frozen=True, eq=False)
class _GraphData:
    """The per-graph record: delta = det(-M), kappa and adj.kappa = delta*e,
    all integers, with the adjugate of -M built on first use."""

    shape: _Shape
    delta: int
    kappa: tuple
    adj_kappa: tuple

    @cached_property
    def adj(self):
        """adj(-M) as a list of rows, each checked >= 0, so that adj.a >= 0
        for every a >= 0; only the incidence sweep needs it whole.  Row j is
        adj.a for the unit vector at j, and the rows are checked in the order
        the sweep meets the unit vectors, so an error names the first vector
        of the sweep that breaks the check."""
        n = len(self.kappa)
        rows = _adjugate(self.shape, n)
        for j in reversed(range(n)):
            if min(rows[j]) < 0:
                a = tuple(int(i == j) for i in range(n))
                raise InvariantError(f"negative coefficient {rows[j]}/{self.delta} for incidence {a}")
        return rows


def _check_incidence(g, a):
    """a as a tuple of ints, one per vertex of g, none negative."""
    a = tuple(int(x) for x in a)
    if len(a) != len(g.weights):
        raise IndexMismatchError(
            f"incidence vector has {len(a)} entries for {len(g.weights)} vertices"
        )
    if any(x < 0 for x in a):
        raise IndexMismatchError("incidence entries must be >= 0")
    return a


def discrepancies(g):
    """Coefficients e with M e = -kappa, ordered like g.vertices.

    Entries are >= 0 since -M^{-1} has nonnegative entries; they stay < 1
    exactly for klt graphs (a few negative definite stars, e.g.
    [2;[2],[4],[4]], are log canonical but not klt and reach e = 1).
    These are the Fractions adj.kappa / delta of scaled_discrepancies.
    """
    data = _require_usable(g)
    return tuple(Fraction(x, data.delta) for x in data.adj_kappa)


def scaled_discrepancies(g):
    """(delta, adj.kappa): delta = det(-M) and the integers delta*e, ordered
    like g.vertices, for the callers that write e without Fractions."""
    data = _require_usable(g)
    return data.delta, data.adj_kappa


@dataclass(frozen=True)
class IncidenceClassification:
    verdicts: tuple  # one or two of the verdict constants
    case: str  # which shape case fired, "1a".."2f"; None for UNSUPPORTED
    scaled: int  # delta*<a, b>: the pairing <a, b> times det(-M)

    @property
    def verdict(self):
        return self.verdicts[0]


def _support_case(shape, support):
    """Shape label of the incidence support: 1a-1c on chains, 2a-2f on stars."""
    if shape.chain:
        return {1: "1a", 2: "1b"}.get(len(support), "1c")
    if len(support) == 1:
        return "2a" if support[0] == 0 else "2b"  # the center is position 0
    if len(support) == 2:
        i, j = support
        if 0 in support:
            return "2e"
        return "2d" if shape.at[i][0] == shape.at[j][0] else "2c"
    return "2f"


def _classify(data, a, support, scaled):
    """classify_incidence from the scaled pairing delta*<a, b>."""
    shape = data.shape
    case = _support_case(shape, support)
    if scaled > 2 * data.delta:
        return IncidenceClassification((REJECTED,), case, scaled)
    if len(support) == 1 and a[support[0]] == 1:
        return IncidenceClassification((LOG_RESOLUTION,), case, scaled)
    if len(a) == 1 and a[0] == 2:
        # a single curve meeting one exceptional curve twice: tangency and a
        # pair of transverse branches give the same incidence vector
        return IncidenceClassification((ALMOST_LC_A, ALMOST_LC_B), case, scaled)
    if (
        shape.chain
        and len(support) == 2
        and all(a[i] == 1 for i in support)
        and set(support) == {0, len(a) - 1}
    ):
        return IncidenceClassification((ALMOST_LC_C,), case, scaled)
    raise UnsupportedConfigurationError(
        f"pairing {Fraction(scaled, data.delta)} <= 2 on unexpected support pattern (case {case})"
    )


def classify_incidence(g, a):
    data = _require_usable(g)
    a = _check_incidence(g, a)
    if not any(a):
        raise ZeroIncidenceError("incidence vector is zero")
    support = [i for i, x in enumerate(a) if x]
    # delta*<a, b> = sum of a_i ((adj.a)_i + (adj.kappa)_i)
    dd, ak = _adj_times(data.shape, a), data.adj_kappa
    return _classify(data, a, support, sum(a[i] * (dd[i] + ak[i]) for i in support))


# -- closed-form log discrepancies -------------------------------------------


def _display_scaled(shape, a, support, vertex):
    """delta*f at a support vertex by the display for the support pattern,
    which must be one point or two points of multiplicity one.  Each display
    is (product of subgraph determinants / delta) * (sum of reciprocals),
    multiplied out here by delta."""
    other = sum(support) - vertex  # the other support vertex, if there is one
    if shape.chain:
        # the meeting points split the chain; g1 and g3 are the outer parts
        k, j = vertex, other
        pre, suf = shape.pre, shape.suf
        if len(support) == 1:
            g1, g2 = pre[k], suf[k + 1]
            return g1 + g2 - a[vertex] * g1 * g2
        if k < j:
            g1, g3, g23 = pre[k], suf[j + 1], suf[k + 1]
        else:
            g1, g3, g23 = suf[k + 1], pre[j], pre[k]
        return g23 * (1 - g1) + g1 * (1 - g3)

    d, outer, trunc = shape.d, shape.outer, shape.trunc
    if len(support) == 1 and vertex == 0:  # the center
        d1, d2, d3 = d
        return d2 * d3 + d1 * d3 + d1 * d2 - (1 + a[0]) * d1 * d2 * d3
    if 0 in support:
        bi, k = shape.at[sum(support)]
        d1 = d[bi]
        d2, d3 = d[bi - 2], d[bi - 1]  # the other two branches
        g11 = outer[bi][k + 1]
        if vertex == 0:
            return d2 * d3 + d1 * d3 + d1 * d2 - 2 * d1 * d2 * d3 - g11 * d2 * d3
        x = (d2 - 1) * (d3 - 1)
        gp = trunc[bi][k]
        return g11 * (1 - x) + gp * (1 - g11) - g11 * d2 * d3

    bi, k = shape.at[vertex]
    d2, d3 = d[bi - 2], d[bi - 1]  # the other two branches
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


# -- incidence sweep -----------------------------------------------------------


@lru_cache(maxsize=8)
def _sweep_plan(n, max_a):
    """The incidence sweep on n vertices up to max_a, the same for every
    graph: (steps, covered).  steps lists each nonzero vector with entries
    summing to at most max_a, by sum and then in lexicographic order, as
    (a, parent, j, support, pa, psupport): a = pa + e_j, parent the index
    of pa counted from 1 (0 for the zero vector), and the sorted supports
    of a and pa.  covered lists the entries of steps whose support vertices
    all have a closed-form display: one point of any multiplicity, or two
    points of multiplicity one."""
    steps = []
    covered = []
    below = [(0, (0,) * n, 0, ())]  # (index, a, last step, support)
    for total in range(1, max_a + 1):
        level = []
        for parent, pa, last, psupport in below:
            # a vector steps at j from n - 1 down to its own last step
            for j in range(n - 1, last - 1, -1):
                a = pa[:j] + (pa[j] + 1,) + pa[j + 1 :]
                support = psupport if j == last and total > 1 else psupport + (j,)
                entry = (a, parent, j, support, pa, psupport)
                steps.append(entry)
                if total < max_a:
                    level.append((len(steps), a, j, support))
                if len(support) == 1 or total == 2:
                    covered.append(entry)
        below = level
    # tuples: every caller of the cache shares them
    return tuple(steps), tuple(covered)


def incidence_sweep(g, max_a):
    """Every nonzero incidence vector with entries summing to at most max_a,
    by sum and then in lexicographic order, checked in integers.

    Yields (a, scaled, cls) per vector: scaled = delta*<a, b>, and cls the
    classification when <a, b> <= 2 (verdict UNSUPPORTED, case None, where
    no case covers the support) and None above 2.  Each vector a = p + e_j
    of the plan costs O(|support of p|): delta*<a, b> - delta*<p, b> =
    2 (adj.p)_j + adj_jj + (adj.kappa)_j.
    """
    data = _require_usable(g)
    delta, adj, ak = data.delta, data.adj, data.adj_kappa
    n = len(adj)
    step = [adj[j][j] + ak[j] for j in range(n)]
    bound = 2 * delta
    scaled = [0]  # by index in the sweep, the zero vector first
    for a, parent, j, support, pa, psupport in _sweep_plan(n, max_a)[0]:
        row = adj[j]
        s = scaled[parent] + step[j]
        for i in psupport:
            s += 2 * pa[i] * row[i]
        scaled.append(s)
        cls = None
        if s <= bound:
            try:
                cls = _classify(data, a, support, s)
            except UnsupportedConfigurationError:
                cls = IncidenceClassification((UNSUPPORTED,), None, s)
        yield a, s, cls


def closed_form_check(g, max_a):
    """(cases, mismatches) over the incidence sweep up to max_a: how many
    support vertices a closed-form display covers, and at how many of those
    the display disagrees with the solver, delta*f_v = delta - (adj.a)_v -
    (adj.kappa)_v, with (adj.a)_v summed over the support."""
    data = _require_usable(g)
    delta, adj, ak, shape = data.delta, data.adj, data.adj_kappa, data.shape
    cases = mismatches = 0
    for a, _, _, support, _, _ in _sweep_plan(len(ak), max_a)[1]:
        for v in support:
            row = adj[v]
            dd = 0
            for i in support:
                dd += a[i] * row[i]
            mismatches += _display_scaled(shape, a, support, v) != delta - dd - ak[v]
        cases += len(support)
    return cases, mismatches


def lct_min_resolution(g, a):
    """min (1 - e_i)/d_i over vertices with d_i > 0; exact whenever the
    minimal resolution already resolves the pair, an upper bound otherwise.
    That is min (delta - (adj.kappa)_i)/(adj.a)_i over (adj.a)_i > 0, by
    cross-multiplication, with one Fraction made at the end."""
    data = _require_usable(g)
    a = _check_incidence(g, a)
    dd = _adj_times(data.shape, a)
    if min(dd) < 0:
        raise InvariantError(f"negative coefficient {dd}/{data.delta} for incidence {a}")
    if not any(a):
        raise ZeroIncidenceError("incidence vector is zero")
    num, den = 1, 0  # infinity, above every candidate
    for x, k in zip(dd, data.adj_kappa):
        if x > 0 and (data.delta - k) * den < num * x:
            num, den = data.delta - k, x
    return Fraction(num, den)


# -- whole-type quantities ----------------------------------------------------


def cartier_index(t):
    """Smallest r making rK integral at every singularity: the lcm of the
    denominators of all e entries, which for e = adj.kappa / delta is
    delta / gcd(delta, adj.kappa) per component."""
    r = 1
    for g in t.components:
        data = _require_usable(g)
        r = math.lcm(r, data.delta // math.gcd(data.delta, *data.adj_kappa))
    return r


def anticanonical_selfint(t):
    """K^2 of the rank-one surface with this singularity type: (9 - n) plus
    the discrepancy correction sum e_i (weight_i - 2), which per component
    is the integer kappa.adj.kappa over delta."""
    n = sum(len(g.weights) for g in t.components)
    total = Fraction(9 - n)
    for g in t.components:
        data = _require_usable(g)
        total += Fraction(sum(map(operator.mul, data.kappa, data.adj_kappa)), data.delta)
    return total


def is_klt(t):
    """Every e < 1, that is every entry of adj.kappa below delta."""
    return all(max(data.adj_kappa) < data.delta for data in map(_require_usable, t.components))


def select_hunt_divisor(t):
    """(component, vertex id, e) of the extraction target: the largest
    discrepancy coefficient among star centers and non-(-2) chain vertices,
    the first of equal ones over the sorted components, each read in its
    canonical vertex order.  The component returned is the canonical graph
    and the vertex id is one of its own.

    Candidates compare by their adj.kappa entries cross-multiplied by the
    deltas, and only the winning component is made canonical."""
    best = None  # (graph, canonical index, adj.kappa entry, delta)
    for g in t.sorted_components():
        data = _require_usable(g)
        ak, w = data.adj_kappa, g.weights
        if g.is_chain():
            candidates = [(i, ak[p]) for i, p in enumerate(g.canonical_order()) if w[p] >= 3]
        else:
            candidates = [(0, ak[0])]  # the center comes first
        for i, x in candidates:
            if x > 0 and (best is None or x * best[3] > best[2] * data.delta):
                best = (g, i, x, data.delta)
    if best is None:
        raise AllDuValError("every component is Du Val; no hunt divisor")
    g, i, x, delta = best
    g = g.canonical()
    return g, g.vertices[i][0], Fraction(x, delta)
