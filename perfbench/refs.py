"""Independent references for checking `ldp` outputs.

Nothing here imports `ldp`: each reference is computed from the benchmark's
own reading of the bracket notation, so a wrong answer from the program
cannot also make its check pass.

A graph is a `Graph(weights, center)`: `weights` lists the vertex weights in
the order `ldp` parses them (chains end to end; stars centre first, then each
branch from the centre outward) and `center` is None for a chain or the
three branch lengths of a star.
"""

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Graph:
    weights: tuple
    center: tuple = None  # branch lengths of a star, None for a chain

    def edges(self):
        if self.center is None:
            return [(i, i + 1) for i in range(len(self.weights) - 1)]
        out, at = [], 1
        for length in self.center:
            prev = 0
            for k in range(length):
                out.append((prev, at + k))
                prev = at + k
            at += length
        return out

    def branches(self):
        """Weights of each star branch, from the centre outward."""
        out, at = [], 1
        for length in self.center:
            out.append(self.weights[at : at + length])
            at += length
        return out

    def notation(self):
        if self.center is None:
            return _runs(self.weights)
        inner = ",".join(_runs(b) for b in self.branches())
        return f"[{self.weights[0]};{inner}]"


def _runs(weights):
    return "[" + ",".join(str(w) for w in weights) + "]"


def chain_graph(weights):
    return Graph(tuple(weights))


def star_graph(center, branches):
    weights = (center,) + tuple(w for b in branches for w in b)
    return Graph(weights, tuple(len(b) for b in branches))


# -- notation ----------------------------------------------------------------


def parse_type(text):
    """Components of a Dynkin-type string such as '2[2^4]+[3;[2],[3],[5]]'."""
    out = []
    for item in text.split("+"):
        mult = 1
        head, bracket, rest = item.partition("[")
        if head:
            mult = int(head)
        out.extend([_parse_graph(bracket + rest)] * mult)
    return out


def _parse_chain(body):
    weights = []
    for run in body.split(","):
        w, _, r = run.partition("^")
        weights.extend([int(w)] * (int(r) if r else 1))
    return weights


def _parse_graph(text):
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"not a bracketed graph: {text!r}")
    body = text[1:-1]
    if ";" not in body:
        return chain_graph(_parse_chain(body))
    center, _, rest = body.partition(";")
    branches = [_parse_chain(b.strip("[]")) for b in rest.split("],[")]
    if len(branches) != 3:
        raise ValueError(f"a star needs three branches: {text!r}")
    return star_graph(int(center), branches)


# -- determinants ----------------------------------------------------------


def continuant(weights):
    """det(-M) of a chain: K_i = w_i K_{i-1} - K_{i-2}, K_0 = 1."""
    prev, cur = 0, 1
    for w in weights:
        prev, cur = cur, w * cur - prev
    return cur


def star_determinant(g):
    """det(-M) of a star, expanding along the centre:
    c d1 d2 d3 - sum_i d_i' d_j d_k, where d_i is the determinant of branch i
    and d_i' that of branch i without its vertex next to the centre."""
    d = [continuant(b) for b in g.branches()]
    inner = [continuant(b[1:]) for b in g.branches()]
    total = g.weights[0] * d[0] * d[1] * d[2]
    for i in range(3):
        j, k = (x for x in range(3) if x != i)
        total -= inner[i] * d[j] * d[k]
    return total


def determinant(g):
    return continuant(g.weights) if g.center is None else star_determinant(g)


def is_negative_definite(g):
    """Chains of weights >= 2 always are; a star is exactly when det(-M) > 0
    (its branches are definite chains, so the Schur complement at the centre,
    det(-M) / (d1 d2 d3), decides)."""
    return determinant(g) > 0


# -- exact linear algebra -------------------------------------------------


def intersection_matrix(g):
    n = len(g.weights)
    m = [[0] * n for _ in range(n)]
    for i, w in enumerate(g.weights):
        m[i][i] = -w
    for a, b in g.edges():
        m[a][b] = m[b][a] = 1
    return m


def kappa(g):
    return [w - 2 for w in g.weights]


def satisfies_discrepancy_equation(g, e):
    """The defining identity M e = -kappa, checked exactly."""
    if len(e) != len(g.weights):
        return False
    m = intersection_matrix(g)
    return all(
        sum(mij * ej for mij, ej in zip(row, e)) == -k for row, k in zip(m, kappa(g))
    )


def inverse_of_negated(g):
    """(-M)^{-1} by Gauss-Jordan elimination over Fraction."""
    m = intersection_matrix(g)
    n = len(m)
    a = [
        [Fraction(-x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(m)
    ]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def pairing(inv, g, a):
    """<a, b> with b = d + e, M d = -a, M e = -kappa: a . (-M)^{-1} (a + kappa)."""
    rhs = [x + k for x, k in zip(a, kappa(g))]
    return sum(
        ai * sum(r * x for r, x in zip(row, rhs)) for ai, row in zip(a, inv) if ai
    )


def incidence_vectors(n, max_a):
    """Every nonnegative integer vector of length n with 1 <= sum <= max_a."""
    out = []

    def grow(prefix, left):
        if len(prefix) == n:
            if sum(prefix):
                out.append(tuple(prefix))
            return
        for x in range(left + 1):
            grow(prefix + [x], left - x)

    grow([], max_a)
    return out


# -- whole-type quantities from validated discrepancies ----------------------


def hunt_coefficient(g, e):
    """Largest positive e over star centres and chain vertices of weight >= 3."""
    if g.center is None:
        cands = [x for x, w in zip(e, g.weights) if w >= 3]
    else:
        cands = [e[0]]
    cands = [x for x in cands if x > 0]
    return max(cands) if cands else None


def type_invariants(comps, es):
    """(vertex count, K^2, index, klt) of a type with discrepancies es:
    K^2 = (9 - n) + sum e_i (w_i - 2), index = lcm of the denominators."""
    n = sum(len(g.weights) for g in comps)
    k_sq = Fraction(9 - n)
    index = 1
    klt = True
    for g, e in zip(comps, es):
        k_sq += sum(x * k for x, k in zip(e, kappa(g)))
        for x in e:
            index = math.lcm(index, x.denominator)
            klt = klt and x < 1
    return n, k_sq, index, klt


# -- the pencil's singular locus --------------------------------------------

# Over Q the singular members of the pencil sit at s t (s^2 - 11 s t - t^2) = 0.
LOCUS_Q = {(3, 1): 1, (2, 2): -11, (1, 3): -1}


def locus_mod(p):
    """The Q locus reduced mod p and made monic ({exponents: coefficient})."""
    lead = LOCUS_Q[max(LOCUS_Q)] % p
    inv = pow(lead, -1, p)
    out = {e: c * inv % p for e, c in LOCUS_Q.items()}
    return {e: c for e, c in out.items() if c}


def quadratic_roots_mod(p):
    """Roots t of t^2 + 11 t - 1 over F_p, the finite singular parameters."""
    return [t for t in range(p) if (t * t + 11 * t - 1) % p == 0]


def primes_between(lo, hi):
    sieve = bytearray([1]) * hi
    sieve[:2] = b"\x00\x00"
    for k in range(2, int(hi**0.5) + 1):
        if sieve[k]:
            sieve[k * k :: k] = bytearray(len(sieve[k * k :: k]))
    return [p for p in range(lo, hi) if sieve[p]]
