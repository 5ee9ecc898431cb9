"""Weighted dual graphs of surface singularities and their bracket notation.

A graph is either a chain [n1, ..., nk] or a star
[c; [l...], [m...], [n...]] with three branches; weights n >= 2 encode
self-intersection -n.  A multiset of such graphs forms a Dynkin type,
written e.g. "2[2^4]+[2,4]".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


class DynkinSyntaxError(ValueError):
    """Raised on malformed bracket notation; carries the byte offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class NotNegativeDefiniteError(ValueError):
    pass


class ParamOutOfRangeError(ValueError):
    pass


class InvariantError(ArithmeticError):
    """An exact computation broke an identity that the theory guarantees."""


@dataclass(frozen=True)
class WeightedDualGraph:
    """Immutable weighted graph, shaped as a chain or a three-branch star,
    stored as its walk.

    weights: the weights in walk order, each >= 2 meaning self-intersection
    -weight: a chain's end to end, a star's center and then each branch from
    the center outward; branches: a star's three branch lengths, None for a
    chain.  Vertex i, at position i of the walk, has id f"v{i}".  The empty
    chain is allowed (a smooth point).  Build graphs with chain() and star().
    """

    weights: tuple
    branches: tuple = None

    def __post_init__(self):
        for w in self.weights:
            if w < 2:
                raise ValueError(f"vertex weight {w} < 2")

    # -- derived data -------------------------------------------------------
    #
    # The id layout (vertices, edges), the canonical key (_key), the subgraph
    # determinants (_shape) and the determinant (_det) are kept on the graph,
    # each built once; the public methods hand out copies.

    @cached_property
    def vertices(self):
        """(id, weight) per vertex in walk order."""
        return tuple((f"v{i}", w) for i, w in enumerate(self.weights))

    @cached_property
    def edges(self):
        """frozenset of frozensets {id, id}."""
        return frozenset(frozenset((f"v{i}", f"v{j}")) for i, j in self._links())

    def _paths(self):
        """The positions of each branch of a star, from the center outward."""
        start = 1
        for n in self.branches:
            yield range(start, start + n)
            start += n

    def _links(self):
        """The edges as pairs of positions: neighbours along a chain, and a
        star's center to each branch and neighbours along each branch."""
        if self.branches is None:
            return [(i - 1, i) for i in range(1, len(self.weights))]
        return [(p - 1 if p > path.start else 0, p) for path in self._paths() for p in path]

    @cached_property
    def _key(self):
        seq = self.weights
        if self.branches is None:
            return ("chain", min(seq, seq[::-1])) if seq else ("empty",)
        bw = sorted((len(path), seq[path.start : path.stop]) for path in self._paths())
        return ("star", seq[0], tuple(b for _, b in bw))

    @cached_property
    def _shape(self):
        return _Shape(self)

    @cached_property
    def _det(self):
        """det(-M), or None when -M is not positive definite.

        Eliminating -M from the leaves to the root (a star's center, a
        chain's end), the pivot at a vertex is the determinant of the subtree
        below it over the product of its children's, so -M is positive
        definite exactly when every subtree determinant is > 0, and det(-M)
        is the root's.  Below the root every subtree is a path, whose
        determinant is a continuant; with every weight >= 2 the continuants
        of a path increase from 1, so only the root can fail.  The shape has
        the root's determinant: a chain's whole continuant, or a star's
        truncation that keeps every branch whole.
        """
        if not self.weights:
            return 1
        shape = self._shape
        delta = shape.pre[-1] if shape.chain else shape.trunc[0][-1]
        return delta if delta > 0 else None

    def is_empty(self):
        return not self.weights

    def is_chain(self):
        return self.branches is None

    # -- canonical form ----------------------------------------------------

    def canonical_key(self):
        return self._key

    def canonical_order(self):
        """The positions of this graph's vertices in the order of the
        vertices of canonical(): the chain from its smaller end, or the
        center and then the branches sorted as in the canonical key."""
        seq = self.weights
        if self.branches is None:
            order = range(len(seq))
            return list(order) if seq <= seq[::-1] else list(reversed(order))
        paths = sorted(self._paths(), key=lambda path: (len(path), seq[path.start : path.stop]))
        return [0] + [p for path in paths for p in path]

    def canonical(self):
        key = self._key
        if key[0] == "empty":
            return chain([])
        if key[0] == "chain":
            return chain(key[1])
        return star(key[1], key[2])

    def __eq__(self, other):
        if not isinstance(other, WeightedDualGraph):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"WeightedDualGraph({format_graph(self)!r})"


def chain(weights):
    """The chain with these weights end to end."""
    return WeightedDualGraph(tuple(weights))


def star(center_weight, branch_weights):
    """The star with this center weight and these three branches, each from
    the center outward."""
    if len(branch_weights) != 3 or any(not b for b in branch_weights):
        raise ValueError("a star needs exactly three nonempty branches")
    weights = (center_weight,) + tuple(w for b in branch_weights for w in b)
    return WeightedDualGraph(weights, tuple(map(len, branch_weights)))


@dataclass(frozen=True)
class DynkinType:
    """Multiset of nonempty connected weighted dual graphs."""

    components: tuple

    def __post_init__(self):
        for g in self.components:
            if g.is_empty():
                raise ValueError("Dynkin type components must be nonempty")

    def canonical_key(self):
        return tuple(sorted(g._key for g in self.components))

    def sorted_components(self):
        return sorted(self.components, key=_component_sort_key)

    def __eq__(self, other):
        if not isinstance(other, DynkinType):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return f"DynkinType({format_dynkin(self)!r})"


def _component_sort_key(g):
    key = g._key
    if key[0] == "chain":
        return (0, -len(key[1]), key[1])
    return (1, sum(len(b) for b in key[2]), key[1], key[2])


# -- formatting -------------------------------------------------------------


def _join_runs(items, sep, run):
    """items joined by sep, with each run of k >= 2 equal items written as
    run(item, k)."""
    out = []
    i, n = 0, len(items)
    while i < n:
        x = items[i]
        j = i + 1
        while j < n and items[j] == x:
            j += 1
        out.append(run(x, j - i) if j - i >= 2 else str(x))
        i = j
    return sep.join(out)


def _format_runs(weights):
    return _join_runs(weights, ",", "{}^{}".format)


def format_graph(g):
    key = g._key
    if key[0] == "empty":
        return "[]"
    if key[0] == "chain":
        return f"[{_format_runs(key[1])}]"
    center, branches = key[1], key[2]
    inner = ",".join(f"[{_format_runs(b)}]" for b in branches)
    return f"[{center};{inner}]"


def format_dynkin(t):
    comps = [format_graph(g) for g in t.sorted_components()]
    return _join_runs(comps, "+", "{1}{0}".format)


# -- parsing ----------------------------------------------------------------


# The most vertices a Dynkin type may have, over all its components with
# their multiplicities.  The parser counts them before it expands any run or
# multiplicity prefix, so an oversized type is refused without being built.
MAX_VERTICES = 2000

# the digits the notation takes: str.isdigit is also true for '²' and '٣'
_DIGITS = frozenset("0123456789")


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.done = 0  # vertices of the items parsed so far, with multiplicity
        self.mult = 1  # multiplicity of the item being parsed
        self.graph_vertices = 0  # vertices of its graph so far

    def error(self, message):
        raise DynkinSyntaxError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def integer(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        return int(self.text[start : self.pos])

    def count(self, k, at):
        """Count k more vertices of the graph being parsed, refusing the type
        once it passes MAX_VERTICES."""
        self.graph_vertices += k
        if self.done + self.mult * self.graph_vertices > MAX_VERTICES:
            self.pos = at
            self.error(f"the type has more than MAX_VERTICES = {MAX_VERTICES} vertices")

    def run(self):
        """One weight run 'w' or 'w^r'; returns a weight list."""
        at = self.pos
        w = self.integer()
        if w < 2:
            self.pos = at
            self.error(f"weight {w} < 2")
        r = 1
        if self.peek() == "^":
            self.pos += 1
            r = self.integer()
        self.count(r, at)
        return [w] * r

    def chain_body(self):
        """After '[': runs up to (not consuming) ';' / ']'."""
        weights = list(self.run())
        while self.peek() == ",":
            self.pos += 1
            weights.extend(self.run())
        return weights

    def bracket_chain(self):
        self.expect("[")
        weights = self.chain_body()
        self.expect("]")
        return weights

    def graph(self):
        self.expect("[")
        at = self.pos
        first = self.chain_body()
        if self.peek() == ";":
            if len(first) != 1:
                self.pos = at
                self.error("star center must be a single weight")
            self.pos += 1
            branches = [self.bracket_chain()]
            while self.peek() == ",":
                self.pos += 1
                branches.append(self.bracket_chain())
            self.expect("]")
            if len(branches) != 3 or any(not b for b in branches):
                self.error(f"a star needs exactly three nonempty branches")
            return star(first[0], branches)
        self.expect("]")
        return chain(first)

    def item(self):
        self.mult = 1
        if self.peek() in _DIGITS:
            at = self.pos
            self.mult = self.integer()
            if self.mult < 2:
                self.pos = at
                self.error("multiplicity prefix must be >= 2")
        self.graph_vertices = 0
        g = self.graph()
        self.done += self.mult * self.graph_vertices
        return [g] * self.mult

    def dynkin(self):
        graphs = list(self.item())
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                graphs.extend(self.item())
            elif ch == "":
                break
            else:
                self.error(f"unexpected character {ch!r}")
        return DynkinType(tuple(g for g in graphs if not g.is_empty()))


def parse_dynkin(text):
    return _Parser(text).dynkin()


def parse_graph(text):
    """Parse a single-component graph like '[2,4]' or '[2;[2],[3],[5]]'."""
    t = _Parser(text).dynkin()
    if len(t.components) != 1:
        raise DynkinSyntaxError("expected a single graph", 0)
    return t.components[0]


# -- matrices ----------------------------------------------------------------


def intersection_matrix(g):
    """Symmetric integer matrix by position: diagonal -weight, 1 on edges."""
    n = len(g.weights)
    m = [[0] * n for _ in range(n)]
    for i, w in enumerate(g.weights):
        m[i][i] = -w
    for i, j in g._links():
        m[i][j] = m[j][i] = 1
    return m


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
    """The subgraph determinants (det of -M on a vertex subset) of a
    nonempty chain or star that the determinant, the closed-form displays
    and the adjugate read, by walk position.

    Chain: `pre[k]` / `suf[k]` are the determinants of the first k vertices
    and of all but the first k.

    Star: the center is position 0; `branches` holds the positions of each
    branch from the center outward, and `at[p]` = (branch, index from the
    center outward) for every other position p; `d[b]` is the determinant
    of branch b, `outer[b][k]` that of branch b from its k-th vertex
    outward, and `trunc[b][k]` that of the whole graph with branch b cut
    down to its first k vertices.
    """

    def __init__(self, g):
        weights = g.weights
        self.chain = g.branches is None
        if self.chain:
            self.pre = _continuants(weights)
            self.suf = _continuants(weights[::-1])[::-1]
            return
        branches = self.branches = list(g._paths())
        self.at = [None] + [(b, k) for b, br in enumerate(branches) for k in range(len(br))]
        self.outer = [_continuants(weights[br.start : br.stop][::-1])[::-1] for br in branches]
        self.d = [s[0] for s in self.outer]
        self.trunc = []
        for b, br in enumerate(branches):
            s, t = (self.outer[j] for j in range(3) if j != b)
            # trunc[b][0] expands along the center, then joining two branches;
            # trunc[b][k] along the k-th vertex of branch b, a leaf there:
            # w * trunc[b][k - 1] - trunc[b][k - 2], where one step below 0
            # (the center cut away too) leaves the other two branches
            below = s[0] * t[0]
            cur = weights[0] * s[0] * t[0] - s[1] * t[0] - s[0] * t[1]
            row = [cur]
            for p in br:
                below, cur = cur, weights[p] * cur - below
                row.append(cur)
            self.trunc.append(row)


def is_negative_definite(g):
    return g._det is not None


def graph_determinant(g):
    """|det| of the intersection matrix; 1 for the empty graph."""
    if g._det is None:
        raise NotNegativeDefiniteError(f"{format_graph(g)} is not negative definite")
    return g._det


def dynkin_matrix(t):
    """Block-diagonal intersection matrix of a whole Dynkin type."""
    comps = t.sorted_components()
    blocks = [intersection_matrix(g) for g in comps]
    n = sum(len(b) for b in blocks)
    m = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                m[at + i][at + j] = x
        at += len(b)
    return m


# -- Table 1 families ---------------------------------------------------------

# Each family of (+) parts, keyed 1-21; params is a dict of allowed
# parameter names to (lo, hi) ranges with hi=None meaning unbounded.
TABLE1_FAMILIES = {
    1: ({}, lambda p: "[3]"),
    2: ({}, lambda p: "[2,4]"),
    3: ({}, lambda p: "[2]+[3]+[5]"),
    4: ({"n": (0, None)}, lambda p: f"[2^{p['n']}]+[{2+p['n']};[2],[3],[5]]"),
    5: ({"n": (0, None)}, lambda p: f"[2^{p['n']},3]+[3,{2+p['n']},5]"),
    6: ({"n": (0, None)}, lambda p: f"[2^{p['n']},4]+[2,{2+p['n']},5]"),
    7: ({"n": (0, None)}, lambda p: f"[2^{p['n']},6]+[2,{2+p['n']},3]"),
    8: ({}, lambda p: "[4]+[2;[2],[3],[5]]"),
    9: ({"m": (1, None)}, lambda p: f"[3,2^{p['m']-1},3]+[{2+p['m']};[2],[3],[5]]"),
    10: ({"l": (1, 2)}, lambda p: f"[{4+p['l']}]+[2;[2],[2^{p['l']}],[5]]"),
    11: (
        {"l": (1, 2), "m": (1, None)},
        lambda p: f"[{2+p['l']},2^{p['m']-1},4]+[{2+p['m']};[2],[2^{p['l']}],[5]]",
    ),
    12: ({}, lambda p: "[2,5]+[2;[2],[3],[5]]"),
    13: ({"m": (1, None)}, lambda p: f"[2,3,2^{p['m']-1},4]+[{2+p['m']};[2],[3],[5]]"),
    14: ({"l": (1, 4)}, lambda p: f"[{6+p['l']}]+[2;[2],[3],[2^{p['l']}]]"),
    15: (
        {"l": (1, 4), "m": (1, None)},
        lambda p: f"[{2+p['l']},2^{p['m']-1},6]+[{2+p['m']};[2],[3],[2^{p['l']}]]",
    ),
    16: ({"l": (1, 3)}, lambda p: f"[2^{p['l']},7]+[2;[2],[3],[{2+p['l']}]]"),
    17: (
        {"l": (1, 3), "m": (1, None)},
        lambda p: f"[2^{p['l']},3,2^{p['m']-1},6]+[{2+p['m']};[2],[3],[{2+p['l']}]]",
    ),
    18: ({}, lambda p: "[3,7]+[2;[2],[3],[3,2]]"),
    19: ({"m": (1, None)}, lambda p: f"[3,3,2^{p['m']-1},6]+[{2+p['m']};[2],[3],[3,2]]"),
    20: ({}, lambda p: "[2,8]+[2;[2],[3],[2,3]]"),
    21: ({"m": (1, None)}, lambda p: f"[2,4,2^{p['m']-1},6]+[{2+p['m']};[2],[3],[2,3]]"),
}


@dataclass(frozen=True)
class Table1Instance:
    family: int
    params: tuple  # sorted tuple of (name, value)

    @staticmethod
    def make(family, **params):
        return Table1Instance(family, tuple(sorted(params.items())))

    @property
    def param_dict(self):
        return dict(self.params)


def table1_generate(inst):
    """The full Dynkin type 2[2^4] + (family part with params substituted)."""
    if inst.family not in TABLE1_FAMILIES:
        raise ParamOutOfRangeError(f"no Table 1 family {inst.family}")
    bounds, template = TABLE1_FAMILIES[inst.family]
    params = inst.param_dict
    if set(params) != set(bounds):
        raise ParamOutOfRangeError(
            f"family {inst.family} takes parameters {sorted(bounds)}, got {sorted(params)}"
        )
    for name, (lo, hi) in bounds.items():
        v = params[name]
        if v < lo or (hi is not None and v > hi):
            raise ParamOutOfRangeError(
                f"family {inst.family}: {name}={v} outside [{lo}, {hi if hi is not None else 'inf'}]"
            )
    return parse_dynkin("2[2^4]+" + template(params))


def table1_enumerate(n_range=(0, 2), m_range=(1, 2), l_values=None):
    """All (instance, type) pairs over the given parameter boxes.

    l_values=None means every legal l for each family.
    """
    out = []
    for fam, (bounds, _) in sorted(TABLE1_FAMILIES.items()):
        boxes = [{}]
        for name, (lo, hi) in sorted(bounds.items()):
            if name == "l":
                vals = [v for v in range(lo, hi + 1) if l_values is None or v in l_values]
            else:
                first, last = n_range if name == "n" else m_range
                vals = range(first, last + 1)
            boxes = [dict(b, **{name: v}) for b in boxes for v in vals]
        for params in boxes:
            inst = Table1Instance.make(fam, **params)
            out.append((inst, table1_generate(inst)))
    return out


# -- JSON --------------------------------------------------------------------


def graph_to_json(g):
    return {
        "vertices": [{"id": v, "self_int": -w} for v, w in g.vertices],
        "edges": sorted(sorted(e) for e in g.edges),
    }
