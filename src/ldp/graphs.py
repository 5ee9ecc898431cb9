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
    """Immutable weighted graph, shaped as a chain or a three-branch star.

    vertices: tuple of (id, weight), weight >= 2 meaning self-intersection
    -weight; edges: frozenset of frozensets {id, id}.  The empty graph is
    allowed (a smooth point).
    """

    vertices: tuple
    edges: frozenset

    def __post_init__(self):
        ids = [v for v, _ in self.vertices]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate vertex ids")
        _check_weights(self.vertices)
        idset = set(ids)
        for e in self.edges:
            if len(e) != 2 or not e <= idset:
                raise ValueError(f"bad edge {set(e)}")
        # the graph is immutable, so the walk that checks its shape is kept:
        # the chain order or the star branches are computed once.  chain()
        # and star() know their walk already and skip this (see _known)
        object.__setattr__(self, "_walk", self._check_shape())

    def _check_shape(self):
        """(center, paths) of a chain or a three-branch star; raises on any
        other graph.  A chain has center None and its vertex ids end to end
        from the smaller end id as its one path (no path when empty); a star
        has its center id and its three branches from the center outward."""
        n = len(self.vertices)
        if n == 0:
            if self.edges:
                raise ValueError("edges without vertices")
            return None, ()
        if len(self.edges) != n - 1:
            raise ValueError("graph must be a connected tree (chain or 3-star)")
        # connectivity: tree with n-1 edges is connected iff no isolated part;
        # walk it to be safe
        seen = set()
        stack = [self.vertices[0][0]]
        adj = _adjacency(self)
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(adj[v])
        if len(seen) != n:
            raise ValueError("graph is not connected")
        branch = [v for v, vs in adj.items() if len(vs) >= 3]
        if len(branch) > 1 or (branch and len(adj[branch[0]]) != 3):
            raise ValueError("graph must be a chain or a star with three branches")
        if branch:
            c = branch[0]
            return c, tuple(_path(adj, first, c) for first in adj[c])
        return None, (_path(adj, min(v for v, vs in adj.items() if len(vs) <= 1), None),)

    # -- structure helpers ------------------------------------------------
    #
    # The walk (_walk), the canonical key (_key), the subgraph determinants
    # (_shape) and the determinant (_det) are kept on the graph, each built
    # once; the public methods hand out copies.

    @cached_property
    def _key(self):
        w = dict(self.vertices)
        center, paths = self._walk
        if center is None:
            if not paths:
                return ("empty",)
            seq = tuple(w[v] for v in paths[0])
            return ("chain", min(seq, seq[::-1]))
        bw = sorted((len(b), tuple(w[v] for v in b)) for b in paths)
        return ("star", w[center], tuple(seq for _, seq in bw))

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
        if not self.vertices:
            return 1
        shape = self._shape
        delta = shape.pre[-1] if shape.chain else shape.trunc[0][-1]
        return delta if delta > 0 else None

    @property
    def weight_map(self):
        return dict(self.vertices)

    def is_empty(self):
        return not self.vertices

    def is_chain(self):
        return self._walk[0] is None

    def center(self):
        """The degree-3 vertex of a star, or None for chains."""
        return self._walk[0]

    # -- canonical form ----------------------------------------------------

    def canonical_key(self):
        return self._key

    def canonical_order(self):
        """This graph's vertex ids in the order of the vertices of
        canonical(): the chain from its smaller end, or the center and then
        the branches sorted as in the canonical key."""
        w = dict(self.vertices)
        center, paths = self._walk
        if center is None:
            if not paths:
                return []
            path = paths[0]
            seq = [w[v] for v in path]
            return list(path) if seq <= seq[::-1] else list(path[::-1])
        ordered = sorted(paths, key=lambda b: (len(b), [w[v] for v in b]))
        return [center] + [v for b in ordered for v in b]

    def canonical(self):
        key = self._key
        if key[0] == "empty":
            return chain([])
        if key[0] == "chain":
            return chain(list(key[1]))
        return star(key[1], [list(b) for b in key[2]])

    def __eq__(self, other):
        if not isinstance(other, WeightedDualGraph):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"WeightedDualGraph({format_graph(self)!r})"


def _adjacency(g):
    adj = {v: [] for v, _ in g.vertices}
    for e in g.edges:
        a, b = e
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _path(adj, first, prev):
    """Vertex ids from first to the end of the path that leaves prev behind."""
    path = [first]
    while True:
        nxt = [v for v in adj[path[-1]] if v != prev]
        if not nxt:
            return tuple(path)
        prev = path[-1]
        path.append(nxt[0])


def _check_weights(vertices):
    for _, w in vertices:
        if w < 2:
            raise ValueError(f"vertex weight {w} < 2")


def _known(vertices, edges, walk):
    """The graph on these vertices and edges with the walk (center, paths)
    that _check_shape would find, which the caller built along with them:
    only the weights are checked, and no adjacency is walked."""
    _check_weights(vertices)
    g = object.__new__(WeightedDualGraph)
    object.__setattr__(g, "vertices", vertices)
    object.__setattr__(g, "edges", edges)
    object.__setattr__(g, "_walk", walk)
    return g


def chain(weights):
    """The chain with these weights end to end, vertex ids v0, v1, ...; its
    walk is the ids in that order."""
    ids = tuple(f"v{i}" for i in range(len(weights)))
    verts = tuple(zip(ids, weights))
    edges = frozenset(map(frozenset, zip(ids, ids[1:])))
    return _known(verts, edges, (None, (ids,) if ids else ()))


def star(center_weight, branch_weights):
    """The star with this center weight and these three branches, each from
    the center outward, vertex ids v0 (the center), v1, ... branch by
    branch; its walk is the center and the branches as given."""
    if len(branch_weights) != 3 or any(not b for b in branch_weights):
        raise ValueError("a star needs exactly three nonempty branches")
    verts = [("v0", center_weight)]
    edges = []
    paths = []
    for branch in branch_weights:
        path = []
        for w in branch:
            vid = f"v{len(verts)}"
            edges.append(frozenset((path[-1] if path else "v0", vid)))
            verts.append((vid, w))
            path.append(vid)
        paths.append(tuple(path))
    return _known(tuple(verts), frozenset(edges), ("v0", tuple(paths)))


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
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
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
        if self.peek().isdigit():
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
    """Symmetric integer matrix: diagonal -weight, 1 on edges."""
    ids = [v for v, _ in g.vertices]
    index = {v: i for i, v in enumerate(ids)}
    w = g.weight_map
    n = len(ids)
    m = [[0] * n for _ in range(n)]
    for i, v in enumerate(ids):
        m[i][i] = -w[v]
    for e in g.edges:
        a, b = tuple(e)
        m[index[a]][index[b]] = 1
        m[index[b]][index[a]] = 1
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
    """Vertex positions of a nonempty chain or star, and the subgraph
    determinants (det of -M on a vertex subset) that the determinant, the
    closed-form displays and the adjugate read.

    Chain: `order` lists the positions end to end, `at[p]` is the index of
    position p in it, and `pre[k]` / `suf[k]` are the determinants of the
    first k vertices of the order and of all but the first k.

    Star: `center`, `branches` (the positions of each branch from the center
    outward), and `at[p]` = (branch, index from the center outward) for
    every other position p; `d[b]` is the determinant of branch b,
    `outer[b][k]` that of branch b from its k-th vertex outward, and
    `trunc[b][k]` that of the whole graph with branch b cut down to its
    first k vertices.
    """

    def __init__(self, g):
        index = {v: i for i, (v, _) in enumerate(g.vertices)}
        weights = [w for _, w in g.vertices]
        center, paths = g._walk
        self.chain = center is None
        if self.chain:
            self.order = [index[v] for v in paths[0]]
            self.at = {p: k for k, p in enumerate(self.order)}
            ws = [weights[p] for p in self.order]
            self.pre = _continuants(ws)
            self.suf = _continuants(ws[::-1])[::-1]
            return
        c = self.center = index[center]
        branches = self.branches = [[index[v] for v in br] for br in paths]
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
            if name == "n":
                vals = range(n_range[0], n_range[1] + 1)
            elif name == "m":
                vals = range(max(lo, m_range[0]), m_range[1] + 1)
            else:
                vals = [v for v in range(lo, hi + 1) if l_values is None or v in l_values]
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
