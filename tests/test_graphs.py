import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ldp import graphs, verify
from ldp.graphs import (
    MAX_VERTICES,
    DynkinSyntaxError,
    chain,
    dynkin_matrix,
    format_dynkin,
    format_graph,
    graph_determinant,
    graph_to_json,
    intersection_matrix,
    is_negative_definite,
    parse_dynkin,
    parse_graph,
    star,
    table1_enumerate,
)

weights = st.integers(min_value=2, max_value=9)


def test_parse_chain_roundtrip():
    g = parse_graph("[2,3,4]")
    assert [w for _, w in g.vertices] == [2, 3, 4]
    assert format_graph(g) == "[2,3,4]"


def test_parse_run_length():
    assert format_graph(parse_graph("[2,2,2,2]")) == "[2^4]"
    assert parse_graph("[2^4]") == parse_graph("[2,2,2,2]")
    assert format_graph(parse_graph("[3,2^2,3]")) == "[3,2^2,3]"


def test_parse_star():
    g = parse_graph("[2;[2],[3],[5]]")
    assert not g.is_chain()
    assert (g.weights[0], g.branches) == (2, (1, 1, 1))  # the center first
    assert len(g.vertices) == 4


def test_parse_multiplicity():
    t = parse_dynkin("2[2^4]+[3]")
    assert len(t.components) == 3
    assert format_dynkin(t) == "2[2^4]+[3]"


def test_component_ordering_is_canonical():
    a = parse_dynkin("[3]+2[2^4]")
    b = parse_dynkin("2[2^4]+[3]")
    assert a == b
    assert format_dynkin(a) == "2[2^4]+[3]"


def test_chain_reversal_same_graph():
    assert parse_graph("[2,3,4]") == parse_graph("[4,3,2]")


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("[2", "expected"),
        ("[1,2]", "weight"),
        ("[2;[2],[3]]", "branch"),
        ("1[2]", "multiplicity"),
        ("[2;[2],[],[3]]", "integer"),
        ("", "expected"),
        # ASCII digits only, though str.isdigit is true for these too
        ("[2^\u00b2]", "expected an integer (at offset 3)"),
        ("[\u00b2]", "expected an integer (at offset 1)"),
        ("[\u0663]", "expected an integer (at offset 1)"),
        ("\u00b2[2]", "expected '[' (at offset 0)"),
    ],
)
def test_parse_errors_carry_offsets(text, fragment):
    with pytest.raises(DynkinSyntaxError) as exc:
        parse_dynkin(text)
    assert fragment in str(exc.value).lower()
    assert isinstance(exc.value.offset, int)


@given(st.lists(weights, min_size=1, max_size=7))
@settings(max_examples=60, deadline=None)
def test_chain_determinant_matches_recurrence(ws):
    # Delta_k = w_k Delta_{k-1} - Delta_{k-2} for chains
    prev2, prev1 = 1, ws[0]
    for w in ws[1:]:
        prev2, prev1 = prev1, w * prev1 - prev2
    assert graph_determinant(chain(ws)) == prev1


@given(st.lists(weights, min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_determinant_matches_sympy(ws):
    g = chain(ws)
    m = sympy.Matrix(intersection_matrix(g))
    assert graph_determinant(g) == abs(m.det())


@given(
    weights,
    st.lists(st.lists(weights, min_size=1, max_size=2), min_size=3, max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_star_negative_definiteness_matches_sympy(c, branches):
    g = star(c, branches)
    m = sympy.Matrix(intersection_matrix(g))
    minors = [m[: k + 1, : k + 1].det() for k in range(m.rows)]
    expected = all(
        (d < 0 if k % 2 else d > 0) for k, d in enumerate(minors, 1)
    )
    assert is_negative_definite(g) == expected


@given(
    st.one_of(
        st.lists(weights, min_size=1, max_size=6).map(chain),
        st.builds(star, weights, st.lists(st.lists(weights, min_size=1, max_size=2),
                                          min_size=3, max_size=3)),
    ),
)
@settings(max_examples=60, deadline=None)
def test_canonical_order_maps_a_graph_onto_its_canonical_form(g):
    canon = g.canonical()
    order = g.canonical_order()
    assert [g.weights[p] for p in order] == list(canon.weights)
    to_canon = {g.vertices[p][0]: v for p, (v, _) in zip(order, canon.vertices)}
    assert {frozenset(map(to_canon.get, e)) for e in g.edges} == set(canon.edges)


def test_pinned_determinants():
    assert graph_determinant(parse_graph("[2^4]")) == 5
    assert graph_determinant(parse_graph("[2,4]")) == 7
    assert graph_determinant(parse_graph("[2;[2],[3],[5]]")) == 29


def test_empty_type_determinant_is_one():
    assert len(graphs.DynkinType(()).components) == 0
    assert graph_determinant(chain([])) == 1


def test_dynkin_matrix_is_block_diagonal():
    t = parse_dynkin("[2,4]+[3]")
    m = dynkin_matrix(t)
    assert len(m) == 3
    det = sympy.Matrix(m).det()
    assert abs(det) == 7 * 3


def test_not_negative_definite_example():
    # the affine E6 configuration has determinant zero
    affine = star(2, ((2, 2), (2, 2), (2, 2)))
    assert not is_negative_definite(affine)
    assert is_negative_definite(star(2, ((2,), (2,), (2,))))


def test_table1_enumeration_default_count():
    out = graphs.table1_enumerate()
    assert len(out) == 54
    types = {graphs.format_dynkin(t) for _, t in out}
    assert "2[2^4]+[3]" in types
    assert "2[2^4]+[2,4]" in types
    assert "2[2^4]+[2;[2],[3],[5]]" in types


def test_table1_param_validation():
    inst = graphs.Table1Instance.make(10, l=3)
    with pytest.raises(graphs.ParamOutOfRangeError):
        graphs.table1_generate(inst)
    with pytest.raises(graphs.ParamOutOfRangeError):
        graphs.table1_generate(graphs.Table1Instance.make(4))


def test_graph_to_json_lists_self_intersections_and_sorted_edges():
    g = parse_graph("[2;[2],[3],[2,5]]")
    assert graph_to_json(g) == {
        "vertices": [
            {"id": "v0", "self_int": -2},
            {"id": "v1", "self_int": -2},
            {"id": "v2", "self_int": -3},
            {"id": "v3", "self_int": -2},
            {"id": "v4", "self_int": -5},
        ],
        "edges": [["v0", "v1"], ["v0", "v2"], ["v0", "v3"], ["v3", "v4"]],
    }


def _walked_graphs():
    """Graphs built by chain() and star(): group 5's sweep, every component
    of the Table 1 types with n, m <= 30 with its canonical graph, and a
    chain and a star near MAX_VERTICES."""
    yield from verify._sweep_graphs()
    for _, t in table1_enumerate(n_range=(0, 30), m_range=(1, 30)):
        for g in t.components:
            yield g
            yield g.canonical()
    third = MAX_VERTICES // 3
    yield chain([2] * (MAX_VERTICES - 1) + [5])
    yield star(5, [[2] * third, [3] * third, [2] * (MAX_VERTICES - 1 - 2 * third)])


def test_vertices_and_edges_keep_the_constructors_layout():
    # ids v0, v1, ... in walk order: a chain's edges join neighbours, and a
    # star's join its centre v0 to each branch and neighbours along each
    assert (chain([4, 2]).weights, chain([4, 2]).branches) == ((4, 2), None)
    assert (star(5, [[2, 3], [4], [6]]).weights, star(5, [[2, 3], [4], [6]]).branches) == (
        (5, 2, 3, 4, 6),
        (2, 1, 1),
    )
    count = 0
    for g in _walked_graphs():
        ids = [f"v{i}" for i in range(len(g.weights))]
        if g.is_chain():
            pairs = list(zip(ids, ids[1:]))
        else:
            assert len(g.branches) == 3 and min(g.branches) >= 1
            assert sum(g.branches) == len(ids) - 1
            pairs, start = [], 1
            for length in g.branches:
                path = ["v0"] + ids[start : start + length]
                pairs += zip(path, path[1:])
                start += length
        assert g.vertices == tuple(zip(ids, g.weights))
        assert g.edges == frozenset(map(frozenset, pairs))
        count += 1
    assert count >= 8270 + 2 * 530


@pytest.mark.parametrize(
    "make",
    [
        lambda: chain([2, 1]),
        lambda: chain([1]),
        lambda: star(1, [[2], [2], [2]]),
        lambda: star(2, [[2], [2, 0], [2]]),
    ],
)
def test_constructors_keep_the_weight_check(make):
    with pytest.raises(ValueError, match="< 2"):
        make()


@pytest.mark.parametrize("branches", [[[2], [2]], [[2], [], [2]], [[2]] * 4])
def test_star_needs_three_nonempty_branches(branches):
    with pytest.raises(ValueError, match="three nonempty branches"):
        star(2, branches)
