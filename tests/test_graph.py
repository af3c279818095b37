import pytest

import formsim as fs


def test_pentagon_chain_is_valid():
    tree = fs.validate_spanning_tree(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    assert tree.n == 5
    assert tree.is_chain
    assert tree.edges == ((1, 2), (2, 3), (3, 4), (4, 5))


def test_single_vertex_tree():
    tree = fs.validate_spanning_tree(1, [])
    assert tree.edges == ()
    assert tree.is_chain
    assert tree.edge_array().shape == (0, 2)


def test_edges_reordered_topologically():
    tree = fs.validate_spanning_tree(4, [(3, 4), (1, 2), (2, 3)])
    assert tree.edges == ((1, 2), (2, 3), (3, 4))
    assert tree.is_chain


def test_star_tree_is_not_chain():
    tree = fs.validate_spanning_tree(4, [(1, 2), (1, 3), (1, 4)])
    assert not tree.is_chain


def test_back_edge_to_root_is_cycle():
    with pytest.raises(fs.CycleError):
        fs.validate_spanning_tree(3, [(1, 2), (2, 1)])


def test_repeated_child_is_cycle():
    with pytest.raises(fs.CycleError):
        fs.validate_spanning_tree(4, [(1, 2), (2, 3), (1, 3)])


def test_self_loop_is_cycle():
    with pytest.raises(fs.CycleError):
        fs.validate_spanning_tree(3, [(1, 2), (3, 3)])


def test_two_components_disconnected():
    with pytest.raises(fs.DisconnectedError):
        fs.validate_spanning_tree(4, [(1, 2), (3, 4)])


def test_missing_edge_disconnected():
    with pytest.raises(fs.DisconnectedError):
        fs.validate_spanning_tree(3, [(1, 2)])


def test_out_of_range_vertex_rejected():
    with pytest.raises(fs.GraphError, match=r"edge \(2, 7\) outside"):
        fs.validate_spanning_tree(3, [(1, 2), (2, 7)])


@pytest.mark.parametrize("edge", [(0, 2), (1, -1), (4, 6), (-1, 2)])
def test_every_endpoint_outside_1_to_n_is_a_graph_error(edge):
    # the one error family a scenario turns into a ValidationError
    with pytest.raises(fs.GraphError,
                       match=rf"edge \({edge[0]}, {edge[1]}\) outside "
                             r"vertex range 1\.\.5"):
        fs.validate_spanning_tree(5, [(1, 2), (2, 3), (3, 4), edge])


@pytest.mark.parametrize("n", [0, -1])
def test_no_vertices_is_a_graph_error(n):
    with pytest.raises(fs.GraphError, match="at least one vertex"):
        fs.validate_spanning_tree(n, [])


def test_error_hierarchy():
    for cls in (fs.CycleError, fs.DisconnectedError):
        assert issubclass(cls, fs.GraphError)
        assert issubclass(cls, ValueError)


def _oracle_accepts(n, edges):
    """Brute force: union-find connectivity plus edge count, with the
    oriented-edge legality conditions (each child once, never the root)."""
    if len(edges) != n - 1:
        return False
    children = [j for _, j in edges]
    if 1 in children or len(set(children)) != len(children):
        return False
    if any(i == j for i, j in edges):
        return False
    parent = list(range(n + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in edges:
        parent[find(i)] = find(j)
    return len({find(v) for v in range(1, n + 1)}) == 1


def test_validation_matches_union_find_oracle(rng):
    accepted = 0
    for _ in range(800):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n + 1))
        edges = [tuple(rng.integers(1, n + 1, size=2)) for _ in range(k)]
        want = _oracle_accepts(n, edges)
        try:
            fs.validate_spanning_tree(n, edges)
            got = True
        except fs.GraphError:
            got = False
        assert got == want, (n, edges)
        accepted += got
    assert accepted > 10  # the sampler does produce valid trees


def test_equal_trees_compare_and_hash_equal():
    edges = [(1, 2), (1, 3), (3, 4), (3, 5)]
    a = fs.validate_spanning_tree(5, edges)
    b = fs.validate_spanning_tree(5, list(edges))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != fs.validate_spanning_tree(5, [(1, 2), (2, 3), (3, 4), (3, 5)])
