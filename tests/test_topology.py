import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from islandsis.topology import (
    TopologyError,
    bipartite_supernetwork,
    build_supernetwork,
    complete_supernetwork,
    cycle_supernetwork,
    hop_distances,
    is_regular,
    star_supernetwork,
    superdegree,
)


def test_bipartite_construction():
    net = build_supernetwork([3, 3], [(1, 2)])
    assert net.num_islands == 2
    assert superdegree(net, 1) == 1 and superdegree(net, 2) == 1
    assert is_regular(net)
    assert net.is_connected and not net.degenerate


def test_four_cycle_superdegrees():
    net = build_supernetwork([5, 5, 5, 5], [(1, 2), (2, 3), (3, 4), (4, 1)])
    assert all(superdegree(net, i) == 2 for i in range(1, 5))
    assert is_regular(net)


def test_self_loop_rejected():
    with pytest.raises(TopologyError):
        build_supernetwork([2, 2], [(1, 1)])


def test_bad_labels_and_sizes_rejected():
    with pytest.raises(TopologyError):
        build_supernetwork([2, 2], [(1, 3)])
    with pytest.raises(TopologyError):
        build_supernetwork([2, 0], [(1, 2)])
    with pytest.raises(TopologyError):
        build_supernetwork([4], [])


@pytest.mark.parametrize("call, message", [
    (lambda: superdegree(cycle_supernetwork(3, 1), 0), "island label 0 out of range 1..3"),
    (lambda: cycle_supernetwork(2, 1), "a cycle needs at least 3 islands"),
    (lambda: star_supernetwork(3, [1, 2]), "expected 3 island sizes, got 2"),
    # a size or label that is not an integer is refused, never truncated
    (lambda: build_supernetwork((2.5, 3), [(1, 2)]), "island size must be an integer, got 2.5"),
    (lambda: build_supernetwork(np.array([2.9, 3.0]), [(1, 2)]),
     r"island size must be an integer, got np.float64\(2.9\)"),
    (lambda: build_supernetwork((2, 3), [(1.7, 2)]), "island label must be an integer, got 1.7"),
    (lambda: build_supernetwork((True, 3), [(1, 2)]), "island size must be an integer, got True"),
    (lambda: cycle_supernetwork(3, 2.5), "island size must be an integer, got 2.5"),
], ids=["island-label-0", "cycle-of-two", "sizes-short", "float-size", "numpy-float-size",
        "float-label", "bool-size", "generator-float-size"])
def test_generator_and_label_refusals(call, message):
    with pytest.raises(TopologyError, match=f"^{message}$"):
        call()


def test_numpy_integer_sizes_and_labels_accepted():
    net = build_supernetwork(np.array([2, 3]), [(np.int64(1), np.int32(2))])
    assert net.sizes == (2, 3) and net.edges == {(1, 2)}
    assert all(type(n) is int for n in net.sizes)


def test_duplicate_edges_collapse():
    net = build_supernetwork([1, 1, 1], [(1, 2), (2, 1), (1, 2), (2, 3)])
    assert len(net.edges) == 2


def test_star_is_not_regular():
    net = star_supernetwork(4, 1)
    assert superdegree(net, 1) == 3
    assert all(superdegree(net, i) == 1 for i in (2, 3, 4))
    assert not is_regular(net)


def test_isolated_island_flagged_degenerate():
    net = build_supernetwork([1, 1, 1], [(1, 2)])
    assert net.degenerate and not net.is_connected


def test_six_cycle_shells():
    net = cycle_supernetwork(6, 2)
    assert hop_distances(net, 1) == {1: 0, 2: 1, 6: 1, 3: 2, 5: 2, 4: 3}


def test_unreachable_shell_is_empty():
    net = build_supernetwork([1, 1, 1, 1], [(1, 2), (3, 4)])
    assert hop_distances(net, 1) == {1: 0, 2: 1}
    assert hop_distances(net, 4) == {4: 0, 3: 1}


def test_complete_and_bipartite_generators():
    comp = complete_supernetwork(5, 2)
    assert all(superdegree(comp, i) == 4 for i in range(1, 6))
    bip = bipartite_supernetwork(3, 7)
    assert bip.sizes == (3, 7)


@st.composite
def random_nets(draw):
    m = draw(st.integers(min_value=2, max_value=8))
    pairs = [(a, b) for a in range(1, m + 1) for b in range(a + 1, m + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs)))
    sizes = draw(st.lists(st.integers(1, 50), min_size=m, max_size=m))
    return build_supernetwork(sizes, edges)


@given(random_nets())
@settings(max_examples=60, deadline=None)
def test_shells_partition_component(net):
    # BFS layering: the reachable islands are closed under adjacency, and an
    # island at distance n > 0 has a neighbour at n - 1 and none nearer
    for i in range(1, net.num_islands + 1):
        dist = hop_distances(net, i)
        assert dist[i] == 0
        for j, n in dist.items():
            assert set(net.neighbors[j - 1]) <= set(dist)
            near = {dist[v] for v in net.neighbors[j - 1]}
            assert near <= {n - 1, n, n + 1}
            assert n == 0 or n - 1 in near
            assert hop_distances(net, j)[i] == n


@given(random_nets())
@settings(max_examples=60, deadline=None)
def test_superdegree_equals_first_shell(net):
    degs = [superdegree(net, i) for i in range(1, net.num_islands + 1)]
    assert degs == [sum(n == 1 for n in hop_distances(net, i).values())
                    for i in range(1, net.num_islands + 1)]
    assert is_regular(net) == (len(set(degs)) == 1)
