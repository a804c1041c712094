import csv
import os
import subprocess
import sys
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rateorank
from rateorank import (
    ComparisonGraph,
    FitConfig,
    ModelSpec,
    applicable_bound,
    build_laplacian,
    build_laplacian_from_design,
    comparison_graph,
    cv_sigma,
    generate_topology,
    mle_fit,
    sample,
    write_edge_list,
)
from helpers import dense_trace_pinv_std
from rateorank import cli, graph, sim
from rateorank.graph import RANK_TOL


def test_merge_and_orient_edges():
    g = comparison_graph(3, [(0, 1, 2), (1, 0, 3), (2, 1, 1)])
    assert g.edges.tolist() == [[0, 1, 5], [1, 2, 1]]
    assert g.n == 6
    design = g.to_design()
    assert design.shape == (6, 2)
    assert np.all(design[:5] == (0, 1))
    assert tuple(design[5]) == (1, 2)


def test_graph_validation():
    with pytest.raises(ValueError):
        comparison_graph(3, [(1, 1, 2)])
    with pytest.raises(IndexError):
        comparison_graph(3, [(0, 3, 1)])
    with pytest.raises(ValueError):
        comparison_graph(3, [(0, 1, 0)])
    with pytest.raises(ValueError):
        comparison_graph(3, [])
    # Mixed lists: the first bad triple in input order decides type and message.
    with pytest.raises(IndexError, match=r"edge \(0, 5\) out of range for d=3"):
        comparison_graph(3, [(0, 1, 1), (0, 5, 1), (1, 1, 1)])
    with pytest.raises(ValueError, match=r"self-comparison \(1, 1\)"):
        comparison_graph(3, [(0, 1, 1), (1, 1, 1), (0, 5, 1)])
    with pytest.raises(ValueError, match=r"edge \(2, 0\) has nonpositive weight -4"):
        comparison_graph(3, [(1, 0, 2), (2, 0, -4), (0, 5, 1), (2, 2, 1)])
    # Within one triple: self-comparison, then range, then weight.
    with pytest.raises(ValueError, match="self-comparison"):
        comparison_graph(3, [(7, 7, 0)])
    with pytest.raises(IndexError, match=r"\(-1, 2\)"):
        comparison_graph(3, [(-1, 2, 0)])
    with pytest.raises(ValueError, match="at least 2 items"):
        comparison_graph(1, [(0, 5, 1)])
    with pytest.raises(ValueError, match="at least one edge"):
        build_laplacian(3, [])
    with pytest.raises(ValueError, match=r"self-comparison \(2, 2\)"):
        build_laplacian_from_design(3, np.array([[0, 1], [2, 2], [0, 3]]))
    with pytest.raises(IndexError, match=r"\(0, 3\)"):
        build_laplacian_from_design(3, np.array([[0, 1], [0, 3], [2, 2]]))


@pytest.mark.parametrize("edges, shape", [([(0, 1)], r"\(1, 2\)"), ([(0, 1, 1, 1)], r"\(1, 4\)"),
                                          (np.array([0, 1, 1]), r"\(3,\)")])
def test_non_triples_rejected(edges, shape):
    with pytest.raises(ValueError, match=r"expected \(left, right, weight\) triples, got shape " + shape):
        comparison_graph(3, edges)


def test_non_integer_entries_rejected():
    with pytest.raises(ValueError, match=r"edge 0 holds a non-integer value: \[0.9, 1.7, 2.0\]"):
        comparison_graph(3, [(0.9, 1.7, 2)])
    with pytest.raises(ValueError, match=r"edge 1 holds a non-integer value: \[1.0, 2.0, 2.5\]"):
        build_laplacian(3, [(0, 1, 1), (1, 2, 2.5)])
    with pytest.raises(ValueError, match="edge 0 holds a non-integer value"):
        comparison_graph(3, np.array([[0, 1, np.inf]]))
    assert np.array_equal(comparison_graph(3, [(0.0, 1.0, 2.0), (2, 1, 1)]).edges,
                          comparison_graph(3, [(0, 1, 2), (2, 1, 1)]).edges)


@pytest.mark.parametrize("weight, shown", [(2**63, r"9\.223372036854776e\+18"), (10**20, "100000000000000000000")])
def test_weight_reaching_2_63_rejected(weight, shown):
    # numpy holds such a weight as a float (2**63 beside small ints) or as a Python int (10**20): neither is cast.
    for build in (comparison_graph, build_laplacian):
        message = r"edge 0 holds an integer outside \[-2\*\*63, 2\*\*63\): \[0.*, 1.*, " + shown
        with pytest.raises(ValueError, match=message):
            build(3, [(0, 1, weight), (1, 2, 1)])
    with pytest.raises(ValueError, match=r"2\*\*63"):
        comparison_graph(3, np.array([[0, 1, 2**63], [1, 2, 1]], dtype=np.uint64))
    with pytest.raises(ValueError, match=r"2\*\*63"):
        generate_topology("complete", 3, 10**20)


def test_merged_weight_overflow_rejected():
    # Two rows of one pair that each fit in int64 but whose sum does not.
    halves = [(0, 1, 2**62), (1, 0, 2**62)]
    for build in (comparison_graph, build_laplacian):
        with pytest.raises(ValueError, match=r"edge \(0, 1\) has merged weight 9223372036854775808"):
            build(2, halves)
        with pytest.raises(ValueError, match="total weight 9223372036854775808"):
            build(3, [(0, 1, 2**62), (2, 1, 2**62)])
    # Just below the limit the weights stay exact.
    g = comparison_graph(3, [(0, 1, 2**62), (1, 0, 2**62 - 2), (2, 1, 1)])
    assert g.edges.tolist() == [[0, 1, 2**63 - 2], [1, 2, 1]] and g.n == 2**63 - 1
    assert build_laplacian(2, [(0, 1, 2**62), (1, 0, 2**62 - 1)]).n == 2**63 - 1


def test_generator_input():
    triples = [(0, 1, 1), (2, 1, 3), (1, 0, 2)]
    g = comparison_graph(3, (t for t in triples))
    assert g.edges.tolist() == [[0, 1, 3], [1, 2, 3]]
    lap = build_laplacian(3, iter(triples))
    assert np.array_equal(lap.m, build_laplacian(g.d, g.edges).m)
    assert lap.n == 6
    assert np.array_equal(comparison_graph(3, np.array(triples)).edges, g.edges)


def _dict_merge(triples):
    merged = {}
    for a, b, w in triples:
        key = (min(a, b), max(a, b))
        merged[key] = merged.get(key, 0) + w
    return [[a, b, merged[(a, b)]] for a, b in sorted(merged)]


def _loop_laplacian(d, edges):
    m = np.zeros((d, d))
    for a, b, w in edges:
        m[a, a] += w
        m[b, b] += w
        m[a, b] -= w
        m[b, a] -= w
    return m


@st.composite
def _triple_lists(draw):
    d = draw(st.integers(2, 9))
    item = st.integers(0, d - 1)
    pair = st.tuples(item, item).filter(lambda p: p[0] != p[1])
    weight = st.one_of(st.integers(1, 5), st.integers(1, 2**40))
    pairs = draw(st.lists(pair, min_size=1, max_size=40))
    # Repeat some pairs, in either orientation, so merging has work to do.
    pairs += [p[::-1] if flip else p for p, flip in draw(st.lists(st.tuples(st.sampled_from(pairs), st.booleans())))]
    return d, [(a, b, draw(weight)) for a, b in pairs]


@settings(max_examples=200, deadline=None)
@given(_triple_lists())
def test_array_build_matches_loop_reference(case):
    d, triples = case
    g = comparison_graph(d, triples)
    assert g.edges.tolist() == _dict_merge(triples)
    assert g.edges.dtype == np.int64 and not g.edges.flags.writeable
    lap = build_laplacian(d, triples)
    assert np.all(lap.m == _loop_laplacian(d, g.edges))
    assert np.array_equal(lap.m, _loop_laplacian(d, triples))  # unmerged: repeats and reversals add up
    assert lap.n == sum(w for _, _, w in triples)
    # Small weights keep the row expansion short.
    small = comparison_graph(d, [(a, b, 1 + w % 4) for a, b, w in triples])
    design = small.to_design()
    assert design.tolist() == [[a, b] for a, b, w in small.edges for _ in range(w)]
    assert np.all(build_laplacian_from_design(d, design).m == build_laplacian(d, small.edges).m)


@settings(max_examples=200, deadline=None)
@given(_triple_lists(), st.randoms(use_true_random=False))
def test_merged_edges_merge_to_themselves(case, rnd):
    d, triples = case
    merged = graph._merge_edges(d, triples)
    # Merged input is kept as it is (copied if writeable), and a shuffled, flipped and split copy merges back to it.
    assert graph._merge_edges(d, merged) is merged
    writeable = merged.copy()
    again = graph._merge_edges(d, writeable)
    scrambled = []
    for a, b, w in merged.tolist():
        cut = rnd.randint(0, w)
        parts = [cut, w - cut] if 0 < cut < w else [w]
        scrambled += [(b, a, part) if rnd.random() < 0.5 else (a, b, part) for part in parts]
    rnd.shuffle(scrambled)
    for got in (again, graph._merge_edges(d, scrambled), graph._merge_edges(d, np.array(scrambled))):
        assert got.dtype == np.int64 and got.shape == merged.shape and not got.flags.writeable
        assert got.tobytes() == merged.tobytes()
    assert not np.may_share_memory(again, writeable) and writeable.flags.writeable


def test_merged_input_keeps_its_checks():
    # Merged input skips the second merge, not the checks: range, weight and the int64 total.
    with pytest.raises(IndexError, match=r"edge \(1, 3\) out of range for d=3"):
        comparison_graph(3, np.array([[0, 1, 1], [1, 3, 1]]))
    with pytest.raises(ValueError, match=r"edge \(1, 2\) has nonpositive weight 0"):
        comparison_graph(3, np.array([[0, 1, 1], [1, 2, 0]]))
    with pytest.raises(ValueError, match="total weight 9223372036854775808 reaches 2\\*\\*63"):
        comparison_graph(3, np.array([[0, 1, 2**62], [1, 2, 2**62]]))
    caller = np.array([[0, 1, 2], [1, 2, 3]])
    edges = comparison_graph(3, caller).edges
    caller[0, 2] = 7  # the caller's array stays writeable and is not shared
    assert edges.tolist() == [[0, 1, 2], [1, 2, 3]]


def test_single_edge_spectrum():
    lap = build_laplacian(2, [(0, 1, 4)])
    assert lap.n == 4
    assert np.allclose(lap.m, 4 * np.array([[1, -1], [-1, 1]]))
    assert lap.eigenvalues[0] == pytest.approx(8.0)
    assert lap.lambda2 == pytest.approx(8.0)
    assert lap.connected
    assert lap.component.tolist() == [0, 0]


def test_pseudo_inverse_matches_numpy():
    # The package keeps no pseudoinverse matrix, only its trace summed over the spectrum.
    rng = np.random.default_rng(11)
    for _ in range(10):
        d = int(rng.integers(3, 9))
        edges = [(a, b, int(rng.integers(1, 5))) for a in range(d) for b in range(a + 1, d) if rng.uniform() < 0.7]
        edges += [(i, i + 1, 1) for i in range(d - 1)]  # guarantee connectivity
        lap = build_laplacian(d, edges)
        assert lap.trace_pinv_std == pytest.approx(lap.n * np.trace(np.linalg.pinv(lap.m)), rel=1e-9)


def test_known_connectivity_values():
    complete = build_laplacian(5, [(a, b, 1) for a in range(5) for b in range(a + 1, 5)])
    assert complete.lambda2 == pytest.approx(5.0)
    path = build_laplacian(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    assert path.lambda2 == pytest.approx(2.0 * (1.0 - np.cos(np.pi / 4.0)))


def test_disconnected_graph():
    lap = build_laplacian(4, [(0, 1, 3), (2, 3, 5)])
    assert lap.lambda2 == 0.0
    assert not lap.connected
    assert lap.component.tolist() == [0, 0, 2, 2]


def test_laplacian_from_design_matches_edge_build():
    g = comparison_graph(4, [(0, 1, 2), (1, 2, 1), (2, 3, 3)])
    a = build_laplacian(g.d, g.edges)
    b = build_laplacian_from_design(4, g.to_design())
    assert np.array_equal(a.m, b.m)
    assert a.n == b.n == 6


def test_spectral_summary_standardization():
    # One edge compared n times: lambda2(M)/n = 2, n * tr(pinv M) = 1/2.
    for n in (1, 7, 40):
        s = build_laplacian(2, [(0, 1, n)])
        assert s.lambda2_std == pytest.approx(2.0)
        assert s.trace_pinv_std == pytest.approx(0.5)
        assert s.connected
    s = build_laplacian(4, [(0, 1, 1), (2, 3, 1)])
    assert not s.connected


def test_topology_budget_allocation():
    g = generate_topology("complete", 3, 4)
    assert g.edges.tolist() == [[0, 1, 2], [0, 2, 1], [1, 2, 1]]
    for kind, kwargs in (("complete", {}), ("dumbbell", {}), ("star", {}), ("expander", {"k": 4})):
        g = generate_topology(kind, 10, 137, **kwargs)
        assert g.n == 137
        assert build_laplacian(g.d, g.edges).connected
        weights = [w for _, _, w in g.edges]
        assert max(weights) - min(weights) <= 1


def test_topology_refuses_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        generate_topology("expander", 12, 60, seed=-1, k=3)


def test_dumbbell_shape():
    g = generate_topology("dumbbell", 6, 7)
    pairs = {(a, b) for a, b, _ in g.edges}
    assert (2, 3) in pairs  # the bridge
    assert len(pairs) == 7  # two triangles plus the bridge
    for a, b in pairs - {(2, 3)}:
        assert (a < 3) == (b < 3)
    with pytest.raises(ValueError):
        generate_topology("dumbbell", 5, 100)


def test_star_shape():
    g = generate_topology("star", 5, 8)
    assert all(a == 0 for a, _, _ in g.edges)
    assert {b for _, b, _ in g.edges} == {1, 2, 3, 4}


def test_expander_regularity_and_gap():
    g = generate_topology("expander", 12, 100, seed=3, k=4)
    degree = np.zeros(12, dtype=int)
    for a, b, _ in g.edges:
        degree[a] += 1
        degree[b] += 1
    assert np.all(degree == 4)
    base = build_laplacian(12, [(a, b, 1) for a, b, _ in g.edges])
    assert base.lambda2 >= 0.4
    assert np.array_equal(generate_topology("expander", 12, 100, seed=3, k=4).edges, g.edges)
    with pytest.raises(ValueError):
        generate_topology("expander", 12, 100, k=2)
    with pytest.raises(ValueError):
        generate_topology("expander", 9, 100, k=3)  # odd k*d


def test_topology_rejects_small_budget():
    with pytest.raises(ValueError):
        generate_topology("complete", 10, 44)
    with pytest.raises(ValueError):
        generate_topology("unknown", 4, 10)


def test_edge_list_roundtrip(tmp_path):
    g = generate_topology("dumbbell", 6, 20, seed=1)
    path = tmp_path / "edges.csv"
    write_edge_list(g, path, item_ids=[f"item{i}" for i in range(6)])
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows == [[f"item{a}", f"item{b}", str(w)] for a, b, w in g.edges]
    assert sum(int(w) for _, _, w in rows) == 20


def test_edge_list_needs_one_id_per_item(tmp_path):
    path = tmp_path / "edges.csv"
    with pytest.raises(ValueError, match="expected 3 item ids, got 2"):
        write_edge_list(comparison_graph(3, [(0, 1, 1), (1, 2, 1)]), path, item_ids=["a", "b"])
    assert not path.exists()


def test_rank_tolerance_clamps_noise_eigenvalues():
    # A nearly-disconnected scaled graph: float noise in eigh must not fake connectivity.
    lap = build_laplacian(4, [(0, 1, 10**9), (2, 3, 10**9)])
    assert lap.eigenvalues[-2:] == pytest.approx([0.0, 0.0])
    assert not lap.connected
    assert isinstance(ComparisonGraph(2, np.array([[0, 1, 1]])).n, int)


def _reference_spectrum(m):
    """Dense eigh reference: eigenvalues nonincreasing, those below RANK_TOL * the largest set to zero."""
    values = np.linalg.eigh(m)[0][::-1].copy()
    values[values < RANK_TOL * values[0]] = 0.0
    return values


def _component_count(d, edges):
    parent = list(range(d))

    def root(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for a, b, _ in edges:
        parent[root(a)] = root(b)
    return len({root(a) for a in range(d)})


@st.composite
def _multigraphs(draw):
    """Random weighted multigraphs; about half are split by item parity, so surely disconnected."""
    d = draw(st.integers(2, 9))
    split = d >= 4 and draw(st.booleans())
    item = st.integers(0, d - 1)
    pair = st.tuples(item, item).filter(lambda p: p[0] != p[1] and (not split or p[0] % 2 == p[1] % 2))
    return d, [(a, b, draw(st.integers(1, 5))) for a, b in draw(st.lists(pair, min_size=1, max_size=30))]


@settings(max_examples=200, deadline=None)
@given(_multigraphs())
def test_lazy_spectrum_matches_dense_reference(case):
    d, triples = case
    lap = build_laplacian(d, triples)
    reference = _reference_spectrum(lap.m)
    close = dict(rel=1e-9, abs=1e-9)
    assert lap.eigenvalues[0] == pytest.approx(reference[0], **close)
    assert lap.lambda2 == pytest.approx(reference[-2], **close)
    assert lap.lambda2_std == pytest.approx(reference[-2] / lap.n, **close)
    nonzero = reference[reference > 0]
    assert lap.trace_pinv_std == pytest.approx(lap.n * np.sum(1.0 / nonzero), **close)
    # Weights of at most 5 on at most 9 items keep every structural eigenvalue far above the clamp.
    components = _component_count(d, triples)
    assert d - np.unique(lap.component).size == np.count_nonzero(reference) == d - components
    assert lap.connected == (reference[-2] > 0) == (components == 1)


@st.composite
def _sparse_multigraphs(draw):
    """Random weighted multigraphs on up to 80 items with few pairs: many components and isolated items."""
    d = draw(st.integers(2, 80))
    item = st.integers(0, d - 1)
    pair = st.tuples(item, item).filter(lambda p: p[0] != p[1])
    return d, [(a, b, draw(st.integers(1, 5))) for a, b in draw(st.lists(pair, min_size=1, max_size=2 * d))]


@settings(max_examples=200, deadline=None)
@given(st.one_of(_multigraphs(), _sparse_multigraphs()))
def test_components_match_union_find(case):
    d, triples = case
    lap = build_laplacian(d, triples)
    component = lap.component
    count = _component_count(d, triples)
    # Each pair's items share a label, and there are as many labels as components: the labels are the components.
    assert all(component[a] == component[b] for a, b, _ in triples)
    assert np.unique(component).size == count
    # Each label is an item of its own component, and no item is smaller than its label: the smallest item.
    assert np.array_equal(component[component], component)
    assert np.all(component <= np.arange(d))
    assert lap.connected == (count == 1)


def test_components_are_exact_past_the_rank_clamp():
    # No fit holds 10**12 rows, so the weight spread is built directly.  lambda2 ~ 1.5 is below
    # RANK_TOL * lambda1 ~ 200 and reads 0, but the path 0-1-2 is connected.
    lap = build_laplacian(3, [(0, 1, 10**12), (1, 2, 1)])
    assert lap.lambda2 == 0.0
    assert lap.connected
    assert lap.component.tolist() == [0, 0, 0]


def _random_design(rng, d, groups, isolated):
    """Random weighted pairs within ``groups`` residue classes of the first d - isolated items, each a connected cycle."""
    live = d - isolated
    edges = []
    for g in range(groups):
        members = np.arange(g, live, groups)
        order = rng.permutation(members)
        edges += [(int(a), int(b), int(rng.integers(1, 5))) for a, b in zip(order, np.roll(order, -1)) if a != b]
        for _ in range(3 * members.size):
            a, b = rng.choice(members, 2, replace=False)
            edges.append((int(a), int(b), int(rng.integers(1, 5))))
    return edges


@pytest.mark.parametrize("d", [150, 300])
@pytest.mark.parametrize("groups, isolated", [(1, 0), (3, 0), (1, 7), (2, 5)],
                         ids=["connected", "split", "isolated", "split-isolated"])
def test_trace_matches_dense_pinv_across_blocks(d, groups, isolated):
    rng = np.random.default_rng(d + 10 * groups + isolated)
    lap = build_laplacian(d, _random_design(rng, d, groups, isolated))
    assert np.unique(lap.component).size == groups + isolated
    assert lap.trace_pinv_std == pytest.approx(lap.n * np.trace(np.linalg.pinv(lap.m)), rel=1e-9)
    assert lap.trace_pinv_std == dense_trace_pinv_std(lap)


@st.composite
def _split_weighted_graphs(draw):
    """Random graphs on up to 150 items (past two Cholesky blocks) with integer weights up to 10**6, split into
    up to 4 residue classes, so they have several components and often isolated items."""
    d = draw(st.integers(2, 150))
    classes = draw(st.integers(1, 4))
    item = st.integers(0, d - 1)
    pair = st.tuples(item, item).filter(lambda p: p[0] != p[1] and p[0] % classes == p[1] % classes)
    weight = st.one_of(st.integers(1, 5), st.integers(1, 10**6))
    return d, [(a, b, draw(weight)) for a, b in draw(st.lists(pair, min_size=1, max_size=3 * d))]


@settings(max_examples=200, deadline=None)
@given(st.one_of(_multigraphs(), _split_weighted_graphs()))
def test_trace_equals_the_dense_trace_bitwise(case):
    # Scattering the grounded block straight from the pairs builds, entry for entry, the np.ix_ copy of M.
    d, triples = case
    lap = build_laplacian(d, triples)
    assert lap.trace_pinv_std == dense_trace_pinv_std(lap)


def test_trace_grounds_each_component_at_its_heaviest_item():
    # On the path 0 -1- 1 -1e17- 2, tr(pinv M) = (2/1 + 2/1e17) / 3 and n = 1e17 + 1.  Grounded at item 0, the
    # Cholesky factor meets 1e17 + 1 - 1e17, which rounds to 0, and the trace came out 2.083e15.
    lap = build_laplacian(3, [(0, 1, 1), (1, 2, 10**17)])
    exact = Fraction(2, 3) * (1 + Fraction(1, 10**17)) * (10**17 + 1)
    assert lap.trace_pinv_std == pytest.approx(float(exact), rel=1e-15)


def _weighted_tree(rng, d, ratio):
    """A random tree on d items with integer weights log-uniform in [1, ratio], both ends taken, and its exact
    trace_pinv_std: n * tr(pinv M) = n / d * sum over edges of s (d - s) / w, s the size of one side."""
    parent = [int(rng.integers(0, i)) for i in range(1, d)]
    weights = np.rint(np.exp(rng.uniform(0.0, np.log(ratio), d - 1))).astype(np.int64)
    weights[rng.permutation(d - 1)[:2]] = 1, ratio
    size = [1] * d
    for child in range(d - 1, 0, -1):
        size[parent[child - 1]] += size[child]
    label = rng.permutation(d)
    edges = [(int(label[child]), int(label[parent[child - 1]]), int(weights[child - 1])) for child in range(1, d)]
    exact = sum(Fraction(size[c] * (d - size[c]), int(weights[c - 1])) for c in range(1, d)) * int(weights.sum()) / d
    return edges, exact


# The bound on the trace's relative error, in units of ratio * eps, ratio the largest edge weight over the
# smallest.  Over 5,000 such trees of 3 to 40 items, 500 per ratio from 1e3 to 1e12, the worst error was 2.4
# (3.9 with each component grounded at its smallest item instead).
TREE_TRACE_TOL = 8


@pytest.mark.parametrize("ratio", [10**k for k in range(3, 13)])
def test_trace_matches_the_tree_formula(ratio):
    rng = np.random.default_rng(ratio % 1009)
    for _ in range(100):
        d = int(rng.integers(3, 41))
        edges, exact = _weighted_tree(rng, d, ratio)
        got = build_laplacian(d, edges).trace_pinv_std
        assert abs(Fraction(got) - exact) <= TREE_TRACE_TOL * ratio * np.finfo(float).eps * exact


def _expander_by_spectrum(d, k, seed):
    """The pairing-model sampling of ``generate_topology("expander", ...)``, accepting by eigvalsh: lambda2 >= k / 10."""
    rng = np.random.default_rng(seed)
    while True:
        stubs = np.repeat(np.arange(d), k)
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        edges = sorted({(min(a, b), max(a, b)) for a, b in pairs.tolist()})
        if len(edges) < len(pairs) or np.any(pairs[:, 0] == pairs[:, 1]):
            continue
        m = np.zeros((d, d))
        for a, b in edges:
            m[a, b] = m[b, a] = -1.0
        m[np.diag_indices(d)] = k
        if np.linalg.eigvalsh(m)[1] >= 0.1 * k:
            return edges


@pytest.mark.parametrize("d, k", [(200, 4), (12, 3)])
def test_expander_factorization_accepts_what_the_spectrum_accepts(d, k):
    for seed in range(50):
        g = generate_topology("expander", d, d * k // 2, seed=seed, k=k)
        assert [(a, b) for a, b, _ in g.edges] == _expander_by_spectrum(d, k, seed)


def test_fits_and_bounds_need_no_eigenvectors(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigh or eigvalsh called")

    design = np.array([(a, b) for a in range(6) for b in range(a + 1, 6)] * 8)
    w = np.linspace(0.5, -0.5, 6)
    btl = sample(ModelSpec("btl", 1.0, 1.0), w, design, seed=5)
    thurstone = sample(ModelSpec("thurstone", 1.0, 1.0), w, design, seed=6)
    # Connectivity comes from the components and the bound's trace from a Cholesky factor: no spectrum at all.
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert mle_fit(btl, FitConfig()).converged
    assert applicable_bound(btl, 1.0) is not None
    sigma, table = cv_sigma(thurstone, FitConfig(sigma_grid=(0.5, 1.0)))
    assert sigma in (0.5, 1.0) and len(table) == 2
    assert len(generate_topology("expander", 30, 60, seed=2, k=4).edges) == 60

    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
    # The topology report reads lambda2 from the one spectrum it computes.
    assert cli.main(["topology", "--kind", "expander", "--d", "30", "--n", "60", "--k", "4"]) == 0
    assert len(calls) == 1
    calls.clear()
    lap = build_laplacian(3, [(0, 1, 1), (1, 2, 2)])
    assert not calls
    first = lap.eigenvalues
    assert lap.eigenvalues is first and lap.lambda2 > 0 and lap.connected
    assert len(calls) == 1


@pytest.fixture
def m_builds(monkeypatch):
    """Every Laplacian built, and every Laplacian whose dense M is built, in call order."""
    built, assembled = [], []
    build_laplacian, assemble = graph.build_laplacian, graph.Laplacian.m.func
    monkeypatch.setattr(graph, "build_laplacian", lambda *args: built.append(build_laplacian(*args)) or built[-1])
    counted = cached_property(lambda lap: assembled.append(lap) or assemble(lap))
    counted.__set_name__(graph.Laplacian, "m")
    monkeypatch.setattr(graph.Laplacian, "m", counted)
    return built, assembled


def test_fits_bounds_and_folds_never_build_m(m_builds):
    built, assembled = m_builds
    design = np.array([(a, b) for a in range(6) for b in range(a + 1, 6)] * 8)
    w = np.linspace(0.5, -0.5, 6)
    btl = sample(ModelSpec("btl", 1.0, 1.0), w, design, seed=5)
    thurstone = sample(ModelSpec("thurstone", 1.0, 1.0), w, design, seed=6)
    assert mle_fit(btl, FitConfig()).converged
    assert applicable_bound(btl, 1.0) is not None
    sigma, table = cv_sigma(thurstone, FitConfig(sigma_grid=(0.5, 1.0)))
    assert mle_fit(thurstone.with_sigma(sigma), FitConfig()).converged
    # One Laplacian for each fitted set and one for each training fold, and not one of them built M.
    assert len(built) == 5 and not assembled


@pytest.mark.parametrize("argv", [["topology", "--kind", "expander", "--d", "20", "--n", "100", "--k", "4"],
                                  ["pack", "--d", "12", "--delta", "1", "--alpha", "0.2"]], ids=["topology", "pack"])
def test_topology_and_pack_build_m_once(m_builds, argv, capsys):
    built, assembled = m_builds
    assert cli.main(argv) == 0
    assert len(built) == 1 and assembled == built


def test_seminorm_builds_m_once_per_design(m_builds):
    built, assembled = m_builds
    config = sim.ExperimentConfig(model=ModelSpec("btl", 1.0, 1.0), topology=sim.TopologySpec("complete", 5, 100),
                                  w_true={"rule": "uniform_box", "b": 0.5}, trials=4, seed=3)
    assert sim.run_experiment(config)[sim.METRIC_SEMINORM].trials == 4
    assert len(assembled) == 1 and assembled[0] in built


def test_cli_import_leaves_scipy_sparse_unloaded():
    # Connectivity is read from the package's own numpy component search: importing
    # scipy.sparse.csgraph for connected_components would add to every CLI start-up.
    probe = "import sys, rateorank.cli; print('scipy.sparse' in sys.modules)"
    src = str(Path(rateorank.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
