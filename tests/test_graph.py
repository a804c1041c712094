import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rateorank import (
    ComparisonGraph,
    ConnectivityError,
    build_laplacian,
    build_laplacian_from_design,
    comparison_graph,
    generate_topology,
    laplacian_of,
    pseudo_inverse,
    read_edge_list,
    spectral_summary,
    write_edge_list,
)


def test_merge_and_orient_edges():
    g = comparison_graph(3, [(0, 1, 2), (1, 0, 3), (2, 1, 1)])
    assert g.edges == ((0, 1, 5), (1, 2, 1))
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


def test_merged_weight_overflow_rejected(tmp_path):
    # Two rows of one pair that each fit in int64 but whose sum does not.
    halves = [(0, 1, 2**62), (1, 0, 2**62)]
    for build in (comparison_graph, build_laplacian):
        with pytest.raises(ValueError, match=r"edge \(0, 1\) has merged weight 9223372036854775808"):
            build(2, halves)
        with pytest.raises(ValueError, match="total weight 9223372036854775808"):
            build(3, [(0, 1, 2**62), (2, 1, 2**62)])
    path = tmp_path / "edges.csv"
    path.write_text("a,b,4611686018427387904\nb,a,4611686018427387904\n")
    with pytest.raises(ValueError, match=r"edge \(0, 1\) has merged weight"):
        read_edge_list(path)
    # Just below the limit the weights stay exact.
    g = comparison_graph(3, [(0, 1, 2**62), (1, 0, 2**62 - 2), (2, 1, 1)])
    assert g.edges == ((0, 1, 2**63 - 2), (1, 2, 1)) and g.n == 2**63 - 1
    assert build_laplacian(2, [(0, 1, 2**62), (1, 0, 2**62 - 1)]).n == 2**63 - 1


def test_generator_input():
    triples = [(0, 1, 1), (2, 1, 3), (1, 0, 2)]
    g = comparison_graph(3, (t for t in triples))
    assert g.edges == ((0, 1, 3), (1, 2, 3))
    lap = build_laplacian(3, iter(triples))
    assert np.array_equal(lap.m, laplacian_of(g).m)
    assert lap.n == 6
    assert comparison_graph(3, np.array(triples)) == g


def _dict_merge(triples):
    merged = {}
    for a, b, w in triples:
        key = (min(a, b), max(a, b))
        merged[key] = merged.get(key, 0) + w
    return tuple((a, b, merged[(a, b)]) for a, b in sorted(merged))


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
    assert g.edges == _dict_merge(triples)
    assert all(type(x) is int for edge in g.edges for x in edge)
    lap = build_laplacian(d, triples)
    assert np.all(lap.m == _loop_laplacian(d, g.edges))
    assert lap.n == sum(w for _, _, w in triples)
    # Small weights keep the row expansion short.
    small = comparison_graph(d, [(a, b, 1 + w % 4) for a, b, w in triples])
    design = small.to_design()
    assert design.tolist() == [[a, b] for a, b, w in small.edges for _ in range(w)]
    assert np.all(build_laplacian_from_design(d, design).m == laplacian_of(small).m)


def test_single_edge_spectrum():
    lap = build_laplacian(2, [(0, 1, 4)])
    assert lap.n == 4
    assert np.allclose(lap.m, 4 * np.array([[1, -1], [-1, 1]]))
    assert lap.lambda1 == pytest.approx(8.0)
    assert lap.lambda2 == pytest.approx(8.0)
    assert lap.connected
    assert lap.rank == 1
    # Pseudoinverse of c*K for the 2x2 difference Laplacian K is K / (4c).
    assert np.allclose(pseudo_inverse(lap), lap.m / 64.0)


def test_pseudo_inverse_matches_numpy():
    rng = np.random.default_rng(11)
    for _ in range(10):
        d = int(rng.integers(3, 9))
        edges = [(a, b, int(rng.integers(1, 5))) for a in range(d) for b in range(a + 1, d) if rng.uniform() < 0.7]
        edges += [(i, i + 1, 1) for i in range(d - 1)]  # guarantee connectivity
        lap = build_laplacian(d, edges)
        assert np.allclose(pseudo_inverse(lap), np.linalg.pinv(lap.m), atol=1e-9)


def test_known_connectivity_values():
    complete = build_laplacian(5, [(a, b, 1) for a in range(5) for b in range(a + 1, 5)])
    assert complete.lambda2 == pytest.approx(5.0)
    path = build_laplacian(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    assert path.lambda2 == pytest.approx(2.0 * (1.0 - np.cos(np.pi / 4.0)))


def test_disconnected_graph():
    lap = build_laplacian(4, [(0, 1, 3), (2, 3, 5)])
    assert lap.lambda2 == 0.0
    assert not lap.connected
    assert lap.rank == 2
    with pytest.raises(ConnectivityError):
        pseudo_inverse(lap)


def test_laplacian_from_design_matches_edge_build():
    g = comparison_graph(4, [(0, 1, 2), (1, 2, 1), (2, 3, 3)])
    a = laplacian_of(g)
    b = build_laplacian_from_design(4, g.to_design())
    assert np.array_equal(a.m, b.m)
    assert a.n == b.n == 6


def test_spectral_summary_standardization():
    # One edge compared n times: lambda2(M)/n = 2, n * tr(pinv M) = 1/2.
    for n in (1, 7, 40):
        lap = build_laplacian(2, [(0, 1, n)])
        s = spectral_summary(lap)
        assert s.lambda2_std == pytest.approx(2.0)
        assert s.trace_pinv_std == pytest.approx(0.5)
        assert s.connected
    s = spectral_summary(build_laplacian(4, [(0, 1, 1), (2, 3, 1)]))
    assert not s.connected


def test_topology_budget_allocation():
    g = generate_topology("complete", 3, 4)
    assert g.edges == ((0, 1, 2), (0, 2, 1), (1, 2, 1))
    for kind, kwargs in (("complete", {}), ("dumbbell", {}), ("star", {}), ("expander", {"k": 4})):
        g = generate_topology(kind, 10, 137, **kwargs)
        assert g.n == 137
        assert laplacian_of(g).connected
        weights = [w for _, _, w in g.edges]
        assert max(weights) - min(weights) <= 1


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
    assert generate_topology("expander", 12, 100, seed=3, k=4) == g
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
    back, ids = read_edge_list(path)
    assert ids == [f"item{i}" for i in range(6)][: len(ids)]
    assert back.n == 20
    assert {(ids[a], ids[b], w) for a, b, w in back.edges} == {
        (f"item{a}", f"item{b}", w) for a, b, w in g.edges
    }


def test_edge_list_parsing(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("# comment line\nalpha,beta,3\n\nbeta,gamma,1\n")
    g, ids = read_edge_list(path)
    assert ids == ["alpha", "beta", "gamma"]
    assert g.edges == ((0, 1, 3), (1, 2, 1))
    path.write_text("alpha,beta\n")
    with pytest.raises(ValueError, match="line 1"):
        read_edge_list(path)
    path.write_text("alpha,beta,x\n")
    with pytest.raises(ValueError, match="weight"):
        read_edge_list(path)


def test_rank_tolerance_clamps_noise_eigenvalues():
    # A nearly-disconnected scaled graph: float noise in eigh must not fake connectivity.
    lap = build_laplacian(4, [(0, 1, 10**9), (2, 3, 10**9)])
    assert lap.eigenvalues[-2:] == pytest.approx([0.0, 0.0])
    assert not lap.connected
    assert isinstance(ComparisonGraph(2, ((0, 1, 1),)).n, int)
