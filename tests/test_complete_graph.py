"""The complete graph: a generated ``complete:n=N`` (stored implicitly) against
the same K_n read back from an edge-list file (stored as CSR arrays), the
``graphgen`` bytes, the k-majority count, and O(n) memory on K_n."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from conftest import edges

from kmajority.cli import main
from kmajority.dynamics import (
    DynamicsParams,
    Family,
    _block_cols,
    _new_states,
    _round_block,
    _row_counts,
    init_random,
    run,
    step,
)
from kmajority.graph import (
    CompleteGraph,
    Graph,
    GraphKind,
    GraphSpec,
    generate,
    load_edge_list,
    save_edge_list,
)
from kmajority.meanfield import BiasMode

FAMILIES = {
    "kmaj3": dict(family=Family.KMAJORITY, k=3),
    "kmaj4": dict(family=Family.KMAJORITY, k=4),
    "voter": dict(family=Family.VOTER),
    "det": dict(family=Family.DETERMINISTIC_MAJORITY),
}


def complete_pair(n, tmp_path):
    """The generated K_n and the same edge set loaded from a file."""
    g = generate(GraphSpec(GraphKind.COMPLETE, n=n))
    path = tmp_path / f"k{n}.edges"
    save_edge_list(g, path)
    return g, load_edge_list(path)


@pytest.mark.parametrize("n", [2, 3, 64])
@pytest.mark.parametrize("mode", list(BiasMode), ids=lambda m: m.value)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_generated_and_loaded_complete_graphs_run_alike(tmp_path, n, mode, family):
    generated, loaded = complete_pair(n, tmp_path)
    states = np.arange(n) % 3 != 2  # n=2: all R; n=3: one B
    for seed in range(3):
        params = DynamicsParams(p=0.2, mode=mode, seed=seed, max_rounds=30,
                                **FAMILIES[family])
        a = run(generated, states, params, record_phi=True)
        b = run(loaded, states, params, record_phi=True)
        assert (a.tau, a.censored) == (b.tau, b.censored)
        assert [x.hex() for x in a.trajectory] == [x.hex() for x in b.trajectory]
        assert a.phi_min == b.phi_min and a.phi_max == b.phi_max
        sa = sb = states
        for t in range(5):
            sa, sb = step(generated, sa, params, t), step(loaded, sb, params, t)
            assert np.array_equal(sa, sb)
            assert int(generated.degrees @ sa) == int(loaded.degrees @ sb)


def test_graphgen_complete_bytes(capsys, tmp_path):
    out = tmp_path / "k50.edges"
    assert main(["graphgen", "--spec", "complete:n=50", "--out", str(out)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "00b70ffeb526192d83ce64f5535322a1a3d8d5233ea1f992296e8ba0fcacb253"


def reference_new_states(graph, states, params, block):
    """k-majority round spelled out on the CSR arrays, counting with
    ``seen.sum(axis=1)``."""
    k = params.k
    node = params.mode is BiasMode.NODE
    pick = (block[:, :k] * graph.degrees[:, None]).astype(np.int64)
    seen = states[graph.neighbors[graph.offsets[:-1, None] + pick]]
    if not node:
        seen &= block[:, k : 2 * k] >= params.p
    twice = 2 * seen.sum(axis=1)
    new = twice > k
    if k % 2 == 0:
        new |= (twice == k) & (block[:, -2 if node else -1] < 0.5)
    if node:
        new &= block[:, -1] >= params.p
    return new


@pytest.mark.parametrize("k", [1, 2, 3, 255, 256, 257, 1001])
@pytest.mark.parametrize("mode", list(BiasMode), ids=lambda m: m.value)
def test_kmajority_count_is_exact(tmp_path, k, mode):
    # all-R rows give count == k, which a count kept mod 256 gets wrong at
    # k >= 256; p = 0 keeps every R read intact in edge mode
    for g in complete_pair(40, tmp_path):
        for q, p in [(1.0, 0.0), (0.9, 0.0), (0.6, 0.1), (0.5, 0.3)]:
            states = np.random.default_rng(k).random(g.n) < q
            params = DynamicsParams(family=Family.KMAJORITY, p=p, mode=mode, seed=k, k=k)
            block = _round_block(g.n, _block_cols(params), params.seed, 0)
            expected = reference_new_states(g, states, params, block)
            assert np.array_equal(_new_states(g, states, params, block), expected)


def test_storage_follows_origin_not_edge_set(tmp_path):
    generated, loaded = complete_pair(30, tmp_path)
    assert isinstance(generated, CompleteGraph)
    assert type(loaded) is Graph and loaded.total_volume == loaded.n * (loaded.n - 1)


def test_repr_leaves_neighbors_unbuilt():
    # a dataclass repr would read, and so build, the n(n-1) neighbor array
    g = generate(GraphSpec(GraphKind.COMPLETE, n=30))
    assert repr(g) == "CompleteGraph(n=30)"
    assert "neighbors" not in g.__dict__


@pytest.mark.parametrize("n", [2, 3, 64])
def test_complete_graph_answers_like_its_csr_copy(tmp_path, n):
    generated, loaded = complete_pair(n, tmp_path)
    for u in range(n):
        row = generated.neighbors_of(u)
        assert row.dtype == np.int32 and np.array_equal(row, loaded.neighbors_of(u))
    assert list(edges(generated)) == list(edges(loaded))
    rng = np.random.default_rng(n)
    uniforms = rng.random((n, 5))
    uniforms[:, 0] = 0.0
    uniforms[:, 1] = np.nextafter(1.0, 0.0)
    assert np.array_equal(generated.sample_neighbors(uniforms),
                          loaded.sample_neighbors(uniforms))
    for states in (rng.random(n) < 0.5, np.ones(n, dtype=bool), np.zeros(n, dtype=bool)):
        assert np.array_equal(generated.r_neighbor_counts(states),
                              loaded.r_neighbor_counts(states))
    # the lazily built arrays equal the loaded ones, dtypes included
    for name in ("neighbors", "offsets", "degrees"):
        a, b = getattr(generated, name), getattr(loaded, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("k", [1, 2, 12, 13, 255, 256, 65535, 65536])
def test_row_counts_exact(k):
    seen = np.ones((3, k), dtype=bool)
    seen[1, ::2] = False
    seen[2] = False
    assert _row_counts(seen).tolist() == [k, k // 2, 0]
    assert _row_counts(seen).dtype == np.int64


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_complete_graph_rounds_use_linear_memory():
    # the n^2 neighbor array of K_5000 alone is 100 MB
    def rounds():
        g = generate(GraphSpec(GraphKind.COMPLETE, n=5000))
        s = init_random(g, 0.7, 0)
        params = DynamicsParams(family=Family.KMAJORITY, p=0.1, seed=0, k=3)
        for t in range(20):
            s = step(g, s, params, t)

    assert traced_peak(rounds) < 4 * 2**20


def test_complete_graph_edge_list_streams(tmp_path):
    def write():
        save_edge_list(generate(GraphSpec(GraphKind.COMPLETE, n=1000)), tmp_path / "k.edges")

    assert traced_peak(write) < 2**20
