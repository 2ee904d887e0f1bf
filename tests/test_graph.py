"""Graph construction and edge-list I/O."""

import codecs
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from conftest import edges

from kmajority import graph as graph_module
from kmajority.cli import main
from kmajority.graph import (
    Graph,
    GraphConstructionError,
    GraphFormatError,
    GraphKind,
    GraphSpec,
    _bit_counts,
    _build_from_keys,
    _gnp_dense,
    _gnp_keys,
    _key_dtype,
    _pack_rows,
    _scatter_counts,
    generate,
    load_edge_list,
    parse_graph_spec,
    save_edge_list,
)


def assert_valid(graph):
    """Structural invariants every constructed graph must satisfy."""
    assert graph.offsets[0] == 0 and graph.offsets[-1] == len(graph.neighbors)
    assert graph.total_volume == int(graph.degrees.sum()) == len(graph.neighbors)
    assert graph.degrees.min() >= 1
    pairs = set()
    for u in range(graph.n):
        nbrs = graph.neighbors_of(u)
        assert len(nbrs) == graph.degrees[u]
        assert np.all(np.diff(nbrs) > 0), f"node {u} neighbors not sorted/unique"
        assert u not in set(nbrs.tolist()), f"self-loop at {u}"
        for v in nbrs:
            pairs.add((u, int(v)))
    for u, v in pairs:
        assert (v, u) in pairs, f"asymmetric edge ({u}, {v})"
    assert graph.total_volume == 2 * graph.edge_count


class TestDerivedSizes:
    # gnp:n=200 takes the dense route at p = 0.5 and the edge-key route at
    # p = 0.1 (the switch is at p = 200 / 796)
    @pytest.mark.parametrize("text", [
        "complete:n=50", "gnp:n=200,p=0.5", "gnp:n=200,p=0.1", "regular:n=60,d=6", "file"])
    def test_sizes_are_read_off_offsets(self, tmp_path, text):
        if text == "file":
            path = tmp_path / "g.edges"
            path.write_text("# n=5\n0 1\n1 2\n2 3\n3 4\n4 0\n0 2\n")
            text = f"file:{path}"
        graph = generate(parse_graph_spec(text, seed=4))
        assert graph.n == len(graph.offsets) - 1
        assert graph.degrees.dtype == np.int64
        assert np.array_equal(graph.degrees, np.diff(graph.offsets))
        assert type(graph.total_volume) is int
        assert graph.total_volume == graph.offsets[-1]

    @pytest.mark.parametrize("node", [0, 1, 3])
    def test_zero_degree_row_is_rejected(self, node):
        # the 4-cycle 0-1-2-3 with node's row emptied
        rows = [[1, 3], [0, 2], [1, 3], [0, 2]]
        rows[node] = []
        offsets = np.cumsum([0] + [len(row) for row in rows])
        neighbors = np.array(sum(rows, []), dtype=np.int32)
        with pytest.raises(GraphConstructionError, match=f"^node {node} is isolated"):
            Graph(neighbors=neighbors, offsets=offsets)


class TestGenerate:
    def test_complete(self):
        g = generate(GraphSpec(GraphKind.COMPLETE, n=5))
        assert_valid(g)
        assert np.all(g.degrees == 4)
        assert g.total_volume == 20
        assert g.total_volume == g.n * (g.n - 1)

    def test_gnp_statistics(self):
        g = generate(GraphSpec(GraphKind.GNP, n=1000, edge_prob=0.5, seed=7))
        assert_valid(g)
        # mean degree within 3 sigma of (n-1)p
        mean = float(g.degrees.mean())
        sigma = math.sqrt(999 * 0.25 / 1000)
        assert abs(mean - 499.5) < 3 * sigma + 1.5

    def test_random_regular(self):
        g = generate(GraphSpec(GraphKind.RANDOM_REGULAR, n=100, degree=10, seed=1))
        assert_valid(g)
        assert np.all(g.degrees == 10)
        assert g.total_volume == 1000

    def test_random_regular_dense(self):
        g = generate(GraphSpec(GraphKind.RANDOM_REGULAR, n=1000, degree=200, seed=2))
        assert np.all(g.degrees == 200)

    def test_seed_determinism(self):
        a = generate(GraphSpec(GraphKind.GNP, n=200, edge_prob=0.3, seed=11))
        b = generate(GraphSpec(GraphKind.GNP, n=200, edge_prob=0.3, seed=11))
        c = generate(GraphSpec(GraphKind.GNP, n=200, edge_prob=0.3, seed=12))
        assert np.array_equal(a.neighbors, b.neighbors)
        assert not np.array_equal(a.neighbors, c.neighbors)
        r1 = generate(GraphSpec(GraphKind.RANDOM_REGULAR, n=60, degree=6, seed=5))
        r2 = generate(GraphSpec(GraphKind.RANDOM_REGULAR, n=60, degree=6, seed=5))
        assert np.array_equal(r1.neighbors, r2.neighbors)

    def test_gnp_isolated_is_error(self):
        # tiny edge probability on a tiny graph leaves isolated nodes
        with pytest.raises(GraphConstructionError):
            generate(GraphSpec(GraphKind.GNP, n=20, edge_prob=0.01, seed=0))

    def test_gnp_without_edges_is_isolated_node_error(self):
        # the isolated-node check is the one emptiness check
        with pytest.raises(GraphConstructionError, match="node 0 is isolated"):
            generate(GraphSpec(GraphKind.GNP, n=3, edge_prob=1e-9, seed=0))

    def test_edge_list_id_past_late_header(self, tmp_path):
        # a header after an edge bounds that edge too; its key 0*3 + 5 would
        # otherwise read as the edge (1, 2)
        path = tmp_path / "late.edges"
        path.write_text("0 5\n# n=3\n1 2\n")
        with pytest.raises(GraphFormatError, match="node id 5 >= declared n=3") as err:
            load_edge_list(path)
        assert err.value.line == 1

    @pytest.mark.parametrize("kind", [GraphKind.COMPLETE, GraphKind.FILE])
    @pytest.mark.parametrize("seed", [-1, 1.0, True])
    def test_seed_is_nonnegative_integer(self, kind, seed):
        with pytest.raises(ValueError, match="seed"):
            GraphSpec(kind, n=10, path="g.edges" if kind is GraphKind.FILE else None, seed=seed)

    @pytest.mark.parametrize("kind", ["complete", "file", None])
    def test_kind_is_a_graph_kind(self, kind):
        # kind="complete" used to construct; label() then raised
        # AttributeError and generate a bare TypeError
        with pytest.raises(ValueError, match="GraphKind"):
            GraphSpec(kind, n=10, path="g.edges")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GraphSpec(GraphKind.GNP, n=10, edge_prob=0.0)
        with pytest.raises(ValueError):
            GraphSpec(GraphKind.RANDOM_REGULAR, n=10, degree=10)
        with pytest.raises(ValueError):
            GraphSpec(GraphKind.RANDOM_REGULAR, n=5, degree=3)  # d*n odd
        with pytest.raises(ValueError):
            GraphSpec(GraphKind.COMPLETE, n=1)
        with pytest.raises(ValueError):
            GraphSpec(GraphKind.FILE)


class TestEdgeListIO:
    def test_load_path_graph(self, tmp_path):
        path = tmp_path / "p.edges"
        path.write_text("0 1\n1 2\n")
        g = load_edge_list(path)
        assert g.n == 3
        assert g.degrees.tolist() == [1, 2, 1]

    def test_round_trip(self, tmp_path):
        g = generate(GraphSpec(GraphKind.GNP, n=50, edge_prob=0.2, seed=3))
        path = tmp_path / "g.edges"
        save_edge_list(g, path)
        h = load_edge_list(path)
        assert h.n == g.n
        assert np.array_equal(h.neighbors, g.neighbors)
        assert np.array_equal(h.offsets, g.offsets)

    def test_save_k3(self, tmp_path):
        g = generate(GraphSpec(GraphKind.COMPLETE, n=3))
        path = tmp_path / "k3.edges"
        save_edge_list(g, path)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert sorted(lines) == ["0 1", "0 2", "1 2"]

    def test_comments_and_header(self, tmp_path):
        path = tmp_path / "c.edges"
        path.write_text("# a comment\n# n=4\n0 1\n\n2 3\n1 2\n")
        g = load_edge_list(path)
        assert g.n == 4

    @pytest.mark.parametrize(
        "content,line",
        [
            ("0 0\n", 1),
            ("0 1\n1 0\n", 2),
            ("0 1\nx 2\n", 2),
            ("0 1 2\n", 1),
            ("# n=2\n0 1\n1 2\n", 3),
            ("0 -1\n", 1),
            # an id past int64 used to escape as an OverflowError
            (f"0 1\n1 {10**20 - 1}\n", 2),
        ],
    )
    def test_malformed_reports_line(self, tmp_path, content, line):
        path = tmp_path / "bad.edges"
        path.write_text(content)
        with pytest.raises(GraphFormatError) as err:
            load_edge_list(path)
        assert err.value.line == line

    @pytest.mark.parametrize("content,line", [
        (b"\xff\xfe0 1\n", 1),
        (b"0 1\n1 2\n\xe9 3\n", 3),
        # far past the first read-ahead chunk of a text-mode file
        (b"".join(b"%d %d\n" % (i, i + 1) for i in range(5000)) + b"0 \xff\n", 5001),
    ], ids=["line-1", "line-3", "past-read-ahead"])
    def test_non_utf8_reports_line(self, tmp_path, content, line):
        # a bad byte used to surface as a bare codec error, a ValueError
        # rather than a GraphFormatError, with no line number
        path = tmp_path / "bad.edges"
        path.write_bytes(content)
        with pytest.raises(GraphFormatError) as err:
            load_edge_list(path)
        assert err.value.line == line
        assert str(err.value).startswith(f"line {line}: not UTF-8 text")

    def test_line_ends_as_text_mode(self, tmp_path):
        path = tmp_path / "cr.edges"
        path.write_bytes(b"0 1\r1 2\r\n\n2 0\n")
        g = load_edge_list(path)
        assert (g.n, g.edge_count) == (3, 3)

    @pytest.mark.parametrize("text", ["# n=3\n0 1\n1 2\n", "0 1\n1 2\n"],
                             ids=["header", "no-header"])
    def test_byte_order_mark_is_skipped(self, tmp_path, text):
        # a leading BOM, which Windows editors write, used to make line 1 a
        # non-integer token in ['\ufeff#', 'n=3']
        plain, marked = tmp_path / "plain.edges", tmp_path / "bom.edges"
        plain.write_text(text)
        marked.write_bytes(codecs.BOM_UTF8 + text.encode())
        assert _csr_digests(load_edge_list(marked)) == _csr_digests(load_edge_list(plain))

    def test_trailing_comment_is_an_error(self, tmp_path):
        # only a line whose first non-blank character is '#' is a comment
        path = tmp_path / "c.edges"
        path.write_text("0 1\n  # indented comment\n1 2  # x\n")
        with pytest.raises(GraphFormatError) as err:
            load_edge_list(path)
        assert err.value.line == 3

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.edges"
        path.write_text("# nothing\n")
        with pytest.raises(GraphFormatError):
            load_edge_list(path)

    def test_format_error_is_a_runtime_failure(self):
        assert issubclass(GraphFormatError, RuntimeError)
        assert not issubclass(GraphFormatError, ValueError)

    @pytest.mark.parametrize("content, node", [
        # offsets for 10**15 nodes would take 8 PB; the load used to raise
        # MemoryError building them
        (f"# n={10**15}\n0 1\n", 2),
        (f"0 {10**15}\n", 1),
        # more nodes than twice the edges, with the gap inside the ids
        ("# n=7\n0 1\n1 3\n", 2),
        # at most twice the edges: the graph is built, and Graph rejects it
        ("# n=4\n0 1\n1 3\n", 2),
    ])
    def test_untouched_node_is_isolated(self, tmp_path, content, node):
        path = tmp_path / "sparse.edges"
        path.write_text(content)
        with pytest.raises(GraphConstructionError, match=f"^node {node} is isolated"):
            load_edge_list(path)


# sha256 of the (neighbors, offsets, degrees) bytes; a construction refactor
# that moves one entry, or changes a dtype, fails here
CSR_DIGESTS = {
    ("gnp:n=2000,p=0.5", 101001): (
        "a847d098d8cc1c6ed38760d86088c02ca01276cdf6784ea7bd6a45057f741b58",
        "ec207bc72943b3919044dff00f1724a3e12d66328347de7e2bd59c5a3645e824",
        "668d865d4d24699a946c5b3dfa4434a6b63171c14590241989845cfb441b3f9b",
    ),
    ("gnp:n=300,p=0.3", 0): (
        "682c4d28c9d737058b97d092b4084ac4b5fdf475226cbd33ee2a273dfb9f0a6b",
        "61f3fa4cdc1b56bad6f6ff2efdadfc9be9a24c085be69c6b4fb9328b5b1c2a00",
        "adcd123ebf86c92dde1ebbba7353f320cbff84eb56fd21c5edb93dc55b459bbd",
    ),
    # sparse: mean degree 6, and this seed leaves no node isolated
    ("gnp:n=200,p=0.03", 0): (
        "9a45dda7afad285bb7ae9d2296fbeaeb92e733bb9422a6524959494774c37129",
        "ebdb8d779ad0e9331b23999237fceda7bfb7a7aedbdfc364696908afc5ac17f3",
        "0113874212e814a6504a35efa3b781174c346d875558755744a3529bf59e02c4",
    ),
    # n off a multiple of 64 and 256: the last row ends mid-word
    ("gnp:n=1001,p=0.3", 0): (
        "fa5a59e3cfc12b132469f9515a09ade8453c2274264c20958c7c09b2f19ffd86",
        "a510152159d4eea2a1cd21af319e85cb1bd8217346a1d8647df68281c84de04a",
        "3509880c1a4bd82189df1f9c86c2faf0a1ae4a9ed214f8674a1a537bcedb97b4",
    ),
    ("gnp:n=257,p=1", 0): (
        "54d662bb66df286e3a64423f72efb60a4901806e72611f587d4f4aa4e2f87c83",
        "60f4a3159434389a84d87d95d6f64d17d88fce7e1249c168027e39ce0e3e8e74",
        "00533d8af9427652982f47859ce82ea8d727bebbe168446fd9b1d3dfd03db601",
    ),
    ("regular:n=300,d=40", 0): (
        "b5ce1f82a31d1aa98dd9d105b02d65e396d783012e92939b12aeb32bc9de0167",
        "c78707a263caaf2a387af14c3537674d81d19a8b606ee1c90dc82c8ef26d7ea4",
        "c3edd0d5684628177acff7873f3de4a289e533328a17493b7b1767dd878fb143",
    ),
    ("regular:n=1000,d=200", 0): (
        "f16acd11a8d8282b1ba5ec942a217ea38c7069690e28855a91d75acd6efaae91",
        "c4320d26fa222344eba2e98c12d7924e6de035f75818a54ff0e64b4b747ec8fb",
        "189238e5f027db24c424610b2b143842d83b48987b66edbaa5989621e256f7ff",
    ),
}


def _csr_digests(graph):
    assert (graph.neighbors.dtype, graph.offsets.dtype, graph.degrees.dtype) == (
        np.int32, np.int64, np.int64)
    return tuple(hashlib.sha256(a.tobytes()).hexdigest()
                 for a in (graph.neighbors, graph.offsets, graph.degrees))


class TestCSRBytes:
    @pytest.mark.parametrize("spec,seed", sorted(CSR_DIGESTS))
    def test_generated(self, spec, seed):
        graph = generate(parse_graph_spec(spec, seed=seed))
        assert _csr_digests(graph) == CSR_DIGESTS[spec, seed]

    def test_edge_list_out_of_order(self, tmp_path):
        # edges listed out of order and written both ways round
        path = tmp_path / "g.edges"
        path.write_text("# n=8\n5 2\n0 7\n3 1\n6 4\n2 0\n7 3\n1 6\n4 5\n")
        graph = load_edge_list(path)
        assert graph.neighbors.tolist() == [2, 7, 3, 6, 0, 5, 1, 7, 5, 6, 2, 4, 1, 4, 0, 3]
        assert _csr_digests(graph) == (
            "50cb9e1fda22fb4c73ac0dfa45960b44fc8804dc0b37828c05df677f60477007",
            "40dabe74fd58af339db1ab66ed7ba64367a5be0bc34e39e705c0ed08b151c6d9",
            "ffc258c471600515a11d7059dcbe5e0977a6126025ae57858df72ad21958d883",
        )


def _star_path(tmp_path):
    """Node 0 joined to nodes 1..20, then the path 20-21-...-40: the hub
    holds a quarter of the volume, so a few R nodes can hold most of it."""
    path = tmp_path / "star_path.edges"
    path.write_text("".join(f"0 {v}\n" for v in range(1, 21))
                    + "".join(f"{v} {v + 1}\n" for v in range(20, 40)))
    return load_edge_list(path)


def _half_volume_states(graph):
    """R nodes holding exactly half the volume: the first prefix of a seeded
    node order whose degree sum hits total_volume / 2."""
    for seed in range(1000):
        order = np.random.default_rng(seed).permutation(graph.n)
        hit = np.flatnonzero(np.cumsum(graph.degrees[order]) == graph.total_volume // 2)
        if hit.size:
            states = np.zeros(graph.n, dtype=bool)
            states[order[: hit[0] + 1]] = True
            return states
    raise AssertionError("no prefix holds half the volume")


def _count_states(graph):
    rng = np.random.default_rng(7)
    return {
        "all_R": np.ones(graph.n, dtype=bool),
        "all_B": np.zeros(graph.n, dtype=bool),
        "R_minority": rng.random(graph.n) < 0.2,
        "B_minority": rng.random(graph.n) < 0.8,
        "half_volume": _half_volume_states(graph),
    }


def _count_graph(tmp_path, source):
    """A graph named by a spec, or 'star_path', or 'file:' + a spec whose
    graph goes through an edge-list file and back."""
    if source == "star_path":
        return _star_path(tmp_path)
    if source.startswith("file:"):
        save_edge_list(generate(parse_graph_spec(source[5:], seed=0)), tmp_path / "g.edges")
        return load_edge_list(tmp_path / "g.edges")
    return generate(parse_graph_spec(source, seed=0))


class TestRNeighborCounts:
    # n = 2, 63, 64, 65 and 300 put the last row's bits at every position
    # relative to a 64-bit word; the bits past n must stay clear
    @pytest.mark.parametrize("source", [
        "gnp:n=2,p=1", "gnp:n=63,p=0.5", "regular:n=64,d=12", "file:gnp:n=65,p=0.3",
        "gnp:n=300,p=0.3", "regular:n=300,d=40", "star_path"])
    @pytest.mark.parametrize("name", ["all_R", "all_B", "R_minority", "B_minority",
                                      "half_volume"])
    @pytest.mark.parametrize("path", ["r_neighbor_counts", "scatter", "bits"])
    def test_against_dense_oracle(self, tmp_path, source, name, path):
        graph = _count_graph(tmp_path, source)
        adjacency = np.zeros((graph.n, graph.n), dtype=bool)
        for u, v in edges(graph):
            adjacency[u, v] = adjacency[v, u] = True
        states = _count_states(graph)[name]
        if path == "bits":
            bits = _pack_rows(graph)
            assert bits.shape == (graph.n, (graph.n + 63) // 64) and bits.dtype == np.uint64
            assert np.array_equal(np.bitwise_count(bits).sum(axis=1), graph.degrees)
            counts = _bit_counts(bits, states)
        elif path == "scatter":
            counts = _scatter_counts(graph, states)
        else:
            counts = graph.r_neighbor_counts(states)
        assert counts.dtype == np.int64 and counts.shape == (graph.n,)
        assert np.array_equal(counts, adjacency.astype(np.int64) @ states)
        if name == "half_volume":
            assert 2 * int(graph.degrees @ states) == graph.total_volume

    @pytest.mark.parametrize("hub_r", [True, False])
    def test_star_path_volume_majority_is_not_node_majority(self, tmp_path, hub_r):
        # R = hub + 11 path nodes: 12 of 41 nodes, 42 of 80 volume
        graph = _star_path(tmp_path)
        states = np.zeros(graph.n, dtype=bool)
        states[[0, *range(22, 33)]] = True
        if not hub_r:
            states = ~states
        r_volume = int(graph.degrees @ states)
        assert (2 * np.count_nonzero(states) < graph.n) == (2 * r_volume > graph.total_volume)
        expected = np.array([np.count_nonzero(states[graph.neighbors_of(u)])
                             for u in range(graph.n)])
        assert np.array_equal(graph.r_neighbor_counts(states), expected)

    @pytest.mark.parametrize("b_fraction", [0.05, 0.5, 0.95])
    def test_peak_memory_below_two_neighbor_arrays(self, b_fraction):
        # gnp:n=2000,p=0.5 at seed 101001, built from its edge keys: a
        # gather of all 2m entries cast to int64 peaks at 17.18 MiB on this
        # graph.  The first count packs _bits, so its window holds the
        # packing and the kept matrix (at most neighbors.nbytes); the minority
        # scatter needs at most 1.5x neighbors.nbytes
        graph = _gnp_keys(2000, 0.5, 101001)
        states = np.ones(graph.n, dtype=bool)
        rng = np.random.default_rng(0)
        states[rng.choice(graph.n, round(b_fraction * graph.n), replace=False)] = False
        for count in (graph.r_neighbor_counts, lambda s: _scatter_counts(graph, s)):
            tracemalloc.start()
            try:
                count(states)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 2 * graph.neighbors.nbytes

    def test_bit_counts_scratch_is_one_strip(self):
        # a count over the whole matrix at once held two matrix-sized
        # temporaries, 1.13x _bits.nbytes (579 530 bytes) here
        graph = generate(parse_graph_spec("gnp:n=2000,p=0.5", seed=101001))
        states = np.random.default_rng(0).random(graph.n) < 0.5
        tracemalloc.start()
        try:
            _bit_counts(graph._bits, states)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= graph._bits.nbytes // 4

    # graphs built from edge keys, or read from a file, pack on first count
    @pytest.mark.parametrize("source", [
        "file:gnp:n=300,p=0.3", "gnp:n=2000,p=0.1", "regular:n=300,d=40",
        "regular:n=2000,d=10", "regular:n=64,d=2", "regular:n=64,d=1", "star_path"])
    def test_bits_exactly_where_no_larger_than_neighbors(self, tmp_path, source):
        # regular:n=64,d=2 has a matrix of exactly neighbors.nbytes, d=1 twice
        # that; regular:n=2000,d=10 and the star-path are sparse;
        # gnp:n=2000,p=0.1 takes the edge-key route
        graph = _count_graph(tmp_path, source)
        matrix_bytes = graph.n * ((graph.n + 63) // 64) * 8
        assert "_bits" not in graph.__dict__
        built = graph._bits is not None
        assert built == (matrix_bytes <= graph.neighbors.nbytes)
        if source in ("regular:n=2000,d=10", "star_path"):
            assert not built
        if built:
            assert graph._bits.nbytes == matrix_bytes
            assert np.array_equal(graph._bits, _pack_rows(graph))

    # n = 2, 63, 64, 65 end a row at every position relative to a 64-bit word
    @pytest.mark.parametrize("source", [
        "gnp:n=2,p=1", "gnp:n=63,p=0.3", "gnp:n=64,p=0.3", "gnp:n=65,p=0.3",
        "gnp:n=300,p=0.3", "gnp:n=2000,p=0.5"])
    def test_dense_gnp_holds_its_bits_from_build(self, count_calls, source):
        # packed from the bool matrix, word for word what _pack_rows packs
        # from the CSR arrays, the clear bits past n included
        calls = count_calls(graph_module, "_gnp_dense")
        graph = generate(parse_graph_spec(source, seed=0))
        assert len(calls) == 1 and "_bits" in graph.__dict__
        expected = _pack_rows(graph)
        assert graph._bits.dtype == expected.dtype and graph._bits.shape == expected.shape
        assert graph._bits.tobytes() == expected.tobytes()

    # the engine's counts on a dense graph come from its bits; forced onto
    # the minority scatter, a run must print the same bytes
    @pytest.mark.parametrize("argv", [
        "--family det --p 0.25 --max-rounds 20",
        "--k 3 --p 0.1 --max-rounds 8 --phi-detail --trace {trace}"])
    def test_simulate_prints_the_same_bytes(self, monkeypatch, count_calls, capsys,
                                            tmp_path, argv):
        trace = tmp_path / "trace.csv"  # the JSON names it

        def simulate():
            args = ["simulate", "--graph", "gnp:n=300,p=0.3", "--q", "0.7", "--seed", "3",
                    *argv.format(trace=trace).split()]
            assert main(args) == 0
            return capsys.readouterr().out, trace.read_bytes() if trace.exists() else None

        bit_counts = count_calls(graph_module, "_bit_counts")
        by_bits = simulate()
        assert bit_counts
        monkeypatch.setattr(Graph, "r_neighbor_counts", _scatter_counts)
        calls = len(bit_counts)
        assert simulate() == by_bits
        assert len(bit_counts) == calls


class TestEdgeKeyWidth:
    def test_gnp_build_peak_memory_below_three_neighbor_arrays(self):
        # a build in int64 keys peaks at 5.0x neighbors.nbytes (38.4 MiB) here
        tracemalloc.start()
        try:
            graph = generate(parse_graph_spec("gnp:n=2000,p=0.5", seed=101001))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * graph.neighbors.nbytes

    def test_key_dtype_boundary(self):
        # 46340^2 = 2 147 395 600 <= 2^31 - 1 < 46341^2
        assert _key_dtype(46340) is np.int32
        assert _key_dtype(46341) is np.int64

    @pytest.mark.parametrize("n", [46340, 46342])
    def test_perfect_matching_either_side_of_the_boundary(self, n):
        graph = generate(parse_graph_spec(f"regular:n={n},d=1", seed=0))
        assert graph.neighbors.dtype == np.int32
        assert graph.offsets.tolist() == list(range(n + 1))
        partner = graph.neighbors
        assert np.all(partner != np.arange(n))
        assert np.array_equal(partner[partner], np.arange(n))

    def test_narrow_and_wide_keys_build_the_same_bytes(self):
        graph = generate(parse_graph_spec("gnp:n=300,p=0.3", seed=0))
        rows = np.repeat(np.arange(graph.n, dtype=np.int64), graph.degrees)
        upper = rows < graph.neighbors
        keys = rows[upper] * graph.n + graph.neighbors[upper]
        assert keys.dtype == np.int64
        expected = _csr_digests(graph)
        assert _csr_digests(_build_from_keys(graph.n, keys)) == expected
        assert _csr_digests(_build_from_keys(graph.n, keys.astype(np.int32))) == expected

    def test_saved_edge_list_lists_each_edge_once_in_row_order(self, tmp_path):
        graph = generate(parse_graph_spec("gnp:n=50,p=0.2", seed=3))
        path = tmp_path / "g.edges"
        save_edge_list(graph, path)
        assert path.read_text() == "# n=50\n" + "".join(f"{u} {v}\n" for u, v in edges(graph))


def _build_or_error(route, n, p, seed):
    """The CSR arrays' dtypes and bytes a route builds, or its error."""
    try:
        graph = route(n, p, seed)
    except GraphConstructionError as err:
        return str(err)
    return [(a.dtype, a.tobytes()) for a in (graph.neighbors, graph.offsets, graph.degrees)]


class TestDenseGnp:
    # the dense route runs for p >= n / (4(n-1)): 0.5 at n = 2, about 0.25
    # from n = 63 on; n = 2, 63 ... 300 end the matrix at every position
    # relative to a 64-bit word and to the 128-row strips it is mirrored in
    @pytest.mark.parametrize("n", [2, 63, 64, 65, 255, 256, 257, 300])
    @pytest.mark.parametrize("p", [0.2, 0.3, 0.6, 1.0])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_routes_build_the_same_bytes(self, n, p, seed):
        # both build, or both raise the same isolated-node error
        assert _build_or_error(_gnp_dense, n, p, seed) == _build_or_error(_gnp_keys, n, p, seed)

    @pytest.mark.parametrize("n, p, route", [
        # 4 * p * n * (n-1) == n * n exactly at p = 257/1024
        (257, 257 / 1024, "_gnp_dense"),
        (257, np.nextafter(257 / 1024, 0), "_gnp_keys"),
        (257, 0.25, "_gnp_keys"),
        (2000, 0.2502, "_gnp_dense"),
        (2000, 0.25, "_gnp_keys"),
    ])
    def test_route_either_side_of_the_switch(self, count_calls, n, p, route):
        calls = {name: count_calls(graph_module, name) for name in ("_gnp_dense", "_gnp_keys")}
        generate(GraphSpec(GraphKind.GNP, n=n, edge_prob=float(p), seed=1))
        assert {name: len(each) for name, each in calls.items()} == {
            name: int(name == route) for name in calls}

    def test_dense_route_isolated_node_is_error(self, count_calls):
        # seed 0's one draw is 0.637, so gnp:n=2,p=0.5 has no edge
        calls = count_calls(graph_module, "_gnp_dense")
        with pytest.raises(GraphConstructionError, match="node 0 is isolated"):
            generate(parse_graph_spec("gnp:n=2,p=0.5", seed=0))
        assert len(calls) == 1

    def test_build_peak_memory_below_seven_quarters_of_neighbors(self):
        # the matrix (n*n bytes, half of neighbors here) and neighbors: 1.6x;
        # the edge-key build peaks at 2.09x neighbors.nbytes on this graph
        tracemalloc.start()
        try:
            graph = generate(parse_graph_spec("gnp:n=2000,p=0.5", seed=101001))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * graph.neighbors.nbytes


class TestParseGraphSpec:
    def test_forms(self):
        s = parse_graph_spec("complete:n=1000")
        assert s.kind is GraphKind.COMPLETE and s.n == 1000
        s = parse_graph_spec("gnp:n=1000,p=0.3", seed=4)
        assert s.kind is GraphKind.GNP and s.edge_prob == 0.3 and s.seed == 4
        s = parse_graph_spec("regular:n=1000,d=200")
        assert s.kind is GraphKind.RANDOM_REGULAR and s.degree == 200
        s = parse_graph_spec("file:/tmp/x.edges")
        assert s.kind is GraphKind.FILE and s.path == "/tmp/x.edges"

    def test_label_round_trip(self):
        for text in ["complete:n=10", "gnp:n=10,p=0.5", "regular:n=10,d=3"]:
            assert parse_graph_spec(text).label() == text

    @pytest.mark.parametrize(
        "text",
        ["complete", "ring:n=5", "complete:m=5", "gnp:n=10", "gnp:n=10,p=0.5,x=1",
         "complete:n=abc"],
    )
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_graph_spec(text)

    @pytest.mark.parametrize("text, message", [
        ("complete", "graph spec 'complete' must look like 'kind:params'"),
        ("gnp:n=10,p", "malformed graph parameter 'p' in 'gnp:n=10,p'"),
        ("complete:n=5,", "malformed graph parameter '' in 'complete:n=5,'"),
        ("ring:x", "malformed graph parameter 'x' in 'ring:x'"),
        ("ring:n=5", "unknown graph kind 'ring' (expected complete/gnp/regular/file)"),
        ("Ring:", "unknown graph kind 'ring' (expected complete/gnp/regular/file)"),
        ("complete:", "graph spec 'complete:' is missing parameter 'n'"),
        ("complete:m=5", "graph spec 'complete:m=5' is missing parameter 'n'"),
        ("gnp:p=0.5", "graph spec 'gnp:p=0.5' is missing parameter 'n'"),
        ("gnp:n=10", "graph spec 'gnp:n=10' is missing parameter 'p'"),
        ("regular:n=10", "graph spec 'regular:n=10' is missing parameter 'd'"),
        ("gnp:n=abc", "invalid literal for int() with base 10: 'abc'"),
        ("complete:n=abc,x=1", "invalid literal for int() with base 10: 'abc'"),
        ("gnp:n=10,p=abc", "could not convert string to float: 'abc'"),
        ("regular:n=10,d=x", "invalid literal for int() with base 10: 'x'"),
        ("gnp:n=10,p=0.5,x=1", "unknown graph parameters ['x'] in 'gnp:n=10,p=0.5,x=1'"),
        ("complete:n=5,x=1,a=2", "unknown graph parameters ['a', 'x'] in 'complete:n=5,x=1,a=2'"),
        ("complete:n=1,x=1", "unknown graph parameters ['x'] in 'complete:n=1,x=1'"),
        ("complete:n=10,n=11", "repeated graph parameter 'n' in 'complete:n=10,n=11'"),
        ("complete:n=1", "graph needs n >= 2 nodes, got n=1"),
        ("gnp:n=10,p=0", "gnp requires edge probability in (0, 1], got 0.0"),
        ("regular:n=10,d=10", "regular graph requires 1 <= d < n, got d=10"),
        ("regular:n=5,d=3", "regular graph requires d*n even, got d=3, n=5"),
        ("file:", "file graph spec requires a path"),
    ])
    def test_rejection_messages(self, text, message):
        # each message, and which one wins when a spec has several faults; the
        # items are split first, so the first malformed or repeated item wins
        # over an unknown kind and over a missing, bad or unknown parameter
        with pytest.raises(ValueError) as err:
            parse_graph_spec(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("fields, message", [
        ({"kind": GraphKind.COMPLETE, "n": 10.5}, "graph needs n >= 2 nodes, got n=10.5"),
        ({"kind": GraphKind.GNP, "n": 10.0, "edge_prob": 0.5}, "graph needs n >= 2 nodes, got n=10.0"),
        ({"kind": GraphKind.RANDOM_REGULAR, "n": 10, "degree": 3.0},
         "regular graph requires 1 <= d < n, got d=3.0"),
        ({"kind": GraphKind.RANDOM_REGULAR, "n": 10, "degree": True},
         "regular graph requires 1 <= d < n, got d=True"),
    ])
    def test_spec_rejects_non_integer_sizes(self, fields, message):
        # a float or bool n or d used to build, or to label a graph as a spec
        # that parse_graph_spec rejects
        with pytest.raises(ValueError) as err:
            GraphSpec(**fields)
        assert str(err.value) == message

    @pytest.mark.parametrize("text, label", [
        ("gnp:n=10,p=0.30", "gnp:n=10,p=0.3"),
        ("gnp:n=10,p=1e-05", "gnp:n=10,p=1e-05"),
        ("gnp:n=10,p=1", "gnp:n=10,p=1"),
        ("complete:n=1000000", "complete:n=1000000"),
        ("GNP: n = 10 , p = 0.5", "gnp:n=10,p=0.5"),
        ("file:a,b=c", "file:a,b=c"),
    ])
    def test_label_pins(self, text, label):
        assert parse_graph_spec(text).label() == label

    @pytest.mark.parametrize("edge_prob", [0.123456789, 1 / 3, np.float64(0.123456789)],
                             ids=["nine-digits", "one-third", "np.float64"])
    def test_label_parses_back_to_its_spec(self, edge_prob):
        # p printed with six significant digits: 0.123456789 was labelled
        # p=0.123457, which names a different graph
        spec = GraphSpec(GraphKind.GNP, n=50, edge_prob=edge_prob)
        assert parse_graph_spec(spec.label()) == spec
