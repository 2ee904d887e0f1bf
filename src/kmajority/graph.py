"""Undirected simple graphs for the dynamics: generation and file I/O.

A ``Graph`` stores its adjacency in a flat CSR-like layout
(``neighbors``/``offsets``) and nothing else: its size, degrees and volume
are read off ``offsets``.  A generated complete graph is a ``CompleteGraph``,
which stores only its O(n) ``offsets``: row u of K_n is 0..n-1 without u, so
entry j of it is ``j + (j >= u)``, and its ``neighbors`` array is built only
when something reads it.  The round engine reaches
neighbors only through ``sample_neighbors`` and ``r_neighbor_counts``.  A
complete graph answers both by arithmetic.  A CSR graph samples from its
rows, and counts either from a packed bit matrix of its adjacency (dense
graphs, see ``Graph._bits``) or by scattering its minority colour's rows.
A dense G(n, p) has that matrix from its build; any other CSR graph packs
it on its first count.  A K_n read from an edge-list file
keeps the CSR storage.
Every constructed graph is validated: its builder makes it simple and
symmetric, and ``Graph`` itself rejects a node of degree 0 (the update rule
samples neighbors, so isolated nodes are a hard error).

A CSR graph is built by one of two routes, with the same bytes either way.
A dense G(n, p) (``_gnp_dense``: p at least about 1/4, see ``_generate_gnp``)
draws its rows straight into the packed bit matrix, a strip of rows at a
time, and reads the CSR rows off it; the bit matrix takes about an eighth
of the bytes of the neighbor array it expects.  Every
other CSR graph (sparse G(n, p), random regular, edge-list file) reaches
``_build_from_keys`` as an integer array of distinct edge keys ``u*n + v``
with u < v.  Sorted keys are sorted (u, v) pairs, so one integer sort lays
out the rows.  The builder sorts them in the narrowest type that holds n*n
(``_key_dtype``): int32 up to n = 46 340, which halves the sort's bytes.
"""

from __future__ import annotations

import codecs
import itertools
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "GraphConstructionError",
    "GraphKind",
    "GraphSpec",
    "Graph",
    "CompleteGraph",
    "GraphFormatError",
    "generate",
    "load_edge_list",
    "save_edge_list",
    "parse_graph_spec",
]

_REGULAR_REPAIR_ATTEMPTS = 1000


class GraphKind(Enum):
    COMPLETE = "complete"
    GNP = "gnp"
    RANDOM_REGULAR = "regular"
    FILE = "file"


# The 'kind:key=value,...' spec grammar of every generated kind, read by both
# parse_graph_spec and GraphSpec.label: (key, GraphSpec field, parser, printer).
# Integers print with str: ':g' would print n=1000000 as 1e+06.  Floats print
# with repr, which reads back as the same float, where ':g' keeps six digits;
# float() first, as numpy 2 writes repr(np.float64(0.5)) as 'np.float64(0.5)'.
_SPEC_ROWS = {
    GraphKind.COMPLETE: (("n", "n", int, str),),
    GraphKind.GNP: (("n", "n", int, str),
                    ("p", "edge_prob", float, lambda p: repr(float(p)).removesuffix(".0"))),
    GraphKind.RANDOM_REGULAR: (("n", "n", int, str), ("d", "degree", int, str)),
}


class GraphFormatError(RuntimeError):
    """Malformed edge-list file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class GraphConstructionError(RuntimeError):
    """A structurally valid spec produced an unusable graph (isolated node,
    regular pairing not realizable, ...)."""


def _isolated(node: int) -> GraphConstructionError:
    return GraphConstructionError(
        f"node {node} is isolated; the dynamics cannot sample a neighbor")


@dataclass(frozen=True)
class GraphSpec:
    """Recipe for a graph: kind plus the kind's parameters and a seed."""

    kind: GraphKind
    n: int = 0
    edge_prob: float | None = None
    degree: int | None = None
    path: str | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.kind, GraphKind):
            raise ValueError(f"graph kind must be a GraphKind, got {self.kind!r}")
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.kind is GraphKind.FILE:
            if not self.path:
                raise ValueError("file graph spec requires a path")
            return
        if type(self.n) is not int or self.n < 2:
            raise ValueError(f"graph needs n >= 2 nodes, got n={self.n}")
        if self.kind is GraphKind.GNP:
            if self.edge_prob is None or not 0.0 < self.edge_prob <= 1.0:
                raise ValueError(f"gnp requires edge probability in (0, 1], got {self.edge_prob!r}")
        if self.kind is GraphKind.RANDOM_REGULAR:
            d = self.degree
            if type(d) is not int or d < 1 or d >= self.n:
                raise ValueError(f"regular graph requires 1 <= d < n, got d={d!r}")
            if (d * self.n) % 2 != 0:
                raise ValueError(f"regular graph requires d*n even, got d={d}, n={self.n}")

    def label(self) -> str:
        """Canonical CLI-syntax string for this spec."""
        if self.kind is GraphKind.FILE:
            return f"file:{self.path}"
        return f"{self.kind.value}:" + ",".join(
            f"{key}={show(getattr(self, field))}" for key, field, _, show in _SPEC_ROWS[self.kind])


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected simple graph in flat adjacency layout.

    ``neighbors[offsets[u]:offsets[u+1]]`` is the sorted neighbor list of u.
    The two arrays are all a graph stores: ``n``, ``degrees`` and
    ``total_volume`` (the degree sum, twice the edge count) are read off
    ``offsets``.  Construction raises ``GraphConstructionError`` naming the
    first node of degree 0.
    """

    neighbors: np.ndarray  # int32, length = sum of degrees
    offsets: np.ndarray    # int64, length n + 1

    def __post_init__(self) -> None:
        if self.degrees.min() < 1:
            raise _isolated(int(np.argmin(self.degrees)))

    @property
    def n(self) -> int:
        return len(self.offsets) - 1

    @cached_property
    def degrees(self) -> np.ndarray:
        """int64, length n."""
        return np.diff(self.offsets)

    @property
    def total_volume(self) -> int:
        return int(self.offsets[-1])

    def neighbors_of(self, u: int) -> np.ndarray:
        return self.neighbors[self.offsets[u] : self.offsets[u + 1]]

    @property
    def edge_count(self) -> int:
        return self.total_volume // 2

    def sample_neighbors(self, uniforms: np.ndarray) -> np.ndarray:
        """Node ids picked by an (n, k) block of uniforms in [0, 1): entry
        (u, c) is ``neighbors_of(u)[floor(uniforms[u, c] * degree(u))]``."""
        pick = (uniforms * self.degrees[:, None]).astype(np.int64)
        return self.neighbors[self.offsets[:-1, None] + pick]

    @cached_property
    def _bits(self) -> np.ndarray | None:
        """The adjacency as ``_pack_rows`` lays it out, or None where it
        would take more bytes than ``neighbors`` (mean degree below about
        n/32).  A dense G(n, p) is built into it (``_gnp_dense``), where it
        takes at most about an eighth of the bytes of ``neighbors``, and
        more only on a few nodes (16 bytes against 8 at n = 2).  Any other
        graph packs it on the first R count that reads it."""
        n = self.n
        return None if n * _words(n) * 8 > self.neighbors.nbytes else _pack_rows(self)

    def r_neighbor_counts(self, states: np.ndarray) -> np.ndarray:
        """Number of R (True) neighbors of every node, as int64.

        Where ``_bits`` exists, each row is ANDed with the packed states and
        its set bits are counted (``_bit_counts``): O(n²/64) word operations,
        ``_BLOCK_ROWS`` rows at a time, so the scratch is one strip and not
        a copy of the matrix.  Packing on a first count holds at most
        ``_BLOCK_ROWS`` dense rows and their entries' indices at a time.
        Elsewhere the minority colour's rows are scattered
        (``_scatter_counts``).  Both counts are exact.
        """
        bits = self._bits
        return _scatter_counts(self, states) if bits is None else _bit_counts(bits, states)


# rows per step of the dense-row loops: a strip of _BLOCK_ROWS rows of bools,
# or of packed words, fits in a core's cache.  _gnp_dense draws, mirrors and
# packs a strip of bool rows at a time and unpacks its CSR rows as many,
# _pack_rows packs from that many dense rows (and an int64 index per
# adjacency entry of them), and _bit_counts ANDs and counts that many rows
# of words at a time.  A multiple of 8, so a strip's columns are whole bytes
# of the packed rows
_BLOCK_ROWS = 128


def _words(n: int) -> int:
    """64-bit words in a row of n bits."""
    return (n + 63) // 64


def _pack_strip(bits: np.ndarray, start: int, rows: np.ndarray) -> None:
    """Pack the bool rows ``rows`` (n columns each) into rows start, start+1,
    ... of ``bits``, which must be zeroed: the bits past n stay clear."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    bits.view(np.uint8)[start : start + len(rows), : packed.shape[1]] = packed


def _pack_rows(graph: Graph) -> np.ndarray:
    """The adjacency as n rows of ``_words(n)`` uint64 words: bit v of row u
    (``np.packbits`` order, little within each byte) is set iff v is a
    neighbor of u, and the bits past n are clear.

    The rows are packed ``_BLOCK_ROWS`` at a time from a dense bool block.
    ``_bit_counts`` packs the states with the same ``_pack_strip``, so a row
    and the states line up bit for bit on either byte order of the machine.
    """
    n = graph.n
    bits = np.zeros((n, _words(n)), dtype=np.uint64)
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        entries = np.repeat(np.arange(stop - start) * n, graph.degrees[start:stop])
        entries += graph.neighbors[graph.offsets[start] : graph.offsets[stop]]
        dense = np.zeros((stop - start) * n, dtype=bool)
        dense[entries] = True
        _pack_strip(bits, start, dense.reshape(stop - start, n))
    return bits


def _bit_counts(bits: np.ndarray, states: np.ndarray) -> np.ndarray:
    """R neighbors of every node from the packed adjacency of ``_pack_rows``:
    the popcount of each row ANDed with the packed states.

    ``_BLOCK_ROWS`` rows at a time go through one reused strip of words and
    one of their popcounts.  The popcounts are float32 so that a product
    with ones sums each row; it is exact, as every partial sum is an integer
    below n, and n < 2^24 for any matrix that fits in memory.
    """
    n, width = bits.shape
    word = np.zeros((1, width), dtype=np.uint64)
    _pack_strip(word, 0, states[None])
    anded = np.empty((min(_BLOCK_ROWS, n), width), dtype=np.uint64)
    popcounts = np.empty(anded.shape, dtype=np.float32)
    unit = np.ones(width, dtype=np.float32)
    counts = np.empty(n, dtype=np.float32)
    for start in range(0, n, _BLOCK_ROWS):
        rows = min(_BLOCK_ROWS, n - start)
        np.bitwise_and(bits[start : start + rows], word, out=anded[:rows])
        np.bitwise_count(anded[:rows], out=popcounts[:rows])
        np.matmul(popcounts[:rows], unit, out=counts[start : start + rows])
    return counts.astype(np.int64)


def _scatter_counts(graph: Graph, states: np.ndarray) -> np.ndarray:
    """R neighbors of every node from the CSR rows.

    The adjacency is symmetric, so u's count of colour c is the number of c
    nodes whose rows list u.  The rows of whichever colour holds the smaller
    volume are scattered into a bincount, and an R-heavy state returns
    ``degrees`` minus the B counts.  That costs O(minority volume) time, and
    at most about 1.5 × ``neighbors.nbytes`` of scratch memory (the int32
    minority entries and bincount's int64 copy of them).
    """
    r_heavy = 2 * int(graph.degrees @ states) > graph.total_volume
    minority = ~states if r_heavy else states
    hits = np.bincount(graph.neighbors[np.repeat(minority, graph.degrees)], minlength=graph.n)
    return graph.degrees - hits if r_heavy else hits


def _complete_row_entry(u, j):
    """Entry j of K_n's sorted row u (0..n-1 without u); broadcasts."""
    return j + (j >= u)


class CompleteGraph(Graph):
    """K_n stored by its O(n) offsets: neighbor ids are computed, not looked up.

    ``neighbors`` holds the same array a ``Graph`` would, built on first
    access (n(n-1) entries).  ``neighbors_of`` computes one row, so the
    engine never touches it.
    """

    def __init__(self, n: int):
        object.__setattr__(self, "offsets", np.arange(n + 1, dtype=np.int64) * (n - 1))
        self.__post_init__()

    def __repr__(self) -> str:
        return f"CompleteGraph(n={self.n})"

    @cached_property
    def neighbors(self) -> np.ndarray:
        n = self.n
        rows = np.repeat(np.arange(n, dtype=np.int32), n - 1)
        return _complete_row_entry(rows, np.tile(np.arange(n - 1, dtype=np.int32), n))

    def neighbors_of(self, u: int) -> np.ndarray:
        return _complete_row_entry(u, np.arange(self.n - 1, dtype=np.int32))

    def sample_neighbors(self, uniforms: np.ndarray) -> np.ndarray:
        j = (uniforms * (self.n - 1)).astype(np.int64)
        return _complete_row_entry(np.arange(self.n)[:, None], j)

    def r_neighbor_counts(self, states: np.ndarray) -> np.ndarray:
        return np.count_nonzero(states) - states.astype(np.int64)


def _key_dtype(n: int) -> type:
    """The narrowest integer type holding every edge key u*n + v < n*n and
    the row bound n*n itself: int32 up to n = 46 340, else int64."""
    return np.int32 if n * n <= np.iinfo(np.int32).max else np.int64


def _build_from_keys(n: int, keys: np.ndarray) -> Graph:
    """Assemble a Graph from the integer keys ``u*n + v`` (u < v) of its edges.

    The keys must be distinct; each caller checks simplicity where it knows
    the line number or retries.  Adding every edge's reversed key and sorting
    once orders the directed edges by (source, target), so row u is the
    sorted block of keys in [u*n, (u+1)*n) and its targets are ``key % n``.
    The keys are narrowed to ``_key_dtype(n)``, which keeps each key's value
    and order, so the CSR bytes do not depend on the type they came in.
    """
    m = len(keys)
    both = np.empty(2 * m, dtype=_key_dtype(n))
    both[:m] = keys
    # divmod splits each key into (u, v); the reversed key v*n + u fills the
    # second half in place
    sources = np.empty_like(both[:m])
    np.divmod(both[:m], n, out=(sources, both[m:]))
    both[m:] *= n
    both[m:] += sources
    both.sort()
    offsets = np.searchsorted(both, np.arange(n + 1, dtype=both.dtype) * n)
    both %= n
    return Graph(neighbors=both.astype(np.int32, copy=False), offsets=offsets)


def _generate_gnp(n: int, edge_prob: float, seed: int) -> Graph:
    """G(n, p): the edge (u, v), u < v, is present iff entry v - u - 1 of
    row u's draw is below p (``_gnp_draws``).

    Both routes read the same draws and build the same bytes.  The dense
    route runs for p >= n / (4(n-1)), about 1/4; sparser specs build from
    edge keys.  Its work on the packed matrix does not shrink with p, where
    the keys' does.  At n = 2000 and p = 0.2, 0.25 and 0.3 the dense route
    built in 21-36 ms at a traced peak of 1.33x, 1.26x and 1.22x
    ``neighbors.nbytes``, and the key route in 29-53 ms at 2.01x: above
    the switch the dense route is lighter and faster, and at p = 0.2 it is
    still lighter and no slower, so the switch errs on neither side.
    """
    dense = n * n <= 4 * edge_prob * n * (n - 1)
    return (_gnp_dense if dense else _gnp_keys)(n, edge_prob, seed)


def _gnp_draws(n: int, seed: int):
    """Row u's n-1-u uniforms, for u = 0 .. n-2, each the doubles
    ``rng.random(n - 1 - u)`` would give, drawn into one reused buffer: a
    row is valid only until the next is drawn."""
    rng = np.random.default_rng(seed)
    buffer = np.empty(n - 1)
    for u in range(n - 1):
        row = buffer[: n - 1 - u]
        rng.random(out=row)
        yield u, row


def _gnp_keys(n: int, edge_prob: float, seed: int) -> Graph:
    """G(n, p) from its edge keys, each row's narrowed as it is made; the
    row list is freed once concatenated, before the build starts."""
    dtype = _key_dtype(n)
    return _build_from_keys(n, np.concatenate([
        np.flatnonzero(row < edge_prob).astype(dtype) + (u * n + u + 1)
        for u, row in _gnp_draws(n, seed)]))


def _gnp_dense(n: int, edge_prob: float, seed: int) -> Graph:
    """G(n, p) built into its packed adjacency ``_bits`` and read off it,
    ``_BLOCK_ROWS`` rows at a time, with no n x n bool matrix.

    Pass 1 makes each strip of rows whole in one reused bool strip: row u's
    draws fill its columns right of u, the diagonal block is mirrored, and
    the columns left of the strip are the earlier rows' bits of the strip's
    columns, unpacked and transposed.  The strip is then packed.  Pass 2
    takes the row lengths from the bits' popcounts, and each row's set bits,
    in order, are its CSR row.  The graph keeps the bits, so its R counts
    never pack from the CSR arrays.  Besides ``neighbors`` and the bits, a
    build holds about two strips of bools: it peaks at about 1.1-1.2x
    ``neighbors.nbytes`` (1.13x on ``gnp:n=2000,p=0.5``)."""
    bits = np.zeros((n, _words(n)), dtype=np.uint64)
    packed = bits.view(np.uint8)
    strip = np.empty((min(_BLOCK_ROWS, n), n), dtype=bool)
    draws = _gnp_draws(n, seed)
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        rows = strip[: stop - start]
        # bit u of row v < start is entry (u, v): a start-aligned strip's
        # columns are one 16-byte column range of the packed rows
        left = np.unpackbits(packed[:start, start // 8 : -(-stop // 8)], axis=1,
                             count=stop - start, bitorder="little")
        rows[:, :start] = left.T
        rows[:, start:stop] = False
        for u, row in itertools.islice(draws, stop - start):
            np.less(row, edge_prob, out=rows[u - start, u + 1:])
        rows[:, start:stop] |= rows[:, start:stop].T
        _pack_strip(bits, start, rows)
    # freed before neighbors is allocated: about two strips off the peak
    del strip, rows, left
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bitwise_count(bits).sum(axis=1, dtype=np.int64), out=offsets[1:])
    neighbors = np.empty(offsets[-1], dtype=np.int32)
    for start in range(0, n, _BLOCK_ROWS):
        # unpacked as 0/1 bytes; nonzero reads bools several times faster
        rows = np.unpackbits(packed[start : start + _BLOCK_ROWS], axis=1, count=n,
                             bitorder="little").view(bool)
        for u, row in enumerate(rows, start):
            neighbors[offsets[u] : offsets[u + 1]] = row.nonzero()[0]
    graph = Graph(neighbors=neighbors, offsets=offsets)
    # set where the cached_property would cache it
    object.__setattr__(graph, "_bits", bits)
    return graph


def _generate_random_regular(n: int, d: int, seed: int) -> Graph:
    """Pairing model with local repair: shuffle d stubs per node into pairs,
    then repeatedly reshuffle the stubs of colliding pairs (self-loops or
    duplicate edges) together with as many randomly chosen good pairs."""
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    stubs = rng.permutation(stubs)
    for _ in range(_REGULAR_REPAIR_ATTEMPTS):
        pairs = stubs.reshape(-1, 2)
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        key = lo * n + hi
        # every member of a repeated edge is bad, its first occurrence included
        _, inverse, counts = np.unique(key, return_inverse=True, return_counts=True)
        bad = (lo == hi) | (counts[inverse] > 1)
        n_bad = int(bad.sum())
        if n_bad == 0:
            return _build_from_keys(n, key)
        good_idx = np.nonzero(~bad)[0]
        extra = good_idx[rng.permutation(len(good_idx))[: min(n_bad, len(good_idx))]]
        recycle = np.concatenate([np.nonzero(bad)[0], extra])
        slots = np.concatenate([2 * recycle, 2 * recycle + 1])
        stubs[slots] = rng.permutation(stubs[slots])
    raise GraphConstructionError(
        f"could not realize a simple {d}-regular graph on {n} nodes "
        f"after {_REGULAR_REPAIR_ATTEMPTS} repair attempts"
    )


def generate(spec: GraphSpec) -> Graph:
    """Materialize a GraphSpec; deterministic given the spec's seed."""
    if spec.kind is GraphKind.COMPLETE:
        return CompleteGraph(spec.n)
    if spec.kind is GraphKind.GNP:
        return _generate_gnp(spec.n, spec.edge_prob, spec.seed)
    if spec.kind is GraphKind.RANDOM_REGULAR:
        return _generate_random_regular(spec.n, spec.degree, spec.seed)
    return load_edge_list(spec.path)


# ---------------------------------------------------------------------------
# Edge-list files
# ---------------------------------------------------------------------------

_HEADER_RE = re.compile(r"#\s*n\s*=\s*(\d+)\s*$")


def load_edge_list(path: str | Path) -> Graph:
    """Read a whitespace-separated edge list (one undirected edge per line,
    0-indexed, listed once).  A line whose first non-blank character is '#'
    is a comment; an optional '# n=<N>' header pins the node count.  One
    leading UTF-8 byte-order mark is skipped.  Violations, bytes that are not
    UTF-8 included, are reported with line numbers.
    """
    declared_n: int | None = None
    seen: dict[tuple[int, int], int] = {}  # edge (u < v) -> line, in file order
    # bytes.splitlines ends lines where text mode's universal newlines do, and
    # decoding line by line pins a bad byte to its own line; a byte-order
    # mark, which Windows editors write, is not part of line 1
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"not UTF-8 text: {exc}", lineno) from None
        if not line:
            continue
        if line.startswith("#"):
            m = _HEADER_RE.match(line)
            if m and declared_n is None:
                declared_n = int(m.group(1))
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise GraphFormatError(f"expected two node ids, got {len(tokens)} tokens", lineno)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphFormatError(f"non-integer token in {tokens!r}", lineno) from None
        if u < 0 or v < 0:
            raise GraphFormatError(f"negative node id in edge ({u}, {v})", lineno)
        if max(u, v) >= 2**63:
            raise GraphFormatError(f"node id {max(u, v)} does not fit in 64 bits", lineno)
        if u == v:
            raise GraphFormatError(f"self-loop at node {u}", lineno)
        edge = (min(u, v), max(u, v))
        if edge in seen:
            raise GraphFormatError(
                f"duplicate edge {edge} (first listed on line {seen[edge]})", lineno
            )
        seen[edge] = lineno
    if not seen:
        raise GraphFormatError("edge list is empty")
    lo, hi = np.array(list(seen), dtype=np.int64).T
    n = declared_n if declared_n is not None else int(hi.max()) + 1
    if hi.max() >= n:
        # an id past the header would alias another edge's key
        first = next(edge for edge in seen if edge[1] >= n)
        raise GraphFormatError(f"node id {first[1]} >= declared n={n}", seen[first])
    if n > 2 * len(seen):
        # the edges touch fewer than n ids: name the first untouched one
        # without an n-sized array, which a large header would make
        touched = np.unique(np.concatenate([lo, hi]))
        gaps = np.flatnonzero(touched != np.arange(touched.size))
        raise _isolated(int(gaps[0]) if gaps.size else touched.size)
    return _build_from_keys(n, lo * n + hi)


def save_edge_list(graph: Graph, path: str | Path) -> None:
    """Write the graph as '# n=<n>' followed by one 'u v' line per edge (u < v)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={graph.n}\n")
        for u in range(graph.n):
            row = graph.neighbors_of(u)
            fh.writelines(f"{u} {v}\n" for v in row[row > u].tolist())


# ---------------------------------------------------------------------------
# CLI spec syntax
# ---------------------------------------------------------------------------


def parse_graph_spec(text: str, seed: int = 0) -> GraphSpec:
    """Parse 'complete:n=1000', 'gnp:n=1000,p=0.3', 'regular:n=1000,d=200',
    or 'file:PATH' into a GraphSpec."""
    name, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"graph spec {text!r} must look like 'kind:params'")
    name = name.strip().lower()
    if name == "file":
        return GraphSpec(kind=GraphKind.FILE, path=rest, seed=seed)
    params: dict[str, str] = {}
    if rest:
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            if not eq:
                raise ValueError(f"malformed graph parameter {item!r} in {text!r}")
            key = key.strip()
            if key in params:
                raise ValueError(f"repeated graph parameter {key!r} in {text!r}")
            params[key] = val.strip()
    kind = next((each for each in _SPEC_ROWS if each.value == name), None)
    if kind is None:
        raise ValueError(f"unknown graph kind {name!r} (expected complete/gnp/regular/file)")
    fields = {}
    for key, field, parse, _ in _SPEC_ROWS[kind]:
        if key not in params:
            raise ValueError(f"graph spec {text!r} is missing parameter {key!r}")
        fields[field] = parse(params.pop(key))
    if params:
        raise ValueError(f"unknown graph parameters {sorted(params)} in {text!r}")
    return GraphSpec(kind=kind, seed=seed, **fields)
