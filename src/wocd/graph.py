"""Graph, feature, and cover I/O plus deterministic synthetic benchmarks."""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import numbers
import re
from dataclasses import dataclass, fields

import numpy as np
import scipy.sparse as sp


SYNTH_BLOCK = 1 << 20  # entries of the N x N edge draw made at a time


class FormatError(ValueError):
    """An input file violates the expected text format."""


# a config field annotated with the key takes a value of the class; bool is
# told apart from the numbers, which it subclasses
_FIELD_KINDS = {"int": numbers.Integral, "float": numbers.Real, "bool": bool}


def check_field_types(config) -> None:
    """TypeError unless every int, float and bool field of the dataclass
    ``config`` holds a value of that kind; an int is a float too. ValueError
    for a float field that holds NaN or an infinity."""
    for f in fields(config):
        kind = _FIELD_KINDS.get(f.type)
        if kind is None:
            continue
        value = getattr(config, f.name)
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
            raise TypeError(f"{f.name} must be {f.type}, not {type(value).__name__}")
        if f.type == "float" and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, not {value}")


@dataclass(frozen=True)
class Graph:
    """Undirected, unweighted graph in compressed sparse row form.

    Each undirected edge is stored in both directions; neighbor lists are
    strictly ascending with no self-loops or duplicates.
    """

    indptr: np.ndarray
    indices: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.indptr) - 1

    @property
    def n_edges(self) -> int:
        return self.indices.size // 2

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        nu = self.neighbors(u)
        i = np.searchsorted(nu, v)
        return i < nu.size and nu[i] == v

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def adjacency(self) -> sp.csr_array:
        """The int32 0/1 adjacency matrix over this graph's own arrays."""
        ones = np.ones(self.indices.size, dtype=np.int32)
        return sp.csr_array((ones, self.indices, self.indptr), shape=(self.n_nodes,) * 2)

    def edge_pairs(self) -> np.ndarray:
        """(M, 2) array of undirected edges with u < v, lexicographic order."""
        src = np.repeat(np.arange(self.n_nodes), np.diff(self.indptr))
        mask = src < self.indices
        return np.stack([src[mask], self.indices[mask]], axis=1)

    @classmethod
    def from_edges(cls, pairs, n_nodes: int) -> "Graph":
        """Build from (u, v) pairs: an (M, 2) integer array or an iterable.

        Self-loops are dropped, duplicates collapsed, and the adjacency
        symmetrized.
        """
        if n_nodes > math.isqrt(np.iinfo(np.int64).max):  # keys src * N + dst fit int64
            raise ValueError(f"{n_nodes} nodes: too many for int64 edge keys")
        if not isinstance(pairs, np.ndarray):
            pairs = list(pairs)
        e = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if e.size and (e.min() < 0 or e.max() >= n_nodes):
            raise FormatError("node id out of range")
        u, v = e[e[:, 0] != e[:, 1]].T
        # both directions of every edge as keys src * N + dst; their sorted
        # distinct values are the CSR slots in row order (a sort and a mask:
        # np.unique is many times slower on int64 keys)
        key = np.sort(np.concatenate([u * n_nodes + v, v * n_nodes + u]))
        first = np.ones(key.size, dtype=bool)
        first[1:] = key[1:] != key[:-1]
        src, dst = np.divmod(key[first], n_nodes)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n_nodes))])
        return cls(indptr=indptr, indices=dst)


@dataclass(frozen=True)
class Cover:
    """Binary node-community affiliation matrix (N x K, overlap allowed)."""

    memberships: np.ndarray  # (N, K) uint8

    @property
    def n_nodes(self) -> int:
        return self.memberships.shape[0]

    @property
    def n_communities(self) -> int:
        return self.memberships.shape[1]

    def communities_of(self, v: int) -> np.ndarray:
        return np.flatnonzero(self.memberships[v])

    def members(self, k: int) -> np.ndarray:
        return np.flatnonzero(self.memberships[:, k])


@dataclass(frozen=True)
class SampledLabels:
    """Nodes whose full ground-truth affiliation rows are revealed."""

    node_ids: np.ndarray  # sorted, unique
    rows: np.ndarray  # (len(node_ids), K) uint8

    @property
    def n_sampled(self) -> int:
        return self.node_ids.size


@dataclass(frozen=True)
class SynthConfig:
    """Planted overlapping partition with block-structured binary features."""

    n_nodes: int
    n_communities: int
    overlap_fraction: float = 0.15
    p_in: float = 0.08
    p_out: float = 0.002
    dims_per_community: int = 16
    feature_signal: float = 0.6
    feature_noise: float = 0.05
    # when False, edge probabilities depend on the primary community only and
    # secondary memberships of overlap nodes are visible in features alone
    overlap_edges: bool = True
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.n_nodes < 1 or self.n_communities < 1 or self.dims_per_community < 1:
            raise ValueError("counts must be >= 1")
        if not (0.0 <= self.p_out < self.p_in <= 1.0):
            raise ValueError("require 0 <= p_out < p_in <= 1")
        if not (0.0 <= self.overlap_fraction <= 1.0):
            raise ValueError("overlap_fraction must be in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


_INT = re.compile(r"[+-]?[0-9]+")  # an id: what np.loadtxt reads as int64
_NOT_ID = re.compile(r"[^0-9+\-:\s]")  # a character no valid cover line has


def _read_text(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: {exc}") from None


def _split_comments(text: str):
    """The stripped '#' lines of ``text``, and ``text`` without them.

    A line is a comment when '#' is its first non-blank character; a '#'
    after other text stays in the data, where the parsers reject it.
    """
    comments, pieces, start = [], [], 0
    i = text.find("#")
    while i >= 0:
        line_start = text.rfind("\n", 0, i) + 1
        line_end = text.find("\n", i)
        if line_end < 0:
            line_end = len(text)
        if not text[line_start:i].strip():
            comments.append(text[line_start:line_end].strip())
            pieces.append(text[start:line_start])
            start = line_end
        i = text.find("#", line_end)
    pieces.append(text[start:])
    return comments, "".join(pieces)


def _header_values(comments, *keys) -> list:
    """The last size N >= 0 that a '#key=N' line declares for each key, None
    where undeclared; a '#key=' line of a wanted key without such a size is
    an error."""
    values = dict.fromkeys(keys)
    for line in comments:
        key, sep, text = line[1:].partition("=")
        if sep and key in values:
            with contextlib.suppress(ValueError):
                if (value := int(text)) >= 0:
                    values[key] = value
                    continue
            raise FormatError(f"bad header line: {line!r}")
    return list(values.values())


def _data_lines(path, text: str, keys):
    """(line number, stripped line) of every data line, checking each
    header on the way. Only the error paths of the parsers scan lines."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            try:
                _header_values([line], *keys)
            except FormatError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
            continue
        yield lineno, line


def _edge_list_error(path, text: str) -> FormatError:
    """The error for the first malformed line of an edge list."""
    for lineno, line in _data_lines(path, text, ("nodes",)):
        parts = line.split()
        if len(parts) != 2:
            return FormatError(f"{path}:{lineno}: expected 'u\\tv', got {line!r}")
        if not all(_INT.fullmatch(tok) for tok in parts):
            return FormatError(f"{path}:{lineno}: non-integer node id")
        if min(int(tok) for tok in parts) < 0:
            return FormatError(f"{path}:{lineno}: negative node id")
    return FormatError(f"{path}: malformed edge list")


def load_edge_list(path) -> Graph:
    """Read an edge list of 'u v' lines; '#' lines are comments and
    '#nodes=N' declares N (the README gives the exact format)."""
    text = _read_text(path)
    comments, data = _split_comments(text)
    try:
        (declared_n,) = _header_values(comments, "nodes")
        if not data.strip():  # np.loadtxt warns on input without data
            e = np.empty((0, 2), dtype=np.int64)
        else:
            e = np.loadtxt(io.StringIO(data), dtype=np.int64, comments=None, ndmin=2)
    except ValueError:
        e = None
    if e is None or e.shape[1] != 2 or (e.size and e.min() < 0):
        raise _edge_list_error(path, text)
    max_id = int(e.max()) if e.size else -1
    n_nodes = max_id + 1 if declared_n is None else declared_n
    if max_id >= n_nodes:
        raise FormatError(f"node id {max_id} >= declared #nodes={n_nodes}")
    return Graph.from_edges(e, n_nodes)


def write_edge_list(graph: Graph, path) -> None:
    ids = np.array([str(v) for v in range(graph.n_nodes)], dtype=object)
    pairs = graph.edge_pairs()
    cells = np.empty((len(pairs), 4), dtype=object)  # u, tab, v, newline
    cells[:, 0::2] = ids[pairs]
    cells[:, 1] = "\t"
    cells[:, 3] = "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#nodes={graph.n_nodes}\n" + "".join(cells.ravel().tolist()))


def _cover_error(path, text: str) -> FormatError:
    """The error for the first malformed line of a cover file."""
    seen = set()
    for lineno, line in _data_lines(path, text, ("nodes", "communities")):
        if ":" not in line:
            return FormatError(f"{path}:{lineno}: expected 'node: c1 c2 ...'")
        head, _, tail = line.partition(":")
        tokens = [head.strip()] + tail.split()
        if not all(_INT.fullmatch(tok) for tok in tokens):
            return FormatError(f"{path}:{lineno}: non-integer id")
        ids = [int(tok) for tok in tokens]
        if min(ids) < 0:
            return FormatError(f"{path}:{lineno}: negative id")
        if ids[0] in seen:
            return FormatError(f"{path}:{lineno}: duplicate node line for {ids[0]}")
        seen.add(ids[0])
    return FormatError(f"{path}: malformed cover")


def load_cover(path) -> Cover:
    """Read 'node: c1 c2 ...' lines; '#nodes=N' and '#communities=K'
    headers may declare the shape (the README gives the exact format)."""
    text = _read_text(path)
    comments, data = _split_comments(text)
    rows = [line.partition(":") for line in data.split("\n") if line.strip()]
    comms = [tail.split() for _, _, tail in rows]
    try:
        declared_n, declared_k = _header_values(comments, "nodes", "communities")
        ids = np.array([int(head) for head, _, _ in rows]
                       + [int(tok) for toks in comms for tok in toks], dtype=np.int64)
    except (ValueError, OverflowError):
        ids = None
    if (ids is None or _NOT_ID.search(data) or not all(sep for _, sep, _ in rows)
            or (ids.size and ids.min() < 0)):
        raise _cover_error(path, text)
    nodes, comm_ids = ids[:len(rows)], ids[len(rows):]
    ordered = np.sort(nodes)
    if (ordered[1:] == ordered[:-1]).any():  # a node with two lines
        raise _cover_error(path, text)
    max_node = int(nodes.max()) if nodes.size else -1
    max_comm = int(comm_ids.max()) if comm_ids.size else -1
    n_nodes = max_node + 1 if declared_n is None else declared_n
    n_comm = max_comm + 1 if declared_k is None else declared_k
    if max_node >= n_nodes:
        raise FormatError(f"node id {max_node} >= declared #nodes={n_nodes}")
    if max_comm >= n_comm:
        raise FormatError(f"community id {max_comm} >= declared #communities={n_comm}")
    m = np.zeros((n_nodes, n_comm), dtype=np.uint8)
    m[np.repeat(nodes, [len(toks) for toks in comms]), comm_ids] = 1
    return Cover(memberships=m)


def write_cover(cover: Cover, path) -> None:
    n, k = cover.memberships.shape
    nodes, comms = np.nonzero(cover.memberships)  # row-major: ascending per node
    # one cell per node ("\nv:") followed by one per membership (" c")
    cells = np.empty(n + nodes.size, dtype=object)
    is_head = np.zeros(cells.size, dtype=bool)
    is_head[np.arange(n) + np.searchsorted(nodes, np.arange(n))] = True
    cells[is_head] = np.array([f"\n{v}:" for v in range(n)], dtype=object)
    cells[~is_head] = np.array([f" {c}" for c in range(k)], dtype=object)[comms]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#nodes={n}\n#communities={k}" + "".join(cells.tolist()) + "\n")


def _has_data_line(path, skip: int) -> bool:
    """Whether a line after the first ``skip`` is one np.loadtxt reads: not
    blank and not a '#' comment. Reads only up to the first such line."""
    with open(path, "r", encoding="utf-8") as fh:
        return any(line.strip() and not line.lstrip().startswith("#")
                   for line in itertools.islice(fh, skip, None))


def load_features(path, header: bool = False) -> np.ndarray:
    """Comma-separated rows, one per node; a file without data rows gives a
    0 x 0 matrix."""
    skip = 1 if header else 0
    try:
        if not _has_data_line(path, skip):  # np.loadtxt warns on input without data
            return np.empty((0, 0))
        X = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    except ValueError as exc:  # a cell that is not a number, or a ragged row
        raise FormatError(f"{path}: {exc}") from None
    if not np.all(np.isfinite(X)):
        raise FormatError(f"{path}: non-finite feature value")
    return X


def write_features(X: np.ndarray, path) -> None:
    np.savetxt(path, np.asarray(X), delimiter=",", fmt="%.10g")


def synth_graph(config: SynthConfig):
    """Generate a (Graph, features, Cover) triple, fully determined by seed.

    Nodes are split into K equal-size primary communities; a fraction gets a
    second community; edges are Bernoulli(p_in) inside a shared community and
    Bernoulli(p_out) otherwise. Features are block-indicator Bernoulli noise.
    """
    rng = np.random.default_rng(config.seed)
    n, k = config.n_nodes, config.n_communities
    bounds = [(i * n) // k for i in range(k + 1)]
    primary = np.repeat(np.arange(k), np.diff(bounds))
    memb = np.zeros((n, k), dtype=np.uint8)
    memb[np.arange(n), primary] = 1

    n_overlap = int(round(config.overlap_fraction * n))
    if n_overlap > 0 and k > 1:
        chosen = rng.choice(n, size=n_overlap, replace=False)
        offsets = rng.integers(1, k, size=n_overlap)
        second = (primary[chosen] + offsets) % k
        memb[chosen, second] = 1
    cover = Cover(memberships=memb)

    # the N x N uniform draw is made a block of rows at a time, and only its
    # upper triangle is used; Generator.random fills in C order, so the edges
    # are those of a single (N, N) draw
    nodes = np.arange(n)
    # shared-community counts as a float32 product, which runs through BLAS;
    # a node has at most two communities, so every count (<= 2) is exact
    memb_f = memb.astype(np.float32)
    memb_t = memb_f.T.copy()
    edges = []
    step = max(1, SYNTH_BLOCK // n)
    for start in range(0, n, step):
        rows = nodes[start:start + step]
        if config.overlap_edges:
            share = (memb_f[rows] @ memb_t) > 0
        else:
            share = primary[rows, None] == primary[None, :]
        prob = np.where(share, config.p_in, config.p_out)
        keep = (rng.random((rows.size, n)) < prob) & (nodes > rows[:, None])
        i, j = np.nonzero(keep)
        edges.append(np.stack([rows[i], j], axis=1))
    graph = Graph.from_edges(np.concatenate(edges), n)

    in_block = np.repeat(memb, config.dims_per_community, axis=1) == 1
    prob_x = np.where(in_block, config.feature_signal, config.feature_noise)
    X = (rng.random(prob_x.shape) < prob_x).astype(np.float64)
    return graph, X, cover


def sample_labels(cover: Cover, rho: float, seed: int) -> SampledLabels:
    """Draw an equal per-community quota q = ceil(rho*N/K) of labeled nodes.

    A node picked through several communities is reported once, with its full
    ground-truth row. Quotas are clamped to community size.
    """
    if not (0.0 <= rho <= 1.0):
        raise ValueError("rho must be in [0, 1]")
    n, k = cover.n_nodes, cover.n_communities
    rng = np.random.default_rng(seed)
    quota = math.ceil(rho * n / k) if k else 0
    picked = set()
    for c in range(k):
        members = cover.members(c)
        take = min(quota, members.size)
        if take > 0:
            picked.update(rng.choice(members, size=take, replace=False).tolist())
    node_ids = np.array(sorted(picked), dtype=np.int64)
    return SampledLabels(node_ids=node_ids, rows=cover.memberships[node_ids].copy())
