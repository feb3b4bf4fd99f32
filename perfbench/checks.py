"""Correctness gates, run outside the timed region.

Each gate returns a list of ``(op, message)`` failures for one pass's
outputs; an output too malformed to check raises, which the caller counts
as a failure.  Where a repository oracle (``decode_bruteforce``,
``bfs_sssp_oracle``, ``dense_matvec_oracle``) is too slow for every
output, it is run on a seeded sample and a numpy oracle built from the
decoded graph covers the rest.
"""

from __future__ import annotations

import math
import random

import numpy as np

from stmgraph import convert, stm
from stmgraph import io as fio
from stmgraph.graph import Graph, LinearOrder, bfs_sssp_oracle, graphs_equal
from stmgraph.matmul import dense_matvec_oracle
from stmgraph.paths import ShortestPathTree
from stmgraph.sddegen import validate_sequence

Failures = list[tuple[str, str]]


# -- numpy oracles over a decoded graph ----------------------------------------

def adjacency(g: Graph) -> np.ndarray:
    """Dense 0/1 float64 adjacency, row/column v-1 for vertex v."""
    a = np.zeros((g.n, g.n), dtype=np.float64)
    for u, v in g.edges():
        a[u - 1, v - 1] = a[v - 1, u - 1] = 1.0
    return a


def distances(a: np.ndarray) -> np.ndarray:
    """All-pairs BFS distances by frontier matrix products; sentinel n for
    unreachable pairs, as the program reports them."""
    n = a.shape[0]
    dist = np.full((n, n), n, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    seen = np.eye(n, dtype=bool)
    frontier = np.eye(n, dtype=np.float64)
    level = 0
    while frontier.any():
        level += 1
        nxt = ((frontier @ a) > 0) & ~seen
        dist[nxt] = level
        seen |= nxt
        frontier = nxt.astype(np.float64)
    return dist


def matmul_mod64(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """0/1 matrix ``a`` times int64 ``x`` with wrapping 64-bit arithmetic,
    exact via 16-bit limbs in float64 products."""
    u = np.ascontiguousarray(x, dtype=np.int64).view(np.uint64)
    acc = np.zeros((a.shape[0],) + u.shape[1:], dtype=np.uint64)
    for i in range(4):
        shift = np.uint64(16 * i)
        limb = ((u >> shift) & np.uint64(0xFFFF)).astype(np.float64)
        acc += (a @ limb).astype(np.uint64) << shift
    return acc.view(np.int64)


def greedy_scatter(dist: np.ndarray, xs, c: int, r: int) -> list[int]:
    """The program's greedy rule (smallest remaining id first) on oracle
    distances."""
    rest = sorted(set(xs))
    out: list[int] = []
    while rest and len(out) < c:
        x = rest[0]
        out.append(x)
        row = dist[x - 1]
        rest = [v for v in rest if v != x and row[v - 1] > r]
    return out


def check_parents(op: str, tree: ShortestPathTree, has_edge, vertices) -> Failures:
    """Each parent is a neighbour one level up; the source and unreachable
    vertices have none."""
    n = len(tree.dist)
    for v in vertices:
        d, p = tree.dist[v - 1], tree.parent[v - 1]
        if v == tree.source or d >= n:
            ok = p == 0
        else:
            ok = 1 <= p <= n and tree.dist[p - 1] == d - 1 and has_edge(p, v)
        if not ok:
            return [(op, f"parent {p} of vertex {v} breaks the tree from {tree.source}")]
    return []


def check_tree(op: str, tree: ShortestPathTree, dist_row, has_edge) -> Failures:
    """Distances equal the oracle row and every parent is consistent."""
    if list(tree.dist) != [int(d) for d in dist_row]:
        return [(op, f"sssp distances from {tree.source} differ from the oracle")]
    return check_parents(op, tree, has_edge, range(1, len(tree.dist) + 1))


# -- build-sparse-16k: size bounds, parent tree, sampled adjacency -------------

class ModelAdjacency:
    """Edge test on a model without decoding it: the minimal (smallest
    rectangle) pair covering two leaves decides, as in decode_bruteforce."""

    def __init__(self, model):
        self.model = model
        self.partners: dict[int, list[tuple[int, int]]] = {}
        for x, y, s in model.pairs_signed():
            self.partners.setdefault(x, []).append((y, s))
            self.partners.setdefault(y, []).append((x, s))
        self.size = [0] * len(model.parent)
        for t in range(1, len(model.parent)):
            lo, hi = model.leaf_interval(t)
            self.size[t] = hi - lo + 1

    def __call__(self, u: int, v: int) -> bool:
        m, best, sign = self.model, None, 0
        x = u
        while x:
            for y, s in self.partners.get(x, ()):
                if m.is_ancestor(y, v):
                    area = self.size[x] * self.size[y]
                    if best is None or area < best:
                        best, sign = area, s
            x = m.parent[x]
        return sign > 0


def check_build(inp: dict, out: dict) -> Failures:
    fails: Failures = []
    model, ibp, dag, dm = out["model"], out["ibp"], out["dag"], out["dm"]
    n = model.n
    if (n, len(model.pairs_a), len(model.pairs_b)) != (inp["n"], inp["A"], inp["B"]):
        fails.append(("parse", "parsed model differs from the generated one"))
    cleaned = stm.clean_same_sign(model)
    k = len(ibp.bicliques)
    if k > 3 * len(cleaned.pairs_a) + len(cleaned.pairs_b):
        fails.append(("stm_to_ibp", f"{k} bicliques exceed 3|A|+|B| after cleaning"))
    log = max(1, math.ceil(math.log2(n)))
    if len(dag.edges) - 2 * (n - 1) > (2 * log + 1) * k or len(dag.compressed) != k:
        fails.append(("ibp_to_dag", "DAG size exceeds (2 ceil(log n)+1) extra edges per biclique"))
    if dm.num_nodes != 2 * dag.num_nodes - n or dm.num_edges != 2 * (len(dag.edges) + k):
        fails.append(("distance_model", "distance model is not two copies of the DAG"))

    adjacent = ModelAdjacency(model)
    rng = random.Random(inp["seed"])
    for i, tree in enumerate(out["trees"]):
        # every vertex of the first tree, a seeded sample of the others
        vertices = range(1, n + 1) if i == 0 else rng.sample(range(1, n + 1), 2000)
        if tree.dist[tree.source - 1] != 0:
            fails.append(("sssp", f"distance of source {tree.source} is not 0"))
        fails += check_parents("sssp", tree, adjacent, vertices)

    tree = out["trees"][0]
    quads = np.array(ibp.bicliques, dtype=np.int64)
    a, b, c, d = quads.T
    pos = ibp.order.position
    pairs = [tuple(rng.sample(range(1, n + 1), 2)) for _ in range(1500)]
    pairs += [(tree.parent[v - 1], v) for v in rng.sample(range(1, n + 1), 500)
              if 1 <= tree.parent[v - 1] <= n]
    for u, v in pairs:
        i, j = sorted((pos[u - 1], pos[v - 1]))
        hits = int(np.count_nonzero((a <= i) & (i <= b) & (c <= j) & (j <= d)))
        if hits > 1 or (hits == 1) != adjacent(u, v):
            fails.append(("stm_to_ibp", f"pair ({u},{v}) covered {hits} times by the IBP, "
                                        f"model says adjacent={adjacent(u, v)}"))
            break

    # every row by the prefix/difference scheme in numpy, 32 rows by direct sums
    xs = np.array(inp["x"], dtype=np.int64).view(np.uint64)
    prefix = np.concatenate([np.zeros(1, np.uint64), np.cumsum(xs, dtype=np.uint64)])
    y = np.array(out["y"], dtype=np.int64).view(np.uint64)
    to_ab, to_cd = prefix[d] - prefix[c - 1], prefix[b] - prefix[a - 1]
    diff = np.zeros(n + 2, dtype=np.uint64)
    for lo, hi, val in ((a, b, to_ab), (c, d, to_cd)):
        np.add.at(diff, lo, val)
        np.subtract.at(diff, hi + 1, val)
    if not np.array_equal(np.cumsum(diff, dtype=np.uint64)[1:n + 1], y):
        fails.append(("matvec", "matvec differs from the vectorized biclique sums"))
    for i in rng.sample(range(1, n + 1), 32):
        left = (a <= i) & (i <= b)
        right = (c <= i) & (i <= d)
        row = np.sum(np.concatenate((prefix[d[left]] - prefix[c[left] - 1],
                                     prefix[b[right]] - prefix[a[right] - 1])),
                     dtype=np.uint64)
        if row != y[i - 1]:
            fails.append(("matvec", f"row {i} of the matvec differs from the biclique sum"))
            break
    return fails


# -- query-sparse-1k: oracles on every output ----------------------------------

def check_query(inp: dict, out: dict) -> Failures:
    fails: Failures = []
    model, ibp = out["model"], out["ibp"]
    n = model.n
    g = stm.decode_bruteforce(model, validated=True)
    if not graphs_equal(out["graph"], g):
        fails.append(("matmul", "ibp_to_graph differs from decode_bruteforce"))
    a = adjacency(g)
    dist = distances(a)
    rng = random.Random(inp["seed"])
    for s in rng.sample(range(1, n + 1), 16):
        if bfs_sssp_oracle(g, s) != dist[s - 1].tolist():
            fails.append(("oracle", f"numpy distances from {s} differ from bfs_sssp_oracle"))
    if not np.array_equal(np.array(out["apsp"], dtype=np.int64), dist):
        fails.append(("apsp", "apsp differs from the oracle distances"))

    vectors = []
    for (kind, arg), res in zip(inp["stream"], out["stream"]):
        if kind == "sssp":
            fails += check_tree("sssp", res, dist[arg - 1], g.has_edge)
        elif kind == "scatter":
            if res != greedy_scatter(dist, arg, inp["c"], inp["r"]):
                fails.append(("scatter", "scattered set differs from the greedy on oracle distances"))
        else:
            vectors.append((arg, res))
    perm = [v - 1 for v in ibp.order.vertex_at]
    a_kernel = a[np.ix_(perm, perm)]
    want = matmul_mod64(a_kernel, np.array([x for x, _ in vectors], dtype=np.int64).T)
    got = np.array([y for _, y in vectors], dtype=np.int64).T
    for j in np.flatnonzero((want != got).any(axis=0)):
        fails.append(("matvec", f"matvec {j} differs from the dense product"))
    for x, y in rng.sample(vectors, 4):
        if dense_matvec_oracle(g, ibp.order, x) != y:
            fails.append(("matvec", "matvec differs from dense_matvec_oracle"))

    mat = np.array(inp["matrix"], dtype=np.int64)
    prod = np.array(out["matmul"], dtype=np.int64)
    if not np.array_equal(matmul_mod64(a, mat), prod):
        fails.append(("matmul", "adjacency_matmul differs from the dense product"))
    ident = LinearOrder.identity(n)
    for j in rng.sample(range(n), 2):
        if dense_matvec_oracle(g, ident, mat[:, j].tolist()) != prod[:, j].tolist():
            fails.append(("matmul", f"column {j} differs from dense_matvec_oracle"))
    return fails


# -- cli-planted-256: every file the script wrote ------------------------------

def check_cli(inp: dict, out: dict) -> Failures:
    """One script run on one graph: exit codes and every file it wrote."""
    fails: Failures = [(label, f"exit code {got}, expected {want}")
                       for label, want, got in out["exits"] if want != got]
    files, g = out["files"], inp["graph"]
    n = g.n

    def expect(op: str, ok: bool, msg: str = "output differs from the oracle") -> None:
        if not ok:
            fails.append((op, msg))

    validate_sequence(g, fio.parse_sdseq(files["sdseq"]))
    model = fio.parse_stm(files["stm"], check_crossing=False)
    expect("convert-sdseq-stm", graphs_equal(stm.decode_bruteforce(model, validated=True), g))
    expect("validate-stm", out["stdout"]["validate-stm"] == "ok\n")
    expect("crossing-stm-ibp", "cross" in out["stderr"]["crossing-stm-ibp"].lower(),
           "the crossing model was not rejected as crossing")
    expect("convert-stm-ibp", graphs_equal(convert.ibp_to_graph(fio.parse_ibp(files["ibp"])), g))
    expect("convert-ibp-dag", graphs_equal(convert.dag_to_graph(fio.parse_dag(files["dag"])), g))
    expect("decode", graphs_equal(fio.parse_graph(files["decode"]), g))

    a = adjacency(g)
    dist = distances(a)
    rng = random.Random(inp["seed"])
    for s in rng.sample(range(1, n + 1), 16):
        expect("oracle", bfs_sssp_oracle(g, s) == dist[s - 1].tolist())
    for s in inp["sources"]:
        rows = [ln.split() for ln in files[f"sssp-{s}"].splitlines()]
        d = [n if int(r[1]) < 0 else int(r[1]) for r in rows]
        tree = ShortestPathTree(s, tuple(d), tuple(int(r[2]) for r in rows))
        fails += check_tree(f"sssp-{s}", tree, dist[s - 1], g.has_edge)
    expect("scatter", [int(v) for v in files["scatter"].split()]
           == greedy_scatter(dist, range(1, n + 1), inp["c"], inp["r"]))
    printed = [[int(v) for v in ln.split()] for ln in files["apsp"].splitlines()]
    expect("apsp", np.array_equal(np.array(printed), np.where(dist >= n, -1, dist)))
    prod = np.array(fio.parse_matrix(files["matmul"]), dtype=np.int64)
    mat = np.array(inp["matrix"], dtype=np.int64)
    expect("matmul", np.array_equal(matmul_mod64(a, mat), prod))
    ident = LinearOrder.identity(n)
    for j in rng.sample(range(n), 2):
        expect("matmul", dense_matvec_oracle(g, ident, mat[:, j].tolist()) == prod[:, j].tolist())
    return fails
