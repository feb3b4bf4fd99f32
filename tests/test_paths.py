import heapq
import random
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stmgraph import (DagCompression, DistanceModel, InputError, apsp,
                      bfs_sssp_oracle, dag_to_distance_model, dag_to_graph,
                      decode_bruteforce, ibp_to_dag,
                      scattered_maximal_subset, sssp, stm_to_ibp,
                      zero_one_bfs)
from stmgraph import paths
from stmgraph.gen import random_stm, random_stm_sparse
from stmgraph.graph import LinearOrder
from stmgraph.convert import IntervalBicliquePartition

from conftest import compressions
from test_convert import seed_family_models


def model_of_path(n):
    """Distance model pipeline for the path 1-2-...-n via a one-edge-per-
    biclique partition."""
    order = LinearOrder.identity(n)
    ibp = IntervalBicliquePartition(order, [(i, i, i + 1, i + 1)
                                           for i in range(1, n)])
    return dag_to_distance_model(ibp_to_dag(ibp))


def dijkstra_oracle(dm: DistanceModel, source: int) -> list[int]:
    INF = dm.num_nodes + 1
    dist = [INF] * (dm.num_nodes + 1)
    dist[source] = 0
    pq = [(0, source)]
    while pq:
        d, u = heapq.heappop(pq)
        if d > dist[u]:
            continue
        for w, (offsets, targets) in enumerate((dm.zero, dm.one)):
            for v in targets[offsets[u]:offsets[u + 1]].tolist():
                if d + w < dist[v]:
                    dist[v] = d + w
                    heapq.heappush(pq, (d + w, v))
    return dist


def adjacency_lists(dm: DistanceModel) -> list[list[tuple[int, int]]]:
    """Per-node (target, weight) lists, the weight-0 edges first, each in
    CSR order: on a ``dag_to_distance_model`` output, the order in which
    it generates each node's edges."""
    adj = [[] for _ in range(dm.num_nodes + 1)]
    for w, (offsets, targets) in enumerate((dm.zero, dm.one)):
        for u in range(1, dm.num_nodes + 1):
            adj[u].extend((v, w) for v in targets[offsets[u]:offsets[u + 1]].tolist())
    return adj


def deque_bfs_oracle(adj, n, num_nodes, source, max_dist=None):
    """Reference deque 0-1 BFS over per-node lists, with the label rule of
    ``zero_one_bfs``: weight-0 relaxations go to the front, weight-1 to the
    back, and a popped node scans all its edges, also when it was popped
    before.  Returns (dist, parent, ops) as lists."""
    INF = num_nodes + 1
    dist = [INF] * (num_nodes + 1)
    label = [0] * (num_nodes + 1)
    parent = [0] * n
    dist[source] = 0
    label[source] = source
    dq = deque([source])
    ops = 0
    while dq:
        u = dq.popleft()
        du = dist[u]
        if max_dist is not None and du > max_dist:
            continue
        for v, w in adj[u]:
            ops += 1
            nd = du + w
            if nd < dist[v]:
                dist[v] = nd
                if v <= n:
                    parent[v - 1] = label[u]
                    label[v] = v
                else:
                    label[v] = label[u]
                if w == 0:
                    dq.appendleft(v)
                else:
                    dq.append(v)
    return dist, parent, ops


def check_against_deque(dm: DistanceModel, sources, same_ops: bool) -> None:
    """Distances equal the deque oracle's from each source, also under
    every radius cut-off up to 3; ops equal it where ``same_ops``."""
    adj = adjacency_lists(dm)
    INF = dm.num_nodes + 1
    for s in sources:
        dist, _, ops = deque_bfs_oracle(adj, dm.n, dm.num_nodes, s)
        for r in range(4):
            cut = zero_one_bfs(dm, s, r).dist.tolist()
            assert cut == [d if d <= r else INF for d in dist], (s, r)
        res = zero_one_bfs(dm, s)
        assert res.dist.tolist() == dist, s
        if same_ops:
            assert res.ops == ops, s


def check_parents(dc: DagCompression, source: int) -> None:
    """Each reached vertex's parent is a graph neighbour one level up; the
    source and unreached vertices have parent 0."""
    res = zero_one_bfs(dag_to_distance_model(dc), source)
    g = dag_to_graph(dc)
    for v in range(1, dc.n + 1):
        p, d = int(res.parent_vertex[v - 1]), int(res.dist[v])
        if v == source or d == res.INF:
            assert p == 0, (source, v)
        else:
            assert g.has_edge(p, v) and res.dist[p] == d - 1, (source, v)


def check_chunks(dm: DistanceModel, source: int, cuts, chunks=(1, 2, 7)) -> None:
    """The search scanning its batches in slices of each size in ``chunks``
    gives the dist, parents and ops it gives with the default slices, under
    each radius cut-off in ``cuts``."""
    for r in cuts:
        res = zero_one_bfs(dm, source, r)
        want = (res.dist.tolist(), res.parent_vertex.tolist(), res.ops)
        for chunk in chunks:
            with mock.patch.object(paths, "_CHUNK", chunk):
                res = zero_one_bfs(dm, source, r)
            assert (res.dist.tolist(), res.parent_vertex.tolist(), res.ops) == want, (source, r, chunk)


@st.composite
def raw_models(draw):
    """Raw 0-1 models: shared vertices 1..n among nodes 1..num_nodes, random
    edges plus one weight-0 cycle; nodes no edge enters are unreachable."""
    n = draw(st.integers(1, 12))
    num_nodes = n + draw(st.integers(0, 12))
    node = st.integers(1, num_nodes)
    edges = draw(st.lists(st.tuples(node, node, st.integers(0, 1)),
                          max_size=3 * num_nodes))
    cycle = draw(st.lists(node, max_size=5, unique=True))
    edges += [(u, v, 0) for u, v in zip(cycle, cycle[1:] + cycle[:1])]
    return DistanceModel(n, num_nodes, edges)


class TestDistanceModel:
    def test_single_edge(self):
        dm = model_of_path(2)
        res = zero_one_bfs(dm, 1)
        assert res.dist[1] == 0 and res.dist[2] == 1

    def test_p3_dist(self, p3_model):
        dm = dag_to_distance_model(ibp_to_dag(stm_to_ibp(p3_model)))
        res = zero_one_bfs(dm, 1)
        assert res.dist[3] == 2

    def test_distance_equivalence_random(self):
        for seed in range(150):
            rng = random.Random(seed)
            n = rng.randint(2, 64)
            model = random_stm(n, rng.randint(0, 3 * n), seed=seed)
            g = decode_bruteforce(model)
            dm = dag_to_distance_model(ibp_to_dag(stm_to_ibp(model)))
            for s in rng.sample(range(1, n + 1), min(4, n)):
                res = zero_one_bfs(dm, s)
                want = bfs_sssp_oracle(g, s)
                got = [res.dist[v] if res.dist[v] < res.INF else n
                       for v in range(1, n + 1)]
                assert got == want, (seed, s)

    @settings(max_examples=300, deadline=None)
    @given(compressions())
    def test_shared_distances_symmetric(self, dc):
        # the one-search scatter relies on this
        dm = dag_to_distance_model(dc)
        dist = [None] + [zero_one_bfs(dm, s).dist.tolist() for s in range(1, dc.n + 1)]
        for u in range(1, dc.n + 1):
            for v in range(1, dc.n + 1):
                assert dist[u][v] == dist[v][u], (u, v)

    def test_csr_against_lists(self):
        """Each node's targets of each weight, in input order, against
        Python lists: the order ``zero_one_bfs``'s parents depend on.  The
        sources come in any order, or already non-decreasing (all from one
        node, a single edge, sorted with repeats), which ``_csr`` keeps
        without a sort."""
        rng = random.Random(21)
        for trial in range(400):
            num_nodes = rng.randint(1, 30)
            n = rng.choice([num_nodes, rng.randint(0, num_nodes)])
            # nodes above ``top`` get no edges; repeats come back anywhere
            top = rng.randint(1, num_nodes)
            edges = [(rng.randint(1, top), rng.randint(1, num_nodes), rng.randint(0, 1))
                     for _ in range(rng.choice([0, rng.randint(0, 4 * num_nodes)]))]
            for _ in range(len(edges) // 3):
                edges.insert(rng.randint(0, len(edges)), rng.choice(edges))
            hub = rng.randint(1, num_nodes)
            for given in (edges, [(hub, y, w) for _, y, w in edges], edges[:1],
                          sorted(edges, key=lambda e: e[0])):
                want = [[[] for _ in range(num_nodes + 1)] for _ in range(2)]
                for x, y, w in given:
                    want[w][x].append(y)
                for form in (given, np.array(given, dtype=np.int64).reshape(-1, 3)):
                    dm = DistanceModel(n, num_nodes, form)
                    for w, (offsets, targets) in enumerate((dm.zero, dm.one)):
                        assert offsets.dtype == targets.dtype == np.int64
                        assert len(offsets) == num_nodes + 2 and offsets[0] == 0, trial
                        got = [targets[offsets[u]:offsets[u + 1]].tolist()
                               for u in range(num_nodes + 1)]
                        assert got == want[w], trial

    @pytest.mark.parametrize("n, num_nodes, edges", [
        (2, 3, [(1, -1, 0), (3, 2, 1)]),  # a negative target would wrap onto node 3
        (2, 3, [(5, 1, 0)]),
        (2, 3, [(1, 4, 1)]),
        (3, 2, []),
        (2, 3, [(1, 2, 0), (1, 2, 2)]),
        (2, 3, [(1, 2, -1)]),
        (2, 3, [(1, 2, 0.5)]),
        (2, 3, [(1, 2)]),
    ])
    def test_rejects_out_of_range(self, n, num_nodes, edges):
        with pytest.raises(InputError):
            DistanceModel(n, num_nodes, edges)


class TestZeroOneBfs:
    def test_tiny_weights(self):
        dm = DistanceModel(3, 3, [(1, 2, 0), (2, 3, 1)])
        res = zero_one_bfs(dm, 1)
        assert res.dist[1:].tolist() == [0, 0, 1]

    def test_disconnected(self):
        dm = DistanceModel(2, 2, [])
        res = zero_one_bfs(dm, 1)
        assert res.dist[2] == res.INF

    def test_against_dijkstra(self):
        for seed in range(100):
            rng = random.Random(seed)
            nn = rng.randint(2, 30)
            edges = [(rng.randint(1, nn), rng.randint(1, nn), rng.randint(0, 1))
                     for _ in range(rng.randint(0, 3 * nn))]
            dm = DistanceModel(nn, nn, edges)
            s = rng.randint(1, nn)
            assert zero_one_bfs(dm, s).dist.tolist() == dijkstra_oracle(dm, s), seed

    def test_first_edge_of_a_batch_wins(self):
        # level 1 settles 3 then 2, in edge order; the 0-closure batch out of
        # them reaches 4 by 3's edge first, then by 2's
        dm = DistanceModel(4, 4, [(1, 3, 1), (1, 2, 1), (3, 4, 0), (2, 4, 0)])
        assert zero_one_bfs(dm, 1).parent_vertex.tolist() == [0, 1, 1, 3]

    def test_bad_source(self, p3_model):
        dm = dag_to_distance_model(ibp_to_dag(stm_to_ibp(p3_model)))
        with pytest.raises(InputError):
            zero_one_bfs(dm, 99)

    @settings(max_examples=300, deadline=None)
    @given(raw_models())
    def test_raw_models_match_deque(self, dm):
        # weight-0 cycles and unreachable nodes; a node the deque pops twice
        # scans its edges twice, so ops may differ here
        check_against_deque(dm, range(1, dm.n + 1), same_ops=False)

    @settings(max_examples=300, deadline=None)
    @given(compressions())
    def test_compressions_match_deque(self, dc):
        check_against_deque(dag_to_distance_model(dc), range(1, dc.n + 1), same_ops=False)
        for s in range(1, dc.n + 1):
            check_parents(dc, s)

    def test_seed_family_match_deque(self):
        # on ibp_to_dag's models a weight-1 edge enters only a biclique's own
        # node, which no weight-0 edge enters; so no node improves after it
        # is first reached, and the deque pops each once
        for model in seed_family_models():
            dc = ibp_to_dag(stm_to_ibp(model))
            rng = random.Random(model.n)
            sources = rng.sample(range(1, model.n + 1), min(3, model.n))
            check_against_deque(dag_to_distance_model(dc), sources, same_ops=True)
            if model.n <= 1024:
                check_parents(dc, sources[0])

    @settings(max_examples=200, deadline=None)
    @given(raw_models())
    def test_chunked_scan_raw_models(self, dm):
        # weight-0 cycles, and batches that reach one target by several edges
        for s in range(1, dm.n + 1):
            check_chunks(dm, s, (None, 0, 1, 2, 3))

    def test_chunked_scan_seed_family(self):
        """Slices of 1, 2 and 7 edges on the models up to n = 256, each with
        one of the cut-offs in turn.  Above, slices of 97 edges, and one
        slice per batch against the default, which cuts the batches of the
        n = 16384 model."""
        for i, model in enumerate(seed_family_models()):
            dm = dag_to_distance_model(ibp_to_dag(stm_to_ibp(model)))
            source = random.Random(model.n).randint(1, model.n)
            if model.n <= 256:
                check_chunks(dm, source, [(None, 0, 1, 2, 3)[i % 5]])
            else:
                check_chunks(dm, source, (None, 2), chunks=(97, dm.num_edges))

    def test_state_dtype(self):
        """Below 2^31 nodes the search's per-node arrays are int32."""
        res = zero_one_bfs(model_of_path(3), 1)
        assert res.dist.dtype == res.parent_vertex.dtype == np.int32


class TestSssp:
    def test_p3(self, p3_model):
        t = sssp(p3_model, 1)
        assert t.dist == (0, 1, 2)
        assert t.parent == (0, 1, 2)

    def test_isolated_source(self):
        model = random_stm(6, 0, seed=0)
        t = sssp(model, 2)
        assert t.dist[1] == 0
        assert all(d == 6 for i, d in enumerate(t.dist) if i != 1)
        assert all(p == 0 for p in t.parent)

    def test_fig1_source8(self, fig1_model):
        t = sssp(fig1_model, 8)
        assert t.dist[4 - 1] == 1
        assert t.dist[2 - 1] == 1
        assert t.dist[7 - 1] >= 2

    def test_tree_invariants_random(self):
        for seed in range(150):
            rng = random.Random(seed)
            n = rng.randint(2, 40)
            model = random_stm(n, rng.randint(0, 3 * n), seed=seed)
            g = decode_bruteforce(model)
            s = rng.randint(1, n)
            t = sssp(model, s)
            want = bfs_sssp_oracle(g, s)
            assert list(t.dist) == want, seed
            for v in range(1, n + 1):
                if v == s or t.dist[v - 1] >= n:
                    assert t.parent[v - 1] == 0
                else:
                    p = t.parent[v - 1]
                    assert g.has_edge(p, v), (seed, v)
                    assert t.dist[p - 1] == t.dist[v - 1] - 1, (seed, v)

    def test_accepts_all_representations(self, p3_model):
        ibp = stm_to_ibp(p3_model)
        dag = ibp_to_dag(ibp)
        assert sssp(p3_model, 1).dist == sssp(ibp, 1).dist == sssp(dag, 1).dist


def per_source_matrix(dm):
    """``apsp``'s matrix, as lists, from one ``zero_one_bfs`` per source."""
    want = []
    for s in range(1, dm.n + 1):
        res = zero_one_bfs(dm, s)
        want.append([d if d < res.INF else dm.n for d in res.dist[1:dm.n + 1].tolist()])
    return want


class TestApsp:
    def test_p3(self, p3_model):
        assert apsp(p3_model).tolist() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]

    def test_single_vertex(self):
        assert apsp(DistanceModel(1, 1, [])).tolist() == [[0]]
        assert apsp(DistanceModel(1, 3, [(1, 2, 0), (2, 3, 0), (3, 1, 1)])).tolist() == [[0]]

    @settings(max_examples=400, deadline=None)
    @given(raw_models())
    def test_matches_per_source_bfs(self, dm):
        assert apsp(dm).tolist() == per_source_matrix(dm)

    @settings(max_examples=200, deadline=None)
    @given(raw_models())
    def test_one_word_blocks_raw(self, dm):
        """Blocks of 64 sources: one partial block."""
        with mock.patch.object(paths, "_BLOCK_WORDS", 1):
            assert apsp(dm).tolist() == per_source_matrix(dm)

    @pytest.mark.parametrize("n", [63, 64, 65, 129, 200])
    def test_one_word_blocks(self, n):
        """Blocks of 64 sources across word and block boundaries, on a
        sparse model and on a raw model dense in zero-weight cycles."""
        rng = random.Random(n)
        num_nodes = 2 * n
        edges = [(rng.randint(1, num_nodes), rng.randint(1, num_nodes), rng.randint(0, 1))
                 for _ in range(3 * num_nodes)]
        models = [DistanceModel(n, num_nodes, edges),
                  dag_to_distance_model(ibp_to_dag(stm_to_ibp(random_stm_sparse(n, 4 * n, seed=n))))]
        with mock.patch.object(paths, "_BLOCK_WORDS", 1):
            for dm in models:
                assert apsp(dm).tolist() == per_source_matrix(dm)

    def test_shape_dtype_sentinel(self):
        models = [DistanceModel(n, n, []) for n in (1, 4, 255, 256)]
        models.append(dag_to_distance_model(ibp_to_dag(stm_to_ibp(random_stm(4, 0, seed=0)))))
        for dm in models:
            n = dm.n
            mat = apsp(dm)
            assert mat.shape == (n, n) and mat.dtype == np.min_scalar_type(n)
            assert np.array_equal(mat, np.where(np.eye(n, dtype=bool), 0, n))

    def test_level_beyond_dtype_raises(self):
        # 1 -> 3 -> ... -> 300 -> 2 by weight-1 edges: a distance of 299
        # does not fit the uint8 matrix of n = 2
        chain = [1, *range(3, 301), 2]
        dm = DistanceModel(2, 300, [(u, v, 1) for u, v in zip(chain, chain[1:])])
        with pytest.raises(OverflowError):
            apsp(dm)

    def test_edgeless(self):
        model = random_stm(4, 0, seed=0)
        mat = apsp(model)
        for i in range(4):
            for j in range(4):
                assert mat[i][j] == (0 if i == j else 4)

    def test_random_symmetric(self):
        for seed in range(30):
            model = random_stm(12, 30, seed=seed)
            g = decode_bruteforce(model)
            mat = apsp(model)
            for s in range(1, 13):
                assert mat[s - 1].tolist() == bfs_sssp_oracle(g, s), seed
            for i in range(12):
                assert mat[i][i] == 0
                for j in range(12):
                    assert mat[i][j] == mat[j][i]


class TestScattered:
    def test_path_example(self):
        dm = model_of_path(4)
        assert scattered_maximal_subset(dm, [1, 2, 3, 4], 2, 1) == [1, 3]

    def test_c1(self):
        dm = model_of_path(4)
        assert scattered_maximal_subset(dm, [2, 3, 4], 1, 1) == [2]

    def test_r_at_least_diameter(self):
        dm = model_of_path(4)
        assert scattered_maximal_subset(dm, [1, 2, 3, 4], 4, 3) == [1]

    def test_random_scattered_and_maximal(self):
        for seed in range(120):
            rng = random.Random(seed)
            n = rng.randint(2, 32)
            model = random_stm(n, rng.randint(0, 3 * n), seed=seed)
            g = decode_bruteforce(model)
            dm = dag_to_distance_model(ibp_to_dag(stm_to_ibp(model)))
            X = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
            c = rng.randint(1, 4)
            r = rng.randint(1, 3)
            S = scattered_maximal_subset(dm, X, c, r)
            assert len(S) <= c
            dists = {v: bfs_sssp_oracle(g, v) for v in set(S) | set(X)}
            for i, a in enumerate(S):
                for b in S[i + 1:]:
                    assert dists[a][b - 1] > r, seed
            if len(S) < c:
                # every excluded candidate is within r of some chosen vertex
                for x in X:
                    if x in S:
                        continue
                    assert any(dists[x][s - 1] <= r for s in S), (seed, x)
