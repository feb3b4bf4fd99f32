import heapq
import random

import pytest
from hypothesis import given, settings, strategies as st

from stmgraph import (DistanceModel, InputError, apsp,
                      bfs_sssp_oracle, dag_to_distance_model,
                      decode_bruteforce, ibp_to_dag,
                      scattered_maximal_subset, sssp, stm_to_ibp,
                      zero_one_bfs)
from stmgraph.gen import random_stm
from stmgraph.graph import LinearOrder
from stmgraph.convert import DagCompression, IntervalBicliquePartition


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
        for v, w in dm.adj[u]:
            if d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(pq, (d + w, v))
    return dist


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


@st.composite
def compressions(draw):
    """DAG compressions: ``ibp_to_dag`` of random interval bicliques (not
    necessarily a partition) over a random order, or raw DAGs with random
    compressed edges."""
    n = draw(st.integers(1, 10))
    if draw(st.booleans()):
        order = LinearOrder.from_vertex_sequence(draw(st.permutations(range(1, n + 1))))
        quads = []
        for _ in range(draw(st.integers(0, 8)) if n > 1 else 0):
            b = draw(st.integers(1, n - 1))
            c = draw(st.integers(b + 1, n))
            quads.append((draw(st.integers(1, b)), b, c, draw(st.integers(c, n))))
        return ibp_to_dag(IntervalBicliquePartition(order, quads))
    num_nodes = n + draw(st.integers(0, 8))
    edges = []
    for x in range(n + 1, num_nodes + 1):
        edges += [(x, y) for y in draw(st.sets(st.integers(1, x - 1), max_size=3))]
    node = st.integers(1, num_nodes)
    compressed = draw(st.lists(st.tuples(node, node), max_size=8))
    return DagCompression(n, num_nodes, edges, compressed)


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
        dist = [None] + [zero_one_bfs(dm, s).dist for s in range(1, dc.n + 1)]
        for u in range(1, dc.n + 1):
            for v in range(1, dc.n + 1):
                assert dist[u][v] == dist[v][u], (u, v)


class TestZeroOneBfs:
    def test_tiny_weights(self):
        dm = DistanceModel(3, 3, [(1, 2, 0), (2, 3, 1)])
        res = zero_one_bfs(dm, 1)
        assert res.dist[1:] == [0, 0, 1]

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
            assert zero_one_bfs(dm, s).dist == dijkstra_oracle(dm, s), seed

    def test_bad_source(self, p3_model):
        dm = dag_to_distance_model(ibp_to_dag(stm_to_ibp(p3_model)))
        with pytest.raises(InputError):
            zero_one_bfs(dm, 99)


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


class TestApsp:
    def test_p3(self, p3_model):
        assert apsp(p3_model) == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]

    def test_single_vertex(self):
        assert apsp(DistanceModel(1, 1, [])) == [[0]]
        assert apsp(DistanceModel(1, 3, [(1, 2, 0), (2, 3, 0), (3, 1, 1)])) == [[0]]

    @settings(max_examples=400, deadline=None)
    @given(raw_models())
    def test_matches_per_source_bfs(self, dm):
        want = []
        for s in range(1, dm.n + 1):
            res = zero_one_bfs(dm, s)
            want.append([d if d < res.INF else dm.n for d in res.dist[1:dm.n + 1]])
        assert apsp(dm) == want

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
                assert mat[s - 1] == bfs_sssp_oracle(g, s), seed
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
