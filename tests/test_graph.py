import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stmgraph import (Graph, InputError, LinearOrder, bfs_sssp_oracle,
                      graphs_equal, symmetric_difference)
from stmgraph.gen import erdos_renyi

from conftest import bfs_all_sources


def path(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)])


# -- the oracle ------------------------------------------------------------------

class OracleInputError(ValueError):
    pass


class SetGraph:
    """``Graph`` as it was before its CSR form, sharing no code with it:
    each edge goes into two Python sets, in input order, and each set is
    sorted into a tuple.  Before that, every edge must be two Python ints
    in int64, the rule ``Graph``'s row reader applies."""

    def __init__(self, n, edges=()):
        if n < 0:
            raise OracleInputError("vertex count must be nonnegative")
        self.n = n
        edges = list(edges)
        for e in edges:
            if len(e) != 2 or not all(type(v) is int and -2 ** 63 <= v < 2 ** 63 for v in e):
                raise OracleInputError(f"expected rows of 2 integers, got {e}")
        adj = [set() for _ in range(n + 1)]
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise OracleInputError(f"edge ({u},{v}) out of range [1,{n}]")
            if u == v:
                raise OracleInputError(f"self-loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.adjacency = tuple(tuple(sorted(a)) for a in adj)

    @property
    def m(self):
        return sum(map(len, self.adjacency)) // 2

    def edges(self):
        for u in range(1, self.n + 1):
            for v in self.adjacency[u]:
                if u < v:
                    yield (u, v)

    def has_edge(self, u, v):
        return v in self.adjacency[u]


def graph_outcome(make, probes):
    """What a graph built by ``make`` shows, or the (type, message) it raised."""
    try:
        g = make()
    except ValueError as e:
        return type(e).__name__.replace("Oracle", ""), str(e)
    return (g.n, g.m, repr(g.adjacency), repr(list(g.edges())),
            [g.has_edge(u, v) for u, v in probes])


def random_edges(rng, n):
    """Edges with repeats, both orientations and, now and then, a self-loop,
    an end just outside [1, n] or an end of +-2^64."""
    edges = []
    for _ in range(rng.randint(0, 3 * n + 2)):
        if edges and rng.random() < 0.2:  # a repeat, maybe reversed
            u, v = rng.choice(edges)
            edges.append((v, u) if rng.random() < 0.5 else (u, v))
            continue
        u, v = rng.randint(1, max(n, 1)), rng.randint(1, max(n, 1))
        r = rng.random()
        if r < 0.03:
            v = u
        elif r < 0.06:
            v = rng.choice([0, -1, n + 1, 2 ** 64, -2 ** 64])
        edges.append((u, v) if rng.random() < 0.5 else (v, u))
    return edges


class TestAgainstSetGraph:
    """The CSR ``Graph`` against the set-based one, on every input form."""

    FORMS = {
        "list": list,
        "set": set,
        "generator": lambda edges: (e for e in edges),
        "array": lambda edges: np.array(edges).reshape(-1, 2),
    }

    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_random(self, form):
        rng = random.Random(form)
        errors = 0
        for _ in range(1500):
            n = rng.choice([0, 1, 2, rng.randint(0, 12), rng.randint(20, 300)])
            edges = random_edges(rng, n)
            given = self.FORMS[form](edges)
            # the oracle reads the edges in the order the new graph iterates them
            ordered = list(given) if form == "set" else edges
            probes = [(rng.randint(1, n), rng.randint(0, n + 1)) for _ in range(20)] if n else []
            got = graph_outcome(lambda: Graph(n, given), probes)
            assert got == graph_outcome(lambda: SetGraph(n, ordered), probes), (n, edges)
            errors += len(got) == 2
        assert 0 < errors < 1500  # both graphs and errors were compared

    def test_edge_cases(self):
        for n, edges in [(0, []), (1, []), (0, [(1, 1)]), (1, [(1, 1)]), (1, [(1, 2)]),
                         (2, [(1, 2), (2, 1)]), (2, [(2, 1), (3, 3)]), (2, [(3, 3), (2, 2)]),
                         (-1, []), (-1, [(1, 2)]), (3, [(2 ** 64, 2 ** 64)]),
                         (3, [(1, -2 ** 64), (1, 1)])]:
            for form in self.FORMS.values():
                given = form(edges)
                ordered = list(given) if isinstance(given, set) else edges
                assert (graph_outcome(lambda: Graph(n, given), [])
                        == graph_outcome(lambda: SetGraph(n, ordered), [])), (n, edges)

    def test_large(self):
        rng = np.random.default_rng(3)
        for n in (257, 1000):
            edges = rng.integers(1, n + 1, size=(20 * n, 2))
            edges = edges[edges[:, 0] != edges[:, 1]]
            g, want = Graph(n, edges), SetGraph(n, edges.tolist())
            assert g.adjacency == want.adjacency and g.m == want.m
            assert list(g.edges()) == list(want.edges())
            assert graphs_equal(g, Graph(n, edges[::-1, ::-1]))

    def test_stored_form(self):
        g = Graph(4, [(3, 1), (1, 2), (2, 1)])
        assert g.__slots__ == ("n", "offsets", "targets")
        assert g.offsets.tolist() == [0, 0, 2, 3, 4, 4] and g.targets.tolist() == [2, 3, 1, 1]
        for a in (g.offsets, g.targets):
            assert a.dtype == np.int64
            with pytest.raises(ValueError):
                a[0] = 1
        assert g.adjacency == ((), (2, 3), (1,), (1,), ())
        assert g.edge_rows.tolist() == [[1, 2], [1, 3]]
        assert all(type(v) is int for e in g.edges() for v in e)
        assert all(type(v) is int for v in g.neighbors(1))
        assert g.has_edge(1, 3) is True and g.has_edge(2, 3) is False
        assert g.degree(1) == 2 and g.degree(4) == 0

    # n far past the cap, so that a graph without it fails fast instead of
    # allocating offsets; parse_graph's tests pin the cap at 2^31 exactly
    @pytest.mark.parametrize("n", [2 ** 63, 2 ** 64])
    def test_vertex_cap(self, n):
        with pytest.raises(InputError, match=f"vertex count {n} is not below 2\\^31"):
            Graph(n)

    @pytest.mark.parametrize("edges", [[(1, 2, 3), (1,)], [(1, 2), (3,)], np.array([1, 2, 3, 4]),
                                       np.ones((2, 3), int)])
    def test_rows_of_another_width(self, edges):
        with pytest.raises(InputError, match="expected rows of 2"):
            Graph(4, edges)


class TestGraph:
    def test_basic(self):
        g = path(3)
        assert g.n == 3 and g.m == 2
        assert g.neighbors(2) == (1, 3)
        assert g.has_edge(1, 2) and not g.has_edge(1, 3)
        assert list(g.edges()) == [(1, 2), (2, 3)]

    def test_rejects_bad_edges(self):
        with pytest.raises(InputError):
            Graph(3, [(1, 4)])
        with pytest.raises(InputError):
            Graph(3, [(2, 2)])

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(1, 2), (2, 1), (1, 2)])
        assert g.m == 1


class TestLinearOrder:
    def test_identity_roundtrip(self):
        o = LinearOrder.identity(4)
        assert all(o.pos(v) == v and o.at(v) == v for v in range(1, 5))

    def test_from_vertex_sequence(self):
        o = LinearOrder.from_vertex_sequence([2, 1, 3])
        assert o.pos(2) == 1 and o.at(1) == 2 and o.at(3) == 3

    @pytest.mark.parametrize("i", [0, -1, -3, -4, 4, 9])
    def test_pos_and_at_outside_1_to_n(self, i):
        # unchecked, v - 1 indexes from the end for v <= 0
        o = LinearOrder([2, 3, 1])
        with pytest.raises(InputError, match=rf"^vertex {i} is not in \[1,3\]$"):
            o.pos(i)
        with pytest.raises(InputError, match=rf"^position {i} is not in \[1,3\]$"):
            o.at(i)
        assert [o.pos(v) for v in (1, 2, 3)] == [2, 3, 1]
        assert [o.at(p) for p in (1, 2, 3)] == [3, 1, 2]

    def test_rejects_non_permutation(self):
        with pytest.raises(InputError):
            LinearOrder([1, 1, 3])

    @pytest.mark.parametrize("seq", [[0, 1, 2], [-1, 1, 3], [1, 2, 4], [1, 1, 3]])
    def test_vertex_sequence_outside_1_to_n(self, seq):
        with pytest.raises(InputError):
            LinearOrder.from_vertex_sequence(seq)

    @pytest.mark.parametrize("seq, shown", [
        ([3, 1.0, 2.5], "(1.0,)"), ((2, "1"), "('1',)"), ([1, None], "(None,)"),
        (range(2 ** 63 - 1, 2 ** 63 + 1), f"({2 ** 63},)"), ([[1], [2]], "([1],)"),
        (np.array([[1], [2]]), "([1],)"), (np.array([[2, 1], [3, 4]]), "([2, 1],)"),
        (np.array([2 ** 64 - 1, 1], np.uint64), f"({2 ** 64 - 1},)"),
        (np.array([1, 2.5]), "(1.0,)")])
    def test_names_first_non_integer(self, seq, shown):
        for build in (LinearOrder, LinearOrder.from_vertex_sequence):
            with pytest.raises(InputError) as e:
                build(iter(seq) if isinstance(seq, range) else seq)
            assert str(e.value) == f"expected rows of 1 integers, got {shown}"

    def test_scalar_is_no_sequence(self):
        for build in (LinearOrder, LinearOrder.from_vertex_sequence):
            for scalar in (3, np.array(3)):
                with pytest.raises(TypeError):
                    build(scalar)

    def test_against_loop_oracle(self):
        """Both constructors against a Python loop over the integers, on
        permutations and on sequences with a repeat, a 0, an n + 1 or a
        negative id, in every input form."""
        def oracle(seq):  # (seq, its inverse) as lists, or None
            inverse = [0] * len(seq)
            for i, p in enumerate(seq, start=1):
                if not 1 <= p <= len(seq) or inverse[p - 1]:
                    return None
                inverse[p - 1] = i
            return list(seq), inverse

        rng = random.Random(23)
        built = []
        for n in range(65):
            perm = rng.sample(range(1, n + 1), n)
            seqs = [perm, list(range(n, 0, -1))]
            if n:
                for bad in (0, n + 1, -rng.randint(1, n), perm[rng.randrange(n)]):
                    seqs.append(perm[:])
                    seqs[-1][rng.randrange(n)] = bad
            for seq in seqs:
                forms = [seq, tuple(seq), np.array(seq, np.int64)]
                forms += [np.array(seq, np.uint64)] if min(seq, default=0) >= 0 else []
                forms += [range(n, 0, -1)] if seq == list(range(n, 0, -1)) else []
                want = oracle(seq)
                for form in forms:
                    if want is None:
                        for build, what in ((LinearOrder, "position"),
                                            (LinearOrder.from_vertex_sequence, "vertex")):
                            with pytest.raises(InputError, match=f"^{what} sequence is not "
                                                                 "a permutation$"):
                                build(form)
                        continue
                    orders = (LinearOrder(form), LinearOrder.from_vertex_sequence(form))
                    if isinstance(form, np.ndarray):
                        form[:] = 1  # the orders keep arrays of their own
                    for order, arrays in zip(orders, (
                            (orders[0].position, orders[0].vertex_at),
                            (orders[1].vertex_at, orders[1].position))):
                        assert [a.tolist() for a in arrays] == list(want), (n, seq)
                        assert order.n == n
                        assert repr(order) == f"LinearOrder({order.position.tolist()})"
                        for a in arrays:
                            assert a.dtype == np.int64 and not a.flags.writeable
                        assert (order.position[order.vertex_at - 1] == np.arange(1, n + 1)).all()
                        assert all(type(order.pos(v)) is type(order.at(v)) is int
                                   and order.at(order.pos(v)) == v for v in range(1, n + 1))
                    built += orders
        for a, b in zip(built, built[1:] + built[:1]):
            assert (a == b) == (a.position.tolist() == b.position.tolist())
            assert a != b or hash(a) == hash(b)
        assert len(set(built)) == len({tuple(o.position.tolist()) for o in built})


class TestBfsOracle:
    def test_path(self):
        assert bfs_sssp_oracle(path(3), 1) == [0, 1, 2]

    def test_edgeless(self):
        g = Graph(3)
        assert bfs_sssp_oracle(g, 2) == [3, 0, 3]

    def test_source_out_of_range(self):
        with pytest.raises(InputError):
            bfs_sssp_oracle(path(3), 4)

    @given(st.integers(1, 24), st.data())
    def test_all_sources_matches(self, n, data):
        # the array oracle of criterion 4 against the textbook BFS
        edges = data.draw(st.sets(
            st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] < e[1]),
            max_size=3 * n))
        g = Graph(n, edges)
        want = [bfs_sssp_oracle(g, s) for s in range(1, n + 1)]
        assert bfs_all_sources(g).tolist() == want

    def test_all_sources_matches_seeded(self):
        for seed in range(60):
            rng = random.Random(seed)
            n = rng.randint(1, 90)
            g = erdos_renyi(n, rng.choice([0.0, 0.02, 0.05, 0.2, 0.8]), seed=seed)
            want = [bfs_sssp_oracle(g, s) for s in range(1, n + 1)]
            assert bfs_all_sources(g).tolist() == want, seed

    @given(st.integers(2, 20), st.data())
    def test_triangle_property(self, n, data):
        edges = data.draw(st.sets(
            st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] < e[1]),
            max_size=3 * n))
        g = Graph(n, edges)
        dist = bfs_sssp_oracle(g, 1)
        for u, v in g.edges():
            if dist[u - 1] < n and dist[v - 1] < n:
                assert abs(dist[u - 1] - dist[v - 1]) <= 1


class TestSymmetricDifference:
    def test_twins(self):
        g = Graph(4, [(1, 3), (1, 4), (2, 3), (2, 4)])
        assert symmetric_difference(g, 1, 2) == 0

    def test_path_endpoints(self):
        assert symmetric_difference(path(3), 1, 3) == 0

    def test_path4_value(self):
        # N(1)\{2} = {} and N(2)\{1} = {3}, so the answer is 1
        assert symmetric_difference(path(4), 1, 2) == 1

    def test_symmetry(self):
        g = path(5)
        for u in range(1, 6):
            for v in range(u + 1, 6):
                assert symmetric_difference(g, u, v) == symmetric_difference(g, v, u)

    def test_equal_endpoints_rejected(self):
        with pytest.raises(InputError):
            symmetric_difference(path(3), 2, 2)


class TestGraphsEqual:
    def test_reflexive(self):
        g = path(3)
        assert graphs_equal(g, g)

    def test_differs(self):
        assert not graphs_equal(path(3), Graph(3, [(1, 2)]))
