import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st

from stmgraph import INT64_GROUP, AdditiveGroup, SignedTreeModel, ibp_to_dag, validate
from stmgraph.convert import DagCompression, IntervalBicliquePartition
from stmgraph.gen import random_stm
from stmgraph.graph import LinearOrder

# Filled in by test_acceptance.py; echoed after the run so the per-criterion
# verdict lines survive pytest's output capture.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def traced_peak(call):
    """``call()``'s result and the traced peak it reached, in bytes, over
    what was held before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = call()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def bfs_all_sources(g):
    """The (n, n) int64 matrix of BFS distances between the vertices of
    ``g``, row s - 1 from source s, n where unreachable, as
    ``bfs_sssp_oracle`` gives them: a level-synchronous BFS from every
    source at once.  Each level is one product of the 0/1 frontier matrix
    with the dense float32 adjacency matrix, built from the CSR alone; the
    sums stay below n < 2^24, so float32 holds them exactly."""
    n = g.n
    adj = np.zeros((n, n), np.float32)
    adj[np.repeat(np.arange(n), np.diff(g.offsets)[1:]), g.targets - 1] = 1
    dist = np.full((n, n), n, np.int64)
    frontier = np.eye(n, dtype=np.float32)
    seen = np.eye(n, dtype=bool)
    level = 0
    while frontier.any():
        dist[frontier > 0] = level
        level += 1
        reached = (frontier @ adj > 0) & ~seen
        seen |= reached
        frontier = reached.astype(np.float32)
    return dist


def counting_group():
    """INT64_GROUP's operations, each counting its calls, and the one-entry
    list that holds the count.  The group is not INT64_GROUP itself, so
    ``ibp_matvec`` runs it as the Python loop, one call per group operation."""
    ops = [0]

    def counted(op):
        def call(a, b):
            ops[0] += 1
            return op(a, b)
        return call
    return AdditiveGroup(counted(INT64_GROUP.add), counted(INT64_GROUP.sub), INT64_GROUP.zero), ops


def contains(a, b):
    """Key row a = (x1, x2, y1, y2) contains key row b."""
    return a[0] <= b[0] and b[1] <= a[1] and a[2] <= b[2] and b[3] <= a[3]


def disjoint(a, b):
    """Key rows a and b share no cell."""
    return a[1] < b[0] or b[1] < a[0] or a[3] < b[2] or b[3] < a[2]


def area(a):
    return (a[1] - a[0] + 1) * (a[3] - a[2] + 1)


def properly_overlap(a, b):
    """Rectangles meet and neither contains the other."""
    return not (disjoint(a, b) or contains(a, b) or contains(b, a))


def pair_keys(stm):
    """(key row, pair, sign) of every pair, in ``pairs_signed`` order; the
    key row is the leaf intervals of the pair's two ends, read pair by pair."""
    return [(stm.leaf_interval(x) + stm.leaf_interval(y), (x, y), s)
            for x, y, s in stm.pairs_signed()]


def caterpillar_stm(n, num_pairs, seed=0):
    """A model on the caterpillar tree: internal node n+k joins the spine
    node below it (leaf 1 for k = 1) and leaf k+1, so the tree has depth
    n-1.  The pairs are the n-1 sibling pairs plus random leaf pairs, with
    random signs; neither kind can cross anything."""
    rng = random.Random(seed)
    children = {n + k: (n + k - 1 if k > 1 else 1, k + 1) for k in range(1, n)}
    pairs = set(children.values())
    while len(pairs) < num_pairs:
        u, v = sorted(rng.sample(range(1, n + 1), 2))
        pairs.add((u, v))
    signs = {p: rng.random() < 0.5 for p in sorted(pairs)}
    return SignedTreeModel(n, children, [p for p, s in signs.items() if not s],
                           [p for p, s in signs.items() if s])


def random_loopy(n, seed):
    """Random model that may contain loops (non-strict validity)."""
    rng = random.Random(seed ^ 0x5EED)
    model = random_stm(n, rng.randint(0, 3 * n), seed=seed)
    pairs_a = set(model.pairs_a)
    pairs_b = set(model.pairs_b)
    for _ in range(rng.randint(1, 4)):
        t = rng.randrange(1, 2 * n)
        # a loop is safe unless its node carries a non-loop pair or would
        # cross one; rejection keeps the sample valid
        cand_a = pairs_a | {(t, t)}
        cand = model.with_pairs(cand_a, pairs_b - {(t, t)})
        if validate(cand, strict=False).ok:
            pairs_a = cand_a
            pairs_b = pairs_b - {(t, t)}
    return model.with_pairs(pairs_a, pairs_b)


@st.composite
def perturbed_models(draw):
    """A valid random model plus injected crossing, non-transversal,
    duplicate-sign, loop and uniform random pairs."""
    n = draw(st.integers(1, 24))
    model = random_stm(n, draw(st.integers(0, 3 * n)), seed=draw(st.integers(0, 1 << 16)))
    pairs = [set(model.pairs_a), set(model.pairs_b)]
    node = st.integers(1, 2 * n - 1)
    for kind in draw(st.lists(st.sampled_from(
            ("crossing", "non-transversal", "duplicate", "loop", "uniform")), max_size=4)):
        side = draw(st.integers(0, 1))
        if kind == "crossing":
            # a child of one endpoint with the parent of the other crosses
            # the pair whenever it is transversal
            internal = [(x, y) for x, y in pairs[0] | pairs[1] if x in model.children]
            if internal:
                x, y = draw(st.sampled_from(sorted(internal)))
                pair = (draw(st.sampled_from(model.children[x])), model.parent[y] or y)
                pairs[side].add(pair)
        elif kind == "non-transversal":
            t = draw(node)
            if model.parent[t]:
                pairs[side].add((model.parent[t], t))
        elif kind == "duplicate":
            if pairs[1 - side]:
                pairs[side].add(draw(st.sampled_from(sorted(pairs[1 - side]))))
        elif kind == "loop":
            t = draw(node)
            pairs[side].add((t, t))
        else:
            pairs[side].add((draw(node), draw(node)))
    return model.with_pairs(*pairs)


@st.composite
def compressions(draw):
    """DAG compressions: ``ibp_to_dag`` of random interval bicliques (not
    necessarily a partition) over a random order, or raw DAGs, their edges
    in random order, with random compressed edges."""
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
    for x in range(n + 1, num_nodes + 1):  # an edge at least, as num_nodes' bound asks
        edges += [(x, y) for y in draw(st.sets(st.integers(1, x - 1), min_size=1, max_size=3))]
    edges = draw(st.permutations(edges))
    node = st.integers(1, num_nodes)
    compressed = draw(st.lists(st.tuples(node, node), max_size=8))
    return DagCompression(n, num_nodes, edges, compressed)


# DAG compressions that break the id order or a range, as (n, num_nodes,
# edges, compressed, the text an error must name).  Node ids must be a
# topological order: every edge (x, y) has n < x <= num_nodes, 1 <= y < x.
BAD_DAGS = {
    "edge leaves a graph vertex": (2, 3, [(3, 1), (2, 1)], [], "(2,1)"),
    "edge to a higher id": (2, 4, [(4, 1), (3, 4)], [(3, 4)], "(3,4)"),
    "self edge": (2, 3, [(3, 3)], [], "(3,3)"),
    "2-cycle": (2, 4, [(4, 3), (3, 4)], [(3, 4)], "(3,4)"),
    "edge to 0": (2, 3, [(3, 0)], [], "(3,0)"),
    "edge to past num_nodes": (2, 3, [(3, 4)], [], "(3,4)"),
    "edge from past num_nodes": (2, 3, [(4, 1)], [], "(4,1)"),
    "compressed edge from 0": (2, 3, [(3, 1), (3, 2)], [(0, 1)], "(0,1)"),
    "compressed edge from -1": (2, 3, [(3, 1), (3, 2)], [(-1, 1)], "(-1,1)"),
    "compressed edge past num_nodes": (2, 3, [(3, 1), (3, 2)], [(4, 1)], "(4,1)"),
    "compressed edge far past num_nodes": (2, 3, [(3, 1), (3, 2)], [(9, 1)], "(9,1)"),
    "num_nodes < n": (5, 3, [], [], "n=5, num_nodes=3"),
    # num_nodes sizes the distance model's arrays
    "num_nodes past the edges": (2, 5, [(3, 1)], [], "num_nodes 5 exceeds n + 2(e + c) = 4"),
    "num_nodes at 2^31": (2 ** 31, 2 ** 31, [], [], "num_nodes 2147483648 is not below 2^31"),
}


# Worked micro-example used across the suite: decodes to the path 1-2-3.
# Tree: root 5 over {leaf 2, node 4}, node 4 over leaves {1,3}.


@pytest.fixture
def p3_model():
    return SignedTreeModel(3, {4: (1, 3), 5: (2, 4)},
                           pairs_a=[(1, 3)], pairs_b=[(2, 4)])


# 14-vertex reference model.  Internal node ids:
#   15=c 16=b 17=f 18=g 19=e 20=a 21=j 22=i 23=m 24=n 25=l 26=h 27=root
FIG1_CHILDREN = {
    27: (20, 26),
    20: (16, 19), 16: (15, 3), 15: (1, 2),
    19: (17, 18), 17: (4, 5), 18: (6, 7),
    26: (22, 25), 22: (21, 10), 21: (8, 9),
    25: (23, 24), 23: (11, 12), 24: (13, 14),
}
FIG1_PAIRS_A = [(20, 24), (2, 10), (2, 3), (22, 19)]
FIG1_PAIRS_B = [(19, 10), (6, 7), (11, 12), (12, 24), (4, 18),
                (24, 22), (15, 3), (17, 21), (20, 26)]


@pytest.fixture
def fig1_model():
    return SignedTreeModel(14, FIG1_CHILDREN, FIG1_PAIRS_A, FIG1_PAIRS_B)
