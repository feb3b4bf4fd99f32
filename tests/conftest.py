import pytest
from hypothesis import strategies as st

from stmgraph import SignedTreeModel
from stmgraph.gen import random_stm

# Filled in by test_acceptance.py; echoed after the run so the per-criterion
# verdict lines survive pytest's output capture.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

def properly_overlap(a, b):
    """Rectangles meet and neither contains the other."""
    return not (a.disjoint(b) or a.contains(b) or b.contains(a))


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
