import pytest

from stmgraph import SignedTreeModel

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
