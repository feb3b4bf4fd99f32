"""``dag_to_distance_model`` against a reference build, its memory, and the
bound error of ``DistanceModel``."""

import random
import re

import numpy as np
import pytest
from hypothesis import given, settings

from stmgraph import (DagCompression, DistanceModel, InputError,
                      dag_to_distance_model, ibp_to_dag, stm_to_ibp)
from stmgraph.gen import random_stm_sparse

from conftest import compressions, traced_peak
from test_convert import seed_family_models


def reference_model(dc: DagCompression) -> DistanceModel:
    """The rows interleaved in the DAG's order: each DAG edge's top then
    bottom edge, then each compressed edge's two weight-1 edges, sorted by
    source only inside ``DistanceModel``."""
    n, nn = dc.n, dc.num_nodes

    def bottom(t):
        return t if t <= n else t + (nn - n)

    rows = []
    for x, y in dc.edges:
        rows += [(x, y, 0), (bottom(y), bottom(x), 0)]
    for x, y in dc.compressed:
        rows += [(bottom(x), y, 1), (bottom(y), x, 1)]
    return DistanceModel(n, nn + (nn - n), rows)


def check_same_model(dc: DagCompression) -> None:
    got, want = dag_to_distance_model(dc), reference_model(dc)
    assert (got.n, got.num_nodes) == (want.n, want.num_nodes)
    for a, b in zip(got.zero + got.one, want.zero + want.one):
        assert a.dtype == np.int64 and np.array_equal(a, b)


def reordered(dc: DagCompression, rng: random.Random) -> list[DagCompression]:
    """``dc`` with its edge and compressed rows reversed, and shuffled: a
    DAG's rows may come in any order."""
    e, c = dc.edge_rows, dc.compressed_rows
    return [DagCompression(dc.n, dc.num_nodes, e[::-1], c[::-1]),
            DagCompression(dc.n, dc.num_nodes, rng.sample(dc.edges, len(e)),
                           rng.sample(dc.compressed, len(c)))]


class TestAgainstReference:
    def test_seed_family(self):
        rng = random.Random(24)
        for model in seed_family_models():
            dc = ibp_to_dag(stm_to_ibp(model))
            for form in [dc] + reordered(dc, rng):
                check_same_model(form)

    @settings(max_examples=300, deadline=None)
    @given(compressions())
    def test_compressions(self, dc):
        check_same_model(dc)

    @pytest.mark.parametrize("n, num_nodes, edges, compressed", [
        # node 1 is the source of a bottom(x) row and then of a bottom(y)
        # row: the halves concatenated would give it 3 before 2
        (3, 4, [(4, 1), (4, 3)], [(2, 1), (1, 3), (4, 2), (3, 3)]),
        (3, 5, [(4, 1), (4, 2), (5, 4), (5, 3)], [(1, 2), (5, 1), (2, 4), (4, 5)]),
        (1, 1, [], []),
        (1, 1, [], [(1, 1)]),
        (1, 2, [(2, 1)], [(2, 2), (1, 2)]),
        (3, 3, [], []),
        (0, 0, [], []),
        (2, 2, [], [(1, 2), (2, 1)]),
        (4, 6, [(6, 5), (5, 4), (6, 1), (5, 2), (6, 3)], []),
    ])
    def test_small(self, n, num_nodes, edges, compressed):
        dc = DagCompression(n, num_nodes, edges, compressed)
        for form in [dc] + reordered(dc, random.Random(n)):
            check_same_model(form)


def test_build_peak_memory():
    """The stage's traced peak stays within 2.0 times the two CSRs it
    returns: they are written directly, with no (x, y, w) rows."""
    dc = ibp_to_dag(stm_to_ibp(random_stm_sparse(4096, 16384, seed=0)))
    dm, peak = traced_peak(lambda: dag_to_distance_model(dc))
    outputs = sum(a.nbytes for a in dm.zero + dm.one)
    assert peak <= 2.0 * outputs, peak / outputs


def test_build_checks_target_range():
    """The DAG's rows are trusted, as its constructor checked them; a DAG
    whose rows were replaced after that still gets no target outside
    [1, num_nodes], and no parent at or below n, which would leave the
    weight-0 offsets short of the targets."""
    dc = DagCompression(2, 3, [(3, 1), (3, 2)], [(1, 2)])
    for rows, message in (([[3, 0], [3, 2]], r"^a target is outside \[1,4\]$"),
                          ([[3, 1], [2, 1]], r"^a parent is not above n=2$")):
        dc.edge_rows = np.array(rows)
        with pytest.raises(InputError, match=message):
            dag_to_distance_model(dc)


@pytest.mark.parametrize("num_nodes, edges, named", [
    (3, [(1, 2, 0), (1, 4, 1), (0, 1, 0), (1, 2, 2)], "edge (1,4) of weight 1"),
    (3, [(1, 2, 0), (3, 3, 2), (5, 1, 0)], "edge (3,3) of weight 2"),
    (3, [(3, 1, -1), (0, 0, 0)], "edge (3,1) of weight -1"),
    (2, [(2, 1, 1), (1, 2, 0), (-1, 2, 0)], "edge (-1,2) of weight 0"),
    (0, [(1, 1, 0)], "edge (1,1) of weight 0"),
])
def test_bound_error_names_first_bad_row(num_nodes, edges, named):
    message = f"^{re.escape(named)} needs both ends in \\[1,{num_nodes}\\] and a weight in \\{{0,1\\}}$"
    for form in (edges, np.array(edges, dtype=np.int64)):
        with pytest.raises(InputError, match=message):
            DistanceModel(0, num_nodes, form)
