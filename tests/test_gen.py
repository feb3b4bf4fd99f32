import random

import numpy as np
import pytest

from stmgraph import Graph, InputError, SdDegenSequence, validate, validate_sequence
from stmgraph.convert import cseq_replay
from stmgraph.gen import (erdos_renyi, planted_sdseq, random_cseq,
                          random_full_tree, random_stm, random_stm_sparse)

from conftest import traced_peak


class TestRandomStm:
    def test_valid(self):
        for seed in range(40):
            model = random_stm(random.Random(seed).randint(1, 30), 40, seed=seed)
            assert validate(model).ok, seed

    def test_deterministic(self):
        assert random_stm(20, 30, seed=5) == random_stm(20, 30, seed=5)

    def test_tree_shape(self):
        rng = random.Random(0)
        children = random_full_tree(10, rng)
        assert len(children) == 9
        assert max(children) == 19


class TestRandomStmSparse:
    def test_valid_and_fast(self):
        for seed in range(10):
            model = random_stm_sparse(200, 400, seed=seed)
            assert validate(model).ok, seed
            assert model.num_pairs > 0


class TestPlantedSdseq:
    def test_width_bound(self):
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randint(2, 40)
            d = rng.randint(0, 4)
            g, seq = planted_sdseq(n, d, seed=seed)
            assert validate_sequence(g, seq).width <= d, seed

    def test_deterministic(self):
        a = planted_sdseq(20, 3, seed=9)
        b = planted_sdseq(20, 3, seed=9)
        assert a[1] == b[1] and sorted(a[0].edges()) == sorted(b[0].edges())

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 17, 63, 64, 65, 130, 256])
    def test_matches_set_oracle(self, n):
        """The matrix planting gives the set planting's graph, byte for byte
        in both CSR arrays, and its sequence."""
        for width in range(5):
            for seed in range(4):
                g, seq = planted_sdseq(n, width, seed=seed)
                want_g, want_seq = oracle_planted_sdseq(n, width, seed)
                assert g.offsets.tobytes() == want_g.offsets.tobytes(), (width, seed)
                assert g.targets.tobytes() == want_g.targets.tobytes(), (width, seed)
                assert seq == want_seq, (width, seed)

    def test_peak_within_csr_and_a_half(self):
        # the CSR is written from the relabelled matrix, so at its peak the
        # planting holds two n^2 boolean matrices and the targets
        (g, _), peak = traced_peak(lambda: planted_sdseq(1024, 2, seed=1))
        csr = g.offsets.nbytes + g.targets.nbytes
        assert g.targets.size > 200_000 and peak <= 1.6 * csr, (peak, csr)

    def test_bad_arguments(self):
        with pytest.raises(InputError, match="^need at least two vertices$"):
            planted_sdseq(1, 2)
        with pytest.raises(InputError, match="^width must be nonnegative$"):
            planted_sdseq(5, -1)


def oracle_planted_sdseq(n, width, seed=0):
    """The planting on a dict of adjacency sets, with the random draws of
    ``planted_sdseq`` in the same order: the oracle of its boolean matrix."""
    rng = random.Random(seed)
    adj = {1: set()}
    rev_pairs = []
    for u in range(2, n + 1):
        v = rng.randrange(1, u)
        nb = set(adj[v])
        for _ in range(rng.randint(0, width)):
            if u == 2:
                break
            i = rng.randrange(u - 2)
            nb.symmetric_difference_update({i + 1 + (i + 1 >= v)})
        if rng.random() < 0.5:
            nb.add(v)
        adj[u] = nb
        for w in nb:
            adj[w].add(u)
        rev_pairs.append((u, v))
    relabel = list(range(1, n + 1))
    rng.shuffle(relabel)
    label = np.array([0] + relabel)
    keys = np.fromiter((u * (n + 1) + w for u, nbrs in adj.items() for w in nbrs), np.int64)
    seq = SdDegenSequence(tuple((relabel[u - 1], relabel[v - 1]) for u, v in reversed(rev_pairs)))
    return Graph(n, label[np.column_stack(np.divmod(keys, n + 1))]), seq


class TestRandomCseq:
    def test_replayable(self):
        for seed in range(30):
            seq = random_cseq(random.Random(seed).randint(1, 20), 10, seed=seed)
            cseq_replay(seq)  # raises if structurally invalid

    def test_resolve_budget(self):
        seq = random_cseq(10, 7, seed=1)
        assert seq.num_resolves == 7

    @pytest.mark.parametrize("count", [-1, -5])
    def test_negative_resolve_count(self, count):
        with pytest.raises(InputError, match="^resolve count must be nonnegative$"):
            random_cseq(6, count, seed=1)


class TestErdosRenyi:
    def test_extremes(self):
        assert erdos_renyi(10, 0.0, seed=0).m == 0
        assert erdos_renyi(10, 1.0, seed=0).m == 45
