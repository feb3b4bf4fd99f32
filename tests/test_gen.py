import random

import pytest

from stmgraph import InputError, validate, validate_sequence
from stmgraph.convert import cseq_replay
from stmgraph.gen import (erdos_renyi, planted_sdseq, random_cseq,
                          random_full_tree, random_stm, random_stm_sparse)


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
