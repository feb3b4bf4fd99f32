import math
import random

import pytest

from stmgraph import (CapExceeded, Graph, InputError, SdConfig,
                      SdDegenSequence, SequenceError, preset_symdiff,
                      preset_twinwidth, sd_sequence_greedy,
                      sd_sequence_randomized, sdseq_to_stm, validate_sequence)
from stmgraph.gen import erdos_renyi, planted_sdseq


def complete(n):
    return Graph(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


class TestSdConfig:
    def test_invariants(self):
        with pytest.raises(InputError):
            SdConfig(g=2, gamma=1, p_hat=0.5, cap=10)
        with pytest.raises(InputError):
            SdConfig(g=1, gamma=2, p_hat=0.0, cap=10)
        with pytest.raises(InputError):
            SdConfig(g=1, gamma=2, p_hat=0.5, cap=0)


class TestPresets:
    def test_twinwidth_formulas(self):
        n = round(math.e ** 2)
        cfg = preset_twinwidth(1, 1.0, n)
        assert cfg.g == 1
        assert cfg.gamma == math.ceil(2 * 1 * 4 * math.log(n))
        assert cfg.p_hat == 0.5
        assert cfg.cap == math.ceil(32 * 4 * 1 * math.log(n))

    def test_twinwidth_scaling(self):
        a = preset_twinwidth(1, 1.0, 100)
        b = preset_twinwidth(2, 1.0, 100)
        assert b.gamma == 2 * a.gamma or abs(b.gamma - 2 * a.gamma) <= 1
        assert b.p_hat == a.p_hat / 2

    def test_cap_monotone(self):
        caps = [preset_twinwidth(2, 1.0, n).cap for n in (10, 100, 1000)]
        assert caps == sorted(caps)

    def test_symdiff_formulas(self):
        cfg = preset_symdiff(1.0, 1.0, 1000)
        assert cfg.g == 30
        assert cfg.p_hat == pytest.approx(1 / 60)
        base = 3 * 1000 ** (1 / 3)
        assert cfg.p_hat * 2 * base == pytest.approx(1.0)
        assert cfg.cap == math.ceil(64 * 1000 ** (2 / 3))

    @pytest.mark.parametrize("preset, args, named", [
        (preset_twinwidth, (2, math.inf), "c=inf"),
        (preset_twinwidth, (2, math.nan), "c=nan"),
        (preset_symdiff, (math.inf, 1.0), "beta=inf"),
        (preset_symdiff, (math.nan, 1.0), "beta=nan"),
        (preset_symdiff, (2.0, math.inf), "c=inf"),
    ])
    def test_not_finite(self, preset, args, named):
        with pytest.raises(InputError, match=f"^{named} is not finite$"):
            preset(*args, 40)


class TestRandomized:
    def test_k4_always_valid(self):
        g = complete(4)
        for seed in range(20):
            cfg = SdConfig(g=1, gamma=2, p_hat=0.5, cap=1000, seed=seed)
            seq, report = sd_sequence_randomized(g, cfg)
            vr = validate_sequence(g, seq)
            assert vr.width <= 2, seed

    def test_n2(self):
        seq, report = sd_sequence_randomized(Graph(2, [(1, 2)]),
                                             SdConfig(1, 2, 0.5, 10))
        assert len(seq.pairs) == 1 and report.width == 0

    def test_n1_rejected(self):
        with pytest.raises(InputError):
            sd_sequence_randomized(Graph(1), SdConfig(1, 2, 0.5, 10))

    def test_cap_failure(self):
        # gamma 0 on a graph with no sd-0 pairs can never make progress
        g = Graph(4, [(1, 2), (2, 3), (3, 4)])
        cfg = SdConfig(g=0, gamma=0, p_hat=0.5, cap=5, seed=0)
        with pytest.raises(CapExceeded) as e:
            sd_sequence_randomized(g, cfg)
        assert e.value.iterations == 5

    def test_planted_loop_bound(self):
        for seed in range(50):
            rng = random.Random(seed)
            n = rng.randint(8, 64)
            d = rng.randint(1, 4)
            g, _ = planted_sdseq(n, d, seed=seed)
            base = preset_twinwidth(d, 1.0, n)
            cfg = SdConfig(base.g, base.gamma, base.p_hat, base.cap, seed)
            seq, report = sd_sequence_randomized(g, cfg)
            vr = validate_sequence(g, seq)
            assert report.max_loop_sd <= cfg.gamma, seed
            # batch sds are measured before the iteration's deletions, and
            # deletions never increase a symmetric difference, so the
            # replayed values are bounded by the reported ones
            k = len(report.loop_sds)
            assert all(r <= b for r, b in zip(vr.loop_sds[:k], report.loop_sds)), seed
            assert max(vr.loop_sds[:k], default=0) <= cfg.gamma, seed

    def test_determinism(self):
        g = erdos_renyi(30, 0.3, seed=5)
        cfg = preset_twinwidth(3, 1.0, 30)
        a = sd_sequence_randomized(g, cfg)
        b = sd_sequence_randomized(g, cfg)
        assert a == b

    def test_bucketing_matches_set_comparison(self):
        # same bucket iff same neighborhood toward X: cross-check on a fixed
        # graph by recomputing the partition with explicit sets
        g = erdos_renyi(16, 0.4, seed=2)
        rng = random.Random(9)
        X = {v for v in range(1, 17) if rng.random() < 0.4}
        keys = {}
        for v in range(1, 17):
            keys[v] = tuple(sorted(w for w in g.neighbors(v) if w in X))
        for u in range(1, 17):
            for v in range(u + 1, 17):
                same_key = keys[u] == keys[v]
                same_set = ({w for w in g.neighbors(u) if w in X}
                            == {w for w in g.neighbors(v) if w in X})
                assert same_key == same_set


class TestGreedy:
    def test_p3(self):
        g = Graph(3, [(1, 2), (2, 3)])
        seq, report = sd_sequence_greedy(g)
        assert seq.pairs[0] == (1, 3)
        assert report.width == 0

    def test_complete(self):
        seq, report = sd_sequence_greedy(complete(6))
        assert report.width == 0

    def test_outputs_valid(self):
        for seed in range(30):
            g = erdos_renyi(14, 0.3, seed=seed)
            seq, report = sd_sequence_greedy(g)
            vr = validate_sequence(g, seq)
            assert vr.width == report.width, seed


class TestValidateSequence:
    def test_p3_width0(self):
        g = Graph(3, [(1, 2), (2, 3)])
        assert validate_sequence(g, SdDegenSequence(((1, 3), (2, 3)))).width == 0

    def test_reused_vertex(self):
        g = Graph(3, [(1, 2)])
        with pytest.raises(SequenceError):
            validate_sequence(g, SdDegenSequence(((1, 2), (1, 3))))

    def test_wrong_length(self):
        with pytest.raises(SequenceError):
            validate_sequence(Graph(3), SdDegenSequence(((1, 2),)))

    def test_randomized_outputs_always_valid(self):
        for seed in range(30):
            g = erdos_renyi(24, 0.25, seed=seed)
            cfg = preset_twinwidth(4, 1.0, 24)
            cfg = SdConfig(cfg.g, cfg.gamma, cfg.p_hat, cfg.cap, seed)
            try:
                seq, _ = sd_sequence_randomized(g, cfg)
            except CapExceeded:
                continue
            validate_sequence(g, seq)

    def test_pairs_match_sdseq_to_stm(self):
        """Both replays measure the same eliminations: step i of
        ``sdseq_to_stm`` makes sd_i pairs plus one to v_i."""
        for seed in range(60):
            rng = random.Random(seed)
            n = rng.randint(2, 80)
            g, seq = planted_sdseq(n, rng.randint(0, 6), seed=seed)
            report = validate_sequence(g, seq)
            assert sdseq_to_stm(g, seq).num_pairs == sum(report.loop_sds) + n - 1, seed
