import math
import random
import re

import pytest
from hypothesis import given, settings

from stmgraph import (ConstructionSequence, Graph, InputError,
                      InvalidModelError, PartitionViolation, SdDegenSequence,
                      SequenceError, clean_same_sign, complement_partition,
                      cover_set, cseq_replay, cseq_shorten, cseq_to_stm,
                      dag_to_graph, decode_bruteforce, graphs_equal,
                      ibp_to_dag, ibp_to_graph, ibp_to_positive_model,
                      inclusion_forest, radius_r_width, sdseq_to_stm,
                      stm_to_ibp, stm_to_rects, validate)
from stmgraph import io as fio
from stmgraph.convert import BalancedTree, IntervalBicliquePartition
from stmgraph.graph import LinearOrder
from stmgraph.stm import pair_rects
from stmgraph.gen import planted_sdseq, random_cseq, random_stm, random_stm_sparse

from conftest import perturbed_models


def stm_to_ibp_oracle(stm):
    """The composition ``stm_to_ibp`` replaced: clean the model into a new
    one on a fresh inclusion forest, build its rectangles and inclusion
    forest again, and let each positive rectangle emit the complement of its
    (negative) children."""
    rects = pair_rects(stm)
    parent = inclusion_forest(rects).parent
    drop = {rects[i].payload[0] for i, p in enumerate(parent)
            if p is not None and rects[p].payload[1] == rects[i].payload[1]}
    rects, order = stm_to_rects(stm.with_pairs(stm.pairs_a - drop, stm.pairs_b - drop))
    forest = inclusion_forest(rects)
    bicliques = []
    for i, r in enumerate(rects):
        if r.payload[1] > 0:
            holes = [rects[c] for c in forest.children[i]]
            bicliques += [(p.x1, p.x2, p.y1, p.y2) for p in complement_partition(r, holes)]
    return IntervalBicliquePartition(order, bicliques)


def seed_family_models():
    """Random models, models built from planted sd-sequences, and sparse
    random models up to the benchmark's n = 16384."""
    for seed in range(400):
        rng = random.Random(seed)
        n = rng.randint(1, 64)
        yield random_stm(n, rng.randint(0, 4 * n), seed=seed)
    for seed in range(20):
        yield sdseq_to_stm(*planted_sdseq(64, seed % 5, seed=seed))
    for n in (256, 1024, 16384):
        yield random_stm_sparse(n, 4 * n, seed=0)


class TestStmToRects:
    def test_p3(self, p3_model):
        rects, order = stm_to_rects(p3_model)
        assert order == LinearOrder.from_vertex_sequence([2, 1, 3])
        keys = {r.key(): r.payload[1] for r in rects}
        # leaf order 2,1,3: pair {1,3} at positions 2,3; pair {2,p1} at 1 x [2,3]
        assert keys == {(2, 2, 3, 3): -1, (1, 1, 2, 3): 1}

    def test_empty(self):
        model = random_stm(5, 0, seed=1)
        rects, _ = stm_to_rects(model)
        assert rects == []

    def test_fig1_laminar(self, fig1_model):
        rects, _ = stm_to_rects(fig1_model)
        assert len(rects) == 13
        for i, a in enumerate(rects):
            for b in rects[i + 1:]:
                assert a.disjoint(b) or a.contains(b) or b.contains(a)


class TestStmToIbp:
    def test_p3(self, p3_model):
        ibp = stm_to_ibp(p3_model)
        g = ibp_to_graph(ibp)
        assert sorted(g.edges()) == [(1, 2), (2, 3)]
        # the negative root rectangle emits nothing; the positive rectangle
        # has no negative children, so it emits itself
        assert ibp.bicliques == ((1, 1, 2, 3),)

    def test_single_positive_root(self):
        model = random_stm(4, 0, seed=0)
        l, r = model.children[model.root]
        model = model.with_pairs((), [(l, r)])
        ibp = stm_to_ibp(model)
        assert len(ibp.bicliques) == 1

    def test_random_decode_equality(self):
        for seed in range(300):
            rng = random.Random(seed)
            n = rng.randint(2, 64)
            model = random_stm(n, rng.randint(0, 4 * n), seed=seed)
            ibp = stm_to_ibp(model)
            assert graphs_equal(ibp_to_graph(ibp), decode_bruteforce(model)), seed

    def test_matches_clean_then_rebuild_oracle(self):
        dropped = 0
        for model in seed_family_models():
            assert fio.format_ibp(stm_to_ibp(model)) == fio.format_ibp(stm_to_ibp_oracle(model))
            dropped += model.num_pairs - clean_same_sign(model).num_pairs
        # the families exercise the pairs that cleaning drops
        assert dropped > 0

    def test_one_forest_per_conversion(self, monkeypatch):
        # the cleaned model carries its forest instead of building a second
        import stmgraph.rect
        calls = []
        build = stmgraph.rect.inclusion_forest
        monkeypatch.setattr(stmgraph.rect, "inclusion_forest",
                            lambda rects: calls.append(1) or build(rects))
        stm_to_ibp(random_stm(64, 200, seed=3))
        assert len(calls) == 1

    @settings(max_examples=600, deadline=None)
    @given(perturbed_models())
    def test_rejects_what_validate_rejects(self, model):
        report = validate(model)
        if report.ok:
            assert fio.format_ibp(stm_to_ibp(model)) == fio.format_ibp(stm_to_ibp_oracle(model))
            return
        with pytest.raises(InvalidModelError) as e:
            stm_to_ibp(model)
        assert str(e.value) == "; ".join(report.messages())
        assert re.search(r"\(\d+, ?\d+\)", str(e.value))

    def test_biclique_count_bound(self):
        for seed in range(100):
            model = random_stm(24, 60, seed=seed)
            cleaned = clean_same_sign(model)
            ibp = stm_to_ibp(model)
            bound = 3 * len(cleaned.pairs_a) + len(cleaned.pairs_b)
            assert len(ibp.bicliques) <= bound, seed


class TestIbpToGraph:
    def test_single(self):
        ibp = IntervalBicliquePartition(LinearOrder.identity(2), [(1, 1, 2, 2)])
        assert sorted(ibp_to_graph(ibp).edges()) == [(1, 2)]

    def test_duplicate_edge(self):
        ibp = IntervalBicliquePartition(LinearOrder.identity(3),
                                        [(1, 1, 2, 3), (1, 2, 3, 3)])
        with pytest.raises(PartitionViolation):
            ibp_to_graph(ibp)

    def test_invariant_rejected(self):
        with pytest.raises(InputError):
            IntervalBicliquePartition(LinearOrder.identity(3), [(1, 2, 2, 3)])


class TestCoverSet:
    def test_full(self):
        tree = BalancedTree(8)
        assert tree.cover_set(1, 8) == [tree.root]

    def test_single_leaf(self):
        assert cover_set(8, 3, 3) == [3]

    def test_n8_2_7(self):
        tree = BalancedTree(8)
        leafsets = []
        for t in tree.cover_set(2, 7):
            lo, hi = tree.interval[t]
            leafsets.append(set(range(lo, hi + 1)))
        assert leafsets == [{2}, {3, 4}, {5, 6}, {7}]

    def test_size_bound_and_partition(self):
        for n in (2, 5, 8, 13, 32, 50):
            tree = BalancedTree(n)
            log = max(1, math.ceil(math.log2(n)))
            for a in range(1, n + 1):
                for b in range(a, n + 1):
                    S = tree.cover_set(a, b)
                    assert len(S) <= 2 * log
                    seen = []
                    for t in S:
                        lo, hi = tree.interval[t]
                        seen.extend(range(lo, hi + 1))
                    assert seen == list(range(a, b + 1))


class TestIbpToDag:
    def test_single_edge(self):
        ibp = IntervalBicliquePartition(LinearOrder.identity(2), [(1, 1, 2, 2)])
        dag = ibp_to_dag(ibp)
        assert dag.n == 2 and len(dag.compressed) == 1
        assert graphs_equal(dag_to_graph(dag), Graph(2, [(1, 2)]))

    def test_p3(self, p3_model):
        dag = ibp_to_dag(stm_to_ibp(p3_model))
        assert sorted(dag_to_graph(dag).edges()) == [(1, 2), (2, 3)]

    def test_random(self):
        for seed in range(150):
            model = random_stm(20, 40, seed=seed)
            ibp = stm_to_ibp(model)
            dag = ibp_to_dag(ibp)
            assert graphs_equal(dag_to_graph(dag), decode_bruteforce(model)), seed

    def test_edge_count_per_biclique(self):
        # each biclique contributes |cover(I)| + |cover(J)| DAG edges, which
        # the canonical balanced tree bounds by 4 ceil(log n)
        for seed in range(50):
            model = random_stm(32, 80, seed=seed)
            ibp = stm_to_ibp(model)
            dag = ibp_to_dag(ibp)
            n = ibp.n
            skeleton = 2 * (n - 1)
            log = max(1, math.ceil(math.log2(n)))
            new_edges = len(dag.edges) - skeleton
            assert new_edges <= (4 * log) * max(1, len(ibp.bicliques)), seed


class TestIbpToPositiveModel:
    def test_single_root_biclique(self):
        ibp = IntervalBicliquePartition(LinearOrder.identity(4), [(1, 2, 3, 4)])
        ptm = ibp_to_positive_model(ibp)
        assert not ptm.pairs_a and len(ptm.pairs_b) == 1

    def test_pair_count_matches_cover_sizes(self):
        tree = BalancedTree(8)
        ibp = IntervalBicliquePartition(LinearOrder.identity(8), [(2, 4, 5, 7)])
        ptm = ibp_to_positive_model(ibp)
        si = tree.cover_set(2, 4)
        sj = tree.cover_set(5, 7)
        assert len(ptm.pairs_b) == len(si) * len(sj)

    def test_random_decode_and_validity(self):
        for seed in range(150):
            model = random_stm(20, 40, seed=seed)
            ibp = stm_to_ibp(model)
            ptm = ibp_to_positive_model(ibp)
            assert validate(ptm).ok, seed
            assert graphs_equal(decode_bruteforce(ptm), decode_bruteforce(model)), seed


class TestSdseqToStm:
    def test_p3_exact(self, p3_model):
        g = Graph(3, [(1, 2), (2, 3)])
        model = sdseq_to_stm(g, SdDegenSequence(((1, 3), (2, 3))))
        assert model == p3_model

    def test_k2(self):
        model = sdseq_to_stm(Graph(2, [(1, 2)]), SdDegenSequence(((1, 2),)))
        assert model.pairs_b == frozenset({(1, 2)}) and not model.pairs_a

    def test_invalid_sequence(self):
        g = Graph(3, [(1, 2)])
        with pytest.raises(SequenceError):
            sdseq_to_stm(g, SdDegenSequence(((1, 2), (1, 3))))

    def test_planted_random(self):
        from stmgraph import validate_sequence
        for seed in range(100):
            rng = random.Random(seed)
            n = rng.randint(2, 32)
            d = rng.randint(0, 4)
            g, seq = planted_sdseq(n, d, seed=seed)
            w = validate_sequence(g, seq).width
            model = sdseq_to_stm(g, seq)
            assert graphs_equal(decode_bruteforce(model), g), seed
            assert model.num_pairs <= (w + 1) * (n - 1), seed


class TestCseq:
    def test_k2(self):
        seq = ConstructionSequence(2, (("R+", 1, 2), ("M", 1, 2)))
        model = cseq_to_stm(seq)
        assert sorted(decode_bruteforce(model).edges()) == [(1, 2)]

    def test_only_merges(self):
        seq = ConstructionSequence(3, (("M", 1, 2), ("M", 3, 4)))
        assert decode_bruteforce(cseq_to_stm(seq)).m == 0

    def test_dead_part(self):
        seq = ConstructionSequence(2, (("M", 1, 2), ("R+", 1, 2)))
        with pytest.raises(SequenceError):
            cseq_to_stm(seq)
        with pytest.raises(SequenceError):
            cseq_replay(seq)

    def test_random_replay_equality(self):
        for seed in range(150):
            rng = random.Random(seed)
            n = rng.randint(2, 32)
            seq = random_cseq(n, rng.randint(0, 3 * n), seed=seed)
            g = cseq_replay(seq)
            model = cseq_to_stm(seq)
            assert graphs_equal(decode_bruteforce(model), g), seed
            assert model.num_pairs <= seq.num_resolves + n, seed

    def test_shorten_preserves_graph(self):
        for seed in range(100):
            rng = random.Random(seed)
            n = rng.randint(2, 24)
            seq = random_cseq(n, rng.randint(0, 4 * n), seed=seed)
            short = cseq_shorten(seq)
            assert graphs_equal(cseq_replay(short), cseq_replay(seq)), seed

    def test_shorten_drops_duplicates(self):
        seq = ConstructionSequence(2, (("R+", 1, 2), ("R+", 1, 2), ("M", 1, 2)))
        short = cseq_shorten(seq)
        assert sum(1 for k, _, _ in short.ops if k != "M") == 1

    def test_shorten_width_and_length(self):
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randint(2, 14)
            seq = random_cseq(n, rng.randint(0, 3 * n), seed=seed)
            w = radius_r_width(seq, 1)
            short = cseq_shorten(seq)
            assert radius_r_width(short, 1) <= w, seed
            assert len(short.ops) <= (2 * w + 1) * n, seed


class TestRadiusWidth:
    def test_resolve_then_merge(self):
        seq = ConstructionSequence(2, (("R+", 1, 2), ("M", 1, 2)))
        assert radius_r_width(seq, 1) == 2

    def test_empty(self):
        assert radius_r_width(ConstructionSequence(3, ()), 1) == 1
