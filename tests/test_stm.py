import itertools
import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from stmgraph import (InputError, InvalidModelError, SignedTreeModel,
                      ValidationReport, clean_same_sign, decode_bruteforce,
                      default_edit_log, graphs_equal, insert_edit,
                      remove_loops, validate)
from stmgraph.gen import random_stm, random_stm_sparse
from stmgraph.stm import NEGATIVE, POSITIVE, _checked_forest, pair_rects

from conftest import (FIG1_CHILDREN, FIG1_PAIRS_A, FIG1_PAIRS_B, perturbed_models,
                      properly_overlap)


def pairs_cross(stm, e1, e2):
    """Oracle: some endpoint of each pair is strictly above some endpoint of
    the other."""
    def strictly_above(a, e):
        return any(stm.is_ancestor(a, b) and a != b for b in e)

    return (any(strictly_above(a, e2) for a in e1)
            and any(strictly_above(b, e1) for b in e2))


def validate_oracle(stm, strict=True):
    """Quadratic reference for ``validate``: every pair of pairs is tested
    with ``pairs_cross``, and every crossing is listed."""
    v = []
    num_nodes = 2 * stm.n - 1
    for t in range(stm.n + 1, num_nodes + 1):
        if t not in stm.children:
            v.append(("tree", f"internal node {t} has no children"))
    for p in sorted(stm.pairs_a & stm.pairs_b):
        v.append(("overlap", f"pair {p} is both positive and negative"))
    pairs = list(stm.pairs_signed())
    for x, y, _ in pairs:
        if x == y:
            if strict:
                v.append(("loop", f"pair ({x},{y}) is a loop"))
        elif stm.is_ancestor(x, y) or stm.is_ancestor(y, x):
            v.append(("transversal", f"pair ({x},{y}) is not transversal"))
    for i in range(len(pairs)):
        x1, y1, _ = pairs[i]
        for x2, y2, _ in pairs[i + 1:]:
            if pairs_cross(stm, (x1, y1), (x2, y2)):
                v.append(("crossing", f"pairs ({x1},{y1}) and ({x2},{y2}) cross"))
    return ValidationReport(ok=not v, violations=v)


def is_transversal(stm, pair):
    x, y = pair
    return not (stm.is_ancestor(x, y) or stm.is_ancestor(y, x))


def named_pairs(message):
    return [(int(x), int(y)) for x, y in re.findall(r"\((\d+),(\d+)\)", message)]


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


class TestConstruction:
    def test_bad_internal_ids(self):
        with pytest.raises(InputError):
            SignedTreeModel(2, {2: (1, 3)})

    def test_two_parents(self):
        with pytest.raises(InputError):
            SignedTreeModel(3, {4: (1, 2), 5: (1, 3)})

    def test_pair_out_of_range(self):
        with pytest.raises(InputError):
            SignedTreeModel(2, {3: (1, 2)}, pairs_b=[(1, 9)])

    def test_leaf_order(self, p3_model):
        assert p3_model.leaf_order == (2, 1, 3)
        assert p3_model.leaf_interval(4) == (2, 3)
        assert p3_model.canonical_pair(4, 2) == (2, 4)


class TestValidate:
    def test_fig1_ok(self, fig1_model):
        assert validate(fig1_model).ok

    def test_fig1_crossing(self):
        model = SignedTreeModel(14, FIG1_CHILDREN, FIG1_PAIRS_A,
                                FIG1_PAIRS_B + [(16, 26)])
        report = validate(model)
        crossings = [m for k, m in report.violations if k == "crossing"]
        assert crossings
        # the diagnostic names both offending pairs
        assert any("(20,24)" in m and "(16,26)" in m for m in crossings)

    def test_single_edge_model(self):
        model = SignedTreeModel(2, {3: (1, 2)}, pairs_b=[(1, 2)])
        assert validate(model).ok

    def test_loop_strictness(self):
        model = SignedTreeModel(2, {3: (1, 2)}, pairs_b=[(3, 3)])
        assert not validate(model, strict=True).ok
        assert validate(model, strict=False).ok

    def test_non_transversal(self):
        model = SignedTreeModel(2, {3: (1, 2)}, pairs_b=[(3, 1)])
        assert any(k == "transversal" for k, _ in validate(model).violations)

    def test_overlap(self):
        model = SignedTreeModel(2, {3: (1, 2)}, pairs_a=[(1, 2)], pairs_b=[(1, 2)])
        assert any(k == "overlap" for k, _ in validate(model).violations)

    @settings(max_examples=600, deadline=None)
    @given(perturbed_models(), st.booleans())
    def test_matches_quadratic_oracle(self, model, strict):
        report = validate(model, strict=strict)
        oracle = validate_oracle(model, strict=strict)
        assert report.ok == oracle.ok
        assert ([v for v in report.violations if v[0] != "crossing"]
                == [v for v in oracle.violations if v[0] != "crossing"])
        crossings = [m for k, m in report.violations if k == "crossing"]
        assert len(crossings) <= 1
        # crossings that involve a non-transversal pair are not reported
        # separately: that pair is a violation already
        transversal_crossing = any(
            all(is_transversal(model, e) for e in named_pairs(m))
            for k, m in oracle.violations if k == "crossing")
        assert bool(crossings) == transversal_crossing
        if crossings:
            e1, e2 = named_pairs(crossings[0])
            assert pairs_cross(model, e1, e2)

    def test_scaling(self):
        model = random_stm_sparse(4096, 16384, seed=0)
        start = time.perf_counter()
        assert validate(model).ok
        # the quadratic check takes minutes here
        assert time.perf_counter() - start < 30


class TestDecode:
    def test_fig1_caption(self, fig1_model):
        g = decode_bruteforce(fig1_model)
        assert g.has_edge(8, 4)
        assert g.has_edge(8, 2)
        assert not g.has_edge(8, 7)

    def test_empty_pairs(self):
        model = SignedTreeModel(4, {5: (1, 2), 6: (3, 4), 7: (5, 6)})
        assert decode_bruteforce(model).m == 0

    def test_root_children_biclique(self):
        model = SignedTreeModel(4, {5: (1, 2), 6: (3, 4), 7: (5, 6)},
                                pairs_b=[(5, 6)])
        g = decode_bruteforce(model)
        assert sorted(g.edges()) == [(1, 3), (1, 4), (2, 3), (2, 4)]

    def test_p3(self, p3_model):
        assert sorted(decode_bruteforce(p3_model).edges()) == [(1, 2), (2, 3)]

    def test_invalid_rejected(self):
        model = SignedTreeModel(2, {3: (1, 2)}, pairs_b=[(3, 1)])
        with pytest.raises(InvalidModelError):
            decode_bruteforce(model)

    def test_rect_laminarity(self):
        # a valid model's rectangles are laminar; with random pairs added,
        # transversal pairs cross iff their rectangles properly overlap
        crossing = 0
        for seed in range(50):
            rng = random.Random(seed)
            model = random_stm(16, 40, seed=seed)
            for a, b in itertools.combinations(pair_rects(model), 2):
                assert not properly_overlap(a, b), seed
            extra = {model.canonical_pair(rng.randrange(1, 31), rng.randrange(1, 31))
                     for _ in range(20)}
            model = model.with_pairs(model.pairs_a, model.pairs_b | extra)
            rects = [r for r in pair_rects(model) if is_transversal(model, r.payload[0])]
            for a, b in itertools.combinations(rects, 2):
                cross = pairs_cross(model, a.payload[0], b.payload[0])
                assert properly_overlap(a, b) == cross, seed
                crossing += cross
        assert crossing > 0


class TestRemoveLoops:
    def test_noop(self, p3_model):
        assert remove_loops(p3_model) == p3_model

    def test_root_loop(self):
        model = SignedTreeModel(2, {3: (1, 2)}, pairs_b=[(3, 3)])
        out = remove_loops(model)
        assert out.pairs_b == frozenset({(1, 2)}) and not out.pairs_a

    def test_decode_equality_random(self):
        for seed in range(200):
            model = random_loopy(random.Random(seed).randint(2, 16), seed)
            out = remove_loops(model)
            assert validate(out, strict=True).ok, seed
            assert graphs_equal(decode_bruteforce(model), decode_bruteforce(out)), seed

    def test_added_pairs_bounded(self):
        for seed in range(50):
            model = random_loopy(12, seed)
            out = remove_loops(model)
            loops = sum(1 for x, y, _ in model.pairs_signed() if x == y)
            assert out.num_pairs <= model.num_pairs - loops + model.n


class TestCleanSameSign:
    def test_nested_same_sign_deleted(self):
        model = SignedTreeModel(4, {5: (1, 2), 6: (3, 4), 7: (5, 6)},
                                pairs_b=[(5, 6), (1, 3)])
        out = clean_same_sign(model)
        assert out.pairs_b == frozenset({(5, 6)})

    def test_fig1_unchanged(self, fig1_model):
        # no same-sign cover exists in the reference model
        assert clean_same_sign(fig1_model) == fig1_model

    def test_decode_preserved_and_alternation(self):
        from stmgraph.rect import inclusion_forest
        for seed in range(300):
            model = random_stm(random.Random(seed).randint(2, 32),
                               random.Random(seed + 1).randint(0, 64), seed=seed)
            out = clean_same_sign(model)
            assert out.num_pairs <= model.num_pairs
            assert graphs_equal(decode_bruteforce(model), decode_bruteforce(out)), seed
            rects = pair_rects(out)
            forest = inclusion_forest(rects)
            for i, p in enumerate(forest.parent):
                if p is not None:
                    assert rects[i].payload[1] != rects[p].payload[1], seed

    def test_carried_forest_matches_rebuilt(self):
        # the cleaned model keeps the spliced forest instead of building one
        from stmgraph.rect import laminar_forest
        for seed in range(200):
            model = random_stm(random.Random(seed).randint(1, 40),
                               random.Random(seed + 1).randint(0, 120), seed=seed)
            rects, forest, violations = _checked_forest(clean_same_sign(model))
            assert violations == []
            assert [r.payload for r in rects] == [r.payload for r in pair_rects(clean_same_sign(model))]
            assert forest.parent == laminar_forest(rects).parent, seed

    def test_invalid_model_rejected(self, p3_model):
        looped = p3_model.with_pairs(p3_model.pairs_a | {(1, 1)}, p3_model.pairs_b)
        with pytest.raises(InvalidModelError, match=r"pair \(1,1\) is a loop"):
            clean_same_sign(looped)


class TestInsertEdit:
    def test_insert_positive(self, p3_model):
        log = default_edit_log(p3_model)
        out, log, rebuild = insert_edit(p3_model, 1, 3, POSITIVE, log)
        assert decode_bruteforce(out).has_edge(1, 3)
        assert validate(out).ok
        assert log.count == 1

    def test_insert_negative_shadows(self, p3_model):
        log = default_edit_log(p3_model)
        out, log, _ = insert_edit(p3_model, 2, 1, NEGATIVE, log)
        assert not decode_bruteforce(out).has_edge(1, 2)
        assert decode_bruteforce(out).has_edge(2, 3)

    def test_overwrite(self, p3_model):
        log = default_edit_log(p3_model)
        m1, log, _ = insert_edit(p3_model, 1, 2, POSITIVE, log)
        m2, log, _ = insert_edit(m1, 1, 2, NEGATIVE, log)
        m3, log, _ = insert_edit(p3_model, 1, 2, NEGATIVE, default_edit_log(p3_model))
        assert m2 == m3

    def test_rebuild_flag(self, p3_model):
        log = default_edit_log(p3_model)
        rebuild = False
        model = p3_model
        for i in range(log.threshold):
            model, log, rebuild = insert_edit(model, 1, 2,
                                              POSITIVE if i % 2 else NEGATIVE, log)
        assert rebuild

    def test_non_leaf_rejected(self, p3_model):
        with pytest.raises(InputError):
            insert_edit(p3_model, 1, 4, POSITIVE, default_edit_log(p3_model))

    def test_never_crossing(self):
        for seed in range(50):
            rng = random.Random(seed)
            model = random_stm(10, 20, seed=seed)
            log = default_edit_log(model)
            u = rng.randint(1, 10)
            v = rng.randint(1, 10)
            if u == v:
                continue
            out, log, _ = insert_edit(model, u, v,
                                      rng.choice((POSITIVE, NEGATIVE)), log)
            assert validate(out).ok, seed
