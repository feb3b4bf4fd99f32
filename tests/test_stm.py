import itertools
import random
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stmgraph import (InputError, InvalidModelError, SignedTreeModel,
                      ValidationReport, clean_same_sign, decode_bruteforce,
                      graphs_equal, ibp_to_graph, remove_loops, stm_to_ibp, validate)
from stmgraph.gen import random_full_tree, random_stm, random_stm_sparse
from stmgraph.stm import _checked_forest

from conftest import (FIG1_CHILDREN, FIG1_PAIRS_A, FIG1_PAIRS_B, caterpillar_stm,
                      pair_keys, perturbed_models, properly_overlap, random_loopy)
from test_convert import seed_family_models


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
        assert p3_model.leaf_order.tolist() == [2, 1, 3]
        assert p3_model.leaf_interval(4) == (2, 3)
        assert p3_model.canonical_pair(4, 2) == (2, 4)


def tree_walk_oracle(n, children):
    """Parent, lo, hi (indexed by node id, entry 0 unused) and the leaf
    order of a valid tree, from one depth-first walk with a stack."""
    parent = [0] * (2 * n)
    for t, (l, r) in children.items():
        parent[l] = parent[r] = t
    root = next(t for t in range(1, 2 * n) if not parent[t])
    lo, hi, leaves = [0] * (2 * n), [0] * (2 * n), []
    stack = [(root, False)]
    while stack:
        t, done = stack.pop()
        if done:
            l, r = children[t]
            lo[t], hi[t] = lo[l], hi[r]
        elif t in children:
            l, r = children[t]
            stack += [(t, True), (r, False), (l, False)]
        else:
            leaves.append(t)
            lo[t] = hi[t] = len(leaves)
    return parent, lo, hi, leaves


def relabelled_tree(n, seed):
    """A random full binary tree whose internal ids are shuffled, so the
    root and the children's ids fall anywhere in n+1..2n-1."""
    rng = random.Random(seed)
    children = random_full_tree(n, rng)
    new = list(range(n + 1, 2 * n))
    rng.shuffle(new)
    label = dict(zip(range(n + 1, 2 * n), new))
    return {label[t]: tuple(label.get(c, c) for c in lr) for t, lr in children.items()}


class TestTreeArrays:
    """``parent``, ``lo``, ``hi`` and ``leaf_order`` from the Euler tour
    equal the stack walk's."""

    @staticmethod
    def check(model):
        parent, lo, hi, leaves = tree_walk_oracle(model.n, model.children)
        assert model.parent.tolist() == parent
        assert model.lo.tolist() == lo
        assert model.hi.tolist() == hi
        assert model.leaf_order.tolist() == leaves

    def test_seed_family(self):
        for model in seed_family_models():
            self.check(model)

    def test_caterpillar(self):
        self.check(caterpillar_stm(1 << 12, 1 << 12, seed=0))

    def test_random_trees(self):
        for n in range(1, 65):
            for seed in range(4):
                self.check(SignedTreeModel(n, relabelled_tree(n, seed)))

    def test_pairs_stored_form(self):
        """Each pair ordered by its ends' leaf intervals, once per sign, in
        sorted order with the negative pairs first; a pair given with both
        signs stays in both."""
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randint(1, 24)
            model = SignedTreeModel(n, relabelled_tree(n, seed))
            _, lo, _, _ = tree_walk_oracle(n, model.children)
            given = [[(rng.randint(1, 2 * n - 1), rng.randint(1, 2 * n - 1))
                      for _ in range(rng.randint(0, 3 * n))] for _ in range(2)]
            given[1] += rng.sample(given[0], len(given[0]) // 3)
            canon = [{(x, y) if lo[x] <= lo[y] else (y, x) for x, y in g} for g in given]
            out = model.with_pairs(*given)
            assert list(out.pairs_signed()) == ([(x, y, -1) for x, y in sorted(canon[0])]
                                                + [(x, y, 1) for x, y in sorted(canon[1])]), seed
            assert (out.pairs_a, out.pairs_b) == tuple(map(frozenset, canon)), seed

    def test_arrays_given(self):
        """A tree given as rows (t, left, right) and pairs given as arrays
        build the model their tuples build."""
        children = {5: (1, 2), 6: (3, 4), 7: (5, 6)}
        want = SignedTreeModel(4, children, [(1, 2)], [(3, 4), (1, 3)])
        assert SignedTreeModel(4, children, [(1, 2)], np.array([[3, 4], [1, 3]])) == want
        assert want.with_pairs(np.array([[1, 2]]), np.array([[3, 4], [1, 3]])) == want
        rows = np.array([(t, l, r) for t, (l, r) in children.items()])
        assert SignedTreeModel(4, rows, np.array([[1, 2]]), [(3, 4), (1, 3)]) == want

    def test_stored_arrays_read_only(self, fig1_model):
        for a in (fig1_model.kids, fig1_model.parent, fig1_model.lo, fig1_model.hi,
                  fig1_model.leaf_order, fig1_model.pairs, fig1_model.sign):
            with pytest.raises(ValueError):
                a[0] = 0

    @pytest.mark.parametrize("children, pairs_b, message", [
        # one root (leaf 3), and internal nodes 4 and 5 are each other's parent
        ({4: (5, 1), 5: (4, 2)}, [], "leaves must be exactly the ids 1..n"),
        ({4: (4, 1), 5: (2, 3)}, [], "leaves must be exactly the ids 1..n"),
        ({2 ** 64: (1, 2)}, [], "expected rows of 3 integers, got (18446744073709551616, 1, 2)"),
        ({4: (1, 2), 5: (-2 ** 70, 3)}, [], f"expected rows of 3 integers, got (5, {-2 ** 70}, 3)"),
        ({4: (1, 2), 5: (4, 3)}, [(1, 2 ** 63)], f"expected rows of 2 integers, got (1, {2 ** 63})"),
        # rows (t, left, right) in an array may repeat an internal id
        (np.array([[4, 1, 2], [4, 5, 3]]), [], "internal node 4 defined twice"),
    ])
    def test_rejected(self, children, pairs_b, message):
        with pytest.raises(InputError, match=re.escape(message)):
            SignedTreeModel(3, children, (), pairs_b)


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

    def test_caterpillar_scaling(self):
        # a tree of depth n-1, whose sibling pair rectangles span up to n
        # columns; a column walk per rectangle is quadratic here
        n = 1 << 14
        model = caterpillar_stm(n, 4 * n, seed=0)
        start = time.perf_counter()
        assert validate(model).ok
        assert time.perf_counter() - start < 5
        start = time.perf_counter()
        stm_to_ibp(model)
        assert time.perf_counter() - start < 5


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
            for (a, _, _), (b, _, _) in itertools.combinations(pair_keys(model), 2):
                assert not properly_overlap(a, b), seed
            extra = {model.canonical_pair(rng.randrange(1, 31), rng.randrange(1, 31))
                     for _ in range(20)}
            model = model.with_pairs(model.pairs_a, model.pairs_b | extra)
            rects = [(key, pair) for key, pair, _ in pair_keys(model)
                     if is_transversal(model, pair)]
            for (a, pa), (b, pb) in itertools.combinations(rects, 2):
                cross = pairs_cross(model, pa, pb)
                assert properly_overlap(a, b) == cross, seed
                crossing += cross
        assert crossing > 0


def remove_loops_oracle(model):
    """``remove_loops`` by a walk from the root that carries the sign of
    the nearest loop above, on Python sets."""
    loop_sign = {x: s for x, y, s in model.pairs_signed() if x == y}
    pairs = [{p for p in ps if p[0] != p[1]} for ps in (model.pairs_a, model.pairs_b)]
    children = model.children
    stack = [(next(t for t in range(1, 2 * model.n) if not model.parent[t]), 0)]
    while stack:
        t, carried = stack.pop()
        carried = loop_sign.get(t, carried)
        if t in children:
            sib = model.canonical_pair(*children[t])
            if carried and sib not in pairs[0] and sib not in pairs[1]:
                pairs[carried > 0].add(sib)
            stack += [(c, carried) for c in children[t]]
    return pairs


class TestRemoveLoops:
    def test_matches_walk_oracle(self):
        for seed in range(300):
            model = random_loopy(random.Random(seed).randint(1, 24), seed)
            out = remove_loops(model)
            assert [out.pairs_a, out.pairs_b] == remove_loops_oracle(model), seed

    def test_noop(self, p3_model):
        assert remove_loops(p3_model) == p3_model
        assert remove_loops(p3_model) is p3_model  # no O(n + p) rebuild

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

    def test_two_signed_loop_rejected(self):
        # the loop has no sign to hand down; validate rejects the model too
        model = SignedTreeModel(2, {3: (1, 2)}, pairs_a=[(3, 3)], pairs_b=[(3, 3)])
        assert not validate(model, strict=False).ok
        with pytest.raises(InvalidModelError,
                           match=re.escape("pair (3, 3) is both positive and negative")):
            remove_loops(model)

    @settings(max_examples=400, deadline=None)
    @given(perturbed_models(), st.data())
    def test_ibp_decode_matches_validate(self, model, data):
        """The CLI's decode path: ``stm_to_ibp(remove_loops(m))`` rejects
        exactly the models ``validate(m, strict=False)`` rejects, and
        otherwise its graph is the brute-force decode."""
        loops = data.draw(st.lists(st.tuples(st.integers(1, 2 * model.n - 1),
                                             st.sampled_from(("A", "B", "AB"))),
                                   max_size=3))
        pairs_a, pairs_b = set(model.pairs_a), set(model.pairs_b)
        for t, signs in loops:
            if "A" in signs:
                pairs_a.add((t, t))
            if "B" in signs:
                pairs_b.add((t, t))
        model = model.with_pairs(pairs_a, pairs_b)
        rejected = not validate(model, strict=False).ok
        try:
            decoded = ibp_to_graph(stm_to_ibp(remove_loops(model)))
        except InvalidModelError:
            assert rejected
            return
        assert not rejected
        assert graphs_equal(decoded, decode_bruteforce(model))


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
            rects = pair_keys(out)
            forest = inclusion_forest([key for key, _, _ in rects])
            for i, p in enumerate(forest.up.tolist()):
                if p >= 0:
                    assert rects[i][2] != rects[p][2], seed

    def test_carried_forest_matches_rebuilt(self):
        # the cleaned model keeps the spliced forest instead of building one
        from stmgraph.rect import inclusion_forest
        for seed in range(200):
            model = random_stm(random.Random(seed).randint(1, 40),
                               random.Random(seed + 1).randint(0, 120), seed=seed)
            pairs, sign, forest, violations = _checked_forest(clean_same_sign(model))
            assert violations == []
            rects = pair_keys(clean_same_sign(model))
            assert ([(tuple(p), s) for p, s in zip(pairs.tolist(), sign.tolist())]
                    == [(pair, s) for _, pair, s in rects])
            keys = [key for key, _, _ in rects]
            assert forest.keys.tolist() == list(map(list, keys))
            assert forest.up.tolist() == inclusion_forest(keys).up.tolist(), seed

    def test_invalid_model_rejected(self, p3_model):
        looped = p3_model.with_pairs(p3_model.pairs_a | {(1, 1)}, p3_model.pairs_b)
        with pytest.raises(InvalidModelError, match=r"pair \(1,1\) is a loop"):
            clean_same_sign(looped)
