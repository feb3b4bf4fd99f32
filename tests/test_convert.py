import math
import random
import re
import sys
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings

from stmgraph import (ConstructionSequence, DistanceModel, Graph, InputError,
                      InvalidModelError, PartitionViolation, SdDegenSequence,
                      SequenceError, SignedTreeModel, clean_same_sign,
                      complement_partition, cover_set, cseq_replay,
                      cseq_shorten, cseq_to_stm, dag_to_graph,
                      decode_bruteforce, graphs_equal, ibp_to_dag,
                      ibp_to_graph, ibp_to_positive_model, inclusion_forest,
                      radius_r_width, sdseq_to_stm, stm_to_ibp, validate)
from stmgraph import io as fio
from stmgraph.convert import DagCompression, IntervalBicliquePartition, _covers, _skeleton
from stmgraph.graph import LinearOrder
from stmgraph.stm import _checked_forest
from stmgraph.gen import planted_sdseq, random_cseq, random_stm, random_stm_sparse

from conftest import (BAD_DAGS, compressions, contains, disjoint, pair_keys, perturbed_models,
                      traced_peak)


def children_lists(up):
    """The indices whose parent is i, for every i, from an ``up`` array."""
    children = [[] for _ in up]
    for i, p in enumerate(up.tolist()):
        if p >= 0:
            children[p].append(i)
    return children


def stm_to_ibp_oracle(stm):
    """The composition ``stm_to_ibp`` replaced: clean the model into a new
    one on a fresh inclusion forest, build its rectangles and inclusion
    forest again, and let each positive rectangle emit the complement of its
    (negative) children."""
    rects = pair_keys(stm)
    parent = inclusion_forest([key for key, _, _ in rects]).up.tolist()
    drop = {pair for (_, pair, sign), p in zip(rects, parent) if p >= 0 and rects[p][2] == sign}
    rects = pair_keys(stm.with_pairs(stm.pairs_a - drop, stm.pairs_b - drop))
    keys = [key for key, _, _ in rects]
    children = children_lists(inclusion_forest(keys).up)
    bicliques = []
    for i, (key, _, sign) in enumerate(rects):
        if sign > 0:
            bicliques += complement_partition(key, [keys[c] for c in children[i]]).tolist()
    return IntervalBicliquePartition(LinearOrder.from_vertex_sequence(stm.leaf_order), bicliques)


def wrap_everywhere(monkeypatch, fn, calls):
    """Replace ``fn`` wherever a stmgraph module refers to it, as a traced
    benchmark run does, by a wrapper that appends each call's arguments to
    ``calls``."""
    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    for name, module in list(sys.modules.items()):
        if name == "stmgraph" or name.startswith("stmgraph."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)


class BalancedTree:
    """The recursive, dict-backed canonical balanced tree that ``_descend``
    replaced (oracle): internal nodes numbered post-order n+1..2n-1 as they
    are built, ``leaf_id(p)`` naming the leaf at position p."""

    def __init__(self, n, leaf_id=None):
        self.n = n
        leaf_id = leaf_id or (lambda p: p)
        self.children = {}
        self.interval = {}
        counter = n

        def build(a, b):
            nonlocal counter
            if a == b:
                t = leaf_id(a)
                self.interval[t] = (a, a)
                return t
            mid = a + (b - a + 2) // 2 - 1
            left = build(a, mid)
            right = build(mid + 1, b)
            counter += 1
            self.children[counter] = (left, right)
            self.interval[counter] = (a, b)
            return counter

        self.root = build(1, n)

    def cover_set(self, a, b):
        out = []

        def rec(t):
            lo, hi = self.interval[t]
            if a <= lo and hi <= b:
                out.append(t)
                return
            if hi < a or b < lo:
                return
            l, r = self.children[t]
            rec(l)
            rec(r)

        rec(self.root)
        return out


def ibp_to_dag_oracle(ibp):
    """``ibp_to_dag`` on the oracle tree."""
    n = ibp.n
    tree = BalancedTree(n, leaf_id=ibp.order.at)
    edges = [(t, c) for t, (l, r) in tree.children.items() for c in (l, r)]
    compressed = []
    next_id = 2 * n - 1 if n > 1 else 1
    for a, b, c, d in ibp.bicliques:
        vi, vj = next_id + 1, next_id + 2
        next_id = vj
        edges.extend((vi, t) for t in tree.cover_set(a, b))
        edges.extend((vj, t) for t in tree.cover_set(c, d))
        compressed.append((vi, vj))
    return DagCompression(n, next_id, edges, compressed)


def dag_to_graph_oracle(dc):
    """The reachability decode that ``dag_to_graph`` replaced (oracle): a
    recursive closure that walks successor lists built from the edges, on
    any DAG, whatever its node order."""
    succ = [[] for _ in range(dc.num_nodes + 1)]
    for x, y in dc.edges:
        succ[x].append(y)
    reach = [None] * (dc.num_nodes + 1)  # bitsets over sinks

    def sinks(x):
        if reach[x] is not None:
            return reach[x]
        stack = [x]
        post = []
        seen = {x}
        while stack:
            t = stack.pop()
            post.append(t)
            for s in succ[t]:
                if s not in seen and reach[s] is None:
                    seen.add(s)
                    stack.append(s)
        for t in reversed(post):
            if reach[t] is None:
                bits = 1 << t if t <= dc.n else 0
                for s in succ[t]:
                    bits |= sinks(s)
                reach[t] = bits
        return reach[x]

    edges = set()
    for x, y in dc.compressed:
        bx, by = sinks(x), sinks(y)
        u = bx
        while u:
            ub = u & -u
            ui = ub.bit_length() - 1
            v = by
            while v:
                vb = v & -v
                vi = vb.bit_length() - 1
                if ui != vi:
                    edges.add((min(ui, vi), max(ui, vi)))
                v ^= vb
            u ^= ub
    return Graph(dc.n, edges)


def ibp_to_positive_model_oracle(ibp):
    """``ibp_to_positive_model`` on the oracle tree."""
    tree = BalancedTree(ibp.n, leaf_id=ibp.order.at)
    pairs_b = {(s, t) for a, b, c, d in ibp.bicliques
               for s in tree.cover_set(a, b) for t in tree.cover_set(c, d)}
    return SignedTreeModel(ibp.n, tree.children, (), pairs_b)


def node_intervals(n):
    """Node id -> leaf interval, read off ``_skeleton`` with the identity
    order: internal ids are post-order, so children come before parents."""
    interval = {p: (p, p) for p in range(1, n + 1)}
    for t, (left, right) in enumerate(_skeleton(n, np.arange(n + 1)).tolist(), n + 1):
        interval[t] = (interval[left][0], interval[right][1])
    return interval


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
    """A model's rectangles: the key rows ``_checked_forest`` gathers from
    the leaf intervals of each pair's ends, in leaf-position space."""

    def test_p3(self, p3_model):
        _, sign, forest, _ = _checked_forest(p3_model)
        assert p3_model.leaf_order.tolist() == [2, 1, 3]
        keys = dict(zip(map(tuple, forest.keys.tolist()), sign.tolist()))
        # leaf order 2,1,3: pair {1,3} at positions 2,3; pair {2,p1} at 1 x [2,3]
        assert keys == {(2, 2, 3, 3): -1, (1, 1, 2, 3): 1}

    def test_empty(self):
        model = random_stm(5, 0, seed=1)
        keys = _checked_forest(model)[2].keys
        assert keys.shape == (0, 4) and keys.dtype == np.int64

    def test_fig1_laminar(self, fig1_model):
        rects = _checked_forest(fig1_model)[2].keys.tolist()
        assert len(rects) == 13
        for i, a in enumerate(rects):
            for b in rects[i + 1:]:
                assert disjoint(a, b) or contains(a, b) or contains(b, a)


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
        # the cleaned model carries its forest instead of building a second,
        # and only positive rectangles with holes run the complement sweep;
        # a traced benchmark run wraps these three and indexes their spans
        import stmgraph.rect
        import stmgraph.stm
        model = random_stm(64, 200, seed=3)
        rects = pair_keys(clean_same_sign(model))
        children = children_lists(inclusion_forest([key for key, _, _ in rects]).up)
        holed = [(key, len(children[i])) for i, (key, _, sign) in enumerate(rects)
                 if sign > 0 and children[i]]
        assert holed and len(holed) < sum(sign > 0 for _, _, sign in rects)
        calls = {"clean": [], "forest": [], "complement": []}
        wrap_everywhere(monkeypatch, stmgraph.stm.clean_same_sign, calls["clean"])
        wrap_everywhere(monkeypatch, stmgraph.rect.inclusion_forest, calls["forest"])
        wrap_everywhere(monkeypatch, stmgraph.rect.complement_partition, calls["complement"])
        stm_to_ibp(model)
        assert len(calls["clean"]) == 1 and len(calls["forest"]) == 1
        assert [(tuple(np.asarray(outer).tolist()), len(holes))
                for outer, holes in calls["complement"]] == holed

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
            assert len(ibp.quads) <= bound, seed


class TestIbpToGraph:
    def test_single(self):
        ibp = IntervalBicliquePartition(LinearOrder.identity(2), [(1, 1, 2, 2)])
        assert sorted(ibp_to_graph(ibp).edges()) == [(1, 2)]

    def test_duplicate_edge(self):
        ibp = IntervalBicliquePartition(LinearOrder.identity(3),
                                        [(1, 1, 2, 3), (1, 2, 3, 3)])
        with pytest.raises(PartitionViolation) as e:
            ibp_to_graph(ibp)
        assert str(e.value) == "edge (1, 3) emitted by two bicliques"

    def test_first_duplicate_in_emission_order(self):
        # (1, 4) is emitted twice too, and is the smaller edge, but its
        # second emission comes after that of (2, 4)
        ibp = IntervalBicliquePartition(LinearOrder.identity(4),
                                        [(2, 3, 4, 4), (1, 3, 4, 4), (1, 1, 2, 4)])
        with pytest.raises(PartitionViolation) as e:
            ibp_to_graph(ibp)
        assert str(e.value) == "edge (2, 4) emitted by two bicliques"

    def test_invariant_rejected(self):
        with pytest.raises(InputError):
            IntervalBicliquePartition(LinearOrder.identity(3), [(1, 2, 2, 3)])

    @pytest.mark.parametrize("bad", [(0, 1, 2, 3), (2, 1, 3, 3), (1, 2, 2, 3),
                                     (1, 1, 3, 2), (1, 1, 2, 4)])
    def test_names_first_bad_biclique(self, bad):
        with pytest.raises(InputError) as e:
            IntervalBicliquePartition(LinearOrder.identity(3),
                                      [(1, 1, 2, 3), bad, (0, 0, 0, 0)])
        assert "({},{},{},{})".format(*bad) in str(e.value)

    def test_quads_array(self):
        ibp = stm_to_ibp(random_stm(40, 90, seed=5))
        assert ibp.quads.dtype == np.int64 and not ibp.quads.flags.writeable
        assert list(map(tuple, ibp.quads.tolist())) == list(ibp.bicliques)
        assert IntervalBicliquePartition(LinearOrder.identity(1), []).quads.shape == (0, 4)

    def test_equality(self):
        order, quads = LinearOrder.identity(3), [(1, 1, 2, 3)]
        ibp = IntervalBicliquePartition(order, quads)
        assert ibp == IntervalBicliquePartition(order, np.array(quads))
        assert ibp != IntervalBicliquePartition(order, [(1, 2, 3, 3)])
        assert ibp != IntervalBicliquePartition(LinearOrder.from_vertex_sequence([2, 1, 3]),
                                                quads)

    @pytest.mark.parametrize("shape", ["ragged", "glued", "flat", "nested"])
    def test_rows_of_another_shape_rejected(self, shape):
        # each row is valid, so only the shape check can reject them
        def reshaped(row):
            return {"ragged": [row, row[:-1]], "glued": [row + row],
                    "flat": np.array(row), "nested": np.array([[row]])}[shape]

        with pytest.raises(ValueError):
            IntervalBicliquePartition(LinearOrder.identity(2), reshaped((1, 1, 2, 2)))
        with pytest.raises(ValueError):
            DagCompression(2, 4, [], reshaped((1, 2)))


def first(rows, k):
    return rows[:, :k] if isinstance(rows, np.ndarray) else [row[:k] for row in rows]


def tree_of(rows):
    """Rows (t, left, right, ...) as a tree in the form ``SignedTreeModel``
    takes: an array of rows (t, left, right), or a mapping t -> (left, right)."""
    return rows[:, :3] if isinstance(rows, np.ndarray) else {t: (l, r) for t, l, r, _ in rows}


# Rows that a conversion to int64 would truncate, wrap or parse.  The float
# and str rows name valid bicliques, rectangles, compressed edges, graph
# edges, model pairs and (the "id" rows) a model's tree once truncated or
# parsed; the message match tells the integer check from the range checks
# for the rest.
NON_INTEGER_ROWS = {
    "float": [(1.0, 1.9, 3.7, 4)],
    "integral float": [(1.0, 2.0, 3.0, 4.0)],
    "float array": np.array([[1.9, 4.2, 5.5, 8.0], [2, 3, 6, 7]]),
    "str": [("1", "2", "3", "4")],
    "float id": [(1.7, 2, 1, 3)],
    "integral float id": [(3.0, 1, 2, 4)],
    "str id": [(3, "1", 2, 4)],
    "beyond int64": [(2 ** 63, 1, 2, 3)],
    "far beyond int64": [(99999999999999999999, 1, 2, 3)],
    "uint64 beyond int64": np.array([[2 ** 64 - 3, 1, 2, 3]], dtype=np.uint64),
}

# name -> (row width, a reader of the rows); the LinearOrder readers take the
# first row as the sequence
ROW_READERS = {
    "IntervalBicliquePartition": (4, lambda rows: IntervalBicliquePartition(
        LinearOrder.identity(9), rows)),
    "DagCompression edges": (2, lambda rows: DagCompression(2, 9, first(rows, 2), [])),
    "DagCompression compressed": (2, lambda rows: DagCompression(2, 9, [], first(rows, 2))),
    "inclusion_forest": (4, inclusion_forest),
    "complement_partition holes": (4, lambda rows: complement_partition((1, 9, 1, 9), rows)),
    "complement_partition outer": (4, lambda rows: complement_partition(rows[0], [])),
    "Graph": (2, lambda rows: Graph(9, first(rows, 2))),
    "SignedTreeModel tree": (3, lambda rows: SignedTreeModel(2, tree_of(rows))),
    "SignedTreeModel pairs": (2, lambda rows: SignedTreeModel(2, {3: (1, 2)}, [],
                                                              first(rows, 2))),
    "DistanceModel": (3, lambda rows: DistanceModel(9, 9, first(rows, 3))),
    "LinearOrder": (1, lambda rows: LinearOrder(rows[0])),
    "LinearOrder.from_vertex_sequence": (1, lambda rows: LinearOrder.from_vertex_sequence(
        rows[0])),
}


class TestIntegerRows:
    @pytest.mark.parametrize("rows", NON_INTEGER_ROWS.values(), ids=NON_INTEGER_ROWS)
    @pytest.mark.parametrize("width, read", ROW_READERS.values(), ids=ROW_READERS)
    def test_non_integer_rows_rejected(self, width, read, rows):
        with pytest.raises(InputError, match=f"expected rows of {width} integers, got "):
            read(rows)

    def test_rows_valid_as_integers(self):
        with pytest.raises(ValueError, match="expected rows of 2 integers"):
            DagCompression(2, 3, [(3, 1.5), (3, 2)], [])
        DagCompression(2, 3, [(3, 1), (3, 2)], [])
        DagCompression(2, 9, [], [(1, 1), (1, 2), (1, 4), (2, 3)])
        IntervalBicliquePartition(LinearOrder.identity(9), [(1, 1, 3, 4), (1, 2, 3, 4)])
        inclusion_forest(np.array([[1, 4, 5, 8], [2, 3, 6, 7]]))
        complement_partition((1, 9, 1, 9), [(1, 1, 3, 4)])
        # an object array of Python ints, as parse_stm hands over when another
        # field of its block is beyond int64, reads when every value fits;
        # so do uint and bool arrays
        for dtype in (object, np.uint64):
            assert Graph(3, np.array([[1, 3]], dtype)).edge_rows.tolist() == [[1, 3]]
            assert SignedTreeModel(2, np.array([[3, 1, 2]], dtype), [],
                                   np.array([[1, 2]], dtype)).pairs.tolist() == [[1, 2]]
            assert DistanceModel(3, 3, np.array([[1, 3, 1]], dtype)).one[1].tolist() == [3]
            assert LinearOrder(np.array([2, 1], dtype)).vertex_at.tolist() == [2, 1]
        assert DistanceModel(1, 1, np.ones((1, 3), bool)).one[1].tolist() == [1]

    def test_stored_rows_are_their_own(self):
        rows = np.array([[1, 1, 2, 3], [3, 2, 1, 1]])
        stored = (IntervalBicliquePartition(LinearOrder.identity(3), rows[:1]).quads,
                  DagCompression(2, 3, rows[1:, :2], rows[:1, :2]).edge_rows,
                  inclusion_forest(rows[:1]).keys)
        rows[:] = 0
        assert [a.tolist() for a in stored] == [[[1, 1, 2, 3]], [[3, 2]], [[1, 1, 2, 3]]]
        assert rows.flags.writeable and not any(a.flags.writeable for a in stored)

    def test_no_rows_accepted(self):
        for rows in ([], np.zeros((0, 4), dtype=np.int64)):
            assert IntervalBicliquePartition(LinearOrder.identity(9), rows).quads.shape == (0, 4)
            assert DagCompression(2, 2, first(rows, 2), first(rows, 2)).size == 2
            assert inclusion_forest(rows).keys.shape == (0, 4)
            assert complement_partition((1, 9, 1, 9), rows).tolist() == [[1, 9, 1, 9]]


class TestCoverSet:
    def test_full(self):
        root = next(t for t, iv in node_intervals(8).items() if iv == (1, 8))
        assert cover_set(8, 1, 8) == [root]

    def test_single_leaf(self):
        assert cover_set(8, 3, 3) == [3]

    def test_n8_2_7(self):
        interval = node_intervals(8)
        leafsets = []
        for t in cover_set(8, 2, 7):
            lo, hi = interval[t]
            leafsets.append(set(range(lo, hi + 1)))
        assert leafsets == [{2}, {3, 4}, {5, 6}, {7}]

    def test_size_bound_and_partition(self):
        for n in (2, 5, 8, 13, 32, 50):
            interval = node_intervals(n)
            log = max(1, math.ceil(math.log2(n)))
            for a in range(1, n + 1):
                for b in range(a, n + 1):
                    S = cover_set(n, a, b)
                    assert len(S) <= 2 * log
                    seen = []
                    for t in S:
                        lo, hi = interval[t]
                        seen.extend(range(lo, hi + 1))
                    assert seen == list(range(a, b + 1))

    def test_one_interval_holds_no_n_positions(self):
        # the node over [1, 2] is internal, on the left spine: id n + 1
        S, peak = traced_peak(lambda: cover_set(2 ** 24, 1, 3))
        assert S == [2 ** 24 + 1, 3] and peak < 10 ** 6, peak

    def test_out_of_range(self):
        for n, a, b in ((8, 0, 3), (8, 4, 3), (8, 5, 9), (0, 1, 1)):
            with pytest.raises(InputError):
                cover_set(n, a, b)


class TestBalancedTreeOracle:
    """The arithmetic tree against the recursive, dict-backed one."""

    def test_cover_sets_and_intervals(self):
        for n in range(1, 65):
            tree = BalancedTree(n)
            assert node_intervals(n) == tree.interval, n
            for a in range(1, n + 1):
                for b in range(a, n + 1):
                    assert cover_set(n, a, b) == tree.cover_set(a, b), (n, a, b)

    @pytest.mark.parametrize("n, dtype", [(2 ** 20 + 5, np.int32), (2 ** 31 + 5, np.int64)])
    def test_covers_at_large_n(self, n, dtype):
        """``_covers`` on every interval inside the left spine's node over
        [1, h], four times over: no right turn leads there, so an internal
        node's id is its id in the tree over [1, h] plus n - h; ``at``
        stops at h.  At n = 2^20 + 5 the descent runs on int32 while the
        sort key owner * (n + 1) + lo passes 2^31; from n = 2^31 on it runs
        on int64."""
        h = n
        while h > 40:
            h = (h + 1) // 2  # the left child of the node over [1, h]
        tree = BalancedTree(h)
        rows = [(a, b) for a in range(1, h + 1) for b in range(a, h + 1)] * 4
        owner, ids = _covers(n, np.array(rows), np.arange(h + 1))
        assert ids.dtype == dtype
        assert len(rows) * (n + 1) > 2 ** 31
        assert list(zip(owner.tolist(), ids.tolist())) == [
            (q, t if t <= h else t + n - h)
            for q, (a, b) in enumerate(rows) for t in tree.cover_set(a, b)]

    def test_skeleton_children(self):
        for n in range(1, 65):
            order = LinearOrder(random.Random(n).sample(range(1, n + 1), n))
            tree = BalancedTree(n, leaf_id=order.at)
            assert list(tree.children) == list(range(n + 1, 2 * n)), n
            at = np.concatenate(([0], order.vertex_at))
            assert list(map(tuple, _skeleton(n, at).tolist())) == list(tree.children.values()), n

    def test_dag_and_positive_model_byte_identical(self):
        # with the model of the benchmark's growth build
        for model in chain(seed_family_models(), [random_stm_sparse(4096, 16384, seed=0)]):
            ibp = stm_to_ibp(model)
            assert (fio.format_dag(ibp_to_dag(ibp))
                    == fio.format_dag(ibp_to_dag_oracle(ibp))), model.n
            assert (fio.format_stm(ibp_to_positive_model(ibp))
                    == fio.format_stm(ibp_to_positive_model_oracle(ibp))), model.n


class TestIbpToDag:
    def test_single_edge(self):
        ibp = IntervalBicliquePartition(LinearOrder.identity(2), [(1, 1, 2, 2)])
        dag = ibp_to_dag(ibp)
        assert dag.n == 2 and len(dag.compressed) == 1
        assert graphs_equal(dag_to_graph(dag), Graph(2, [(1, 2)]))

    def test_p3(self, p3_model):
        dag = ibp_to_dag(stm_to_ibp(p3_model))
        assert sorted(dag_to_graph(dag).edges()) == [(1, 2), (2, 3)]

    def test_tuple_views_hash(self):
        # the benchmark fingerprints each build by hashing these tuples
        ibp = stm_to_ibp(random_stm_sparse(256, 1024, seed=0))
        dag = ibp_to_dag(ibp)
        hash((ibp.bicliques, dag.num_nodes, dag.edges, dag.compressed))
        assert ibp.bicliques == tuple(map(tuple, ibp.quads.tolist()))
        assert dag.edges == tuple(map(tuple, dag.edge_rows.tolist()))
        assert dag.compressed == tuple(map(tuple, dag.compressed_rows.tolist()))
        assert {type(v) for rows in (ibp.bicliques, dag.edges, dag.compressed)
                for row in rows for v in row} == {int}
        assert not (dag.edge_rows.flags.writeable or dag.compressed_rows.flags.writeable)

    def test_random(self):
        for seed in range(150):
            model = random_stm(20, 40, seed=seed)
            ibp = stm_to_ibp(model)
            dag = ibp_to_dag(ibp)
            assert graphs_equal(dag_to_graph(dag), decode_bruteforce(model)), seed

    def test_peak_memory(self):
        """Within 2.5 times the DAG's rows: the descent runs on int32, and
        the edge rows are written once, into the array the DAG copies."""
        ibp = stm_to_ibp(random_stm_sparse(4096, 16384, seed=0))
        dag, peak = traced_peak(lambda: ibp_to_dag(ibp))
        held = dag.edge_rows.nbytes + dag.compressed_rows.nbytes
        assert peak <= 2.5 * held, peak / held

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
            new_edges = len(dag.edge_rows) - skeleton
            assert new_edges <= (4 * log) * max(1, len(ibp.quads)), seed


class TestDagCompression:
    @settings(max_examples=300, deadline=None)
    @given(compressions())
    def test_dag_to_graph_matches_oracle(self, dc):
        assert graphs_equal(dag_to_graph(dc), dag_to_graph_oracle(dc))

    def test_dag_to_graph_matches_oracle_on_seed_family(self):
        for model in seed_family_models():
            if model.n > 1024:
                continue  # ~n^2/8 decoded edges: 133 k at n = 1024
            dc = ibp_to_dag(stm_to_ibp(model))
            assert graphs_equal(dag_to_graph(dc), dag_to_graph_oracle(dc)), model.n

    @pytest.mark.parametrize("case", sorted(BAD_DAGS))
    def test_rejects_and_names_the_edge(self, case):
        n, num_nodes, edges, compressed, named = BAD_DAGS[case]
        with pytest.raises(InputError) as e:
            DagCompression(n, num_nodes, edges, compressed)
        assert named in str(e.value)


class TestIbpToPositiveModel:
    def test_single_root_biclique(self):
        ibp = IntervalBicliquePartition(LinearOrder.identity(4), [(1, 2, 3, 4)])
        ptm = ibp_to_positive_model(ibp)
        assert not ptm.pairs_a and len(ptm.pairs_b) == 1

    def test_pair_count_matches_cover_sizes(self):
        ibp = IntervalBicliquePartition(LinearOrder.identity(8), [(2, 4, 5, 7)])
        ptm = ibp_to_positive_model(ibp)
        si = cover_set(8, 2, 4)
        sj = cover_set(8, 5, 7)
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
        sizes = (63, 64, 65, 127, 128, 129)  # bit rows of one, two and three words
        for seed in range(100 + len(sizes)):
            rng = random.Random(seed)
            n = rng.randint(2, 32) if seed < 100 else sizes[seed - 100]
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

    @pytest.mark.parametrize("ops, message", [
        ((("R+", 9, 1),), "step 1: part 9 is not alive"),
        ((("M", 1, 1),), "step 1: cannot merge a part with itself"),
        ((("M", 1, 2), ("R+", 1, 3)), "step 2: part 1 is not alive"),
        ((("R", 1, 2),), "step 1: unknown op kind 'R'"),
    ])
    def test_invalid_same_message(self, ops, message):
        seq = ConstructionSequence(3, ops)
        for fn in (cseq_shorten, cseq_to_stm, cseq_replay, radius_r_width):
            with pytest.raises(SequenceError, match=f"^{re.escape(message)}$"):
                fn(seq)

    def test_random_replay_equality(self):
        for seed in range(150):
            rng = random.Random(seed)
            n = rng.randint(2, 32)
            full = random_cseq(n, rng.randint(0, 3 * n), seed=seed)
            # a prefix leaves parts alive for the completion to merge
            for seq in (full, ConstructionSequence(n, full.ops[:rng.randint(0, len(full.ops))])):
                g = cseq_replay(seq)
                model = cseq_to_stm(seq)
                assert graphs_equal(decode_bruteforce(model), g), seed
                assert model.num_pairs <= seq.num_resolves + n, seed

    def test_shorten_preserves_graph(self):
        for seed in range(100):
            rng = random.Random(seed)
            n = rng.randint(2, 24)
            full = random_cseq(n, rng.randint(0, 4 * n), seed=seed)
            for seq in (full, ConstructionSequence(n, full.ops[:rng.randint(0, len(full.ops))])):
                short = cseq_shorten(seq)
                assert graphs_equal(cseq_replay(short), cseq_replay(seq)), seed

    def test_shorten_drops_duplicates(self):
        seq = ConstructionSequence(2, (("R+", 1, 2), ("R+", 1, 2), ("M", 1, 2)))
        short = cseq_shorten(seq)
        assert sum(1 for k, _, _ in short.ops if k != "M") == 1

    def test_replay_repeated_resolve_peak_memory(self):
        """A resolve repeated on the same part pair decides nothing, so the
        replay keeps one set of pair rows for it: two halves of n = 512
        resolved across 20 times (the rows of every repeat peaked at 110 MB)."""
        n, h = 512, 256
        ops, made, halves = [], n, []
        for first in (1, h + 1):  # merge vertices first .. first + h - 1 into one part
            part = first
            for v in range(first + 1, first + h):
                ops.append(("M", part, v))
                made += 1
                part = made
            halves.append(part)
        seq = ConstructionSequence(n, tuple(ops) + (("R+", *halves),) * 20)
        g, peak = traced_peak(lambda: cseq_replay(seq))
        assert g.m == h * h
        assert peak <= 16 * 2 ** 20, peak / 2 ** 20

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
