import random
import time
from bisect import insort

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stmgraph import (InputError, LaminarityError, Rect, complement_partition,
                      inclusion_forest)
from stmgraph.rect import _SortedList

from conftest import properly_overlap


def brute_forest_parents(rects):
    """O(m^2) containment oracle: parent = smallest strictly-containing rect."""
    parents = []
    for i, r in enumerate(rects):
        best = None
        for j, s in enumerate(rects):
            if j != i and s.contains(r) and s.key() != r.key():
                if best is None or s.area < rects[best].area:
                    best = j
        parents.append(best)
    return parents


def complement_partition_oracle(outer, holes):
    """The slab sweep that ``complement_partition`` replaced (oracle): at
    every hole boundary it refilters all active holes and rebuilds every
    free y-interval, closing the pieces of the intervals that changed in
    the order they were opened."""
    events = {outer.x1}
    for h in holes:
        events.add(h.x1)
        if h.x2 + 1 <= outer.x2:
            events.add(h.x2 + 1)
    out = []
    open_at = {}  # free y-interval -> slab start x
    active = []  # (y1, y2, x2), sorted
    starts = sorted(holes, key=lambda h: h.x1)
    si = 0
    for x in sorted(events):
        active = [a for a in active if a[2] >= x]
        while si < len(starts) and starts[si].x1 == x:
            insort(active, (starts[si].y1, starts[si].y2, starts[si].x2))
            si += 1
        free, cur = [], outer.y1
        for y1, y2, _ in active:
            if y1 > cur:
                free.append((cur, y1 - 1))
            cur = max(cur, y2 + 1)
        if cur <= outer.y2:
            free.append((cur, outer.y2))
        for iv in [iv for iv in open_at if iv not in set(free)]:
            out.append(Rect(open_at.pop(iv), x - 1, iv[0], iv[1]))
        for iv in free:
            open_at.setdefault(iv, x)
    out.extend(Rect(start, outer.x2, iv[0], iv[1]) for iv, start in open_at.items())
    return out


def disjoint_holes(rng, outer, count, size):
    holes = []
    for _ in range(4 * count):
        if len(holes) == count:
            break
        x1 = rng.randint(outer.x1, outer.x2)
        y1 = rng.randint(outer.y1, outer.y2)
        h = Rect(x1, rng.randint(x1, min(x1 + size, outer.x2)),
                 y1, rng.randint(y1, min(y1 + size, outer.y2)))
        if all(h.disjoint(o) for o in holes):
            holes.append(h)
    return holes


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of at most two items, so that small inputs split and empty
    blocks as large ones do."""
    monkeypatch.setattr(_SortedList, "LOAD", 1)


def random_laminar(rng, grid=64, target=60):
    """Rejection-sampled laminar family on [1,grid]^2."""
    out = []
    tries = 30 * target
    while len(out) < target and tries > 0:
        tries -= 1
        x1 = rng.randint(1, grid)
        y1 = rng.randint(1, grid)
        r = Rect(x1, rng.randint(x1, grid), y1, rng.randint(y1, grid))
        ok = not any(properly_overlap(r, s) for s in out)
        if ok and all(r.key() != s.key() for s in out):
            out.append(r)
    return out


@st.composite
def tiny_rects(draw, grid=8):
    x1 = draw(st.integers(1, grid))
    y1 = draw(st.integers(1, grid))
    return Rect(x1, draw(st.integers(x1, grid)), y1, draw(st.integers(y1, grid)))


class TestRect:
    def test_degenerate_rejected(self):
        with pytest.raises(InputError):
            Rect(2, 1, 1, 1)

    def test_area_and_containment(self):
        r = Rect(1, 4, 5, 8)
        assert r.area == 16
        assert r.contains(Rect(2, 3, 6, 7))
        assert r.disjoint(Rect(5, 6, 5, 8))


class TestSortedList:
    @pytest.mark.parametrize("load", [1, 2, 512])
    def test_matches_sorted_list(self, monkeypatch, load):
        monkeypatch.setattr(_SortedList, "LOAD", load)
        rng = random.Random(load)
        got, want = _SortedList(), []
        for _ in range(3000):
            if want and rng.random() < 0.45:
                item = want.pop(rng.randrange(len(want)))
                got.remove(item)
            else:
                item = rng.randrange(200)
                got.add(item)
                insort(want, item)
            key = rng.randrange(-5, 205)
            below = [v for v in want if v < key]
            above = [v for v in want if v >= key]
            assert got.neighbours(key) == (below[-1] if below else None,
                                           above[0] if above else None)
        assert [v for block in got._blocks for v in block] == want
        assert all(0 < len(block) <= 2 * load for block in got._blocks)


class TestInclusionForest:
    def test_two_children(self):
        rects = [Rect(1, 10, 11, 20), Rect(2, 3, 12, 13), Rect(5, 6, 15, 16)]
        f = inclusion_forest(rects)
        assert f.parent == [None, 0, 0]
        assert f.roots == [0]

    def test_single(self):
        f = inclusion_forest([Rect(1, 2, 3, 4)])
        assert f.parent == [None] and f.roots == [0]

    def test_duplicate_rejected(self):
        with pytest.raises(LaminarityError):
            inclusion_forest([Rect(1, 2, 3, 4), Rect(1, 2, 3, 4)])

    def test_non_laminar_detected(self):
        # [1,6]^2 contains both overlapping squares, so their overlap shows
        # only between siblings
        rects = [Rect(1, 4, 1, 4), Rect(3, 6, 3, 6), Rect(1, 6, 1, 6)]
        with pytest.raises(LaminarityError) as info:
            inclusion_forest(rects)
        assert sorted(info.value.indices) == [0, 1]

    def test_laminar_forest_matches_quadratic_check(self):
        for seed in range(300):
            rng = random.Random(seed)
            rects = random_laminar(rng, grid=24, target=rng.randint(1, 30))
            # one random extra rectangle makes about half the families non-laminar
            x1, y1 = rng.randint(1, 24), rng.randint(1, 24)
            extra = Rect(x1, rng.randint(x1, 24), y1, rng.randint(y1, 24))
            if all(extra.key() != r.key() for r in rects):
                rects.insert(rng.randrange(len(rects) + 1), extra)
            bad = any(properly_overlap(a, b)
                      for i, a in enumerate(rects) for b in rects[i + 1:])
            try:
                f = inclusion_forest(rects)
            except LaminarityError as e:
                i, j = e.indices
                assert bad and properly_overlap(rects[i], rects[j]), seed
            else:
                assert not bad, seed
                assert f.parent == brute_forest_parents(rects), seed

    def test_small_blocks_match_bruteforce(self, small_blocks):
        for seed in range(50):
            rng = random.Random(seed)
            rects = random_laminar(rng, grid=40, target=50)
            assert inclusion_forest(rects).parent == brute_forest_parents(rects), seed

    def test_key_array_matches_rects(self):
        rects = random_laminar(random.Random(7), grid=40, target=50)
        f = inclusion_forest(np.array([r.key() for r in rects]))
        assert f.parent == inclusion_forest(rects).parent == brute_forest_parents(rects)
        assert f.keys.tolist() == [list(r.key()) for r in rects]
        assert f.roots == [i for i, p in enumerate(f.parent) if p is None]
        assert f.children == [[j for j, p in enumerate(f.parent) if p == i]
                              for i in range(len(rects))]

    def test_degenerate_key_rejected(self):
        with pytest.raises(InputError, match=r"degenerate rectangle \(1, 2, 4, 3\)"):
            inclusion_forest(np.array([[1, 9, 1, 9], [1, 2, 4, 3]]))

    def test_matches_bruteforce(self):
        for seed in range(50):
            rng = random.Random(seed)
            rects = random_laminar(rng, grid=40, target=50)
            f = inclusion_forest(rects)
            assert f.parent == brute_forest_parents(rects), seed

    @settings(max_examples=1000, deadline=None)
    @given(st.lists(tiny_rects(), max_size=10))
    def test_tiny_grid_matches_quadratic_check(self, rects):
        # an 8x8 grid forces shared edges, duplicates, equal y ranges with
        # nested x ranges and rectangles that end next to one another
        bad = [(i, j) for i, a in enumerate(rects) for j, b in enumerate(rects)
               if i < j and (a.key() == b.key() or properly_overlap(a, b))]
        try:
            f = inclusion_forest(rects)
        except LaminarityError as e:
            assert tuple(sorted(e.indices)) in bad
        else:
            assert not bad
            assert f.parent == brute_forest_parents(rects)


class TestComplementPartition:
    def test_spec_example(self):
        outer = Rect(1, 4, 5, 8)
        holes = [Rect(2, 3, 6, 7)]
        out = complement_partition(outer, holes)
        assert len(out) == 4
        assert sum(r.area for r in out) == 12
        for i, a in enumerate(out):
            assert a.disjoint(holes[0])
            for b in out[i + 1:]:
                assert a.disjoint(b)

    def test_no_holes(self):
        outer = Rect(1, 5, 1, 5)
        out = complement_partition(outer, [])
        assert len(out) == 1 and out[0].key() == outer.key()

    def test_hole_escapes(self):
        with pytest.raises(InputError):
            complement_partition(Rect(1, 4, 1, 4), [Rect(2, 5, 2, 3)])

    def test_degenerate_keys(self):
        for outer, holes in (((1, 4, 4, 1), np.zeros((0, 4))), ((1, 4, 1, 4), [[3, 2, 2, 2]])):
            with pytest.raises(InputError, match="degenerate rectangle"):
                complement_partition(outer, np.array(holes))

    def test_overlapping_holes(self):
        with pytest.raises(InputError):
            complement_partition(Rect(1, 9, 1, 9),
                                 [Rect(2, 5, 2, 5), Rect(4, 7, 4, 7)])

    @pytest.mark.parametrize("other", [Rect(3, 6, 5, 8), Rect(3, 6, 1, 2), Rect(5, 8, 5, 5),
                                       Rect(2, 2, 2, 2), Rect(1, 2, 5, 9)])
    def test_holes_sharing_one_cell(self, other):
        with pytest.raises(InputError, match="holes overlap"):
            complement_partition(Rect(1, 9, 1, 9), [Rect(2, 5, 2, 5), other])

    def test_holes_touching(self):
        holes = [Rect(2, 5, 2, 5), Rect(3, 6, 6, 8), Rect(6, 8, 1, 3), Rect(2, 2, 1, 1)]
        out = complement_partition(Rect(1, 9, 1, 9), holes)
        assert [r.key() for r in out] == [r.key() for r in
                                          complement_partition_oracle(Rect(1, 9, 1, 9), holes)]
        self._grid_check(Rect(1, 9, 1, 9), holes, out)

    def _grid_check(self, outer, holes, out):
        cover = np.zeros((outer.x2 + 2, outer.y2 + 2), dtype=np.int32)
        for r in holes + out:
            cover[r.x1:r.x2 + 1, r.y1:r.y2 + 1] += 1
        inner = cover[outer.x1:outer.x2 + 1, outer.y1:outer.y2 + 1]
        assert (inner == 1).all()
        cover[outer.x1:outer.x2 + 1, outer.y1:outer.y2 + 1] = 0
        assert (cover == 0).all()

    def test_random_exhaustive(self):
        for seed in range(60):
            rng = random.Random(seed)
            outer = Rect(1, rng.randint(10, 64), 1, rng.randint(10, 64))
            holes = []
            tries = 200
            while len(holes) < 50 and tries:
                tries -= 1
                x1 = rng.randint(outer.x1, outer.x2)
                y1 = rng.randint(outer.y1, outer.y2)
                h = Rect(x1, rng.randint(x1, min(x1 + 8, outer.x2)),
                         y1, rng.randint(y1, min(y1 + 8, outer.y2)))
                if all(h.disjoint(o) for o in holes):
                    holes.append(h)
            out = complement_partition(outer, holes)
            assert len(out) <= 3 * len(holes) + 1, seed
            self._grid_check(outer, holes, out)

    def test_matches_slab_oracle(self, small_blocks):
        # dense small holes on small grids: holes that end where others
        # start on the same rows, and shared edges
        for seed in range(400):
            rng = random.Random(seed)
            outer = Rect(rng.randint(1, 3), rng.randint(4, 24), rng.randint(1, 3),
                         rng.randint(4, 24))
            holes = disjoint_holes(rng, outer, rng.randint(0, 40), rng.choice((0, 1, 3, 8)))
            want = [r.key() for r in complement_partition_oracle(outer, holes)]
            assert [r.key() for r in complement_partition(outer, holes)] == want, seed
            keys = complement_partition(outer.key(), np.array([h.key() for h in holes]))
            assert keys.dtype == np.int64 and list(map(tuple, keys.tolist())) == want, seed

    def test_staircase_scaling(self):
        # h one-row holes, each h columns wide and starting one column after
        # the last: about h/2 holes are active at each of 2h events, so a
        # sweep that revisits every active hole per event is quadratic
        h = 1 << 14
        holes = np.array([(i, i + h - 1, 2 * i, 2 * i) for i in range(1, h + 1)])
        outer = (1, 2 * h, 1, 2 * h + 1)
        start = time.perf_counter()
        out = complement_partition(outer, holes)
        assert time.perf_counter() - start < 5
        assert len(out) <= 3 * h + 1
        area = lambda k: (k[:, 1] - k[:, 0] + 1) * (k[:, 3] - k[:, 2] + 1)
        assert area(out).sum() + area(holes).sum() == (2 * h) * (2 * h + 1)
