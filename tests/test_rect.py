import random
import time
from bisect import insort

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stmgraph import InputError, LaminarityError, complement_partition, inclusion_forest
from stmgraph.rect import _SortedList

from conftest import area, contains, disjoint, properly_overlap


def brute_forest_parents(rects):
    """O(m^2) containment oracle: the index of the smallest strictly
    containing key row, -1 for a root."""
    parents = []
    for i, r in enumerate(rects):
        best = -1
        for j, s in enumerate(rects):
            if j != i and contains(s, r) and s != r:
                if best < 0 or area(s) < area(rects[best]):
                    best = j
        parents.append(best)
    return parents


def complement_partition_oracle(outer, holes):
    """The slab sweep that ``complement_partition`` replaced (oracle): at
    every hole boundary it refilters all active holes and rebuilds every
    free y-interval, closing the pieces of the intervals that changed in
    the order they were opened.  Key rows in, key rows out."""
    ox1, ox2, oy1, oy2 = outer
    events = {ox1}
    for x1, x2, _, _ in holes:
        events.add(x1)
        if x2 + 1 <= ox2:
            events.add(x2 + 1)
    out = []
    open_at = {}  # free y-interval -> slab start x
    active = []  # (y1, y2, x2), sorted
    starts = sorted(holes, key=lambda h: h[0])
    si = 0
    for x in sorted(events):
        active = [a for a in active if a[2] >= x]
        while si < len(starts) and starts[si][0] == x:
            x1, x2, y1, y2 = starts[si]
            insort(active, (y1, y2, x2))
            si += 1
        free, cur = [], oy1
        for y1, y2, _ in active:
            if y1 > cur:
                free.append((cur, y1 - 1))
            cur = max(cur, y2 + 1)
        if cur <= oy2:
            free.append((cur, oy2))
        for iv in [iv for iv in open_at if iv not in set(free)]:
            out.append((open_at.pop(iv), x - 1, iv[0], iv[1]))
        for iv in free:
            open_at.setdefault(iv, x)
    out.extend((start, ox2, iv[0], iv[1]) for iv, start in open_at.items())
    return out


def disjoint_holes(rng, outer, count, size):
    ox1, ox2, oy1, oy2 = outer
    holes = []
    for _ in range(4 * count):
        if len(holes) == count:
            break
        x1 = rng.randint(ox1, ox2)
        y1 = rng.randint(oy1, oy2)
        h = (x1, rng.randint(x1, min(x1 + size, ox2)), y1, rng.randint(y1, min(y1 + size, oy2)))
        if all(disjoint(h, o) for o in holes):
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
        r = (x1, rng.randint(x1, grid), y1, rng.randint(y1, grid))
        ok = not any(properly_overlap(r, s) for s in out)
        if ok and r not in out:
            out.append(r)
    return out


@st.composite
def tiny_rects(draw, grid=8):
    x1 = draw(st.integers(1, grid))
    y1 = draw(st.integers(1, grid))
    return (x1, draw(st.integers(x1, grid)), y1, draw(st.integers(y1, grid)))


class TestKeyRows:
    def test_degenerate_rejected(self):
        with pytest.raises(InputError, match=r"degenerate rectangle \(2, 1, 1, 1\)"):
            inclusion_forest([(1, 9, 1, 9), (2, 1, 1, 1)])
        with pytest.raises(InputError, match=r"degenerate rectangle \(2, 1, 1, 1\)"):
            complement_partition((2, 1, 1, 1), [])

    @pytest.mark.parametrize("outer", [(1, 4, 5, 8), [1, 4, 5, 8], np.array([1, 4, 5, 8])])
    def test_pieces_are_key_rows(self, outer):
        for holes in ([], [(2, 3, 6, 7)], np.array([[2, 3, 6, 7]], dtype=np.int32)):
            out = complement_partition(outer, holes)
            assert isinstance(out, np.ndarray) and out.dtype == np.int64, (outer, holes)
            assert out.shape == (1 if len(holes) == 0 else 4, 4), (outer, holes)


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
        rects = [(1, 10, 11, 20), (2, 3, 12, 13), (5, 6, 15, 16)]
        f = inclusion_forest(rects)
        assert f.up.tolist() == [-1, 0, 0]

    def test_single(self):
        f = inclusion_forest([(1, 2, 3, 4)])
        assert f.up.tolist() == [-1]

    def test_duplicate_rejected(self):
        with pytest.raises(LaminarityError):
            inclusion_forest([(1, 2, 3, 4), (1, 2, 3, 4)])

    def test_non_laminar_detected(self):
        # [1,6]^2 contains both overlapping squares, so their overlap shows
        # only between siblings
        rects = [(1, 4, 1, 4), (3, 6, 3, 6), (1, 6, 1, 6)]
        with pytest.raises(LaminarityError) as info:
            inclusion_forest(rects)
        assert sorted(info.value.indices) == [0, 1]

    def test_laminar_forest_matches_quadratic_check(self):
        for seed in range(300):
            rng = random.Random(seed)
            rects = random_laminar(rng, grid=24, target=rng.randint(1, 30))
            # one random extra rectangle makes about half the families non-laminar
            x1, y1 = rng.randint(1, 24), rng.randint(1, 24)
            extra = (x1, rng.randint(x1, 24), y1, rng.randint(y1, 24))
            if extra not in rects:
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
                assert f.up.tolist() == brute_forest_parents(rects), seed

    def test_small_blocks_match_bruteforce(self, small_blocks):
        for seed in range(50):
            rng = random.Random(seed)
            rects = random_laminar(rng, grid=40, target=50)
            assert inclusion_forest(rects).up.tolist() == brute_forest_parents(rects), seed

    def test_key_array_matches_rects(self):
        rects = random_laminar(random.Random(7), grid=40, target=50)
        f = inclusion_forest(np.array(rects))
        up = f.up.tolist()
        assert up == inclusion_forest(rects).up.tolist() == brute_forest_parents(rects)
        assert f.keys.dtype == np.int64 and f.keys.tolist() == list(map(list, rects))

    def test_degenerate_key_rejected(self):
        with pytest.raises(InputError, match=r"degenerate rectangle \(1, 2, 4, 3\)"):
            inclusion_forest(np.array([[1, 9, 1, 9], [1, 2, 4, 3]]))

    def test_matches_bruteforce(self):
        for seed in range(50):
            rng = random.Random(seed)
            rects = random_laminar(rng, grid=40, target=50)
            f = inclusion_forest(rects)
            assert f.up.tolist() == brute_forest_parents(rects), seed

    @settings(max_examples=1000, deadline=None)
    @given(st.lists(tiny_rects(), max_size=10))
    def test_tiny_grid_matches_quadratic_check(self, rects):
        # an 8x8 grid forces shared edges, duplicates, equal y ranges with
        # nested x ranges and rectangles that end next to one another
        bad = [(i, j) for i, a in enumerate(rects) for j, b in enumerate(rects)
               if i < j and (a == b or properly_overlap(a, b))]
        try:
            f = inclusion_forest(rects)
        except LaminarityError as e:
            assert tuple(sorted(e.indices)) in bad
        else:
            assert not bad
            assert f.up.tolist() == brute_forest_parents(rects)


class TestComplementPartition:
    def test_spec_example(self):
        outer = (1, 4, 5, 8)
        holes = [(2, 3, 6, 7)]
        out = complement_partition(outer, holes).tolist()
        assert len(out) == 4
        assert sum(area(r) for r in out) == 12
        for i, a in enumerate(out):
            assert disjoint(a, holes[0])
            for b in out[i + 1:]:
                assert disjoint(a, b)

    def test_no_holes(self):
        outer = (1, 5, 1, 5)
        out = complement_partition(outer, [])
        assert out.tolist() == [list(outer)]

    def test_hole_escapes(self):
        with pytest.raises(InputError):
            complement_partition((1, 4, 1, 4), [(2, 5, 2, 3)])

    def test_degenerate_keys(self):
        for outer, holes in (((1, 4, 4, 1), np.zeros((0, 4))), ((1, 4, 1, 4), [[3, 2, 2, 2]])):
            with pytest.raises(InputError, match="degenerate rectangle"):
                complement_partition(outer, np.array(holes))

    def test_overlapping_holes(self):
        with pytest.raises(InputError):
            complement_partition((1, 9, 1, 9), [(2, 5, 2, 5), (4, 7, 4, 7)])

    @pytest.mark.parametrize("other", [(3, 6, 5, 8), (3, 6, 1, 2), (5, 8, 5, 5),
                                       (2, 2, 2, 2), (1, 2, 5, 9)])
    def test_holes_sharing_one_cell(self, other):
        with pytest.raises(InputError, match="holes overlap"):
            complement_partition((1, 9, 1, 9), [(2, 5, 2, 5), other])

    def test_holes_touching(self):
        holes = [(2, 5, 2, 5), (3, 6, 6, 8), (6, 8, 1, 3), (2, 2, 1, 1)]
        out = complement_partition((1, 9, 1, 9), holes)
        assert list(map(tuple, out.tolist())) == complement_partition_oracle((1, 9, 1, 9), holes)
        self._grid_check((1, 9, 1, 9), holes, out)

    def _grid_check(self, outer, holes, out):
        ox1, ox2, oy1, oy2 = outer
        cover = np.zeros((ox2 + 2, oy2 + 2), dtype=np.int32)
        for x1, x2, y1, y2 in holes + out.tolist():
            cover[x1:x2 + 1, y1:y2 + 1] += 1
        inner = cover[ox1:ox2 + 1, oy1:oy2 + 1]
        assert (inner == 1).all()
        cover[ox1:ox2 + 1, oy1:oy2 + 1] = 0
        assert (cover == 0).all()

    def test_random_exhaustive(self):
        for seed in range(60):
            rng = random.Random(seed)
            outer = (1, rng.randint(10, 64), 1, rng.randint(10, 64))
            holes = []
            tries = 200
            while len(holes) < 50 and tries:
                tries -= 1
                x1 = rng.randint(1, outer[1])
                y1 = rng.randint(1, outer[3])
                h = (x1, rng.randint(x1, min(x1 + 8, outer[1])),
                     y1, rng.randint(y1, min(y1 + 8, outer[3])))
                if all(disjoint(h, o) for o in holes):
                    holes.append(h)
            out = complement_partition(outer, holes)
            assert len(out) <= 3 * len(holes) + 1, seed
            self._grid_check(outer, holes, out)

    def test_matches_slab_oracle(self, small_blocks):
        # dense small holes on small grids: holes that end where others
        # start on the same rows, and shared edges
        for seed in range(400):
            rng = random.Random(seed)
            outer = (rng.randint(1, 3), rng.randint(4, 24), rng.randint(1, 3),
                     rng.randint(4, 24))
            holes = disjoint_holes(rng, outer, rng.randint(0, 40), rng.choice((0, 1, 3, 8)))
            want = complement_partition_oracle(outer, holes)
            assert list(map(tuple, complement_partition(outer, holes).tolist())) == want, seed
            keys = complement_partition(np.array(outer), np.array(holes).reshape(-1, 4))
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
