"""Signed tree models: representation, validation, brute-force decoding
and cleaning transformations.

A model is a full binary tree over n leaves (node ids: leaves 1..n, internal
n+1..2n-1) plus two disjoint sets of non-crossing transversal node pairs:
negative pairs (anti-bicliques) and positive pairs (bicliques).  Two leaves
are adjacent in the decoded graph iff the minimal pair covering them is
positive.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional

import numpy as np

from .graph import Graph, InputError, _first_repeat, _frozen, _int_rows
from . import rect
from .rect import InclusionForest, LaminarityError

Pair = tuple[int, int]
Pairs = Iterable[Pair] | np.ndarray  # pairs, or their (p, 2) array


class InvalidModelError(ValueError):
    """Raised when an operation requires a valid model and gets an invalid one."""


@dataclass
class ValidationReport:
    ok: bool
    violations: list[tuple[str, str]]
    """(kind, message) pairs; kinds: loop, transversal, crossing, overlap.

    Every offending pair is named for the per-pair kinds; a crossing model
    gets one ``crossing`` entry naming one witness pair of crossing pairs,
    not every crossing pair."""

    def messages(self) -> list[str]:
        return [m for _, m in self.violations]


def _tree(n: int, children) -> tuple[np.ndarray, np.ndarray, int]:
    """The children of internal nodes n+1..2n-1 as an (n - 1, 2) array in id
    order, the parent of every node id 0..2n-1 (0 for node 0 and the root),
    and the root, from a mapping t -> (left, right) or an array of rows
    (t, left, right).

    The checks are masks over the rows (t, left, right), and the first
    defect in that order is raised: an internal id outside (n, 2n-1] or
    seen before, a child outside [1, 2n-1], a child seen before (its second
    parent).  Then the tree must have one root.  With one root among 2n - 1
    nodes, n - 1 distinct rows give 2n - 2 children, so every internal id
    has children."""
    num_nodes = 2 * n - 1
    rows = _int_rows(children if isinstance(children, np.ndarray)
                     else [(t, l, r) for t, (l, r) in children.items()], 3)
    bad = np.flatnonzero((rows < [n + 1, 1, 1]) | (rows > num_nodes))
    # an internal id or a child seen before; negated, the internal ids meet
    # the children only where some id is out of range at that index or before
    again = _first_repeat((rows * [-1, 1, 1]).ravel())
    # the first out-of-range id and the first repeat, as flat indices into
    # ``rows``; at one index the range check comes first
    i = int(bad[0]) if bad.size else rows.size
    j = again if again >= 0 else rows.size
    if j < i:
        raise InputError(f"internal node {rows.flat[j]} defined twice" if j % 3 == 0
                         else f"node {rows.flat[j]} has two parents")
    if i < rows.size:
        t = rows.flat[i - i % 3]
        raise InputError(f"internal node id {t} out of range ({n},{num_nodes}]" if i % 3 == 0
                         else f"child id {rows.flat[i]} of node {t} out of range")
    parent = np.zeros(num_nodes + 1, np.int64)
    parent[rows[:, 1:]] = rows[:, :1]
    roots = np.flatnonzero(parent[1:] == 0) + 1
    if len(roots) != 1:
        raise InputError(f"tree must have exactly one root, found {roots.tolist()}")
    kids = np.empty((n - 1, 2), np.int64)
    kids[rows[:, 0] - n - 1] = rows[:, 1:]
    return kids, parent, int(roots[0])


def _leaf_intervals(n: int, kids: np.ndarray, parent: np.ndarray,
                    root: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The interval [lo[t], hi[t]] of leaf positions under every node t (0
    for node 0) and the leaves left to right, from the Euler tour of the
    tree (Tarjan & Vishkin 1985) ranked by pointer jumping (Wyllie 1979).

    Node t has a down arc t and an up arc 2n + t.  Down into a leaf comes
    back up; down into an internal node goes on down to its left child; up
    from a left child goes down to its sibling; up from a right child goes
    on up from the parent.  The tour runs from the root's down arc to its
    up arc, 4n - 2 arcs, so ceil(log2(4n)) rounds of jumping give every arc
    the number of leaf down arcs at or after it.  An arc that has not
    reached the root's up arc by then lies on a cycle of internal nodes,
    which the parent and root checks let through.
    """
    num_nodes = 2 * n - 1
    node = np.arange(num_nodes + 1)
    kid = np.zeros((num_nodes + 1, 2), np.int64)  # by node id; leaves and 0 get (0, 0)
    kid[n + 1:] = kids
    end = num_nodes + 1 + root
    step = np.concatenate((np.where(node > n, kid[:, 0], node + num_nodes + 1),
                           np.where(kid[parent, 0] == node, kid[parent, 1],
                                    parent + num_nodes + 1)))
    step[[0, num_nodes + 1, end]] = end
    count = np.zeros(2 * num_nodes + 2, np.int64)
    count[1:n + 1] = 1
    for _ in range((4 * n).bit_length()):
        count += count[step]
        step = step[step]
    if (step != end).any():
        raise InputError("leaves must be exactly the ids 1..n")
    lo = n + 1 - count[:num_nodes + 1]
    hi = n - count[num_nodes + 1:]
    lo[0] = hi[0] = 0
    order = np.empty(n, np.int64)
    order[lo[1:n + 1] - 1] = node[1:n + 1]
    return lo, hi, order


class SignedTreeModel:
    """Immutable signed tree model, stored as read-only int64 arrays only:

    - ``kids``: the (left, right) children of internal nodes n+1..2n-1, in
      id order, an (n - 1, 2) array;
    - ``parent``, ``lo`` and ``hi``, indexed by node id 0..2n-1 (entry 0
      unused): each node's parent (0 for the root) and the interval of leaf
      positions under it;
    - ``leaf_order``: the leaves left to right;
    - ``pairs``: a (p, 2) array, each pair with the end whose leaf interval
      starts first as x, and ``sign`` beside it as int8 -1 or +1.  The pairs
      are sorted, negatives first and by (x, y) within a sign, with
      duplicates dropped within a sign.  A pair given with both signs is
      there twice, which ``validate`` reports as an ``overlap``.

    ``children``, ``pairs_a`` and ``pairs_b`` build a dict and frozensets of
    tuples from these on each read.  The constructor takes the tree as a
    mapping t -> (left, right) or as an (n - 1, 3) array of rows (t, left,
    right), and the negative and positive pairs each as an iterable of
    pairs or a (p, 2) array.  It raises InputError naming the first
    defect."""

    __slots__ = ("n", "root", "kids", "parent", "lo", "hi", "leaf_order",
                 "pairs", "sign", "_checked")

    def __init__(self, n: int,
                 children: Mapping[int, tuple[int, int]] | np.ndarray,
                 pairs_a: Pairs = (), pairs_b: Pairs = ()):
        if n < 1:
            raise InputError("a model needs at least one leaf")
        self.n = n
        self.kids, self.parent, self.root = _tree(n, children)
        self.lo, self.hi, self.leaf_order = _leaf_intervals(n, self.kids, self.parent, self.root)
        _frozen(self.kids, self.parent, self.lo, self.hi, self.leaf_order)
        self.pairs, self.sign = _frozen(*self._canon(pairs_a, pairs_b))
        self._checked = None  # set by clean_same_sign, see _checked_forest

    def _canon(self, pairs_a: Pairs, pairs_b: Pairs) -> tuple[np.ndarray, np.ndarray]:
        """The pairs and signs in the stored form; InputError names the first
        pair, negative ones first, with an end outside 1..2n-1."""
        a, b = _int_rows(pairs_a, 2), _int_rows(pairs_b, 2)
        rows = np.concatenate((a, b))
        bad = np.flatnonzero(((rows < 1) | (rows > 2 * self.n - 1)).any(axis=1))
        if bad.size:
            x, y = rows[bad[0]].tolist()
            raise InputError(f"pair ({x},{y}) references unknown nodes")
        return self._sorted(rows, np.repeat(np.array([-1, 1], np.int8), (len(a), len(b))))

    def _sorted(self, pairs: np.ndarray, sign: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pairs of node ids with their signs in the stored order, each
        canonical (see ``canonical_pair``), once per sign: one sort of
        sign-x-y codes."""
        x, y = pairs.T
        first = self.lo[x] <= self.lo[y]
        base = 2 * self.n  # above every node id
        code = np.sort(((sign > 0) * base + np.where(first, x, y)) * base + np.where(first, y, x))
        code = code[np.diff(code, prepend=-1) != 0]
        return (np.column_stack((code // base % base, code % base)),
                np.where(code < base * base, -1, 1).astype(np.int8))

    # -- views, built on each read -----------------------------------------

    @property
    def children(self) -> dict[int, tuple[int, int]]:
        """``kids`` as a dict, internal node id -> (left, right)."""
        return dict(zip(range(self.n + 1, 2 * self.n), map(tuple, self.kids.tolist())))

    @property
    def pairs_a(self) -> frozenset[Pair]:
        """The negative pairs as a frozenset of tuples."""
        return frozenset(map(tuple, self.pairs[self.sign < 0].tolist()))

    @property
    def pairs_b(self) -> frozenset[Pair]:
        """The positive pairs as a frozenset of tuples."""
        return frozenset(map(tuple, self.pairs[self.sign > 0].tolist()))

    # -- structure queries ------------------------------------------------

    def is_ancestor(self, x: int, y: int) -> bool:
        """True iff x is an ancestor of y (reflexively).  In a full binary
        tree distinct nodes have distinct leaf intervals, so that is when
        x's interval contains y's."""
        return bool(self.lo[x] <= self.lo[y] and self.hi[y] <= self.hi[x])

    def leaf_interval(self, t: int) -> tuple[int, int]:
        """Positions (inclusive) of the leaves under t, in left-to-right order."""
        return int(self.lo[t]), int(self.hi[t])

    def canonical_pair(self, x: int, y: int) -> Pair:
        """Endpoint with the earlier-starting leaf interval first."""
        return (x, y) if self.lo[x] <= self.lo[y] else (y, x)

    def pairs_signed(self) -> Iterator[tuple[int, int, int]]:
        """(x, y, sign) in the stored order, sign -1 for negative and +1 for
        positive pairs."""
        return zip(*self.pairs.T.tolist(), self.sign.tolist())

    @property
    def num_pairs(self) -> int:
        return len(self.pairs)

    def with_pairs(self, pairs_a: Pairs, pairs_b: Pairs) -> "SignedTreeModel":
        """This model's tree with other pairs; the tree is shared, not walked again."""
        return self._sharing_tree(*self._canon(pairs_a, pairs_b))

    def _sharing_tree(self, pairs: np.ndarray, sign: np.ndarray) -> "SignedTreeModel":
        """This model's tree with ``pairs`` and ``sign``, already in the stored form."""
        out = copy.copy(self)
        out.pairs, out.sign = _frozen(pairs, sign)
        out._checked = None
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, SignedTreeModel) and self.n == other.n
                and np.array_equal(self.kids, other.kids)
                and np.array_equal(self.pairs, other.pairs) and np.array_equal(self.sign, other.sign))

    def __hash__(self) -> int:
        return hash((self.n, self.pairs.tobytes(), self.sign.tobytes()))

    def __repr__(self) -> str:
        neg = int(np.count_nonzero(self.sign < 0))
        return f"SignedTreeModel(n={self.n}, |A|={neg}, |B|={len(self.sign) - neg})"


def validate(stm: SignedTreeModel, strict: bool = True) -> ValidationReport:
    """Check all model invariants; the report names offending pairs/nodes.

    In strict mode loops {t,t} are violations; non-strict mode permits them
    (pre-cleaning inputs for loop removal).

    The crossing check is ``inclusion_forest`` on the pair rectangles: one
    sweep builds their forest and checks laminarity with O(p log p)
    comparisons, instead of O(p^2) pair tests.  Two transversal pairs cross
    iff their rectangles properly overlap (meet, and neither contains the
    other), so the pairs are non-crossing iff their rectangles are laminar.
    Proof: leaf intervals of tree nodes are laminar, and a node is strictly
    above another iff its interval strictly contains the other's.  The x
    interval of a transversal pair lies left of its y interval.  In two
    crossing pairs, an x endpoint is never strictly above the other pair's y
    endpoint (nor a y endpoint above an x endpoint): with the other relation
    a crossing needs, that would nest one pair's two intervals one inside
    the other, or put some y interval left of its own x interval.  Hence
    pairs cross iff one's x interval strictly contains the other's and the
    other's y interval strictly contains the first's, which is proper
    overlap.  Loops and non-transversal pairs are left out: in a model whose
    other pairs are transversal, a loop crosses nothing, and a
    non-transversal pair is a violation already.
    """
    v = [e for e in _checked_forest(stm)[3] if strict or e[0] != "loop"]
    return ValidationReport(ok=not v, violations=v)


def _checked_forest(stm: SignedTreeModel) -> tuple[
        np.ndarray, np.ndarray, Optional[InclusionForest], list[tuple[str, str]]]:
    """The transversal pairs as a (p, 2) int64 array, each pair once and in
    ``pairs_signed`` order, their signs (-1 or +1), the inclusion forest of
    their rectangles (None if they cross; one ``inclusion_forest`` sweep
    builds and checks it), and ``validate``'s strict-mode violations, all
    from one pass.

    The rectangle keys (x1, x2, y1, y2) are the leaf intervals of each
    pair's two ends, gathered into one (p, 4) array, and the loop,
    transversal and overlap checks are masks over the pair array.  A pair
    with both signs goes in once, as negative.  A model made by
    ``clean_same_sign`` carries these, derived from its input's; for any
    other model they are built here and not kept, so a long-lived model
    does not hold its rectangles.
    """
    if stm._checked is not None:
        return stm._checked
    pairs, sign, lo, hi = stm.pairs, stm.sign, stm.lo, stm.hi
    k = int(np.count_nonzero(sign < 0))  # the negative pairs come first
    code = pairs[:, 0] * (2 * stm.n) + pairs[:, 1]
    overlap = np.isin(code[k:], code[:k])
    v = [("overlap", f"pair {(x, y)} is both positive and negative")
         for x, y in pairs[k:][overlap].tolist()]
    x, y = pairs.T
    loop = x == y
    nested = ~loop & (((lo[x] <= lo[y]) & (hi[y] <= hi[x]))
                      | ((lo[y] <= lo[x]) & (hi[x] <= hi[y])))
    for i in np.flatnonzero(loop | nested).tolist():
        a, b = pairs[i].tolist()
        v.append(("loop", f"pair ({a},{b}) is a loop") if loop[i]
                 else ("transversal", f"pair ({a},{b}) is not transversal"))
    keep = ~(loop | nested)
    keep[k:] &= ~overlap
    pairs, sign = pairs[keep], sign[keep]
    x, y = pairs.T
    keys = np.stack((lo[x], hi[x], lo[y], hi[y]), axis=1)
    try:
        return pairs, sign, rect.inclusion_forest(keys), v
    except LaminarityError as e:
        (x1, y1), (x2, y2) = pairs[sorted(e.indices)].tolist()
        v.append(("crossing", f"pairs ({x1},{y1}) and ({x2},{y2}) cross"))
    return pairs, sign, None, v


def decode_bruteforce(stm: SignedTreeModel, validated: bool = False) -> Graph:
    """Decode by scanning, for every leaf pair, all covering transversal pairs.

    The minimal covering pair is the one with the smallest rectangle (covering
    rectangles of a fixed cell are nested); the leaves are adjacent iff it is
    positive.  A pair's rectangle is the leaf intervals of its two ends, read
    here pair by pair, not from the forest the pipeline builds.  Loops are
    supported with their square rectangles, which yields the
    nearest-enclosing-loop semantics used by loop removal.  This is the
    oracle against which the conversion pipeline is tested.
    """
    if not validated:
        report = validate(stm, strict=False)
        if not report.ok:
            raise InvalidModelError("; ".join(report.messages()))
    n = stm.n
    big = np.iinfo(np.int64).max
    best = np.full((n + 1, n + 1), big, dtype=np.int64)
    sign = np.zeros((n + 1, n + 1), dtype=np.int8)
    for x, y, s in stm.pairs_signed():
        (x1, x2), (y1, y2) = stm.leaf_interval(x), stm.leaf_interval(y)
        area = (x2 - x1 + 1) * (y2 - y1 + 1)
        block = best[x1:x2 + 1, y1:y2 + 1]
        mask = area < block
        block[mask] = area
        sign[x1:x2 + 1, y1:y2 + 1][mask] = s
    # leaf positions 1..n of the adjacent pairs, as the leaves at them
    return Graph(n, stm.leaf_order[np.argwhere(np.triu(sign, k=1) > 0) - 1])


def _nearest_marked(marked: np.ndarray, up: np.ndarray) -> np.ndarray:
    """Each index's nearest ancestor-or-self that is ``marked``, following
    the parent pointers ``up``, by pointer jumping in O(log depth) rounds.
    Every unmarked chain must end at a marked index or at a root that is
    its own parent."""
    near = np.where(marked, np.arange(len(up)), up)
    while not np.array_equal(hop := near[near], near):
        near = hop
    return near


def remove_loops(stm: SignedTreeModel) -> SignedTreeModel:
    """Replace loops by equivalent sibling pairs.

    Each internal node whose children lack a transversal pair gets one with
    the sign of the nearest ancestor-or-self loop, if any; then all loops are
    dropped.  The added pairs form a matching on sibling pairs (at most n-1),
    and the decoded graph is unchanged.  Every node's nearest
    ancestor-or-self loop comes from pointer jumping on ``parent``, in
    O(log depth) rounds.  A model without loops is returned as it is.

    Raises InvalidModelError, with ``validate``'s message, on a loop that is
    both positive and negative: it has no sign to hand down.
    """
    pairs, sign = stm.pairs, stm.sign
    loop = pairs[:, 0] == pairs[:, 1]
    if not loop.any():
        return stm
    ends = pairs[loop, 0]
    again = _first_repeat(ends)  # the first positive loop that is negative too
    if again >= 0:
        t = int(ends[again])
        raise InvalidModelError(f"pair {(t, t)} is both positive and negative")
    carry = np.zeros(len(stm.parent), np.int8)
    carry[ends] = sign[loop]
    # nearest ancestor-or-self with a loop, or 0, the root's parent and its own
    near = _nearest_marked(carry != 0, stm.parent)
    carried = carry[near[stm.n + 1:]]  # per internal node, in id order
    rest, base, add = pairs[~loop], 2 * stm.n, carried != 0
    sib = stm.kids[add]  # a left child's leaves come first: (left, right) is canonical
    new = ~np.isin(sib[:, 0] * base + sib[:, 1], rest[:, 0] * base + rest[:, 1])
    rows = np.concatenate((rest, sib[new]))
    return stm._sharing_tree(*stm._sorted(rows, np.concatenate((sign[~loop], carried[add][new]))))


def clean_same_sign(stm: SignedTreeModel) -> SignedTreeModel:
    """Drop every pair whose parent in the rectangle inclusion forest has the
    same sign; afterwards signs strictly alternate along the forest and the
    decoded graph is unchanged.

    Raises InvalidModelError with the messages of ``validate(stm)`` on an
    invalid model.  The cleaned model keeps the forest of this one with the
    dropped rectangles spliced out (their children move up to the nearest
    kept ancestor, the smallest kept rectangle containing them), so its own
    forest is never built again.  The splice works on the parent and sign
    arrays: pointer jumping finds every nearest kept ancestor in
    O(log depth) rounds.  The cleaned model shares this one's tree.
    """
    pairs, sign, forest, v = _checked_forest(stm)
    if v:
        raise InvalidModelError("; ".join(m for _, m in v))
    up = forest.up
    drop = (up >= 0) & (sign[up] == sign)
    near = _nearest_marked(~drop, up)  # nearest kept ancestor-or-self; roots are kept
    kept = np.flatnonzero(~drop)
    kept_up = up[kept]
    new_up = np.where(kept_up >= 0, (np.cumsum(~drop) - 1)[near[kept_up]], -1)
    cleaned = stm._sharing_tree(pairs[kept], sign[kept])
    cleaned._checked = (cleaned.pairs, cleaned.sign, InclusionForest(forest.keys[kept], new_up), [])
    return cleaned
