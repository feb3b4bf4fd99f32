"""Signed tree models: representation, validation, brute-force decoding,
cleaning transformations, and dynamic leaf-level edge edits.

A model is a full binary tree over n leaves (node ids: leaves 1..n, internal
n+1..2n-1) plus two disjoint sets of non-crossing transversal node pairs:
negative pairs (anti-bicliques) and positive pairs (bicliques).  Two leaves
are adjacent in the decoded graph iff the minimal pair covering them is
positive.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Mapping, Optional

import numpy as np

from .graph import Graph, InputError
from . import rect
from .rect import InclusionForest, LaminarityError

POSITIVE = "positive"
NEGATIVE = "negative"

Pair = tuple[int, int]


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


@dataclass(frozen=True)
class EditLog:
    """Counts leaf-pair edits since the last rebuild; rebuild forced at threshold."""

    count: int
    threshold: int

    def bump(self) -> "EditLog":
        return EditLog(self.count + 1, self.threshold)

    @property
    def rebuild_required(self) -> bool:
        return self.count >= self.threshold


class SignedTreeModel:
    """Immutable signed tree model.  All edit operations return new models."""

    __slots__ = ("n", "children", "parent", "root", "pairs_a", "pairs_b",
                 "leaf_order", "_lo", "_hi", "_checked")

    def __init__(self, n: int,
                 children: Mapping[int, tuple[int, int]],
                 pairs_a: Iterable[Pair] = (),
                 pairs_b: Iterable[Pair] = ()):
        if n < 1:
            raise InputError("a model needs at least one leaf")
        self.n = n
        num_nodes = 2 * n - 1
        self.children: dict[int, tuple[int, int]] = dict(children)
        parent = [0] * (num_nodes + 1)
        for t, (l, r) in self.children.items():
            if not (n < t <= num_nodes):
                raise InputError(f"internal node id {t} out of range ({n},{num_nodes}]")
            for c in (l, r):
                if not (1 <= c <= num_nodes):
                    raise InputError(f"child id {c} of node {t} out of range")
                if parent[c]:
                    raise InputError(f"node {c} has two parents")
                parent[c] = t
        roots = [t for t in range(1, num_nodes + 1) if not parent[t]]
        if len(roots) != 1:
            raise InputError(f"tree must have exactly one root, found {roots}")
        self.root = roots[0]
        self.parent = tuple(parent)

        # The leaf order, and the position interval spanned by each subtree.
        # One root among 2n-1 nodes means n-1 child pairs, so every internal
        # id n+1..2n-1 has children: the tree is full.
        lo = [0] * (num_nodes + 1)
        hi = [0] * (num_nodes + 1)
        leaves: list[int] = []
        stack: list[tuple[int, bool]] = [(self.root, False)]
        while stack:
            t, done = stack.pop()
            if done:
                l, r = self.children[t]
                lo[t] = lo[l]
                hi[t] = hi[r]
            elif t in self.children:
                l, r = self.children[t]
                stack.append((t, True))
                stack.append((r, False))
                stack.append((l, False))
            else:
                leaves.append(t)
                lo[t] = hi[t] = len(leaves)
        if sorted(leaves) != list(range(1, n + 1)):
            raise InputError("leaves must be exactly the ids 1..n")
        self._lo = tuple(lo)
        self._hi = tuple(hi)
        self.leaf_order = tuple(leaves)

        self.pairs_a = self._canon(pairs_a)
        self.pairs_b = self._canon(pairs_b)
        self._checked = None  # set by clean_same_sign, see _checked_forest

    def _canon(self, pairs: Iterable[Pair]) -> frozenset[Pair]:
        num_nodes = 2 * self.n - 1
        out = set()
        for x, y in pairs:
            if not (1 <= x <= num_nodes and 1 <= y <= num_nodes):
                raise InputError(f"pair ({x},{y}) references unknown nodes")
            out.add(self.canonical_pair(x, y))
        return frozenset(out)

    # -- structure queries ------------------------------------------------

    def is_leaf(self, t: int) -> bool:
        return t <= self.n

    def is_ancestor(self, x: int, y: int) -> bool:
        """True iff x is an ancestor of y (reflexively).  In a full binary
        tree distinct nodes have distinct leaf intervals, so that is when
        x's interval contains y's."""
        return self._lo[x] <= self._lo[y] and self._hi[y] <= self._hi[x]

    def leaf_interval(self, t: int) -> tuple[int, int]:
        """Positions (inclusive) of the leaves under t, in left-to-right order."""
        return self._lo[t], self._hi[t]

    def canonical_pair(self, x: int, y: int) -> Pair:
        """Endpoint with the earlier-starting leaf interval first."""
        return (x, y) if self._lo[x] <= self._lo[y] else (y, x)

    def pairs_signed(self) -> Iterator[tuple[int, int, int]]:
        """Yield (x, y, sign) with sign -1 for negative and +1 for positive pairs."""
        for x, y in sorted(self.pairs_a):
            yield x, y, -1
        for x, y in sorted(self.pairs_b):
            yield x, y, +1

    @property
    def num_pairs(self) -> int:
        return len(self.pairs_a) + len(self.pairs_b)

    def with_pairs(self, pairs_a: Iterable[Pair], pairs_b: Iterable[Pair]) -> "SignedTreeModel":
        """This model's tree with other pairs; the tree is shared, not walked again."""
        return self._sharing_tree(self._canon(pairs_a), self._canon(pairs_b))

    def _sharing_tree(self, pairs_a: frozenset[Pair], pairs_b: frozenset[Pair]
                      ) -> "SignedTreeModel":
        out = copy.copy(self)
        out.pairs_a, out.pairs_b, out._checked = pairs_a, pairs_b, None
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, SignedTreeModel)
                and self.n == other.n and self.children == other.children
                and self.pairs_a == other.pairs_a and self.pairs_b == other.pairs_b)

    def __hash__(self) -> int:
        return hash((self.n, self.pairs_a, self.pairs_b))

    def __repr__(self) -> str:
        return (f"SignedTreeModel(n={self.n}, |A|={len(self.pairs_a)}, "
                f"|B|={len(self.pairs_b)})")


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


def _sorted_pairs(pairs: frozenset[Pair]) -> np.ndarray:
    """``pairs`` as a (p, 2) int64 array, in sorted order."""
    rows = np.fromiter(chain.from_iterable(pairs), np.int64, 2 * len(pairs)).reshape(-1, 2)
    return rows[np.lexsort((rows[:, 1], rows[:, 0]))]


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
    overlap = stm.pairs_a & stm.pairs_b
    v = [("overlap", f"pair {p} is both positive and negative") for p in sorted(overlap)]
    negative, positive = _sorted_pairs(stm.pairs_a), _sorted_pairs(stm.pairs_b)
    pairs = np.concatenate((negative, positive))
    sign = np.repeat(np.array([-1, 1]), (len(negative), len(positive)))
    lo, hi = np.array(stm._lo), np.array(stm._hi)
    x, y = pairs.T
    loop = x == y
    nested = ~loop & (((lo[x] <= lo[y]) & (hi[y] <= hi[x]))
                      | ((lo[y] <= lo[x]) & (hi[x] <= hi[y])))
    for i in np.flatnonzero(loop | nested).tolist():
        a, b = pairs[i].tolist()
        v.append(("loop", f"pair ({a},{b}) is a loop") if loop[i]
                 else ("transversal", f"pair ({a},{b}) is not transversal"))
    keep = ~(loop | nested)
    if overlap:
        code = pairs[:, 0] * (2 * stm.n) + pairs[:, 1]
        keep[len(negative):] &= ~np.isin(code[len(negative):], code[:len(negative)])
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
    edges = []
    pos_i, pos_j = np.nonzero(np.triu(sign, k=1) > 0)
    for i, j in zip(pos_i, pos_j):
        edges.append((stm.leaf_order[i - 1], stm.leaf_order[j - 1]))
    return Graph(n, edges)


def remove_loops(stm: SignedTreeModel) -> SignedTreeModel:
    """Replace loops by equivalent sibling pairs (single top-down pass).

    Each internal node whose children lack a transversal pair gets one with
    the sign of the nearest ancestor-or-self loop, if any; then all loops are
    dropped.  The added pairs form a matching on sibling pairs (at most n-1),
    and the decoded graph is unchanged.  A model without loops is returned
    as it is.

    Raises InvalidModelError, with ``validate``'s message, on a loop that is
    both positive and negative: it has no sign to hand down.
    """
    loop_sign: dict[int, int] = {}
    for x, y, s in stm.pairs_signed():
        if x == y:
            if x in loop_sign:
                raise InvalidModelError(f"pair {(x, y)} is both positive and negative")
            loop_sign[x] = s
    if not loop_sign:
        return stm
    pairs_a = {p for p in stm.pairs_a if p[0] != p[1]}
    pairs_b = {p for p in stm.pairs_b if p[0] != p[1]}
    stack: list[tuple[int, int]] = [(stm.root, 0)]  # (node, sign carried from nearest loop)
    while stack:
        t, carried = stack.pop()
        carried = loop_sign.get(t, carried)
        if stm.is_leaf(t):
            continue
        l, r = stm.children[t]
        sib = stm.canonical_pair(l, r)
        if carried and sib not in pairs_a and sib not in pairs_b:
            (pairs_b if carried > 0 else pairs_a).add(sib)
        stack.append((l, carried))
        stack.append((r, carried))
    return stm.with_pairs(pairs_a, pairs_b)


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
    # nearest kept ancestor-or-self, by pointer jumping along the drops
    near = np.where(drop, up, np.arange(len(up)))
    while not np.array_equal(hop := near[near], near):
        near = hop
    kept = np.flatnonzero(~drop)
    kept_up = up[kept]
    new_up = np.where(kept_up >= 0, (np.cumsum(~drop) - 1)[near[kept_up]], -1)
    pairs, sign = pairs[kept], sign[kept]
    cleaned = stm._sharing_tree(*(frozenset(zip(*pairs[sign == s].T.tolist())) for s in (-1, 1)))
    cleaned._checked = (pairs, sign, InclusionForest(forest.keys[kept], new_up), [])
    return cleaned


def default_edit_log(stm: SignedTreeModel) -> EditLog:
    """Fresh edit log with the default rebuild threshold max(n, pair count)."""
    return EditLog(count=0, threshold=max(stm.n, stm.num_pairs))


def insert_edit(stm: SignedTreeModel, u: int, v: int, sign: str,
                log: EditLog) -> tuple[SignedTreeModel, EditLog, bool]:
    """Flip or add the leaf pair {u,v} with the given sign.

    Leaf pairs cannot cross anything (leaves have no strict descendants), so
    the model stays valid.  Returns (model, log, rebuild_required); once the
    log hits its threshold the caller is expected to rebuild from scratch.
    """
    if sign not in (POSITIVE, NEGATIVE):
        raise InputError(f"sign must be {POSITIVE!r} or {NEGATIVE!r}")
    if not (1 <= u <= stm.n and 1 <= v <= stm.n):
        raise InputError(f"({u},{v}) is not a leaf pair")
    if u == v:
        raise InputError("cannot edit a leaf pair with equal endpoints")
    pair = stm.canonical_pair(u, v)
    pairs_a = set(stm.pairs_a) - {pair}
    pairs_b = set(stm.pairs_b) - {pair}
    (pairs_b if sign == POSITIVE else pairs_a).add(pair)
    new_log = log.bump()
    return stm.with_pairs(pairs_a, pairs_b), new_log, new_log.rebuild_required
