"""Signed tree models: representation, validation, brute-force decoding,
cleaning transformations, and dynamic leaf-level edge edits.

A model is a full binary tree over n leaves (node ids: leaves 1..n, internal
n+1..2n-1) plus two disjoint sets of non-crossing transversal node pairs:
negative pairs (anti-bicliques) and positive pairs (bicliques).  Two leaves
are adjacent in the decoded graph iff the minimal pair covering them is
positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional

import numpy as np

from .graph import Graph, InputError
from .rect import InclusionForest, LaminarityError, Rect, laminar_forest

POSITIVE = "positive"
NEGATIVE = "negative"

Pair = tuple[int, int]


class InvalidModelError(ValueError):
    """Raised when an operation requires a valid model and gets an invalid one."""


@dataclass
class ValidationReport:
    ok: bool
    violations: list[tuple[str, str]]
    """(kind, message) pairs; kinds: tree, loop, transversal, crossing, overlap, range.

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
                 "_tin", "_tout", "leaf_order", "leaf_pos", "_lo", "_hi", "_checked")

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

        # Euler tour for O(1) ancestor tests, plus leaf positions and the
        # position interval spanned by each subtree.
        tin = [0] * (num_nodes + 1)
        tout = [0] * (num_nodes + 1)
        lo = [0] * (num_nodes + 1)
        hi = [0] * (num_nodes + 1)
        leaves: list[int] = []
        timer = 0
        stack: list[tuple[int, bool]] = [(self.root, False)]
        while stack:
            t, done = stack.pop()
            if done:
                tout[t] = timer
                l, r = self.children[t]
                lo[t] = lo[l]
                hi[t] = hi[r]
                continue
            timer += 1
            tin[t] = timer
            if t in self.children:
                l, r = self.children[t]
                stack.append((t, True))
                stack.append((r, False))
                stack.append((l, False))
            else:
                leaves.append(t)
                tout[t] = timer
                lo[t] = hi[t] = len(leaves)
        if sorted(leaves) != list(range(1, n + 1)):
            raise InputError("leaves must be exactly the ids 1..n")
        self._tin = tuple(tin)
        self._tout = tuple(tout)
        self._lo = tuple(lo)
        self._hi = tuple(hi)
        self.leaf_order = tuple(leaves)
        leaf_pos = [0] * (n + 1)
        for p, v in enumerate(leaves, start=1):
            leaf_pos[v] = p
        self.leaf_pos = tuple(leaf_pos)

        def canon(pairs: Iterable[Pair]) -> frozenset[Pair]:
            out = set()
            for x, y in pairs:
                if not (1 <= x <= num_nodes and 1 <= y <= num_nodes):
                    raise InputError(f"pair ({x},{y}) references unknown nodes")
                out.add(self.canonical_pair(x, y))
            return frozenset(out)

        self.pairs_a = canon(pairs_a)
        self.pairs_b = canon(pairs_b)
        self._checked = None  # set by clean_same_sign, see _checked_forest

    # -- structure queries ------------------------------------------------

    def is_leaf(self, t: int) -> bool:
        return t <= self.n

    def is_ancestor(self, x: int, y: int) -> bool:
        """True iff x is an ancestor of y (reflexively)."""
        return self._tin[x] <= self._tin[y] and self._tout[y] <= self._tout[x]

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
        return SignedTreeModel(self.n, self.children, pairs_a, pairs_b)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SignedTreeModel)
                and self.n == other.n and self.children == other.children
                and self.pairs_a == other.pairs_a and self.pairs_b == other.pairs_b)

    def __hash__(self) -> int:
        return hash((self.n, self.pairs_a, self.pairs_b))

    def __repr__(self) -> str:
        return (f"SignedTreeModel(n={self.n}, |A|={len(self.pairs_a)}, "
                f"|B|={len(self.pairs_b)})")


def pair_rects(stm: SignedTreeModel) -> list[Rect]:
    """Rectangles (in leaf-position space) of all transversal pairs.

    Payload of each rectangle is ``(pair, sign)``.  Loops yield squares.
    """
    rects = []
    for x, y, sign in stm.pairs_signed():
        x1, x2 = stm.leaf_interval(x)
        y1, y2 = stm.leaf_interval(y)
        rects.append(Rect(x1, x2, y1, y2, payload=((x, y), sign)))
    return rects


def validate(stm: SignedTreeModel, strict: bool = True) -> ValidationReport:
    """Check all model invariants; the report names offending pairs/nodes.

    In strict mode loops {t,t} are violations; non-strict mode permits them
    (pre-cleaning inputs for loop removal).

    The crossing check is ``laminar_forest`` on the pair rectangles, so it
    takes O(p log p) instead of O(p^2): two transversal pairs cross iff their
    rectangles properly overlap (meet, and neither contains the other), so
    the pairs are non-crossing iff their rectangles are laminar.  Proof:
    leaf intervals of tree nodes are laminar, and a node is strictly above
    another iff its interval strictly contains the other's.  The x interval
    of a transversal pair lies left of its y interval.  In two crossing
    pairs, an x endpoint is never strictly above the other pair's y endpoint
    (nor a y endpoint above an x endpoint): with the other relation a
    crossing needs, that would nest one pair's two intervals one inside the
    other, or put some y interval left of its own x interval.  Hence pairs
    cross iff one's x interval strictly contains the other's and the other's
    y interval strictly contains the first's, which is proper overlap.  Loops
    and non-transversal pairs are left out: in a model whose other pairs are
    transversal, a loop crosses nothing, and a non-transversal pair is a
    violation already.
    """
    v = [e for e in _checked_forest(stm)[2] if strict or e[0] != "loop"]
    return ValidationReport(ok=not v, violations=v)


def _checked_forest(stm: SignedTreeModel
                    ) -> tuple[list[Rect], Optional[InclusionForest], list[tuple[str, str]]]:
    """The rectangles of the transversal pairs, each pair once with payload
    ``(pair, sign)`` in ``pairs_signed`` order, their laminar forest (None
    if they cross), and ``validate``'s strict-mode violations, all from one
    pass.  On a valid model the rectangles are ``pair_rects(stm)``.

    A model made by ``clean_same_sign`` carries these, derived from its
    input's; for any other model they are built here and not kept, so a
    long-lived model does not hold its rectangles.
    """
    if stm._checked is not None:
        return stm._checked
    v: list[tuple[str, str]] = []
    num_nodes = 2 * stm.n - 1
    for t in range(stm.n + 1, num_nodes + 1):
        if t not in stm.children:
            v.append(("tree", f"internal node {t} has no children"))
    overlap = stm.pairs_a & stm.pairs_b
    for p in sorted(overlap):
        v.append(("overlap", f"pair {p} is both positive and negative"))
    rects: list[Rect] = []
    for x, y, sign in stm.pairs_signed():
        if not (1 <= x <= num_nodes and 1 <= y <= num_nodes):
            v.append(("range", f"pair ({x},{y}) references unknown nodes"))
            continue
        if x == y:
            v.append(("loop", f"pair ({x},{y}) is a loop"))
            continue
        if stm.is_ancestor(x, y) or stm.is_ancestor(y, x):
            v.append(("transversal", f"pair ({x},{y}) is not transversal"))
        elif sign < 0 or (x, y) not in overlap:  # both-sign pair: once, as negative
            rects.append(Rect(*stm.leaf_interval(x), *stm.leaf_interval(y),
                              payload=((x, y), sign)))
    try:
        return rects, laminar_forest(rects), v
    except LaminarityError as e:
        (x1, y1), (x2, y2) = (rects[i].payload[0] for i in sorted(e.indices))
        v.append(("crossing", f"pairs ({x1},{y1}) and ({x2},{y2}) cross"))
    return rects, None, v


def decode_bruteforce(stm: SignedTreeModel, validated: bool = False) -> Graph:
    """Decode by scanning, for every leaf pair, all covering transversal pairs.

    The minimal covering pair is the one with the smallest rectangle (covering
    rectangles of a fixed cell are nested); the leaves are adjacent iff it is
    positive.  Loops are supported with their square rectangles, which yields
    the nearest-enclosing-loop semantics used by loop removal.  This is the
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
    for r in pair_rects(stm):
        block = best[r.x1:r.x2 + 1, r.y1:r.y2 + 1]
        mask = r.area < block
        block[mask] = r.area
        sign[r.x1:r.x2 + 1, r.y1:r.y2 + 1][mask] = r.payload[1]
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
    and the decoded graph is unchanged.
    """
    loop_sign: dict[int, int] = {}
    for x, y, s in stm.pairs_signed():
        if x == y:
            loop_sign[x] = s
    pairs_a = {p for p in stm.pairs_a if p[0] != p[1]}
    pairs_b = {p for p in stm.pairs_b if p[0] != p[1]}
    if not loop_sign:
        return stm.with_pairs(pairs_a, pairs_b)
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
    forest is never built again.
    """
    rects, forest, v = _checked_forest(stm)
    if v:
        raise InvalidModelError("; ".join(m for _, m in v))
    kept_above = list(range(len(rects)))  # nearest kept ancestor-or-self
    stack = list(forest.roots)
    while stack:
        i = stack.pop()
        p = forest.parent[i]
        if p is not None and rects[p].payload[1] == rects[i].payload[1]:
            kept_above[i] = kept_above[p]
        stack.extend(forest.children[i])
    kept = [i for i, k in enumerate(kept_above) if k == i]
    new_id = {i: j for j, i in enumerate(kept)}
    parent = [None if p is None else new_id[kept_above[p]]
              for p in (forest.parent[i] for i in kept)]
    kept_rects = [rects[i] for i in kept]
    cleaned = stm.with_pairs([r.payload[0] for r in kept_rects if r.payload[1] < 0],
                             [r.payload[0] for r in kept_rects if r.payload[1] > 0])
    cleaned._checked = (kept_rects, InclusionForest(kept_rects, parent), [])
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
