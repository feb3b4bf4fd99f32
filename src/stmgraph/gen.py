"""Seeded instance generators for tests, benchmarks, and the CLI.

All randomness flows through one random.Random per call, so identical seeds
give identical instances.
"""

from __future__ import annotations

import random
from bisect import bisect_right, insort

import numpy as np

from .convert import (ConstructionSequence, MERGE, RESOLVE_NEG, RESOLVE_POS,
                      SdDegenSequence)
from .graph import Graph, InputError
from .stm import SignedTreeModel

_TRIES_PER_PAIR = 50  # random_stm draws at most this many candidates per pair asked for


def random_full_tree(n: int, rng: random.Random) -> dict[int, tuple[int, int]]:
    """Random full binary tree over leaves 1..n; internal ids n+1..2n-1 in
    merge order, so the root is 2n-1."""
    roots = list(range(1, n + 1))
    rng.shuffle(roots)
    children: dict[int, tuple[int, int]] = {}
    next_id = n
    while len(roots) > 1:
        i = rng.randrange(len(roots))
        a = roots.pop(i)
        j = rng.randrange(len(roots))
        b = roots.pop(j)
        next_id += 1
        children[next_id] = (a, b)
        roots.append(next_id)
    return children


def random_stm(n: int, num_pairs: int, seed: int = 0) -> SignedTreeModel:
    """Random model: random tree plus rejection-sampled non-crossing pairs.

    Pair candidates are uniform node pairs; crossing or non-transversal
    candidates are rejected, so fewer than ``num_pairs`` pairs may result on
    crowded trees, where the ``_TRIES_PER_PAIR * num_pairs`` candidates run
    out.

    Two transversal pairs cross iff the first endpoint of one is strictly
    above the first endpoint of the other and its second endpoint strictly
    below the other's second endpoint (see ``stm.validate``).  So a
    candidate is tested by walking the strict ancestors of each endpoint and
    looking, among the partners they already have on that side, for one
    strictly below the candidate's other endpoint: O(depth log p) each.
    """
    if n < 1:
        raise InputError("need at least one leaf")
    rng = random.Random(seed)
    children = random_full_tree(n, rng)
    base = SignedTreeModel(n, children)
    parent, lo, hi = base.parent.tolist(), base.lo.tolist(), base.hi.tolist()
    num_nodes = 2 * n - 1
    accepted: list[tuple[int, int]] = []
    taken: set[tuple[int, int]] = set()
    signs: list[int] = []
    # (node, side) -> sorted (lo, -hi) leaf intervals of the accepted pairs'
    # other endpoints, for pairs holding the node as endpoint ``side``
    partners: dict[tuple[int, int], list[tuple[int, int]]] = {}

    def crosses(pair: tuple[int, int]) -> bool:
        for side in (0, 1):
            l, h = lo[pair[1 - side]], hi[pair[1 - side]]
            a = parent[pair[side]]
            while a:
                keys = partners.get((a, side), ())
                # first key after (l, -h) is strictly inside [l, h] if any is
                i = bisect_right(keys, (l, -h))
                if i < len(keys) and keys[i][0] <= h:
                    return True
                a = parent[a]
        return False

    budget = _TRIES_PER_PAIR * num_pairs
    while len(accepted) < num_pairs and budget > 0:
        budget -= 1
        if num_nodes < 2:
            break
        x = rng.randrange(1, num_nodes)  # the root cannot be transversal
        y = rng.randrange(1, num_nodes)
        if lo[x] <= hi[y] and lo[y] <= hi[x]:  # equal or nested: leaf intervals meet
            continue
        pair = (x, y) if lo[x] <= lo[y] else (y, x)
        if pair in taken:
            continue
        if crosses(pair):
            continue
        for side in (0, 1):
            insort(partners.setdefault((pair[side], side), []),
                   (lo[pair[1 - side]], -hi[pair[1 - side]]))
        taken.add(pair)
        accepted.append(pair)
        signs.append(rng.choice((-1, 1)))
    pairs_a = [p for p, s in zip(accepted, signs) if s < 0]
    pairs_b = [p for p, s in zip(accepted, signs) if s > 0]
    return base.with_pairs(pairs_a, pairs_b)


def random_stm_sparse(n: int, num_pairs: int, seed: int = 0) -> SignedTreeModel:
    """Fast large-n generator: pairs are sibling pairs or leaf pairs, which
    can never cross anything, so no crossing checks are needed."""
    if n < 2:
        raise InputError("need at least two leaves")
    rng = random.Random(seed)
    children = random_full_tree(n, rng)
    taken: set[tuple[int, int]] = set()
    pairs_a: list[tuple[int, int]] = []
    pairs_b: list[tuple[int, int]] = []
    internals = sorted(children)
    budget = 20 * num_pairs
    while len(taken) < num_pairs and budget > 0:
        budget -= 1
        if rng.random() < 0.5:
            pair = children[rng.choice(internals)]
        else:
            pair = (rng.randrange(1, n + 1), rng.randrange(1, n + 1))
            if pair[0] == pair[1]:
                continue
        key = (min(pair), max(pair))  # the model orders each pair's ends itself
        if key in taken:
            continue
        taken.add(key)
        (pairs_b if rng.random() < 0.5 else pairs_a).append(pair)
    return SignedTreeModel(n, children, pairs_a, pairs_b)


def planted_sdseq(n: int, width: int, seed: int = 0) -> tuple[Graph, SdDegenSequence]:
    """Graph plus sd-degeneracy sequence of width <= ``width``, planted by
    running the elimination backwards: each new vertex copies a random
    existing vertex's neighborhood with at most ``width`` toggled entries, so
    its elimination-time symmetric difference stays bounded."""
    if n < 2:
        raise InputError("need at least two vertices")
    if width < 0:
        raise InputError("width must be nonnegative")
    rng = random.Random(seed)
    adj: dict[int, set[int]] = {1: set()}
    rev_pairs: list[tuple[int, int]] = []
    for u in range(2, n + 1):
        v = rng.randrange(1, u)
        nb = set(adj[v])
        for _ in range(rng.randint(0, width)):
            if u == 2:  # v is the only other vertex
                break
            # toggle the i-th of the ids 1..u-1 other than v, drawn uniformly
            i = rng.randrange(u - 2)
            nb.symmetric_difference_update({i + 1 + (i + 1 >= v)})
        if rng.random() < 0.5:
            nb.add(v)
        adj[u] = nb
        for w in nb:
            adj[w].add(u)
        rev_pairs.append((u, v))
    relabel = list(range(1, n + 1))
    rng.shuffle(relabel)
    label = np.array([0] + relabel)  # label[old] = new
    keys = np.fromiter((u * (n + 1) + w for u, nbrs in adj.items() for w in nbrs), np.int64)
    seq = SdDegenSequence(tuple((relabel[u - 1], relabel[v - 1]) for u, v in reversed(rev_pairs)))
    return Graph(n, label[np.column_stack(np.divmod(keys, n + 1))]), seq


def random_cseq(n: int, num_resolves: int, seed: int = 0) -> ConstructionSequence:
    """Random merges interleaved with random (possibly self) resolves."""
    if n < 1:
        raise InputError("need at least one vertex")
    if num_resolves < 0:
        raise InputError("resolve count must be nonnegative")
    rng = random.Random(seed)
    alive = list(range(1, n + 1))
    next_id = n
    ops: list[tuple[str, int, int]] = []
    resolves_left = num_resolves
    while len(alive) > 1 or resolves_left > 0:
        do_merge = len(alive) > 1 and (resolves_left == 0 or rng.random() < 0.4)
        if do_merge:
            i = alive.pop(rng.randrange(len(alive)))
            j = alive.pop(rng.randrange(len(alive)))
            next_id += 1
            ops.append((MERGE, i, j))
            alive.append(next_id)
        else:
            i = rng.choice(alive)
            j = rng.choice(alive)
            ops.append((rng.choice((RESOLVE_POS, RESOLVE_NEG)), i, j))
            resolves_left -= 1
    return ConstructionSequence(n, tuple(ops))


def erdos_renyi(n: int, p: float, seed: int = 0) -> Graph:
    if not 0 <= p <= 1:
        raise InputError("edge probability must be in [0,1]")
    rng = random.Random(seed)
    keys = np.fromiter((u * (n + 1) + v for u in range(1, n + 1) for v in range(u + 1, n + 1)
                        if rng.random() < p), np.int64)
    return Graph(n, np.column_stack(np.divmod(keys, n + 1)))
