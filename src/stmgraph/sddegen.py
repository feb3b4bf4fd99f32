"""sd-degeneracy sequences: the randomized Las Vegas construction with its
two parameter presets, the exact greedy baseline, and a replay validator.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .convert import SdDegenSequence, _delete, _eliminate
from .graph import Graph, InputError


@dataclass(frozen=True)
class SdConfig:
    """Parameters of the randomized construction: good threshold g,
    good-enough threshold gamma, per-vertex sampling probability p_hat,
    iteration cap, and RNG seed."""

    g: int
    gamma: int
    p_hat: float
    cap: int
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.p_hat <= 1:
            raise InputError(f"sampling probability {self.p_hat} not in (0,1]")
        if self.g > self.gamma:
            raise InputError(f"g={self.g} exceeds gamma={self.gamma}")
        if self.cap < 1:
            raise InputError("iteration cap must be at least 1")


@dataclass(frozen=True)
class WidthReport:
    """Per-step symmetric differences of the appended pairs; loop-phase and
    arbitrary-tail pairs are kept apart because only the former carry the
    verified gamma bound."""

    loop_sds: tuple[int, ...]
    tail_sds: tuple[int, ...] = ()

    @property
    def width(self) -> int:
        return max(self.loop_sds + self.tail_sds, default=0)

    @property
    def max_loop_sd(self) -> int:
        return max(self.loop_sds, default=0)


class CapExceeded(RuntimeError):
    """The randomized construction hit its iteration cap (caller may reseed)."""

    def __init__(self, iterations: int):
        super().__init__(f"iteration cap hit after {iterations} iterations")
        self.iterations = iterations


def _sd(adj: list[set[int]], u: int, v: int) -> int:
    nu = adj[u] - {v}
    nv = adj[v] - {u}
    return len(nu ^ nv)


def sd_sequence_randomized(g: Graph, cfg: SdConfig) -> tuple[SdDegenSequence, WidthReport]:
    """Randomized sd-degeneracy sequence construction.

    While more than 2g vertices remain: sample X with probability p_hat per
    vertex, partition the vertices by their neighborhood toward X (touching
    only each vertex's neighbor list, never ranging over X), form disjoint
    pairs of ascending ids within each class, keep those with verified
    sd <= gamma, and delete their first elements.  The remainder is finished
    with smallest-two-id pairs.  Raises CapExceeded past cfg.cap iterations.
    """
    n = g.n
    if n < 2:
        raise InputError("need at least two vertices")
    rng = random.Random(cfg.seed)
    adj = list(map(set, g.adjacency))
    alive = list(range(1, n + 1))
    pairs: list[tuple[int, int]] = []
    loop_sds: list[int] = []
    iterations = 0
    while len(alive) > 2 * cfg.g:
        iterations += 1
        if iterations > cfg.cap:
            raise CapExceeded(iterations - 1)
        X = {v for v in alive if rng.random() < cfg.p_hat}
        buckets: dict[tuple[int, ...], list[int]] = {}
        for v in alive:
            key = tuple(sorted(w for w in adj[v] if w in X))
            buckets.setdefault(key, []).append(v)
        doomed = []
        for part in buckets.values():
            part.sort()
            for i in range(0, len(part) - 1, 2):
                u, v = part[i], part[i + 1]
                s = _sd(adj, u, v)
                if s <= cfg.gamma:
                    pairs.append((u, v))
                    loop_sds.append(s)
                    doomed.append(u)
        if doomed:
            dead = set(doomed)
            for u in doomed:
                _delete(adj, u)
            alive = [v for v in alive if v not in dead]
    alive.sort()
    tail = list(zip(alive, alive[1:]))
    tail_sds = tuple(len(a) + len(b) for _, _, a, b in _eliminate(adj, tail))
    return SdDegenSequence(tuple(pairs + tail)), WidthReport(tuple(loop_sds), tail_sds)


def _check_finite(**values: float) -> None:
    for name, v in values.items():
        if not math.isfinite(v):
            raise InputError(f"{name}={v} is not finite")


def preset_twinwidth(f_d: int, c: float, n: int) -> SdConfig:
    """Preset for graphs of bounded twin-width: g = f_d,
    gamma = 2 f_d (c+3) ln n, p_hat = 1/(2 f_d), cap = 32 (c+3) f_d ln n.
    Thresholds round up; degenerate tiny-n gamma is clamped up to g."""
    _check_finite(c=c)
    if f_d < 1 or c <= 0:
        raise InputError("need f_d >= 1 and c > 0")
    ln = math.log(n)
    gamma = max(f_d, math.ceil(2 * f_d * (c + 3) * ln))
    cap = max(1, math.ceil(32 * (c + 3) * f_d * ln))
    return SdConfig(g=f_d, gamma=gamma, p_hat=1 / (2 * f_d), cap=cap)


def preset_symdiff(beta: float, c: float, n: int) -> SdConfig:
    """Preset for graphs of bounded symmetric difference: with s = beta n^(1/3),
    g = s + 2 n^(1/3) (rounded up), gamma = 2 (c+3) (s + 2 n^(1/3)) ln n,
    p_hat = 1/2 (s + 2 n^(1/3))^(-1), cap = 64 n^(2/3)."""
    _check_finite(beta=beta, c=c)
    if beta < 1 or c <= 0:
        raise InputError("need beta >= 1 and c > 0")
    cbrt = n ** (1 / 3)
    base = beta * cbrt + 2 * cbrt
    ln = math.log(n)
    g = math.ceil(base)
    gamma = max(g, math.ceil(2 * (c + 3) * base * ln))
    cap = max(1, math.ceil(64 * n ** (2 / 3)))
    return SdConfig(g=g, gamma=gamma, p_hat=0.5 / base, cap=cap)


def sd_sequence_greedy(g: Graph) -> tuple[SdDegenSequence, WidthReport]:
    """Exact quartic baseline: repeatedly append the pair minimizing the
    current symmetric difference (lexicographic ties) and delete its first
    element."""
    n = g.n
    if n < 2:
        raise InputError("need at least two vertices")
    adj = list(map(set, g.adjacency))
    alive = list(range(1, n + 1))
    pairs: list[tuple[int, int]] = []
    sds: list[int] = []
    while len(alive) >= 2:
        best = None
        for i, u in enumerate(alive):
            for v in alive[i + 1:]:
                s = _sd(adj, u, v)
                if best is None or s < best[0]:
                    best = (s, u, v)
        s, u, v = best
        pairs.append((u, v))
        sds.append(s)
        _delete(adj, u)
        alive.remove(u)
    return SdDegenSequence(tuple(pairs)), WidthReport(tuple(sds))


def validate_sequence(g: Graph, seq: SdDegenSequence) -> WidthReport:
    """Replay the deletions, checking structure and computing every step's
    symmetric difference in the current induced subgraph."""
    seq.check_structure(g.n)
    return WidthReport(tuple(len(a) + len(b) for _, _, a, b
                             in _eliminate(list(map(set, g.adjacency)), seq.pairs)))
