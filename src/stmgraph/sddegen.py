"""sd-degeneracy sequences: the randomized Las Vegas construction with its
two parameter presets, the exact greedy baseline, and a replay validator.

All three work on one state, built once from the graph's CSR by
``convert._bit_rows``: a bit row per vertex and an alive mask, so a
deletion clears one bit and a symmetric difference is a popcount.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .convert import SdDegenSequence, _bit_rows, _blocks, _eliminate, _ids, _mask, _sds
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


def sd_sequence_randomized(g: Graph, cfg: SdConfig) -> tuple[SdDegenSequence, WidthReport]:
    """Randomized sd-degeneracy sequence construction.

    While more than 2g vertices remain: sample X with probability p_hat per
    vertex, partition the vertices by their neighborhood toward X (the bytes
    of each bit row AND the mask of X, a key into a dict, so the classes
    come in the order of their least vertex), form disjoint pairs of
    ascending ids within each class, keep those with verified
    sd <= gamma, measured in one batched call before the round deletes
    anything, and delete their first elements.  The remainder is finished
    with smallest-two-id pairs.  Raises CapExceeded past cfg.cap iterations.
    """
    if g.n < 2:
        raise InputError("need at least two vertices")
    rng = random.Random(cfg.seed)
    rows, alive = _bit_rows(g)
    pairs: list[tuple[int, int]] = []
    loop_sds: list[int] = []
    iterations = 0
    while len(live := _ids(alive)) > 2 * cfg.g:
        iterations += 1
        if iterations > cfg.cap:
            raise CapExceeded(iterations - 1)
        toward = _mask([v for v in live.tolist() if rng.random() < cfg.p_hat], rows.shape[1])
        buckets: dict[bytes, list[int]] = {}
        for b in _blocks(len(live), rows[0].nbytes):
            for v, key in zip(live[b].tolist(), rows[live[b]] & toward):
                buckets.setdefault(key.tobytes(), []).append(v)
        heads = [v for part in buckets.values() for v in part[:len(part) & ~1]]
        us, vs = np.array(heads, np.int64).reshape(-1, 2).T
        sds = _sds(rows, alive, us, vs)
        ok = sds <= cfg.gamma
        pairs += zip(us[ok].tolist(), vs[ok].tolist())
        loop_sds += sds[ok].tolist()
        alive &= ~_mask(us[ok], rows.shape[1])
    tail = list(zip(live.tolist(), live[1:].tolist()))
    tail_sds = tuple(len(a) + len(b) for _, _, a, b in _eliminate(rows, alive, tail))
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
    current symmetric difference (lexicographic ties: the first minimum in
    ``np.triu_indices`` order) and delete its first element."""
    if g.n < 2:
        raise InputError("need at least two vertices")
    rows, alive = _bit_rows(g)
    pairs: list[tuple[int, int]] = []
    sds: list[int] = []
    for k in range(g.n, 1, -1):
        us, vs = _ids(alive)[np.array(np.triu_indices(k, 1))]
        at = _sds(rows, alive, us, vs)
        best = np.argmin(at)
        pairs.append((us[best].item(), vs[best].item()))
        sds.append(at[best].item())
        alive &= ~_mask(us[best], rows.shape[1])
    return SdDegenSequence(tuple(pairs)), WidthReport(tuple(sds))


def validate_sequence(g: Graph, seq: SdDegenSequence) -> WidthReport:
    """Replay the deletions, checking structure and computing every step's
    symmetric difference in the current induced subgraph."""
    seq.check_structure(g.n)
    return WidthReport(tuple(len(a) + len(b) for *_, a, b in _eliminate(*_bit_rows(g), seq.pairs)))
