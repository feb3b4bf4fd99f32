"""Benchmark harness: per-stage wall times and operation counters over
geometric n scales, as line-oriented key=value records.

This module reports; it asserts nothing.
"""

from __future__ import annotations

import math
import time
from typing import Iterable

from .convert import ibp_to_dag, stm_to_ibp
from .gen import random_stm_sparse
from .matmul import ibp_matvec
from .paths import dag_to_distance_model, zero_one_bfs


def _record(**kv) -> str:
    return " ".join(f"{k}={v}" for k, v in kv.items())


def bench_pipeline(ns: Iterable[int] = (1 << 10, 1 << 11, 1 << 12, 1 << 13),
                   pairs_per_n: int = 4, seed: int = 0,
                   out=None) -> list[dict]:
    """Sparse random models at each scale: convert, build the distance model,
    run one SSSP search on it (``zero_one_bfs`` from vertex 1, the search
    behind ``sssp``) and one matvec, and log times plus op counters: the
    search's ``ops`` and the matvec's group-op count.  Each stage has its
    own time: ``dag_s`` times ``ibp_to_dag`` alone, ``dm_s``
    ``dag_to_distance_model``."""
    records = []
    xs = []
    ys = []
    for n in ns:
        t0 = time.perf_counter()
        stm = random_stm_sparse(n, pairs_per_n * n, seed=seed + n)
        t1 = time.perf_counter()
        ibp = stm_to_ibp(stm)
        t2 = time.perf_counter()
        dag = ibp_to_dag(ibp)
        t3 = time.perf_counter()
        dm = dag_to_distance_model(dag)
        t4 = time.perf_counter()
        sssp_ops = zero_one_bfs(dm, 1).ops
        t5 = time.perf_counter()
        mm: dict = {}
        ibp_matvec(ibp, list(range(n)), counters=mm)
        t6 = time.perf_counter()
        p = stm.num_pairs
        rec = dict(n=n, pairs=p, bicliques=len(ibp.quads),
                   model_size=dm.size, sssp_ops=sssp_ops,
                   matvec_ops=mm["ops"],
                   gen_s=round(t1 - t0, 4), ibp_s=round(t2 - t1, 4),
                   dag_s=round(t3 - t2, 4), dm_s=round(t4 - t3, 4),
                   sssp_s=round(t5 - t4, 4), matvec_s=round(t6 - t5, 4))
        records.append(rec)
        xs.append(p * math.log2(n))
        ys.append(sssp_ops)
        if out is not None:
            print(_record(stage="pipeline", **rec), file=out)
    slope, _ = fit_through_origin(xs, ys)  # sssp ops against p*log2(n)
    if out is not None:
        print(_record(stage="fit", metric="sssp_ops_per_plogn", slope=round(slope, 3)),
              file=out)
    return records


def fit_through_origin(xs: list[float], ys: list[float]) -> tuple[float, float]:
    """Least-squares slope through the origin and the maximum relative
    residual |y - s*x| / y."""
    denom = sum(x * x for x in xs)
    slope = sum(x * y for x, y in zip(xs, ys)) / denom if denom else 0.0
    resid = max((abs(y - slope * x) / y for x, y in zip(xs, ys) if y), default=0.0)
    return slope, resid
