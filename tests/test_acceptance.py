"""Acceptance gate: one criterion per test, one PASS/FAIL line each."""

import math
import random
import sys
import time
import warnings
from contextlib import contextmanager

from stmgraph import (CapExceeded, LinearOrder, SdConfig,
                      adjacency_matmul, apsp, bfs_sssp_oracle,
                      clean_same_sign, complement_partition, cseq_shorten,
                      cseq_to_stm, dag_to_distance_model,
                      dag_to_graph, decode_bruteforce, graphs_equal,
                      ibp_matvec, ibp_to_dag, ibp_to_graph,
                      ibp_to_positive_model, inclusion_forest,
                      preset_twinwidth, radius_r_width,
                      scattered_maximal_subset, sd_sequence_randomized,
                      sdseq_to_stm, stm_to_ibp, validate,
                      validate_sequence, zero_one_bfs)
from stmgraph.gen import (planted_sdseq, random_cseq, random_stm,
                          random_stm_sparse)
from stmgraph.matmul import dense_matmul_oracle
from stmgraph.stm import SignedTreeModel

import conftest
from conftest import FIG1_CHILDREN, FIG1_PAIRS_A, FIG1_PAIRS_B, counting_group, disjoint
from test_rect import brute_forest_parents, random_laminar


def _report(line):
    print(line, file=sys.__stderr__)
    conftest.ACCEPTANCE_LINES.append(line)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        _report(f"[ACCEPTANCE] criterion {num}: FAIL - {desc}")
        raise
    _report(f"[ACCEPTANCE] criterion {num}: PASS - {desc}")


def test_criterion_1_decode_pipeline_equivalence():
    with criterion(1, "decode-pipeline equivalence on 1000 models in < 60 s"):
        t0 = time.perf_counter()
        for seed in range(1000):
            rng = random.Random(seed)
            n = rng.randint(2, 64)
            model = random_stm(n, rng.randint(0, 4 * n), seed=seed)
            g = decode_bruteforce(model)
            ibp = stm_to_ibp(model)
            assert graphs_equal(ibp_to_graph(ibp), g), seed
            assert graphs_equal(dag_to_graph(ibp_to_dag(ibp)), g), seed
            assert graphs_equal(decode_bruteforce(ibp_to_positive_model(ibp)), g), seed
        elapsed = time.perf_counter() - t0
        assert elapsed < 60, f"took {elapsed:.1f} s"


def test_criterion_2_figure_golden(fig1_model):
    with criterion(2, "14-vertex reference model decodes per its description"):
        g = decode_bruteforce(fig1_model)
        assert g.has_edge(8, 4)
        assert g.has_edge(8, 2)
        assert not g.has_edge(8, 7)
        crossing = SignedTreeModel(14, FIG1_CHILDREN, FIG1_PAIRS_A,
                                   FIG1_PAIRS_B + [(16, 26)])
        report = validate(crossing)
        assert any(k == "crossing" for k, _ in report.violations)


def test_criterion_3_size_bounds():
    with criterion(3, "size bounds of every conversion, asserted exactly"):
        for seed in range(300):
            rng = random.Random(seed)
            n = rng.randint(2, 64)
            model = random_stm(n, rng.randint(0, 4 * n), seed=seed)
            cleaned = clean_same_sign(model)
            ibp = stm_to_ibp(model)
            assert len(ibp.quads) <= \
                3 * len(cleaned.pairs_a) + len(cleaned.pairs_b), seed
            dag = ibp_to_dag(ibp)
            log = max(1, math.ceil(math.log2(n)))
            new_edges = len(dag.edge_rows) - 2 * (n - 1)
            assert new_edges <= (2 * log + 1) * len(ibp.quads), seed
            ptm = ibp_to_positive_model(ibp)
            assert len(ptm.pairs_b) <= 4 * log * log * max(1, len(ibp.quads)), seed
        for seed in range(100):
            rng = random.Random(seed)
            n = rng.randint(2, 48)
            g, seq = planted_sdseq(n, rng.randint(0, 4), seed=seed)
            d = validate_sequence(g, seq).width
            assert sdseq_to_stm(g, seq).num_pairs <= (d + 1) * (n - 1), seed
        for seed in range(100):
            rng = random.Random(seed)
            n = rng.randint(2, 24)
            seq = random_cseq(n, rng.randint(0, 3 * n), seed=seed)
            assert cseq_to_stm(seq).num_pairs <= seq.num_resolves + n, seed
            w = radius_r_width(seq, 1)
            assert len(cseq_shorten(seq).ops) <= (2 * w + 1) * n, seed


def test_criterion_4_distance_correctness():
    with criterion(4, "APSP equals the BFS oracle on 500 small + 50 larger models"):
        for seed in range(500):
            rng = random.Random(seed)
            n = rng.randint(2, 64)
            model = random_stm(n, rng.randint(0, 3 * n), seed=seed)
            g = decode_bruteforce(model)
            mat = apsp(model)
            for s in range(1, n + 1):
                assert mat[s - 1].tolist() == bfs_sssp_oracle(g, s), (seed, s)
        for seed in range(50):
            rng = random.Random(10_000 + seed)
            n = rng.randint(65, 512)
            model = random_stm_sparse(n, 2 * n, seed=seed)
            g = decode_bruteforce(model)
            mat = apsp(model)
            for s in range(1, n + 1):
                assert mat[s - 1].tolist() == bfs_sssp_oracle(g, s), (seed, s)


def test_criterion_5_geometry_oracles():
    with criterion(5, "geometry subroutines match brute force"):
        import numpy as np
        for seed in range(200):
            rng = random.Random(seed)
            rects = random_laminar(rng, grid=rng.randint(10, 64),
                                   target=rng.randint(1, 200))
            f = inclusion_forest(rects)
            assert f.up.tolist() == brute_forest_parents(rects), seed
        for seed in range(200):
            rng = random.Random(seed)
            gx = rng.randint(8, 64)
            gy = rng.randint(8, 64)
            outer = (1, gx, 1, gy)
            holes = []
            tries = 300
            while len(holes) < 50 and tries:
                tries -= 1
                x1 = rng.randint(1, gx)
                y1 = rng.randint(1, gy)
                h = (x1, rng.randint(x1, min(x1 + 10, gx)),
                     y1, rng.randint(y1, min(y1 + 10, gy)))
                if all(disjoint(h, o) for o in holes):
                    holes.append(h)
            out = complement_partition(outer, holes)
            assert len(out) <= 3 * len(holes) + 1, seed
            cover = np.zeros((gx + 1, gy + 1), dtype=np.int32)
            for x1, x2, y1, y2 in holes + out.tolist():
                cover[x1 - 1:x2, y1 - 1:y2] += 1
            assert (cover[:gx, :gy] == 1).all(), seed


def test_criterion_6_randomized_sd_degeneracy():
    with criterion(6, "randomized sd-degeneracy on 100 planted instances, "
                      "<= 5 cap failures"):
        failures = 0
        for seed in range(100):
            rng = random.Random(seed)
            n = rng.randint(8, 256)
            d = rng.randint(1, 4)
            g, _ = planted_sdseq(n, d, seed=seed)
            base = preset_twinwidth(d, 1.0, n)
            cfg = SdConfig(base.g, base.gamma, base.p_hat, base.cap, seed)
            try:
                seq, report = sd_sequence_randomized(g, cfg)
            except CapExceeded:
                failures += 1
                continue
            replay = validate_sequence(g, seq)
            k = len(report.loop_sds)
            assert max(replay.loop_sds[:k], default=0) <= cfg.gamma, seed
        assert failures <= 5, f"{failures} cap failures"


def test_criterion_7_matrix_multiply():
    with criterion(7, "adjacency_matmul equals dense multiply; "
                      "matvec op count <= 8(n+|B|)"):
        for seed in range(50):
            rng = random.Random(seed)
            n = rng.randint(2, 128)
            model = random_stm(n, rng.randint(0, 3 * n), seed=seed)
            g = decode_bruteforce(model)
            ibp = stm_to_ibp(model)
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            order = LinearOrder.from_vertex_sequence(perm)
            N = [[rng.randrange(-10 ** 9, 10 ** 9) for _ in range(n)]
                 for _ in range(n)]
            assert adjacency_matmul(g, order, N, ibp).tolist() == \
                dense_matmul_oracle(g, order, N), seed
            group, ops = counting_group()
            ibp_matvec(ibp, [1] * n, group)
            assert ops[0] <= 8 * (n + len(ibp.quads)), seed


def test_criterion_8_scattered_sets():
    with criterion(8, "scattered sets: r-scattered, size <= c, maximal"):
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randint(2, 40)
            model = random_stm(n, rng.randint(0, 3 * n), seed=seed)
            g = decode_bruteforce(model)
            dm = dag_to_distance_model(ibp_to_dag(stm_to_ibp(model)))
            X = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
            c = rng.randint(1, 4)
            r = rng.randint(1, 3)
            S = scattered_maximal_subset(dm, X, c, r)
            assert len(S) <= c, seed
            dists = {v: bfs_sssp_oracle(g, v) for v in set(S) | set(X)}
            for i, a in enumerate(S):
                for b in S[i + 1:]:
                    assert dists[a][b - 1] > r, (seed, a, b)
            if len(S) < c:
                for x in X:
                    if x not in S:
                        assert any(dists[x][s - 1] <= r for s in S), (seed, x)


def fit_through_origin(xs: list[float], ys: list[float]) -> tuple[float, float]:
    """Least-squares slope through the origin and the maximum relative
    residual |y - s*x| / y."""
    denom = sum(x * x for x in xs)
    slope = sum(x * y for x, y in zip(xs, ys)) / denom if denom else 0.0
    resid = max((abs(y - slope * x) / y for x, y in zip(xs, ys) if y), default=0.0)
    return slope, resid


def test_criterion_9_operation_count_scaling():
    # informational gate with a soft threshold: the fit is logged and a
    # miss raises a warning, not a suite failure
    xs, ys = [], []
    for k in range(10, 16):
        n = 1 << k
        reps = 10 if k <= 13 else 5
        total = 0
        for s in range(reps):
            model = random_stm_sparse(n, 4 * n, seed=1000 * k + s)
            dag = ibp_to_dag(stm_to_ibp(model))
            total += zero_one_bfs(dag_to_distance_model(dag), 1).ops
        xs.append(model.num_pairs * math.log2(n))
        ys.append(total / reps)
    slope, resid = fit_through_origin(xs, ys)
    desc = (f"sssp ops fit C * p * log n: slope={slope:.3f} "
            f"max_residual={resid:.3f} (soft threshold 0.20)")
    if resid < 0.20:
        _report(f"[ACCEPTANCE] criterion 9: PASS - {desc}")
    else:
        _report(f"[ACCEPTANCE] criterion 9: FAIL - {desc}")
        warnings.warn(desc)
