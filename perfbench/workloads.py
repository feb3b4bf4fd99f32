"""The benchmark's three workloads.

All run closed loop with one caller, one process and no threads.  Each
makes its inputs from the seed (untimed), then runs passes; a pass records
its timings into ``rec`` (name -> list of seconds) and returns the outputs
the checks need.  Calls go through module attributes such as
``convert.stm_to_ibp`` so that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
from pathlib import Path

from stmgraph import cli, convert, gen, matmul, paths
from stmgraph import io as fio
from stmgraph.graph import LinearOrder

import checks

now = time.perf_counter


def int64_vector(rng: random.Random, n: int) -> list[int]:
    return [rng.getrandbits(64) - (1 << 63) for _ in range(n)]


def build(text: str):
    """The set-up every library workload times: .stm text -> distance model."""
    model = fio.parse_stm(text, check_crossing=False)
    ibp = convert.stm_to_ibp(model)
    dag = convert.ibp_to_dag(ibp)
    return model, ibp, dag, paths.dag_to_distance_model(dag)


def biclique_area(ibp) -> int:
    return sum((b - a + 1) * (d - c + 1) for a, b, c, d in ibp.bicliques)


class BuildSparse:
    """Sparse random model as .stm text, built to a distance model, then
    sssp from a few sources on the prebuilt model and one matvec.  The first
    query after a build also pays the collector for the build's garbage, so
    one source alone would make a poor median.

    The model comes from one fixed generator seed and the run's seed drives
    the sources and the vector: between generator seeds the distance
    model's size varies by 14 % (IQR over median) and the build's peak RSS
    by more, with when the collector happens to run.
    """

    name = "build-sparse-16k"
    why = ("paper scaling regime at the largest size a run affords; "
           "conversion layers do ~90% of the work")

    SOURCES = 4
    MODEL_SEED = 0

    def __init__(self, n: int = 1 << 14, pairs: int = 1 << 16):
        self.n, self.pairs = n, pairs

    def params(self) -> dict:
        return {"generator": "random_stm_sparse", "n": self.n, "num_pairs": self.pairs,
                "model_seed": self.MODEL_SEED, "sssp_sources": self.SOURCES}

    def prepare(self, seed: int, workdir: Path) -> dict:
        rng = random.Random(seed)
        model = gen.random_stm_sparse(self.n, self.pairs, seed=self.MODEL_SEED)
        return {"seed": seed, "text": fio.format_stm(model), "n": self.n,
                "A": len(model.pairs_a), "B": len(model.pairs_b),
                "sources": rng.sample(range(1, self.n + 1), self.SOURCES),
                "x": int64_vector(rng, self.n)}

    def run_pass(self, inp: dict, rec: dict, tracer=None) -> dict:
        t0 = now()
        model, ibp, dag, dm = build(inp["text"])
        rec["setup"].append(now() - t0)
        trees = []
        for s in inp["sources"]:
            t = now()
            trees.append(paths.sssp(dm, s))
            rec["sssp"].append(now() - t)
        t = now()
        y = matmul.ibp_matvec(ibp, inp["x"])
        rec["matvec"].append(now() - t)
        rec["total"].append(now() - t0)
        return {"model": model, "ibp": ibp, "dag": dag, "dm": dm, "trees": trees, "y": y}

    def ops(self, out: dict) -> int:
        return 2 + len(out["trees"])

    def fingerprint(self, out: dict) -> dict:
        dag = out["dag"]
        return {"setup": hash((out["ibp"].bicliques, dag.num_nodes, dag.edges, out["dm"].size)),
                "sssp": hash(tuple(out["trees"])), "matvec": hash(tuple(out["y"]))}

    def check(self, inp: dict, out: dict):
        return checks.check_build(inp, out)

    def sizes(self, inp: dict, out: dict) -> dict:
        return {"n": inp["n"], "A": inp["A"], "B": inp["B"],
                "convert.decoded_edges": biclique_area(out["ibp"])}

    def traced(self):
        return self


class QuerySparse:
    """Model built once, then a seeded stream of single queries, then one
    apsp and one n x n adjacency_matmul.

    The model comes from one fixed generator seed and the run's seed drives
    every query, vector and matrix: at n=1024 the distance model's size
    varies by 30 % (IQR over median) between generator seeds, which would
    swamp any bound a run could be held to.
    """

    name = "query-sparse-1k"
    why = ("paths and matmul do ~98% of the work; single queries beside "
           "batched apsp/matmul")
    extra_setups = 4
    N, PAIRS, SSSP, MATVEC, SCATTER, C, R = 1024, 4096, 200, 200, 32, 16, 2
    MODEL_SEED = 0

    def params(self) -> dict:
        return {"generator": "random_stm_sparse", "n": self.N, "num_pairs": self.PAIRS,
                "model_seed": self.MODEL_SEED,
                "sssp": self.SSSP, "matvec": self.MATVEC, "scatter": self.SCATTER,
                "scatter_c": self.C, "scatter_r": self.R,
                "set_ups": self.extra_setups + 1}

    def prepare(self, seed: int, workdir: Path) -> dict:
        n = self.N
        rng = random.Random(seed)
        model = gen.random_stm_sparse(n, self.PAIRS, seed=self.MODEL_SEED)
        stream = ([("sssp", rng.randint(1, n)) for _ in range(self.SSSP)]
                  + [("matvec", int64_vector(rng, n)) for _ in range(self.MATVEC)]
                  + [("scatter", sorted(rng.sample(range(1, n + 1), n // 4)))
                     for _ in range(self.SCATTER)])
        rng.shuffle(stream)
        return {"seed": seed, "text": fio.format_stm(model), "n": n,
                "A": len(model.pairs_a), "B": len(model.pairs_b), "stream": stream,
                "matrix": [int64_vector(rng, n) for _ in range(n)],
                "c": self.C, "r": self.R}

    def run_pass(self, inp: dict, rec: dict, tracer=None) -> dict:
        for _ in range(self.extra_setups):
            t = now()
            build(inp["text"])
            rec["setup"].append(now() - t)
        t0 = now()
        model, ibp, dag, dm = build(inp["text"])
        rec["setup"].append(now() - t0)
        results = []
        for kind, arg in inp["stream"]:
            t = now()
            if kind == "sssp":
                res = paths.sssp(dm, arg)
            elif kind == "matvec":
                res = matmul.ibp_matvec(ibp, arg)
            else:
                res = paths.scattered_maximal_subset(dm, arg, self.C, self.R)
            rec[kind].append(now() - t)
            results.append(res)
        t = now()
        dist = paths.apsp(dm)
        rec["apsp"].append(now() - t)
        t = now()
        g = convert.ibp_to_graph(ibp)
        prod = matmul.adjacency_matmul(g, LinearOrder.identity(self.N), inp["matrix"], ibp)
        rec["matmul"].append(now() - t)
        rec["total"].append(now() - t0)
        return {"model": model, "ibp": ibp, "graph": g, "stream": results,
                "apsp": dist, "matmul": prod}

    def ops(self, out: dict) -> int:
        return self.extra_setups + 1 + len(out["stream"]) + 2

    def fingerprint(self, out: dict) -> dict:
        return {"setup": hash(out["ibp"].bicliques),
                "stream": hash(tuple(r if isinstance(r, paths.ShortestPathTree) else tuple(r)
                                     for r in out["stream"])),
                "apsp": hash(tuple(map(tuple, out["apsp"]))),
                "matmul": hash(tuple(map(tuple, out["matmul"])))}

    def check(self, inp: dict, out: dict):
        return checks.check_query(inp, out)

    def sizes(self, inp: dict, out: dict) -> dict:
        return {"n": inp["n"], "A": inp["A"], "B": inp["B"],
                "convert.decoded_edges": biclique_area(out["ibp"])}

    def traced(self):
        return self


# Two transversal pairs that cross: (5,3) and (1,6) on the tree ((1,2),(3,4)).
CROSSING_STM = "4\n5 1 2\n6 3 4\n7 5 6\nA 5 3\nB 1 6\n"


class CliPlanted:
    """The user path through ``stmgraph.cli.main`` on files, from planted
    sd-sequence graphs, each followed by one crossing model that must exit 1.

    A pass runs the script on ``instances`` graphs made from the seed: the
    model size, and with it the quadratic validate, varies a lot between
    graphs, and two per pass halve that variance in the run's figures.
    """

    name = "cli-planted-256"
    why = ("user path from files; every .stm load runs the quadratic validate; "
           "sd-sequence models with many holes per rectangle")
    N, WIDTH, SOURCES, C, R = 256, 2, 8, 16, 2
    SETUP_COMMANDS = 5

    def __init__(self, instances: int = 2):
        self.instances = instances

    def params(self) -> dict:
        return {"generator": "planted_sdseq", "n": self.N, "width": self.WIDTH,
                "instances": self.instances, "preset": "tww:2,1",
                "sssp_sources": self.SOURCES, "scatter_c": self.C, "scatter_r": self.R}

    def prepare(self, seed: int, workdir: Path) -> dict:
        return {"instances": [self._instance(seed * self.instances + i, workdir / str(i))
                              for i in range(self.instances)]}

    def _instance(self, seed: int, workdir: Path) -> dict:
        n = self.N
        workdir.mkdir()
        g, _ = gen.planted_sdseq(n, self.WIDTH, seed=seed)
        rng = random.Random(seed)
        matrix = [int64_vector(rng, n) for _ in range(n)]
        sources = rng.sample(range(1, n + 1), self.SOURCES)
        f = {k: str(workdir / name) for k, name in (
            ("graph", "graph.g"), ("matrix", "matrix.mat"), ("crossing", "crossing.stm"),
            ("sdseq", "model.sdseq"), ("stm", "model.stm"), ("ibp", "model.ibp"),
            ("dag", "model.dag"), ("scatter", "scatter.txt"), ("decode", "decoded.g"),
            ("matmul", "product.mat"), ("apsp", "apsp.txt"), ("bad", "crossing.ibp"))}
        f.update({f"sssp-{s}": str(workdir / f"sssp-{s}.txt") for s in sources})
        Path(f["graph"]).write_text(fio.format_graph(g))
        Path(f["matrix"]).write_text(fio.format_matrix(matrix))
        Path(f["crossing"]).write_text(CROSSING_STM)
        c, r = str(self.C), str(self.R)
        script = [
            ("sdseq", ["sdseq", f["graph"], "--preset", "tww:2,1", "--seed", str(seed),
                       "--out", f["sdseq"]], 0),
            ("convert-sdseq-stm", ["convert", "sdseq-stm", f["sdseq"], "--graph", f["graph"],
                                   "--out", f["stm"]], 0),
            ("validate-stm", ["validate", "stm", f["stm"], "--against", f["graph"]], 0),
            ("convert-stm-ibp", ["convert", "stm-ibp", f["stm"], "--out", f["ibp"]], 0),
            ("convert-ibp-dag", ["convert", "ibp-dag", f["ibp"], "--out", f["dag"]], 0),
        ]
        script += [(f"sssp-{s}", ["sssp", f["dag"], "--kind", "dag", "--source", str(s),
                                  "--out", f[f"sssp-{s}"]], 0) for s in sources]
        script += [
            ("scatter", ["scatter", f["dag"], "--kind", "dag", "--c", c, "--r", r,
                         "--out", f["scatter"]], 0),
            ("decode", ["decode", f["stm"], "--out", f["decode"]], 0),
            ("matmul", ["matmul", f["stm"], f["matrix"], "--out", f["matmul"]], 0),
            ("apsp", ["apsp", f["ibp"], "--kind", "ibp", "--out", f["apsp"]], 0),
            ("crossing-stm-ibp", ["convert", "stm-ibp", f["crossing"], "--out", f["bad"]], 1),
        ]
        return {"seed": seed, "graph": g, "matrix": matrix, "sources": sources,
                "files": f, "script": script, "c": self.C, "r": self.R}

    @staticmethod
    def _call(argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as e:  # argparse rejects the arguments
                rc = e.code if isinstance(e.code, int) else 2
        return rc, out.getvalue(), err.getvalue()

    def run_pass(self, inp: dict, rec: dict, tracer=None) -> dict:
        t0 = now()
        outs = [self._script(inst, rec, tracer) for inst in inp["instances"]]
        rec["total"].append(now() - t0)
        for inst, out in zip(inp["instances"], outs):
            out["files"] = {key: Path(path).read_text() if Path(path).exists() else ""
                            for key, path in inst["files"].items()}
        return {"instances": outs}

    def _script(self, inst: dict, rec: dict, tracer) -> dict:
        exits, stdout, stderr = [], {}, {}
        t0 = now()
        for i, (label, argv, want) in enumerate(inst["script"]):
            kind = "sssp" if label.startswith("sssp-") else label
            if tracer is None:
                span = contextlib.nullcontext()
            elif want:
                span = tracer.span("cli.convert-stm-ibp", run="negative")
            else:
                span = tracer.span(f"cli.{kind}")
            t = now()
            with span:
                rc, text, err = self._call(argv)
            dt = now() - t
            rec[f"cli.{kind}"].append(dt)
            if kind in ("sssp", "scatter", "apsp", "matmul"):
                rec[kind].append(dt)
            if i == self.SETUP_COMMANDS - 1:
                rec["setup"].append(now() - t0)
            exits.append((label, want, rc))
            if tracer is not None and rc:
                tracer.count("cli.nonzero_exits", 1, "add")
            stdout[label], stderr[label] = text, err
        return {"exits": exits, "stdout": stdout, "stderr": stderr}

    def ops(self, out: dict) -> int:
        return sum(len(o["exits"]) for o in out["instances"])

    def fingerprint(self, out: dict) -> dict:
        fp = {}
        for i, o in enumerate(out["instances"]):
            fp.update({f"{i}:{label}": hash((rc, o["stdout"][label]))
                       for label, _, rc in o["exits"]})
            fp.update({f"{i}:file:{key}": hash(text) for key, text in o["files"].items()})
        return fp

    def check(self, inp: dict, out: dict):
        return [fail for inst, o in zip(inp["instances"], out["instances"])
                for fail in checks.check_cli(inst, o)]

    def sizes(self, inp: dict, out: dict) -> list[dict]:
        sizes = []
        for inst, o in zip(inp["instances"], out["instances"]):
            signs = [ln[:2] for ln in o["files"]["stm"].splitlines()]
            sizes.append({"seed": inst["seed"], "n": self.N, "A": signs.count("A "),
                          "B": signs.count("B "), "convert.decoded_edges": inst["graph"].m})
        return sizes

    def traced(self) -> "CliPlanted":
        """The traced run follows one graph, so its counts are per script."""
        return CliPlanted(instances=1)


WORKLOADS = {w.name: w for w in (BuildSparse(), QuerySparse(), CliPlanted())}
