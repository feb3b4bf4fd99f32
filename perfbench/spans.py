"""Span recorder for the traced benchmark run.

The traced run wraps public stmgraph functions in every stmgraph module
that holds a reference to them (so calls made inside composite entry
points, such as ``stm_to_ibp`` -> ``clean_same_sign`` ->
``inclusion_forest``, are seen too), records one span per call in memory
and derives self times, call counts and size counters from them.  Nothing
in the program itself changes.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import time
from collections import defaultdict

# layer module -> public functions wrapped in the traced run
TRACED = {
    "io": ("parse_stm", "parse_graph", "parse_ibp", "parse_dag", "parse_sdseq",
           "parse_matrix", "format_stm", "format_graph", "format_ibp",
           "format_dag", "format_sdseq", "format_matrix",
           "format_distance_matrix", "format_spt"),
    "stm": ("validate", "decode_bruteforce", "clean_same_sign"),
    "rect": ("inclusion_forest", "complement_partition"),
    "convert": ("stm_to_ibp", "ibp_to_dag", "ibp_to_graph", "sdseq_to_stm"),
    "paths": ("dag_to_distance_model", "zero_one_bfs", "sssp", "apsp",
              "scattered_maximal_subset"),
    "matmul": ("ibp_matvec", "adjacency_matmul"),
    "sddegen": ("sd_sequence_randomized",),
}
SPAN_NAME = {"scattered_maximal_subset": "scatter"}
LAYERS = ("io", "stm", "rect", "convert", "paths", "matmul", "sddegen", "cli")


class TraceError(RuntimeError):
    """A function the traced run must wrap is missing from the program."""


class Tracer:
    """In-memory spans ``[name, start, end, parent, run]`` plus counters.

    ``run`` tags every span and counter, so the main pass, the negative
    input and the growth build can be told apart afterwards.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.run = "pass"
        self.counters: dict[str, dict[str, float]] = defaultdict(dict)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, run: str | None = None):
        saved = self.run
        if run is not None:
            self.run = run
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)
            self.run = saved

    def count(self, key: str, value: float, how: str = "set") -> None:
        c = self.counters[self.run]
        if how == "add":
            c[key] = c.get(key, 0) + value
        elif how == "max":
            c[key] = max(c.get(key, value), value)
        else:
            c[key] = value

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self, args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every name in TRACED wherever a stmgraph module refers to it;
        restore the originals on exit."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "stmgraph" or k.startswith("stmgraph.")]
        try:
            for layer, names in TRACED.items():
                home = sys.modules.get(f"stmgraph.{layer}")
                if home is None:
                    raise TraceError(f"module stmgraph.{layer} is not loaded")
                for fn_name in names:
                    orig = getattr(home, fn_name, None)
                    if not callable(orig):
                        raise TraceError(f"stmgraph.{layer}.{fn_name} no longer exists")
                    wrapper = self._wrap(f"{layer}.{SPAN_NAME.get(fn_name, fn_name)}", orig)
                    for mod in modules:
                        for attr, val in list(vars(mod).items()):
                            if val is orig:
                                setattr(mod, attr, wrapper)
                                self._patched.append((mod, attr, orig))
            yield self
        finally:
            for mod, attr, orig in reversed(self._patched):
                setattr(mod, attr, orig)
            self._patched.clear()

    # -- aggregation ------------------------------------------------------

    def per_function(self, run: str = "pass") -> dict[str, dict[str, float]]:
        """name -> {calls, total_s (inclusive), self_s} over spans of ``run``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, r) in enumerate(self.spans):
            if r != run:
                continue
            f = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            f["calls"] += 1
            f["total_s"] += end - start
            f["self_s"] += end - start - child[i]
        return out


# -- size and bound counters, recorded as each wrapped call returns ----------

def _parse_stm(t: Tracer, args, kwargs, out) -> None:
    t.count("io.stm_bytes", len(args[0]), "add")


def _clean(t: Tracer, args, kwargs, out) -> None:
    t.count("stm.pairs", args[0].num_pairs)
    t.count("stm.pairs_after_clean", out.num_pairs)
    t.count("_clean_bound", 3 * len(out.pairs_a) + len(out.pairs_b))


def _complement(t: Tracer, args, kwargs, out) -> None:
    holes = len(args[1]) if len(args) > 1 else len(kwargs["holes"])
    t.count("rect.complement_pieces", len(out), "add")
    t.count("_pieces_bound", 3 * holes + 1, "add")
    if holes:
        t.count("_pieces_max_ratio", len(out) / (3 * holes + 1), "max")


def _stm_to_ibp(t: Tracer, args, kwargs, out) -> None:
    t.count("convert.bicliques", len(out.bicliques))
    bound = t.counters[t.run].get("_clean_bound", 0)
    t.count("convert.bicliques_over_bound", len(out.bicliques) / bound if bound else 0.0)
    t.count("convert.decoded_edges",
            sum((b - a + 1) * (d - c + 1) for a, b, c, d in out.bicliques))


def _ibp_to_dag(t: Tracer, args, kwargs, out) -> None:
    n, k = out.n, len(out.compressed)
    log = max(1, math.ceil(math.log2(n))) if n > 1 else 1
    extra = len(out.edges) - 2 * (n - 1)
    t.count("convert.dag_nodes", out.num_nodes)
    t.count("convert.dag_edges", len(out.edges))
    t.count("_dag_extra", extra)
    t.count("_dag_extra_bound", (2 * log + 1) * k)
    t.count("convert.dag_extra_over_bound", extra / ((2 * log + 1) * k) if k else 0.0)


def _sdseq_to_stm(t: Tracer, args, kwargs, out) -> None:
    t.count("_sdseq_pairs", out.num_pairs)
    t.count("_sdseq_n", out.n)


def _dm(t: Tracer, args, kwargs, out) -> None:
    t.count("paths.dm_size", out.size)
    t.count("_dm_edges", out.num_edges)


def _bfs(t: Tracer, args, kwargs, out) -> None:
    t.count("paths.relax_ops", out.ops, "add")


def _sdseq(t: Tracer, args, kwargs, out) -> None:
    t.count("sddegen.width", out[1].width)


HOOKS = {
    "io.parse_stm": _parse_stm,
    "stm.clean_same_sign": _clean,
    "rect.complement_partition": _complement,
    "convert.stm_to_ibp": _stm_to_ibp,
    "convert.ibp_to_dag": _ibp_to_dag,
    "convert.sdseq_to_stm": _sdseq_to_stm,
    "paths.dag_to_distance_model": _dm,
    "paths.zero_one_bfs": _bfs,
    "sddegen.sd_sequence_randomized": _sdseq,
}


def layer_report(tracer: Tracer, run: str = "pass") -> dict[str, float]:
    """Every per-layer number of one run: per-function self time and calls,
    self time summed per layer, and the size/bound counters."""
    funcs = tracer.per_function(run)
    c = tracer.counters.get(run, {})
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}_s"] = sum(f["self_s"] for name, f in funcs.items()
                                if name.split(".")[0] == layer)
    for name, f in sorted(funcs.items()):
        out[f"{name}_s"] = f["self_s"]
        out[f"{name}_calls"] = f["calls"]
    out["io.format_s"] = sum(f["self_s"] for name, f in funcs.items()
                             if name.startswith("io.format_"))
    for key in ("io.parse_stm", "stm.validate", "rect.inclusion_forest",
                "paths.zero_one_bfs", "matmul.ibp_matvec"):
        out.setdefault(f"{key}_calls", 0)
    for key in ("io.stm_bytes", "stm.pairs", "stm.pairs_after_clean",
                "rect.complement_pieces", "cli.nonzero_exits",
                "convert.bicliques", "convert.bicliques_over_bound",
                "convert.dag_nodes", "convert.dag_edges",
                "convert.dag_extra_over_bound", "paths.dm_size",
                "convert.decoded_edges", "paths.relax_ops", "sddegen.width"):
        out[key] = c.get(key, 0)
    out["rect.pieces_over_bound"] = (
        out["rect.complement_pieces"] / c["_pieces_bound"] if c.get("_pieces_bound") else 0.0)
    sd_n, width = c.get("_sdseq_n", 0), c.get("sddegen.width", 0)
    out["convert.sdseq_pairs_over_bound"] = (
        c["_sdseq_pairs"] / ((width + 1) * (sd_n - 1)) if sd_n > 1 else 0.0)
    bfs_calls, dm_edges = out["paths.zero_one_bfs_calls"], c.get("_dm_edges", 0)
    out["paths.relax_ops_per_dm_edge"] = (
        out["paths.relax_ops"] / (bfs_calls * dm_edges) if bfs_calls and dm_edges else 0.0)
    return out
