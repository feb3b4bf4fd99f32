"""Command-line interface.

Exit codes: 0 success, 1 validation failure, 2 I/O or parse error.
``main`` is the one place that maps exceptions to them: ``CliError`` carries
its code, ``FormatError`` is 2, and every other ``ValueError`` is 1.  Every
``.stm`` input is parsed by ``_parse_stm`` and checked by ``_to_ibp``, the
one check of the model; ``sssp``, ``apsp`` and ``scatter`` reach their
distance model through ``_load_dm`` from any ``--kind``.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import io as fio
from .convert import (cseq_replay, cseq_shorten, cseq_to_stm, ibp_to_dag,
                      ibp_to_graph, ibp_to_positive_model, sdseq_to_stm,
                      stm_to_ibp)
from .gen import erdos_renyi, planted_sdseq, random_cseq, random_stm
from .graph import Graph, LinearOrder, graphs_equal
from .matmul import adjacency_matmul
from .paths import apsp, dag_to_distance_model, scattered_maximal_subset, sssp
from .sddegen import (CapExceeded, SdConfig, preset_symdiff, preset_twinwidth,
                      sd_sequence_randomized, validate_sequence)
from .stm import InvalidModelError, SignedTreeModel, remove_loops, validate

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}", EXIT_IO) from None


def _write(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text)
        except OSError as e:
            raise CliError(f"cannot write {out}: {e}", EXIT_IO) from None
    else:
        sys.stdout.write(text)


def _parse_stm(path: str) -> tuple[str, SignedTreeModel]:
    """The text of the .stm file at ``path`` and its model, parsed without
    the crossing check: ``_to_ibp`` checks the model."""
    text = _read(path)
    return text, fio.parse_stm(text, check_crossing=False)


def _to_ibp(text: str, model: SignedTreeModel, loops_ok: bool = False):
    """``stm_to_ibp`` of ``model``, parsed from ``text``: the one check of a
    model, whose error is prefixed with the line of the first pair it names.
    ``loops_ok`` removes loop pairs first (non-strict semantics, as in
    ``decode``)."""
    try:
        return stm_to_ibp(remove_loops(model) if loops_ok else model)
    except InvalidModelError as e:
        raise CliError(f"line {fio.stm_pair_line(text, str(e))}: {e}",
                       EXIT_INVALID) from None


def _load_dm(path: str, kind: str):
    """The distance model of the ``kind`` (stm, ibp or dag) file at ``path``;
    a partition or DAG is trusted as parsed."""
    if kind == "dag":
        return dag_to_distance_model(fio.parse_dag(_read(path)))
    ibp = _to_ibp(*_parse_stm(path)) if kind == "stm" else fio.parse_ibp(_read(path))
    return dag_to_distance_model(ibp_to_dag(ibp))


def cmd_validate(args) -> int:
    decoded: Graph | None = None
    if args.kind == "stm":
        text, model = _parse_stm(args.file)
        try:
            ibp = _to_ibp(text, model, args.loops_ok)
        except CliError:
            # the same models fail here as in validate, which names every defect
            for msg in validate(model, strict=not args.loops_ok).messages():
                print(msg, file=sys.stderr)
            return EXIT_INVALID
        if args.against:
            decoded = ibp_to_graph(ibp)
    elif args.kind == "ibp":
        decoded = ibp_to_graph(fio.parse_ibp(_read(args.file)))
    elif args.kind == "cseq":
        text = _read(args.file)
        if args.n is None:
            raise CliError("validating a cseq requires --n", EXIT_IO)
        decoded = cseq_replay(fio.parse_cseq(text, args.n))
    elif args.kind == "sdseq":
        text = _read(args.file)
        if not args.against:
            raise CliError("validating an sdseq requires --against GRAPH", EXIT_IO)
        seq = fio.parse_sdseq(text)
        g = fio.parse_graph(_read(args.against))
        report = validate_sequence(g, seq)
        print(f"width={report.width}")
        return EXIT_OK
    if args.against and decoded is not None:
        target = fio.parse_graph(_read(args.against))
        if not graphs_equal(decoded, target):
            print("decoded graph differs from the reference graph", file=sys.stderr)
            return EXIT_INVALID
    print("ok")
    return EXIT_OK


def cmd_decode(args) -> int:
    graph = ibp_to_graph(_to_ibp(*_parse_stm(args.file), loops_ok=True))
    _write(fio.format_graph(graph), args.out)
    return EXIT_OK


def cmd_convert(args) -> int:
    mode = args.mode
    if mode == "stm-ibp":
        _write(fio.format_ibp(_to_ibp(*_parse_stm(args.file))), args.out)
        return EXIT_OK
    text = _read(args.file)
    if mode.startswith("cseq") and args.n is None:
        raise CliError(f"{mode} requires --n", EXIT_IO)
    if mode == "ibp-dag":
        out = fio.format_dag(ibp_to_dag(fio.parse_ibp(text)))
    elif mode == "ibp-ptm":
        out = fio.format_stm(ibp_to_positive_model(fio.parse_ibp(text)))
    elif mode == "sdseq-stm":
        if not args.graph:
            raise CliError("sdseq-stm requires --graph", EXIT_IO)
        g = fio.parse_graph(_read(args.graph))
        seq = fio.parse_sdseq(text)
        out = fio.format_stm(sdseq_to_stm(g, seq))
    elif mode == "cseq-stm":
        out = fio.format_stm(cseq_to_stm(fio.parse_cseq(text, args.n)))
    else:  # cseq-shorten
        out = fio.format_cseq(cseq_shorten(fio.parse_cseq(text, args.n)))
    _write(out, args.out)
    return EXIT_OK


def cmd_sssp(args) -> int:
    dm = _load_dm(args.file, args.kind)
    _write(fio.format_spt(sssp(dm, args.source), dm.n), args.out)
    return EXIT_OK


def cmd_apsp(args) -> int:
    dm = _load_dm(args.file, args.kind)
    _write(fio.format_distance_matrix(apsp(dm), dm.n), args.out)
    return EXIT_OK


def _preset_config(spec: str, n: int) -> SdConfig:
    try:
        name, rest = spec.split(":", 1)
        a, b = (float(x) for x in rest.split(","))
        if not (math.isfinite(a) and math.isfinite(b)) or name == "tww" and not a.is_integer():
            raise ValueError("a value is not finite, or f_d is no integer")
    except ValueError:
        raise CliError(f"bad preset {spec!r}; expected tww:f_d,c or symdiff:beta,c",
                       EXIT_IO) from None
    if name == "tww":
        return preset_twinwidth(int(a), b, n)
    if name == "symdiff":
        return preset_symdiff(a, b, n)
    raise CliError(f"unknown preset {name!r}", EXIT_IO)


def cmd_sdseq(args) -> int:
    g = fio.parse_graph(_read(args.file))
    # explicit flags override preset values
    flags = {name: value for name, value in (("g", args.g), ("gamma", args.gamma),
                                              ("p_hat", args.p), ("cap", args.cap))
             if value is not None}
    if args.preset:
        cfg = replace(_preset_config(args.preset, g.n), seed=args.seed, **flags)
    elif len(flags) == 4:
        cfg = SdConfig(seed=args.seed, **flags)
    else:
        raise CliError("need --preset or all of --g --gamma --p --cap", EXIT_IO)
    try:
        seq, report = sd_sequence_randomized(g, cfg)
    except CapExceeded as e:
        print(f"failure: {e}", file=sys.stderr)
        return EXIT_INVALID
    print(f"width={report.width} max_loop_sd={report.max_loop_sd} gamma={cfg.gamma}",
          file=sys.stderr)
    _write(fio.format_sdseq(seq), args.out)
    return EXIT_OK


def cmd_matmul(args) -> int:
    # a malformed matrix exits 2 even beside an invalid model
    text, model = _parse_stm(args.file)
    rows = fio.parse_matrix(_read(args.matrix))
    ibp = _to_ibp(text, model)
    out = adjacency_matmul(None, LinearOrder.identity(ibp.n), rows, ibp)
    _write(fio.format_matrix(out), args.out)
    return EXIT_OK


def cmd_scatter(args) -> int:
    dm = _load_dm(args.file, args.kind)
    X = args.x or list(range(1, dm.n + 1))
    S = scattered_maximal_subset(dm, X, args.c, args.r)
    _write(" ".join(str(v) for v in S) + "\n", args.out)
    return EXIT_OK


def cmd_gen(args) -> int:
    kind, n = args.kind, args.n
    # the default applies only when --param is absent: 0 is a valid value
    param = args.param if args.param is not None else {
        "random-stm": 2 * n, "erdos-renyi": 25, "random-cseq": n, "planted-sdseq": 2}[kind]
    if kind == "random-stm":
        out = fio.format_stm(random_stm(n, param, args.seed))
    elif kind == "erdos-renyi":
        out = fio.format_graph(erdos_renyi(n, param / 100.0, args.seed))
    elif kind == "random-cseq":
        out = fio.format_cseq(random_cseq(n, param, args.seed))
    else:  # planted-sdseq
        if not args.out:
            raise CliError("planted-sdseq writes two files; --out PREFIX required", EXIT_IO)
        g, seq = planted_sdseq(n, param, args.seed)
        _write(fio.format_graph(g), args.out + ".graph")
        _write(fio.format_sdseq(seq), args.out + ".sdseq")
        return EXIT_OK
    _write(out, args.out)
    return EXIT_OK


def _integers(text: str) -> list[int]:
    """``--x``: comma-separated integers; anything else is a parse error."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="stmgraph",
                                description="signed tree model toolkit")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, kind=False):
        sp.add_argument("file")
        sp.add_argument("--out")
        if kind:
            sp.add_argument("--kind", choices=("stm", "ibp", "dag"), default="stm")

    sp = sub.add_parser("validate", help="check a representation file")
    sp.add_argument("kind", choices=("stm", "ibp", "cseq", "sdseq"))
    sp.add_argument("file")
    sp.add_argument("--against", help="reference graph file for decode equality")
    sp.add_argument("--n", type=int, help="vertex count (cseq only)")
    sp.add_argument("--loops-ok", action="store_true",
                    help="permit loop pairs (non-strict mode)")
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("decode", help="signed tree model to graph")
    common(sp)
    sp.set_defaults(fn=cmd_decode)

    sp = sub.add_parser("convert", help="convert between representations")
    sp.add_argument("mode", choices=("stm-ibp", "ibp-dag", "ibp-ptm",
                                     "sdseq-stm", "cseq-stm", "cseq-shorten"))
    common(sp)
    sp.add_argument("--graph", help="input graph (sdseq-stm)")
    sp.add_argument("--n", type=int, help="vertex count (cseq modes)")
    sp.set_defaults(fn=cmd_convert)

    sp = sub.add_parser("sssp", help="shortest-path tree")
    common(sp, kind=True)
    sp.add_argument("--source", type=int, required=True)
    sp.set_defaults(fn=cmd_sssp)

    sp = sub.add_parser("apsp", help="all-pairs distance matrix")
    common(sp, kind=True)
    sp.set_defaults(fn=cmd_apsp)

    sp = sub.add_parser("sdseq", help="randomized sd-degeneracy sequence")
    common(sp)
    sp.add_argument("--preset", help="tww:f_d,c or symdiff:beta,c")
    sp.add_argument("--g", type=int)
    sp.add_argument("--gamma", type=int)
    sp.add_argument("--p", type=float)
    sp.add_argument("--cap", type=int)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_sdseq)

    sp = sub.add_parser("matmul", help="adjacency times matrix via IBP")
    common(sp)
    sp.add_argument("matrix")
    sp.set_defaults(fn=cmd_matmul)

    sp = sub.add_parser("scatter", help="greedy maximal scattered set")
    common(sp, kind=True)
    sp.add_argument("--c", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--x", type=_integers,
                    help="comma-separated candidate set (default: all)")
    sp.set_defaults(fn=cmd_scatter)

    sp = sub.add_parser("gen", help="generate instances")
    sp.add_argument("kind", choices=("random-stm", "planted-sdseq",
                                     "random-cseq", "erdos-renyi"))
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--param", type=int,
                    help="pairs / width / resolves / density%% by kind")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_gen)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as e:
        print(e, file=sys.stderr)
        return e.code
    except fio.FormatError as e:
        print(e, file=sys.stderr)
        return EXIT_IO
    except ValueError as e:
        print(e, file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
