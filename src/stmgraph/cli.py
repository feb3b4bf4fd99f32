"""Command-line interface.

Exit codes: 0 success, 1 validation failure, 2 I/O or parse error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bench as bench_mod
from . import io as fio
from .convert import (SequenceError, cseq_replay, cseq_shorten, cseq_to_stm,
                      ibp_to_dag, ibp_to_graph, ibp_to_positive_model,
                      sdseq_to_stm, stm_to_ibp)
from .gen import erdos_renyi, planted_sdseq, random_cseq, random_stm
from .graph import Graph, LinearOrder, graphs_equal
from .matmul import adjacency_matmul
from .paths import _as_distance_model, apsp, scattered_maximal_subset, sssp
from .sddegen import (CapExceeded, SdConfig, preset_symdiff, preset_twinwidth,
                      sd_sequence_randomized, validate_sequence)
from .stm import decode_bruteforce, validate

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


def _parse(parser, text, *args, **kwargs):
    try:
        return parser(text, *args, **kwargs)
    except fio.CrossingPairError as e:
        # a validity defect, not a syntax defect
        raise CliError(str(e), EXIT_INVALID) from None
    except fio.FormatError as e:
        raise CliError(str(e), EXIT_IO) from None


def _load_stm(path: str, check_crossing: bool = True):
    return _parse(fio.parse_stm, _read(path), check_crossing=check_crossing)


def _load_rep(path: str, kind: str):
    if kind == "stm":
        return _load_stm(path)
    if kind == "ibp":
        return _parse(fio.parse_ibp, _read(path))
    if kind == "dag":
        return _parse(fio.parse_dag, _read(path))
    raise CliError(f"unknown representation kind {kind}", EXIT_IO)


def cmd_validate(args) -> int:
    text = _read(args.file)
    decoded: Graph | None = None
    if args.kind == "stm":
        model = _parse(fio.parse_stm, text, check_crossing=False)
        report = validate(model, strict=not args.loops_ok)
        if not report.ok:
            for msg in report.messages():
                print(msg, file=sys.stderr)
            return EXIT_INVALID
        if args.against:
            # strict or not, the report above covers decode's own check
            decoded = decode_bruteforce(model, validated=True)
    elif args.kind == "ibp":
        ibp = _parse(fio.parse_ibp, text)
        try:
            decoded = ibp_to_graph(ibp)
        except ValueError as e:
            print(e, file=sys.stderr)
            return EXIT_INVALID
    elif args.kind == "cseq":
        if args.n is None:
            raise CliError("validating a cseq requires --n", EXIT_IO)
        seq = _parse(fio.parse_cseq, text, args.n)
        try:
            decoded = cseq_replay(seq)
        except SequenceError as e:
            print(e, file=sys.stderr)
            return EXIT_INVALID
    elif args.kind == "sdseq":
        if not args.against:
            raise CliError("validating an sdseq requires --against GRAPH", EXIT_IO)
        seq = _parse(fio.parse_sdseq, text)
        g = _parse(fio.parse_graph, _read(args.against))
        try:
            report = validate_sequence(g, seq)
        except SequenceError as e:
            print(e, file=sys.stderr)
            return EXIT_INVALID
        print(f"width={report.width}")
        return EXIT_OK
    if args.against and decoded is not None:
        target = _parse(fio.parse_graph, _read(args.against))
        if not graphs_equal(decoded, target):
            print("decoded graph differs from the reference graph", file=sys.stderr)
            return EXIT_INVALID
    print("ok")
    return EXIT_OK


def cmd_decode(args) -> int:
    model = _load_stm(args.file)
    _write(fio.format_graph(decode_bruteforce(model)), args.out)
    return EXIT_OK


def cmd_convert(args) -> int:
    mode = args.mode
    text = _read(args.file)
    if mode == "stm-ibp":
        out = fio.format_ibp(stm_to_ibp(_parse(fio.parse_stm, text)))
    elif mode == "ibp-dag":
        out = fio.format_dag(ibp_to_dag(_parse(fio.parse_ibp, text)))
    elif mode == "ibp-ptm":
        out = fio.format_stm(ibp_to_positive_model(_parse(fio.parse_ibp, text)))
    elif mode == "sdseq-stm":
        if not args.graph:
            raise CliError("sdseq-stm requires --graph", EXIT_IO)
        g = _parse(fio.parse_graph, _read(args.graph))
        seq = _parse(fio.parse_sdseq, text)
        try:
            out = fio.format_stm(sdseq_to_stm(g, seq))
        except (SequenceError, ValueError) as e:
            print(e, file=sys.stderr)
            return EXIT_INVALID
    elif mode == "cseq-stm":
        if args.n is None:
            raise CliError("cseq-stm requires --n", EXIT_IO)
        try:
            out = fio.format_stm(cseq_to_stm(_parse(fio.parse_cseq, text, args.n)))
        except SequenceError as e:
            print(e, file=sys.stderr)
            return EXIT_INVALID
    elif mode == "cseq-shorten":
        if args.n is None:
            raise CliError("cseq-shorten requires --n", EXIT_IO)
        try:
            out = fio.format_cseq(cseq_shorten(_parse(fio.parse_cseq, text, args.n)))
        except SequenceError as e:
            print(e, file=sys.stderr)
            return EXIT_INVALID
    else:
        raise CliError(f"unknown conversion {mode}", EXIT_IO)
    _write(out, args.out)
    return EXIT_OK


def cmd_sssp(args) -> int:
    rep = _load_rep(args.file, args.kind)
    n = rep.n
    tree = sssp(rep, args.source)
    _write(fio.format_spt(tree, n), args.out)
    return EXIT_OK


def cmd_apsp(args) -> int:
    rep = _load_rep(args.file, args.kind)
    _write(fio.format_distance_matrix(apsp(rep), rep.n), args.out)
    return EXIT_OK


def _preset_config(spec: str, n: int, seed: int) -> SdConfig:
    try:
        name, rest = spec.split(":", 1)
        a, b = (float(x) for x in rest.split(","))
    except ValueError:
        raise CliError(f"bad preset {spec!r}; expected tww:f_d,c or symdiff:beta,c",
                       EXIT_IO) from None
    if name == "tww":
        cfg = preset_twinwidth(int(a), b, n)
    elif name == "symdiff":
        cfg = preset_symdiff(a, b, n)
    else:
        raise CliError(f"unknown preset {name!r}", EXIT_IO)
    return SdConfig(cfg.g, cfg.gamma, cfg.p_hat, cfg.cap, seed)


def cmd_sdseq(args) -> int:
    g = _parse(fio.parse_graph, _read(args.file))
    if args.preset:
        base = _preset_config(args.preset, g.n, args.seed)
    elif None not in (args.g, args.gamma, args.p, args.cap):
        base = SdConfig(args.g, args.gamma, args.p, args.cap, args.seed)
    else:
        raise CliError("need --preset or all of --g --gamma --p --cap", EXIT_IO)
    # explicit flags override preset values
    cfg = SdConfig(args.g if args.g is not None else base.g,
                   args.gamma if args.gamma is not None else base.gamma,
                   args.p if args.p is not None else base.p_hat,
                   args.cap if args.cap is not None else base.cap,
                   args.seed)
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
    # no parse-time check: stm_to_ibp validates the model
    model = _load_stm(args.file, check_crossing=False)
    rows = _parse(fio.parse_matrix, _read(args.matrix))
    ibp = stm_to_ibp(model)
    out = adjacency_matmul(None, LinearOrder.identity(ibp.n), rows, ibp)
    _write(fio.format_matrix(out), args.out)
    return EXIT_OK


def cmd_scatter(args) -> int:
    dm = _as_distance_model(_load_rep(args.file, args.kind))
    X = ([int(x) for x in args.x.split(",")] if args.x
         else list(range(1, dm.n + 1)))
    S = scattered_maximal_subset(dm, X, args.c, args.r)
    _write(" ".join(str(v) for v in S) + "\n", args.out)
    return EXIT_OK


def cmd_gen(args) -> int:
    kind = args.kind
    if kind == "random-stm":
        out = fio.format_stm(random_stm(args.n, args.param or 2 * args.n, args.seed))
    elif kind == "erdos-renyi":
        out = fio.format_graph(erdos_renyi(args.n, (args.param or 25) / 100.0, args.seed))
    elif kind == "random-cseq":
        out = fio.format_cseq(random_cseq(args.n, args.param or args.n, args.seed))
    elif kind == "planted-sdseq":
        if not args.out:
            raise CliError("planted-sdseq writes two files; --out PREFIX required", EXIT_IO)
        g, seq = planted_sdseq(args.n, args.param if args.param is not None else 2,
                               args.seed)
        _write(fio.format_graph(g), args.out + ".graph")
        _write(fio.format_sdseq(seq), args.out + ".sdseq")
        return EXIT_OK
    else:
        raise CliError(f"unknown generator kind {kind}", EXIT_IO)
    _write(out, args.out)
    return EXIT_OK


def cmd_bench(args) -> int:
    ns = [1 << k for k in range(args.min_exp, args.max_exp + 1)]
    bench_mod.bench_pipeline(ns, pairs_per_n=args.pairs_per_n, seed=args.seed,
                             out=sys.stdout)
    return EXIT_OK


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
    sp.add_argument("--x", help="comma-separated candidate set (default: all)")
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

    sp = sub.add_parser("bench", help="pipeline timing and op counters")
    sp.add_argument("--min-exp", type=int, default=10)
    sp.add_argument("--max-exp", type=int, default=13)
    sp.add_argument("--pairs-per-n", type=int, default=4)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_bench)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as e:
        print(e, file=sys.stderr)
        return e.code
    except fio.CrossingPairError as e:
        print(e, file=sys.stderr)
        return EXIT_INVALID
    except fio.FormatError as e:
        print(e, file=sys.stderr)
        return EXIT_IO
    except ValueError as e:
        print(e, file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
