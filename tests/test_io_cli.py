import random
import sys
from dataclasses import replace

import numpy as np
import pytest

import stmgraph.rect
from stmgraph import io as fio
from stmgraph import (DagCompression, IntervalBicliquePartition, InvalidModelError,
                      LinearOrder, SdConfig, SdDegenSequence, adjacency_matmul,
                      apsp, cseq_replay, dag_to_distance_model, decode_bruteforce,
                      graphs_equal, ibp_matvec, ibp_to_dag, ibp_to_graph,
                      preset_twinwidth, remove_loops, scattered_maximal_subset,
                      sd_sequence_randomized, sdseq_to_stm, sssp, stm_to_ibp, validate)
from stmgraph.cli import main
from stmgraph.gen import (erdos_renyi, planted_sdseq, random_cseq, random_stm,
                          random_stm_sparse)

from conftest import BAD_DAGS, random_loopy, traced_peak
from test_matmul import GENERIC_INT64


class TestRoundTrips:
    def test_graph(self):
        for seed in range(20):
            g = erdos_renyi(random.Random(seed).randint(1, 20), 0.3, seed=seed)
            assert graphs_equal(fio.parse_graph(fio.format_graph(g)), g)

    def test_stm(self, fig1_model):
        assert fio.parse_stm(fio.format_stm(fig1_model)) == fig1_model
        for seed in range(20):
            m = random_stm(random.Random(seed).randint(2, 20), 20, seed=seed)
            assert fio.parse_stm(fio.format_stm(m)) == m

    def test_ibp(self, p3_model):
        ibp = stm_to_ibp(p3_model)
        got = fio.parse_ibp(fio.format_ibp(ibp))
        assert got == ibp

    def test_cseq(self):
        seq = random_cseq(8, 12, seed=4)
        got = fio.parse_cseq(fio.format_cseq(seq), 8)
        assert got == seq

    def test_sdseq(self):
        seq = SdDegenSequence(((1, 3), (2, 3)))
        assert fio.parse_sdseq(fio.format_sdseq(seq)) == seq

    def test_matrix(self):
        rows = [[1, -2, 3], [0, 5, -6], [7, 8, 9]]
        assert fio.parse_matrix(fio.format_matrix(rows)) == rows
        # an int64 array, such as adjacency_matmul's product, prints the same
        assert fio.format_matrix(np.array(rows)) == fio.format_matrix(rows)
        ends = [[-2 ** 63, 2 ** 63 - 1], [0, -1]]
        assert fio.format_matrix(np.array(ends, dtype=np.int64)) == \
            "2\n-9223372036854775808 9223372036854775807\n0 -1\n"

    def test_dag(self, p3_model):
        dag = ibp_to_dag(stm_to_ibp(p3_model))
        got = fio.parse_dag(fio.format_dag(dag))
        assert (got.n, got.num_nodes, got.edges, got.compressed) == \
            (dag.n, dag.num_nodes, dag.edges, dag.compressed)


class TestParseErrors:
    def test_graph_bad_edge_order(self):
        with pytest.raises(fio.FormatError):
            fio.parse_graph("2 1\n2 1\n")

    def test_stm_crossing_line_numbered(self):
        text = ("4\n5 1 2\n6 3 4\n7 5 6\nB 1 6\nB 3 5\n")
        with pytest.raises(fio.CrossingPairError) as e:
            fio.parse_stm(text)
        assert e.value.line in (5, 6)

    def test_stm_crossing_suppressed(self):
        text = ("4\n5 1 2\n6 3 4\n7 5 6\nB 1 6\nB 3 5\n")
        model = fio.parse_stm(text, check_crossing=False)
        assert model.num_pairs == 2

    def test_empty(self):
        with pytest.raises(fio.FormatError):
            fio.parse_graph("")

    @pytest.mark.parametrize("text, line, message", [
        ("3 3\n1 2\n2 3\n2 4\n", 4, "edge (2,4) out of range [1,3]"),
        ("3 2\n0 2\n3 1\n", 2, "edge (0,2) out of range [1,3]"),
        ("3 1\n1 99999999999999999999\n", 2, "edge (1,99999999999999999999) out of range [1,3]"),
        # a bad edge line after the header, so that a parser that skips the
        # header check fails there instead of allocating offsets
        ("3000000000 1\n1 x\n", 1, "vertex count 3000000000 is not below 2^31"),
        ("2147483648 1\n1 x\n", 1, "vertex count 2147483648 is not below 2^31"),
        ("99999999999999999999 1\n1 x\n", 1,
         "vertex count 99999999999999999999 is not below 2^31"),
        ("-1 1\n1 2\n", 1, "vertex count must be nonnegative"),
    ])
    def test_graph_rules(self, text, line, message):
        with pytest.raises(fio.FormatError) as e:
            fio.parse_graph(text)
        assert (e.value.line, str(e.value)) == (line, f"line {line}: {message}")

    @pytest.mark.parametrize("order", ["0 1 2", "-1 1 3", "1 2 4", "2 2 3"])
    def test_ibp_order_outside_1_to_n(self, order):
        with pytest.raises(fio.FormatError) as e:
            fio.parse_ibp(f"3 1\n{order}\n1 1 2 3\n")
        assert str(e.value) == f"line 2: [{order.replace(' ', ', ')}] is not a permutation of 1..3"

    @pytest.mark.parametrize("text, line, message", [
        ("2 4 2 0\n4 1 7\n3 4\n", 2, "expected 2 fields, got 3"),
        # the two lines' field counts sum to the right total
        ("2 4 2 0\n4 1\n3 4 1\n4\n", 3, "expected 2 fields, got 3"),
        ("2 4 2 0\n4 1\n4 x \n", 3, "non-integer field in '4 x'"),
        ("2 4 1 0\n4 ;\n", 2, "non-integer field in '4 ;'"),
        ("2 3 1 1\n3 1\n3 2\n", 3, "expected 'C x y', got '3 2'"),
        ("2 3 0 2\nC 1 2 3\nC 1\n", 2, "expected 'C x y', got 'C 1 2 3'"),
        ("2 3 0 2\nC 1 2\nD 1 2\n", 3, "expected 'C x y', got 'D 1 2'"),
        ("2 3 0 1\nC 1 z\n", 2, "non-integer field in '1 z'"),
        ("2 4 1 0\n4 1 2\n", 2, "expected 2 fields, got 3"),
        ("2 3 0 1\nC 1 2 3\n", 2, "expected 'C x y', got 'C 1 2 3'"),
        ("2 3 0 1\nC ; 1\n", 2, "non-integer field in '; 1'"),
        ("2 4 2 1\n4 1\n3 2\n", 3, "expected 2 edge and 1 compressed lines"),
        ("2 4 2\n", 1, "expected 4 fields, got 3"),
        ("2 4 -1 1\nC 1 2\n", 1, "negative edge count in '2 4 -1 1'"),
        ("2 3 1 0\n99999999999999999999 1\n", 2,
         "integer beyond int64 in '99999999999999999999 1'"),
        ("2 3 1 1\n3 1\nC 1 -9223372036854775809\n", 3,
         "integer beyond int64 in 'C 1 -9223372036854775809'"),
        # the first bad line is named, whatever comes after it
        ("2 3 2 0\n3 x\n99999999999999999999 1\n", 2, "non-integer field in '3 x'"),
        # a node above n that no edge touches: the header alone would size
        # the distance model
        ("2 99999999999999999999 1 0\n3 1\n", 1,
         "num_nodes 99999999999999999999 exceeds n + 2(e + c) = 4"),
        ("2 9000000000 1 0\n3 1\n", 1, "num_nodes 9000000000 exceeds n + 2(e + c) = 4"),
        # n isolated vertices need no edges, so only a cap bounds the header
        ("9000000000 9000000000 0 0\n", 1, "num_nodes 9000000000 is not below 2^31"),
        ("99999999999999999999 99999999999999999999 0 0\n", 1,
         "num_nodes 99999999999999999999 is not below 2^31"),
    ])
    def test_dag_syntax(self, text, line, message):
        with pytest.raises(fio.FormatError) as e:
            fio.parse_dag(text)
        assert (e.value.line, str(e.value)) == (line, f"line {line}: {message}")

    @pytest.mark.parametrize("text, message", [
        # node 3 is the one root, and internal nodes 4 and 5 are each
        # other's parent
        ("3\n4 5 1\n5 4 2\n", "leaves must be exactly the ids 1..n"),
        ("2\n99999999999999999999 1 2\n",
         "expected rows of 3 integers, got (99999999999999999999, 1, 2)"),
        ("2\n3 1 -99999999999999999999\n",
         "expected rows of 3 integers, got (3, 1, -99999999999999999999)"),
        ("2\n3 1 2\nB 1 2\nA 1 99999999999999999999\n",
         "expected rows of 2 integers, got (1, 99999999999999999999)"),
        # an out-of-range child is named before a later second parent
        ("3\n4 1 9\n5 1 3\n", "child id 9 of node 4 out of range"),
        ("3\n4 1 2\n5 1 9\n", "node 1 has two parents"),
    ])
    def test_stm_syntax(self, text, message):
        with pytest.raises(fio.FormatError) as e:
            fio.parse_stm(text)
        assert (e.value.line, str(e.value)) == (1, f"line 1: {message}")

    def test_dag_lenient_text(self):
        """CRLF endings, extra blank space, signed integers and lines past
        the counted ones are accepted."""
        dag = fio.parse_dag("2 3 2 1 \r\n 3  +1\r\n3 2\r\nC 3\t2\r\nignored\n")
        assert dag.edge_rows.tolist() == [[3, 1], [3, 2]]
        assert dag.compressed_rows.tolist() == [[3, 2]]
        empty = fio.parse_dag("1 1 0 0\n")
        assert empty.edge_rows.shape == empty.compressed_rows.shape == (0, 2)

    def test_distance_matrix_sentinel(self):
        for rows in ([[0, 3], [3, 0]], np.array([[0, 3], [3, 0]], dtype=np.uint8)):
            out = fio.format_distance_matrix(rows, 3)
            assert out == "0 -1\n-1 0\n"


def run(tmp_path, *argv):
    return main([str(a) for a in argv])


class TestCli:
    @pytest.fixture
    def files(self, tmp_path, p3_model):
        stm_f = tmp_path / "p3.stm"
        stm_f.write_text(fio.format_stm(p3_model))
        g_f = tmp_path / "p3.graph"
        g_f.write_text(fio.format_graph(decode_bruteforce(p3_model)))
        return stm_f, g_f, tmp_path

    def test_validate_ok(self, files):
        stm_f, g_f, _ = files
        assert main(["validate", "stm", str(stm_f), "--against", str(g_f)]) == 0

    def test_validate_failure_exit1(self, tmp_path):
        bad = tmp_path / "bad.stm"
        bad.write_text("2\n3 1 2\nB 3 1\n")  # non-transversal pair
        assert main(["validate", "stm", str(bad)]) == 1

    def test_parse_error_exit2(self, tmp_path):
        junk = tmp_path / "junk.stm"
        junk.write_text("hello\n")
        assert main(["decode", str(junk)]) == 2

    @pytest.mark.parametrize("argv, text, line", [
        (["apsp", "--kind", "ibp"], "3 1\n0 1 2\n1 1 2 3\n", 2),
        (["sdseq"], "3000000000 1\n1 x\n", 1),
        (["sdseq"], "3 3\n1 2\n2 3\n2 4\n", 4),
    ])
    def test_bad_ids_exit2(self, tmp_path, capsys, argv, text, line):
        f = tmp_path / "in.txt"
        f.write_text(text)
        assert main(argv[:1] + [str(f)] + argv[1:]) == 2
        assert capsys.readouterr().err.startswith(f"line {line}: ")

    def test_decode(self, files, capsys):
        stm_f, g_f, _ = files
        assert main(["decode", str(stm_f)]) == 0
        assert capsys.readouterr().out == g_f.read_text()

    def test_convert_chain(self, files, capsys):
        stm_f, g_f, tmp = files
        ibp_f = tmp / "p3.ibp"
        assert main(["convert", "stm-ibp", str(stm_f), "--out", str(ibp_f)]) == 0
        assert main(["validate", "ibp", str(ibp_f), "--against", str(g_f)]) == 0
        assert main(["convert", "ibp-dag", str(ibp_f)]) == 0
        assert main(["convert", "ibp-ptm", str(ibp_f), "--out", str(tmp / "ptm.stm")]) == 0
        assert main(["validate", "stm", str(tmp / "ptm.stm"),
                     "--against", str(g_f)]) == 0

    def test_sssp_apsp(self, files, capsys):
        stm_f, _, _ = files
        assert main(["sssp", str(stm_f), "--source", "1"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == ["1 0 0", "2 1 1", "3 2 2"]
        assert main(["apsp", str(stm_f)]) == 0
        assert capsys.readouterr().out.splitlines() == ["0 1 2", "1 0 1", "2 1 0"]

    def test_sdseq_roundtrip(self, files, capsys, tmp_path):
        _, g_f, _ = files
        seq_f = tmp_path / "out.sdseq"
        assert main(["sdseq", str(g_f), "--preset", "tww:1,1",
                     "--seed", "3", "--out", str(seq_f)]) == 0
        assert main(["validate", "sdseq", str(seq_f), "--against", str(g_f)]) == 0
        assert main(["convert", "sdseq-stm", str(seq_f), "--graph", str(g_f),
                     "--out", str(tmp_path / "re.stm")]) == 0
        assert main(["validate", "stm", str(tmp_path / "re.stm"),
                     "--against", str(g_f)]) == 0

    def test_sdseq_config_flags(self, tmp_path, capsys):
        """One flag overrides its preset value and the rest are the
        preset's; without a preset all four flags are needed."""
        g, _ = planted_sdseq(40, 2, seed=1)
        g_f = tmp_path / "g.graph"
        g_f.write_text(fio.format_graph(g))
        for argv, cfg in (
                (["--preset", "tww:2,1", "--gamma", "6"],
                 replace(preset_twinwidth(2, 1.0, 40), gamma=6, seed=3)),
                (["--g", "2", "--gamma", "9", "--p", "0.3", "--cap", "50"],
                 SdConfig(2, 9, 0.3, 50, seed=3))):
            assert main(["sdseq", str(g_f), *argv, "--seed", "3"]) == 0
            out, err = capsys.readouterr()
            seq, report = sd_sequence_randomized(g, cfg)
            assert out == fio.format_sdseq(seq)
            assert err == (f"width={report.width} max_loop_sd={report.max_loop_sd} "
                           f"gamma={cfg.gamma}\n")
        assert main(["sdseq", str(g_f), "--preset", "tww:2,1", "--gamma", "1"]) == 1
        assert capsys.readouterr().err == "g=2 exceeds gamma=1\n"
        assert main(["sdseq", str(g_f), "--g", "2", "--gamma", "9", "--p", "0.3"]) == 2
        assert capsys.readouterr().err == "need --preset or all of --g --gamma --p --cap\n"

    @pytest.mark.parametrize("spec, code, err", [
        ("tww:2,1", 0, None), ("tww:2.0,1", 0, None),
        ("tww:0,1", 1, "need f_d >= 1 and c > 0\n"),
        # f_d is an integer: a fraction is a malformed preset, not truncated
        ("tww:0.5,1", 2, "bad preset 'tww:0.5,1'; expected tww:f_d,c or symdiff:beta,c\n"),
        ("tww:2.9,1", 2, "bad preset 'tww:2.9,1'; expected tww:f_d,c or symdiff:beta,c\n"),
        # a value that is not finite is a malformed preset too
        *((spec, 2, f"bad preset '{spec}'; expected tww:f_d,c or symdiff:beta,c\n")
          for spec in ("symdiff:inf,1", "symdiff:1e400,1", "tww:2,inf", "symdiff:2,inf",
                       "symdiff:nan,1", "tww:2,nan")),
    ])
    def test_tww_preset_f_d(self, tmp_path, capsys, spec, code, err):
        g, _ = planted_sdseq(40, 2, seed=1)
        g_f = tmp_path / "g.graph"
        g_f.write_text(fio.format_graph(g))
        assert main(["sdseq", str(g_f), "--preset", spec, "--seed", "3"]) == code
        out = capsys.readouterr()
        if code:
            assert (out.out, out.err) == ("", err)
        else:
            seq, _ = sd_sequence_randomized(g, replace(preset_twinwidth(2, 1.0, 40), seed=3))
            assert out.out == fio.format_sdseq(seq)

    def test_matmul(self, files, tmp_path, capsys):
        stm_f, _, _ = files
        mat_f = tmp_path / "m.mat"
        mat_f.write_text(fio.format_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        assert main(["matmul", str(stm_f), str(mat_f)]) == 0
        rows = fio.parse_matrix(capsys.readouterr().out)
        assert rows == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]

    def test_scatter(self, files, capsys):
        stm_f, _, _ = files
        argv = ["scatter", str(stm_f), "--c", "2", "--r", "1"]
        assert main(argv) == 0
        assert capsys.readouterr().out.strip() == "1 3"
        assert main(argv + ["--x", "2,3"]) == 0
        assert capsys.readouterr().out == "2\n"
        # an id out of range is a validation failure; a malformed list, a
        # parse error that names --x
        assert main(argv + ["--x", "1,4"]) == 1
        assert capsys.readouterr().err == "X contains 4, outside [1,3]\n"
        with pytest.raises(SystemExit) as e:
            main(argv + ["--x", "1,a"])
        assert e.value.code == 2
        assert "argument --x: expected comma-separated integers, got '1,a'" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, n, size", [
        ("erdos-renyi", 6, lambda out: fio.parse_graph(out).m),
        ("random-stm", 4, lambda out: fio.parse_stm(out).num_pairs),
        ("random-cseq", 3, lambda out: fio.parse_cseq(out, 3).num_resolves),
    ])
    def test_gen_param_zero(self, capsys, kind, n, size):
        """``--param 0`` asks for zero edges, pairs or resolves, not the default
        (which gives some on seed 1; erdos-renyi gives none on seed 0)."""
        argv = ["gen", kind, "--n", str(n), "--seed", "1"]
        assert main(argv + ["--param", "0"]) == 0
        assert size(capsys.readouterr().out) == 0
        assert main(argv) == 0
        assert size(capsys.readouterr().out) > 0

    def test_gen_deterministic(self, tmp_path, capsys):
        assert main(["gen", "random-stm", "--n", "10", "--param", "15",
                     "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "random-stm", "--n", "10", "--param", "15",
                     "--seed", "7"]) == 0
        assert capsys.readouterr().out == first
        model = fio.parse_stm(first)
        assert model.n == 10

    def test_gen_planted(self, tmp_path):
        pre = tmp_path / "inst"
        assert main(["gen", "planted-sdseq", "--n", "12", "--param", "2",
                     "--seed", "1", "--out", str(pre)]) == 0
        assert main(["validate", "sdseq", str(pre) + ".sdseq",
                     "--against", str(pre) + ".graph"]) == 0

    def test_cseq_cli(self, tmp_path):
        seq = random_cseq(6, 8, seed=2)
        f = tmp_path / "c.cseq"
        f.write_text(fio.format_cseq(seq))
        g_f = tmp_path / "c.graph"
        g_f.write_text(fio.format_graph(cseq_replay(seq)))
        assert main(["validate", "cseq", str(f), "--n", "6",
                     "--against", str(g_f)]) == 0
        assert main(["convert", "cseq-stm", str(f), "--n", "6",
                     "--out", str(tmp_path / "c.stm")]) == 0
        assert main(["validate", "stm", str(tmp_path / "c.stm"),
                     "--against", str(g_f)]) == 0
        assert main(["convert", "cseq-shorten", str(f), "--n", "6",
                     "--out", str(tmp_path / "s.cseq")]) == 0
        short = fio.parse_cseq((tmp_path / "s.cseq").read_text(), 6)
        assert graphs_equal(cseq_replay(short), cseq_replay(seq))

    @pytest.mark.parametrize("argv, message", [
        (["convert", "cseq-stm"], "cseq-stm requires --n"),
        (["convert", "cseq-shorten"], "cseq-shorten requires --n"),
        (["validate", "cseq"], "validating a cseq requires --n"),
    ])
    def test_cseq_requires_n(self, tmp_path, capsys, argv, message):
        f = tmp_path / "c.cseq"
        f.write_text("M 1 2\n")
        assert main(argv + [str(f)]) == 2
        assert capsys.readouterr().err == message + "\n"

    @pytest.mark.parametrize("text, message", [
        ("R+ 9 1\n", "step 1: part 9 is not alive"),
        ("M 1 1\n", "step 1: cannot merge a part with itself"),
        ("M 1 2\nR+ 1 3\n", "step 2: part 1 is not alive"),
    ])
    def test_invalid_cseq_exit1(self, tmp_path, capsys, text, message):
        f = tmp_path / "bad.cseq"
        f.write_text(text)
        out = tmp_path / "out"
        for argv in (["convert", "cseq-shorten", f, "--n", 3, "--out", out],
                     ["convert", "cseq-stm", f, "--n", 3, "--out", out],
                     ["validate", "cseq", f, "--n", 3]):
            assert run(tmp_path, *argv) == 1, argv
            assert capsys.readouterr().err == message + "\n", argv
        assert not out.exists()

    def test_crossing_model_validate_exit1(self, tmp_path):
        f = tmp_path / "x.stm"
        f.write_text("4\n5 1 2\n6 3 4\n7 5 6\nB 1 6\nB 3 5\n")
        assert main(["validate", "stm", str(f)]) == 1
        assert main(["decode", str(f)]) == 1

    @pytest.mark.parametrize("model, named", [
        ("4\n5 1 2\n6 3 4\n7 5 6\nB 1 6\nB 3 5\n", ["(1,6)", "(5,3)", "cross"]),
        ("2\n3 1 2\nB 3 1\n", ["(3,1)", "not transversal"]),
        ("2\n3 1 2\nB 3 3\n", ["(3,3)", "loop"]),
        ("2\n3 1 2\nA 1 2\nB 1 2\n", ["(1, 2)", "both positive and negative"]),
    ])
    def test_matmul_invalid_model_exit1(self, tmp_path, capsys, model, named):
        f = tmp_path / "x.stm"
        f.write_text(model)
        n = int(model.split()[0])
        mat_f = tmp_path / "m.mat"
        mat_f.write_text(fio.format_matrix([[0] * n for _ in range(n)]))
        assert main(["matmul", str(f), str(mat_f)]) == 1
        err = capsys.readouterr().err
        assert all(s in err for s in named), err

    def test_matmul_malformed_matrix_before_model_check(self, tmp_path, capsys):
        """The matrix is parsed before the model is checked, so a malformed
        matrix exits 2 even beside a crossing model."""
        f, mat_f = tmp_path / "x.stm", tmp_path / "m.mat"
        f.write_text("4\n5 1 2\n6 3 4\n7 5 6\nB 1 6\nB 3 5\n")
        mat_f.write_text("4\n0 0 0 0\n0 x 0 0\n0 0 0 0\n0 0 0 0\n")
        assert main(["matmul", str(f), str(mat_f)]) == 2
        assert capsys.readouterr().err.startswith("line 3: non-integer field ")


# Each model has one defect, whose pair is on the given line; a valid decoy
# pair comes first, so that the first pair line is not the answer by luck.
INVALID_STM = {
    "crossing": ("4\n5 1 2\n6 3 4\n7 5 6\nB 1 2\nB 1 6\nB 3 5\n", 6),
    "non-transversal": ("3\n4 1 2\n5 4 3\nA 1 2\nB 4 1\n", 5),
    "two-signed loop": ("2\n3 1 2\nB 1 2\nA 3 3\nB 3 3\n", 4),
}
# every command that reads a .stm file, with {stm} and {mat} to fill in
STM_COMMANDS = {
    "decode": ["decode", "{stm}"],
    "convert stm-ibp": ["convert", "stm-ibp", "{stm}"],
    "sssp": ["sssp", "{stm}", "--source", "1"],
    "apsp": ["apsp", "{stm}"],
    "scatter": ["scatter", "{stm}", "--c", "1", "--r", "1"],
    "matmul": ["matmul", "{stm}", "{mat}"],
}


def stm_argv(tmp_path, command, text):
    """Write ``text`` as a .stm file and a zero n x n matrix beside it, and
    return the command's arguments on them."""
    stm_f, mat_f = tmp_path / "m.stm", tmp_path / "m.mat"
    stm_f.write_text(text)
    n = int(text.split()[0])
    mat_f.write_text(fio.format_matrix([[0] * n for _ in range(n)]))
    return [a.format(stm=stm_f, mat=mat_f) for a in STM_COMMANDS[command]]


class TestCliDag:
    """``--kind ibp`` and ``--kind dag`` read a .ibp or .dag file: a valid
    one gives the same output as the model it was converted from, and a
    malformed one exits 2."""

    def test_same_output_as_stm(self, tmp_path, capsys, fig1_model):
        stm_f, ibp_f, dag_f = tmp_path / "m.stm", tmp_path / "m.ibp", tmp_path / "m.dag"
        stm_f.write_text(fio.format_stm(fig1_model))
        assert main(["convert", "stm-ibp", str(stm_f), "--out", str(ibp_f)]) == 0
        assert main(["convert", "ibp-dag", str(ibp_f), "--out", str(dag_f)]) == 0
        dm = dag_to_distance_model(ibp_to_dag(stm_to_ibp(fig1_model)))
        scatter = " ".join(map(str, scattered_maximal_subset(dm, [1, 5, 9], 2, 1))) + "\n"
        for argv, want in ((["sssp", "--source", "3"], None), (["apsp"], None),
                           (["scatter", "--x", "1,5,9", "--c", "2", "--r", "1"], scatter)):
            outs = []
            for f, kind in ((stm_f, "stm"), (ibp_f, "ibp"), (dag_f, "dag")):
                assert main(argv[:1] + [str(f), "--kind", kind] + argv[1:]) == 0
                outs.append(capsys.readouterr().out)
            assert outs[1:] == outs[:1] * 2, argv
            assert want is None or outs[0] == want, argv

    @pytest.mark.parametrize("case", sorted(BAD_DAGS))
    def test_malformed_dag_exit2(self, tmp_path, capsys, case):
        n, num_nodes, edges, compressed, named = BAD_DAGS[case]
        text = "".join([f"{n} {num_nodes} {len(edges)} {len(compressed)}\n"]
                       + [f"{x} {y}\n" for x, y in edges]
                       + [f"C {x} {y}\n" for x, y in compressed])
        # the named edge's own line (edges are checked before compressed
        # ones), line 1 for a header defect
        line = next((i for i, ln in enumerate(text.splitlines(), start=1)
                     if i > 1 and f"({','.join(ln.split()[-2:])})" == named), 1)
        with pytest.raises(fio.FormatError) as e:
            fio.parse_dag(text)
        assert e.value.line == line
        dag_f = tmp_path / "m.dag"
        dag_f.write_text(text)
        assert main(["sssp", str(dag_f), "--kind", "dag", "--source", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"line {line}: ") and named in err

    def test_oversized_dag_integer_exit2(self, tmp_path, capsys):
        dag_f = tmp_path / "big.dag"
        dag_f.write_text("2 3 1 0\n99999999999999999999 1\n")
        assert main(["sssp", str(dag_f), "--kind", "dag", "--source", "1"]) == 2
        assert capsys.readouterr().err.startswith("line 2: integer beyond int64")

    @pytest.mark.parametrize("num_nodes", ["99999999999999999999", "9000000000"])
    def test_num_nodes_past_edges_exit2(self, tmp_path, capsys, num_nodes):
        dag_f = tmp_path / "huge.dag"
        dag_f.write_text(f"2 {num_nodes} 1 0\n3 1\n")
        assert main(["sssp", str(dag_f), "--kind", "dag", "--source", "1"]) == 2
        assert capsys.readouterr().err.startswith(f"line 1: num_nodes {num_nodes} exceeds")


    @pytest.mark.parametrize("text", ["9000000000 9000000000 0 0\n",
                                      "99999999999999999999 99999999999999999999 0 0\n"])
    def test_num_nodes_cap_exit2(self, tmp_path, capsys, text):
        dag_f = tmp_path / "huge.dag"
        dag_f.write_text(text)
        assert main(["sssp", str(dag_f), "--kind", "dag", "--source", "1"]) == 2
        assert capsys.readouterr().err.startswith("line 1: num_nodes ")

    @pytest.mark.parametrize("text", ["3\n4 5 1\n5 4 2\n", "2\n3 1 2\nA 1 99999999999999999999\n"])
    def test_malformed_stm_exit2(self, tmp_path, capsys, text):
        stm_f = tmp_path / "bad.stm"
        stm_f.write_text(text)
        assert main(["decode", str(stm_f)]) == 2
        assert capsys.readouterr().err.startswith("line 1: ")


class TestCliLoadPath:
    """Every .stm command parses once, checks the model once through
    ``stm_to_ibp`` and never runs the brute-force decoder."""

    @pytest.mark.parametrize("defect", sorted(INVALID_STM))
    @pytest.mark.parametrize("command", sorted(STM_COMMANDS))
    def test_invalid_model_line_numbered(self, tmp_path, capsys, command, defect):
        text, line = INVALID_STM[defect]
        assert main(stm_argv(tmp_path, command, text)) == 1
        assert capsys.readouterr().err.startswith(f"line {line}: ")

    def test_pair_line_peak_memory(self):
        """A loop on every node names every pair in the error: the lines
        are found by sorted codes, not by comparing every pair with every
        named pair (the p x k comparison peaked at 48.7 MB here)."""
        n = 2048
        text = (fio.format_stm(random_stm_sparse(n, 0, seed=0))
                + "".join(f"A {t} {t}\n" for t in range(1, 2 * n)))
        with pytest.raises(InvalidModelError) as e:
            stm_to_ibp(fio.parse_stm(text, check_crossing=False))
        line, peak = traced_peak(lambda: fio.stm_pair_line(text, str(e.value)))
        assert line == n + 1
        assert peak <= 8 * 2 ** 20, peak / 2 ** 20

    @pytest.fixture
    def forest_builds(self, monkeypatch):
        calls = []
        build = stmgraph.rect.inclusion_forest

        def counted(rects):
            calls.append(len(rects))
            return build(rects)

        monkeypatch.setattr(stmgraph.rect, "inclusion_forest", counted)
        return calls

    @pytest.mark.parametrize("command", sorted(STM_COMMANDS))
    def test_one_forest_per_command(self, tmp_path, capsys, fig1_model,
                                    forest_builds, command):
        assert main(stm_argv(tmp_path, command, fio.format_stm(fig1_model))) == 0
        assert len(forest_builds) == 1

    def test_validate_against_builds_one_forest(self, tmp_path, capsys, fig1_model,
                                                forest_builds):
        stm_f, g_f = tmp_path / "m.stm", tmp_path / "m.graph"
        stm_f.write_text(fio.format_stm(fig1_model))
        g_f.write_text(fio.format_graph(decode_bruteforce(fig1_model)))
        forest_builds.clear()
        assert main(["validate", "stm", str(stm_f), "--against", str(g_f)]) == 0
        assert len(forest_builds) == 1  # the decode's stm_to_ibp is the check

    @pytest.mark.parametrize("loops_ok", [False, True])
    @pytest.mark.parametrize("text", [t for t, _ in INVALID_STM.values()]
                             + ["2\n3 1 2\nB 3 3\n"])
    def test_validate_prints_every_message(self, tmp_path, capsys, text, loops_ok):
        f = tmp_path / "m.stm"
        f.write_text(text)
        report = validate(fio.parse_stm(text, check_crossing=False), strict=not loops_ok)
        argv = ["validate", "stm", str(f)] + ["--loops-ok"] * loops_ok
        assert main(argv) == (0 if report.ok else 1)
        out = capsys.readouterr()
        assert out.err == "".join(m + "\n" for m in report.messages())
        assert out.out == ("ok\n" if report.ok else "")

    def test_no_bruteforce_decode(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("decode_bruteforce called")

        for mod in [m for k, m in sorted(sys.modules.items())
                    if k == "stmgraph" or k.startswith("stmgraph.")]:
            for attr, val in list(vars(mod).items()):
                if val is decode_bruteforce:
                    monkeypatch.setattr(mod, attr, refuse)
        model = random_loopy(12, 3)
        g_f = tmp_path / "m.graph"
        g_f.write_text(fio.format_graph(decode_bruteforce(model)))
        for command in STM_COMMANDS:
            argv = stm_argv(tmp_path, command, fio.format_stm(remove_loops(model)))
            assert main(argv) == 0, command
        loopy = tmp_path / "loopy.stm"
        loopy.write_text(fio.format_stm(model))
        assert main(["decode", str(loopy)]) == 0
        assert main(["validate", "stm", str(loopy), "--loops-ok",
                     "--against", str(g_f)]) == 0

    def test_decode_matches_bruteforce(self, tmp_path, capsys):
        models = [random_loopy(random.Random(seed).randint(2, 20), seed)
                  for seed in range(30)]
        for seed in range(4):
            g, seq = planted_sdseq(24, 2, seed=seed)
            models.append(sdseq_to_stm(g, seq))
        f = tmp_path / "m.stm"
        for model in models:
            f.write_text(fio.format_stm(model))
            assert main(["decode", str(f)]) == 0
            assert capsys.readouterr().out == fio.format_graph(decode_bruteforce(model))


class TestArraysOnly:
    """The pipeline reads the partition's and the DAG's int64 arrays only;
    the tuple views are for outside callers."""

    @pytest.fixture(autouse=True)
    def no_tuple_views(self, monkeypatch):
        def refuse(self):
            raise AssertionError("tuple view read")

        for cls, names in ((IntervalBicliquePartition, ("bicliques",)),
                           (DagCompression, ("edges", "compressed"))):
            for name in names:
                monkeypatch.setattr(cls, name, property(refuse))

    def test_library(self):
        n = 256
        model = fio.parse_stm(fio.format_stm(random_stm_sparse(n, 4 * n, seed=0)))
        ibp = stm_to_ibp(model)
        dm = dag_to_distance_model(ibp_to_dag(ibp))
        assert apsp(dm)[0].tolist() == list(sssp(dm, 1).dist)
        x = list(range(n))
        assert ibp_matvec(ibp, x) == ibp_matvec(ibp, x, GENERIC_INT64)
        g = ibp_to_graph(ibp)
        rows = [[(i * j) % 7 for j in range(n)] for i in range(n)]
        assert graphs_equal(g, decode_bruteforce(model))
        prod = adjacency_matmul(g, LinearOrder.identity(n), rows, ibp)
        assert prod[0].tolist() == [sum(rows[v - 1][j] for v in g.neighbors(1)) for j in range(n)]

    def test_cli(self, tmp_path, capsys):
        stm_f, ibp_f, dag_f = tmp_path / "m.stm", tmp_path / "m.ibp", tmp_path / "m.dag"
        stm_f.write_text(fio.format_stm(random_stm_sparse(256, 1024, seed=0)))
        assert main(["convert", "stm-ibp", str(stm_f), "--out", str(ibp_f)]) == 0
        assert main(["convert", "ibp-dag", str(ibp_f), "--out", str(dag_f)]) == 0
        assert main(["sssp", str(stm_f), "--source", "1"]) == 0
        via_stm = capsys.readouterr().out
        assert main(["sssp", str(dag_f), "--kind", "dag", "--source", "1"]) == 0
        assert capsys.readouterr().out == via_stm
