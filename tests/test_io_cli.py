import random

import pytest

from stmgraph import io as fio
from stmgraph import (SdDegenSequence, cseq_replay,
                      decode_bruteforce, graphs_equal, ibp_to_dag, stm_to_ibp)
from stmgraph.cli import main
from stmgraph.gen import erdos_renyi, random_cseq, random_stm


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

    def test_distance_matrix_sentinel(self):
        out = fio.format_distance_matrix([[0, 3], [3, 0]], 3)
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

    def test_matmul(self, files, tmp_path, capsys):
        stm_f, _, _ = files
        mat_f = tmp_path / "m.mat"
        mat_f.write_text(fio.format_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        assert main(["matmul", str(stm_f), str(mat_f)]) == 0
        rows = fio.parse_matrix(capsys.readouterr().out)
        assert rows == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]

    def test_scatter(self, files, capsys):
        stm_f, _, _ = files
        assert main(["scatter", str(stm_f), "--c", "2", "--r", "1"]) == 0
        assert capsys.readouterr().out.strip() == "1 3"

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
