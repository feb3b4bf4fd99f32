"""The parsers and formatters against the line-by-line codecs they replaced.

The oracles below are the per-format parsers and formatters as they were
before ``io`` read every block through one token reader.  They share no
code with ``io``: each reads its own lines with its own ``_ints`` (and
``parse_dag_oracle`` with its own token pass first), and raises its own
``OracleFormatError``.  Every parser must give an equal
value, or an error of the same type name, line and message, on valid
texts and on mutated ones; every formatter must give the same bytes.
"""

import random
import re
from itertools import chain
from typing import Optional

import numpy as np
import pytest

from stmgraph import (ConstructionSequence, DagCompression, Graph,
                      IntervalBicliquePartition, LinearOrder, SdDegenSequence,
                      SignedTreeModel, dag_to_distance_model, ibp_to_dag, ibp_to_graph, sssp,
                      stm_to_ibp, validate)
from stmgraph import io as fio
from stmgraph.convert import DagEdgeError, MERGE, RESOLVE_NEG, RESOLVE_POS
from stmgraph.gen import planted_sdseq, random_cseq, random_stm, random_stm_sparse

from test_convert import seed_family_models


# -- the oracles --------------------------------------------------------------

class OracleFormatError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class OracleCrossingPairError(OracleFormatError):
    pass


def _lines(text: str) -> list[str]:
    return [ln.rstrip() for ln in text.splitlines()]


def _ints(line: str, lineno: int, count: Optional[int] = None) -> list[int]:
    parts = line.split()
    if count is not None and len(parts) != count:
        raise OracleFormatError(lineno, f"expected {count} fields, got {len(parts)}")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise OracleFormatError(lineno, f"non-integer field in {line!r}") from None


def parse_graph_oracle(text):
    """The line-by-line parser, with the vertex count checked on line 1
    before the edge lines, and each edge's range checked on its own line
    right after u < v."""
    lines = _lines(text)
    if not lines:
        raise OracleFormatError(1, "empty input")
    n, m = _ints(lines[0], 1, 2)
    if n < 0:
        raise OracleFormatError(1, "vertex count must be nonnegative")
    if n >= 2 ** 31:
        raise OracleFormatError(1, f"vertex count {n} is not below 2^31")
    if len(lines) < m + 1:
        raise OracleFormatError(len(lines), f"expected {m} edge lines, got {len(lines) - 1}")
    edges = []
    for i in range(1, m + 1):
        u, v = _ints(lines[i], i + 1, 2)
        if not u < v:
            raise OracleFormatError(i + 1, f"edge ({u},{v}) must satisfy u < v")
        if not (1 <= u and v <= n):
            raise OracleFormatError(i + 1, f"edge ({u},{v}) out of range [1,{n}]")
        edges.append((u, v))
    return Graph(n, edges)


def parse_stm_oracle(text, check_crossing=True):
    lines = _lines(text)
    if not lines:
        raise OracleFormatError(1, "empty input")
    (n,) = _ints(lines[0], 1, 1)
    if n < 1:
        raise OracleFormatError(1, f"leaf count {n} must be positive")
    children = {}
    for i in range(1, n):
        if i >= len(lines):
            raise OracleFormatError(len(lines), f"expected {n - 1} internal-node lines")
        t, l, r = _ints(lines[i], i + 1, 3)
        if t in children:
            raise OracleFormatError(i + 1, f"internal node {t} defined twice")
        children[t] = (l, r)
    pairs_a, pairs_b = [], []
    for i in range(n, len(lines)):
        if not lines[i]:
            continue
        parts = lines[i].split()
        if len(parts) != 3 or parts[0] not in ("A", "B"):
            raise OracleFormatError(i + 1, f"expected 'A x y' or 'B x y', got {lines[i]!r}")
        x, y = _ints(" ".join(parts[1:]), i + 1, 2)
        (pairs_a if parts[0] == "A" else pairs_b).append((x, y))
    try:
        model = SignedTreeModel(n, children, pairs_a, pairs_b)
    except ValueError as e:
        raise OracleFormatError(1, str(e)) from None
    if check_crossing:
        for kind, msg in validate(model, strict=False).violations:
            if kind == "crossing":
                raise OracleCrossingPairError(stm_pair_line_oracle(text, msg), msg)
    return model


def stm_pair_line_oracle(text, message):
    named = {tuple(sorted(map(int, p)))
             for p in re.findall(r"\((\d+),\s*(\d+)\)", message)}
    for i, line in enumerate(_lines(text), start=1):
        parts = line.split()
        if (len(parts) == 3 and parts[0] in ("A", "B")
                and tuple(sorted(map(int, parts[1:]))) in named):
            return i
    return 1


def parse_ibp_oracle(text):
    lines = _lines(text)
    if len(lines) < 2:
        raise OracleFormatError(max(1, len(lines)), "expected header and order lines")
    n, k = _ints(lines[0], 1, 2)
    seq = _ints(lines[1], 2, n)
    try:
        order = LinearOrder.from_vertex_sequence(seq)
    except (ValueError, IndexError):
        raise OracleFormatError(2, f"{seq} is not a permutation of 1..{n}") from None
    if len(lines) < k + 2:
        raise OracleFormatError(len(lines), f"expected {k} biclique lines")
    bicliques = []
    for i in range(2, k + 2):
        a, b, c, d = _ints(lines[i], i + 1, 4)
        if not (1 <= a <= b < c <= d <= n):
            raise OracleFormatError(i + 1, f"biclique ({a},{b},{c},{d}) violates a<=b<c<=d")
        bicliques.append((a, b, c, d))
    return IntervalBicliquePartition(order, bicliques)


def parse_cseq_oracle(text, n):
    ops = []
    for i, ln in enumerate(_lines(text), start=1):
        if not ln:
            continue
        parts = ln.split()
        if len(parts) != 3 or parts[0] not in (MERGE, RESOLVE_POS, RESOLVE_NEG):
            raise OracleFormatError(i, f"expected 'M i j', 'R+ i j' or 'R- i j', got {ln!r}")
        a, b = _ints(" ".join(parts[1:]), i, 2)
        ops.append((parts[0], a, b))
    return ConstructionSequence(n, tuple(ops))


def parse_sdseq_oracle(text):
    pairs = []
    for i, ln in enumerate(_lines(text), start=1):
        if not ln:
            continue
        u, v = _ints(ln, i, 2)
        pairs.append((u, v))
    return SdDegenSequence(tuple(pairs))


def parse_matrix_oracle(text):
    lines = _lines(text)
    if not lines:
        raise OracleFormatError(1, "empty input")
    (n,) = _ints(lines[0], 1, 1)
    if len(lines) < n + 1:
        raise OracleFormatError(len(lines), f"expected {n} matrix rows")
    return [_ints(lines[i], i + 1, n) for i in range(1, n + 1)]


def parse_dag_oracle(text):
    lines = text.splitlines()
    if not lines:
        raise OracleFormatError(1, "empty input")
    n, num_nodes, e, c = _ints(lines[0].rstrip(), 1, 4)
    if e < 0 or c < 0:
        raise OracleFormatError(1, f"negative edge count in {lines[0].rstrip()!r}")
    if num_nodes > n + 2 * (e + c):  # then some node above n touches no edge
        raise OracleFormatError(1, f"num_nodes {num_nodes} exceeds n + 2(e + c) = {n + 2 * (e + c)}")
    if num_nodes >= 2 ** 31:  # it sizes the distance model's arrays
        raise OracleFormatError(1, f"num_nodes {num_nodes} is not below 2^31")
    body = lines[1:1 + e + c]
    if len(body) < e + c:
        raise OracleFormatError(len(lines), f"expected {e} edge and {c} compressed lines")
    # ";" closes every line, so a well-formed body reads "x y ;" e times,
    # then "C x y ;" c times.  Any other layout puts a ";" in an x or y
    # slot, which must parse as an integer, or a token other than "C" in a
    # "C" slot.
    tok = " ;\n".join(body + [""]).split()
    m = 3 * e
    try:
        if tok[m::4] != ["C"] * c:
            raise ValueError
        xy = np.fromiter(map(int, chain(tok[0:m:3], tok[1:m:3], tok[m + 1::4], tok[m + 2::4])),
                         dtype=np.int64, count=2 * (e + c))
    except (ValueError, OverflowError):  # read line by line to name the first bad line
        for i, line in enumerate(body, start=2):
            parts = line.split()
            if i > e + 1 and (len(parts) != 3 or parts[0] != "C"):
                raise OracleFormatError(i, f"expected 'C x y', got {line.rstrip()!r}") from None
            fields = _ints(line.rstrip() if i <= e + 1 else " ".join(parts[1:]), i, 2)
            if not all(-2 ** 63 <= v < 2 ** 63 for v in fields):
                raise OracleFormatError(i, f"integer beyond int64 in {line.rstrip()!r}") from None
    try:
        return DagCompression(n, num_nodes, xy[:2 * e].reshape(2, e).T, xy[2 * e:].reshape(2, c).T)
    except DagEdgeError as exc:
        raise OracleFormatError(2 + exc.row, str(exc)) from None
    except ValueError as exc:
        raise OracleFormatError(1, str(exc)) from None


def format_graph_oracle(g):
    return "\n".join([f"{g.n} {g.m}"] + [f"{u} {v}" for u, v in g.edges()]) + "\n"


def format_stm_oracle(stm):
    rows = [(t, l, r) for t, (l, r) in enumerate(stm.kids.tolist(), stm.n + 1)]
    rows.sort(key=lambda row: row[0] == stm.root)
    out = [str(stm.n)] + [f"{t} {l} {r}" for t, l, r in rows]
    out += [f"{'B' if sign > 0 else 'A'} {x} {y}" for x, y, sign in stm.pairs_signed()]
    return "\n".join(out) + "\n"


def format_ibp_oracle(ibp):
    out = [f"{ibp.n} {len(ibp.quads)}", " ".join(str(v) for v in ibp.order.vertex_at)]
    out += [f"{a} {b} {c} {d}" for a, b, c, d in ibp.quads.tolist()]
    return "\n".join(out) + "\n"


def format_cseq_oracle(seq):
    return "".join(f"{k} {i} {j}\n" for k, i, j in seq.ops)


def format_sdseq_oracle(seq):
    return "".join(f"{u} {v}\n" for u, v in seq.pairs)


def format_spt_oracle(tree, n):
    out = []
    for v in range(1, n + 1):
        d = tree.dist[v - 1]
        out.append(f"{v} {-1 if d >= n else d} {tree.parent[v - 1]}")
    return "\n".join(out) + "\n"


def format_dag_oracle(dc):
    out = [f"{dc.n} {dc.num_nodes} {len(dc.edge_rows)} {len(dc.compressed_rows)}"]
    out += [f"{x} {y}" for x, y in dc.edge_rows.tolist()]
    out += [f"C {x} {y}" for x, y in dc.compressed_rows.tolist()]
    return "\n".join(out) + "\n"


# -- comparing -----------------------------------------------------------------

def value_key(value):
    """What makes two parsed values equal, with the types of their numbers."""
    if isinstance(value, Graph):
        return value.n, repr(value.adjacency)
    if isinstance(value, SignedTreeModel):
        return (value.n, value.root, value.kids.tolist(), value.pairs.tolist(),
                value.sign.tolist())
    if isinstance(value, IntervalBicliquePartition):
        return repr(value.order.vertex_at), value.quads.tolist()
    if isinstance(value, DagCompression):
        return (value.n, value.num_nodes, value.edge_rows.tolist(),
                value.compressed_rows.tolist())
    return repr(value)


def outcome(parse, text, *args):
    try:
        value = parse(text, *args)
    except Exception as e:
        # the oracle's error class stands for io's of the same name
        return type(e).__name__.replace("Oracle", ""), getattr(e, "line", None), str(e)
    return "value", value_key(value), value


FORMATS = {
    # name: (parser, oracle, formatter, formatter oracle, extra parse args)
    "graph": (fio.parse_graph, parse_graph_oracle, fio.format_graph, format_graph_oracle, ()),
    "stm": (fio.parse_stm, parse_stm_oracle, fio.format_stm, format_stm_oracle, ()),
    "stm-unchecked": (fio.parse_stm, parse_stm_oracle, fio.format_stm, format_stm_oracle,
                      (False,)),
    "ibp": (fio.parse_ibp, parse_ibp_oracle, fio.format_ibp, format_ibp_oracle, ()),
    "cseq": (fio.parse_cseq, parse_cseq_oracle, fio.format_cseq, format_cseq_oracle, (9,)),
    "sdseq": (fio.parse_sdseq, parse_sdseq_oracle, fio.format_sdseq, format_sdseq_oracle, ()),
    "matrix": (fio.parse_matrix, parse_matrix_oracle, None, None, ()),
    "dag": (fio.parse_dag, parse_dag_oracle, fio.format_dag, format_dag_oracle, ()),
}


def check_same(fmt, text):
    parse, oracle, fmt_new, fmt_old, args = FORMATS[fmt]
    got, want = outcome(parse, text, *args), outcome(oracle, text, *args)
    assert got[:2] == want[:2], (fmt, text)
    if got[0] == "value" and fmt_new is not None:
        assert fmt_new(got[2]) == fmt_old(want[2]), (fmt, text)
    return got[0] == "value"


# -- inputs --------------------------------------------------------------------

def valid_texts():
    """(format, text) from ``seed_family_models()``, ``random_stm_sparse``
    and the generators of sequences and matrices."""
    models = list(seed_family_models()) + [random_stm_sparse(n, 4 * n, seed=s)
                                           for n, s in ((2, 1), (64, 2), (4096, 3))]
    for model in models:
        ibp = stm_to_ibp(model)
        yield "stm", fio.format_stm(model)
        yield "ibp", fio.format_ibp(ibp)
        yield "dag", fio.format_dag(ibp_to_dag(ibp))
        if model.n <= 256:
            yield "graph", fio.format_graph(ibp_to_graph(ibp))
    for seed in range(40):  # internal ids shuffled, so the root is anywhere
        model = random_stm(2 + seed % 9, seed % 13, seed=seed)
        n, rng = model.n, random.Random(seed)
        label = dict(zip(range(n + 1, 2 * n), rng.sample(range(n + 1, 2 * n), n - 1)))
        relabel = np.vectorize(lambda t: label.get(t, t), otypes=[np.int64])
        kids = {label[t]: tuple(relabel(lr)) for t, lr in model.children.items()}
        yield "stm", fio.format_stm(SignedTreeModel(n, kids, relabel(model.pairs[model.sign < 0]),
                                                    relabel(model.pairs[model.sign > 0])))
        yield "cseq", fio.format_cseq(random_cseq(9, seed % 7, seed=seed))
        yield "sdseq", fio.format_sdseq(planted_sdseq(2 + seed % 9, seed % 3, seed=seed)[1])
        rng = random.Random(seed)
        n = seed % 6
        bound = 2 ** rng.choice((4, 63, 64, 90))
        yield "matrix", fio.format_matrix([[rng.randrange(-bound, bound) for _ in range(n)]
                                           for _ in range(n)])


def small_texts(fmt):
    """Valid texts of ``fmt`` to mutate."""
    out = []
    for seed in range(60):
        rng = random.Random(seed)
        model = random_stm(rng.randint(1, 9), rng.randint(0, 12), seed=seed)
        ibp = stm_to_ibp(model)
        out.append({"graph": lambda: fio.format_graph(ibp_to_graph(ibp)),
                    "stm": lambda: fio.format_stm(model),
                    "stm-unchecked": lambda: fio.format_stm(model),
                    "ibp": lambda: fio.format_ibp(ibp),
                    "dag": lambda: fio.format_dag(ibp_to_dag(ibp)),
                    "cseq": lambda: fio.format_cseq(random_cseq(9, seed % 5, seed=seed)),
                    "sdseq": lambda: fio.format_sdseq(planted_sdseq(2 + seed % 6, 1, seed=seed)[1]),
                    "matrix": lambda: fio.format_matrix(
                        [[rng.randrange(-9, 9) for _ in range(seed % 4)] for _ in range(seed % 4)]),
                    }[fmt]())
    return out


# Field values each lexical rule is tried on: what ``int`` accepts beyond
# plain decimals, what it refuses, and the ends of int64 and past them.
FIELDS = ["x", "1_0", "٣", "３", "+1", "-1", "0", "1.5", ";", "1;2", "", "A", "B",
          "C", "M", "R+", "R-", str(2 ** 64), str(-2 ** 64), str(2 ** 63 - 1), str(-2 ** 63),
          str(2 ** 63), "99999999999999999999"]


def mutate(text, rng):
    lines = text.splitlines() or [""]
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        parts = lines[i].split()
        op = rng.randrange(10)
        if op == 0 and parts:  # another field value
            parts[rng.randrange(len(parts))] = rng.choice(FIELDS + [str(rng.randint(-2, 20))])
        elif op == 1 and parts:  # a field too few
            del parts[rng.randrange(len(parts))]
        elif op == 2:  # a field too many
            parts.insert(rng.randint(0, len(parts)), rng.choice(FIELDS[:8]))
        elif op == 3:  # a blank line
            lines.insert(i, rng.choice(["", "  ", "\t"]))
            continue
        elif op == 4 and len(lines) > 1:
            del lines[i]
            continue
        elif op == 5:
            lines.insert(i, lines[i])
            continue
        elif op == 6:  # two lines swapped
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
            continue
        elif op == 7 and len(parts) > 1:  # two fields swapped: breaks u < v, a <= b
            j, k = rng.sample(range(len(parts)), 2)
            parts[j], parts[k] = parts[k], parts[j]
        elif op == 8:  # lines past the end
            lines.append(rng.choice(["ignored", "1 2", "A 1 2", ""]))
            continue
        elif op == 9:
            lines = lines[:i + 1]
            continue
        lines[i] = " ".join(parts)
    pad = rng.random() < 0.3  # blank space around the fields
    lines = [f" {ln}\t " if pad and rng.random() < 0.5 else ln for ln in lines]
    return rng.choice(["\n", "\r\n"]).join(lines) + rng.choice(["\n", "\r\n", ""])


def rule_and_syntax(text, rng):
    """A row-rule defect and a malformed line in one text, in either order:
    an edge with u >= v, a biclique out of order, an internal node given
    twice or an integer beyond int64 on one line, and a bad field on
    another."""
    lines = text.splitlines()
    if len(lines) < 4:
        return text
    i, j = rng.sample(range(1, len(lines)), 2)
    parts = lines[i].split()
    if len(parts) >= 2:
        k = rng.randrange(len(parts))
        other = lines[rng.randrange(1, len(lines))].split() or ["0"]
        parts[k] = rng.choice([parts[-1 - k], other[0], str(2 ** 64), "999"])
    lines[i] = " ".join(parts)
    lines[j] = rng.choice(["x", lines[j] + " 1", "C 1", "B 1 1 1"])
    return "\n".join(lines) + "\n"


def graph_header_small(text):
    """Whether a .g text's vertex count is small: ``Graph`` allocates 8 B of
    ``offsets`` per vertex, on both sides."""
    head = (text.splitlines() or [""])[0].split()
    try:
        return abs(int(head[0])) < 10 ** 4
    except (IndexError, ValueError):
        return True


# -- the tests -----------------------------------------------------------------

class TestAgainstOracles:
    def test_valid_texts(self):
        for fmt, text in valid_texts():
            assert check_same(fmt, text)
            if fmt == "stm":
                assert check_same("stm-unchecked", text)

    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    def test_mutated_texts(self, fmt):
        rng = random.Random(fmt)
        bases = small_texts(fmt)
        kinds = set()
        count = 0
        while count < 2000:
            text = rng.choice(bases)
            if rng.random() < 0.25:
                text = rule_and_syntax(text, rng)
            if rng.random() < 0.9:
                text = mutate(text, rng)
            if fmt == "graph" and not graph_header_small(text):
                continue
            kinds.add(check_same(fmt, text))
            count += 1
        assert kinds == {True, False}  # both values and errors were compared

    @pytest.mark.parametrize("fmt, text, line", [
        # the first bad line wins, be it malformed or a row-rule defect
        ("graph", "3 2\n2 1\n1 x\n", 2),
        ("graph", "3 2\n1 x\n2 1\n", 2),
        ("ibp", "3 2\n1 2 3\n2 1 3 3\n1 1 2\n", 3),
        ("ibp", "3 2\n1 2 3\n1 1 2\n2 1 3 3\n", 3),
        ("stm", "3\n4 1 2\n4 3 5\n5 x 3\n", 3),
        ("stm", "3\n4 1 x\n4 3 5\n", 2),
        ("dag", "2 4 2 0\n99999999999999999999 1\n3 x\n", 2),
        ("dag", "2 4 2 0\n3 x\n99999999999999999999 1\n", 2),
        # a graph edge out of range is a row-rule defect on its own line
        ("graph", "3 3\n1 2\n2 3\n2 4\n", 4),
        ("graph", "3 2\n1 4\n2 1\n", 2),
        ("graph", "3 2\n2 1\n1 4\n", 2),
        ("graph", "3 2\n0 1\n1 x\n", 2),
        ("graph", "3 2\n1 x\n0 1\n", 2),
        ("graph", "3 1\n5 4\n", 2),
        ("graph", "3 1\n1 99999999999999999999\n", 2),
        # the vertex count, on line 1, before the edge lines
        ("graph", "-1 1\n2 1\n", 1),
        ("graph", "2147483648 2\n1 x\n", 1),
        ("graph", "-1 5\n", 1),
        # blank lines: skipped between pairs and sequence lines only
        ("stm", "2\n3 1 2\n\nB 1 2\n  \nA 1 x\n", 6),
        ("sdseq", "1 2\n\n2 3 4\n", 3),
        ("graph", "3 2\n1 2\n\n2 3\n", 3),
        ("dag", "2 3 1 1\n3 1\n\nC 1 2\n", 3),
        # a crossing pair's line counts the blank lines before it
        ("stm", "4\n5 1 2\n6 3 4\n7 5 6\n\nB 1 6\n \nB 3 5\n", 6),
    ])
    def test_precedence(self, fmt, text, line):
        got = outcome(FORMATS[fmt][0], text, *FORMATS[fmt][4])
        assert got == outcome(FORMATS[fmt][1], text, *FORMATS[fmt][4])
        assert got[1] == line

    @pytest.mark.parametrize("fmt, text", [
        # a negative count reads no lines, however many follow
        ("graph", "3 -2\n1 2\n2 3\n1 3\n"),
        ("ibp", "2 -2\n1 2\n1 1 2 2\n1 1 2 2\n"),
        ("matrix", "-2\n1\n2\n3\n"),
    ])
    def test_negative_counts(self, fmt, text):
        assert check_same(fmt, text)

    def test_format_spt(self):
        for seed in range(40):
            rng = random.Random(seed)
            model = random_stm(rng.randint(1, 12), rng.randint(0, 10), seed=seed)
            dm = dag_to_distance_model(ibp_to_dag(stm_to_ibp(model)))
            for source in range(1, model.n + 1):  # unreachable vertices included
                tree = sssp(dm, source)
                assert fio.format_spt(tree, model.n) == format_spt_oracle(tree, model.n)

    def test_beyond_int64_kept(self):
        """A .stm quotes an id beyond int64 in the model's message, and a
        .mat keeps it for the product to wrap."""
        assert fio.parse_matrix(f"1\n{2 ** 64}\n") == [[2 ** 64]]
        with pytest.raises(fio.FormatError,
                           match=re.escape(f"line 1: expected rows of 2 integers, got (1, {2 ** 70})")):
            fio.parse_stm(f"2\n3 1 2\nB 1 {2 ** 70}\n")
        assert fio.parse_sdseq(f"1 {-2 ** 64}\n").pairs == ((1, -2 ** 64),)
