"""Text codecs for every on-disk format.

All formats are line-oriented ASCII.  Parsers raise FormatError carrying a
1-based line number; formatters produce newline-terminated text that parses
back to an equal value.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .convert import (ConstructionSequence, DagCompression, DagEdgeError,
                      IntervalBicliquePartition, MERGE, RESOLVE_NEG,
                      RESOLVE_POS, SdDegenSequence)
from .graph import Graph, LinearOrder
from .paths import ShortestPathTree
from .stm import SignedTreeModel, validate


class FormatError(ValueError):
    """Parse failure; ``line`` is the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class CrossingPairError(FormatError):
    """The parsed model contains crossing pairs (a validity defect, not a
    syntax defect; callers may treat it as a validation failure)."""


def _lines(text: str) -> list[str]:
    return [ln.rstrip() for ln in text.splitlines()]


def _ints(line: str, lineno: int, count: Optional[int] = None) -> list[int]:
    parts = line.split()
    if count is not None and len(parts) != count:
        raise FormatError(lineno, f"expected {count} fields, got {len(parts)}")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise FormatError(lineno, f"non-integer field in {line!r}") from None


# -- graphs -----------------------------------------------------------------

def parse_graph(text: str) -> Graph:
    """Format: line 1 "n m"; then m lines "u v" with u < v."""
    lines = _lines(text)
    if not lines:
        raise FormatError(1, "empty input")
    n, m = _ints(lines[0], 1, 2)
    if len(lines) < m + 1:
        raise FormatError(len(lines), f"expected {m} edge lines, got {len(lines) - 1}")
    edges = []
    for i in range(1, m + 1):
        u, v = _ints(lines[i], i + 1, 2)
        if not u < v:
            raise FormatError(i + 1, f"edge ({u},{v}) must satisfy u < v")
        edges.append((u, v))
    try:
        return Graph(n, edges)
    except ValueError as e:
        raise FormatError(1, str(e)) from None


def format_graph(g: Graph) -> str:
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(out) + "\n"


# -- signed tree models -----------------------------------------------------

def parse_stm(text: str, check_crossing: bool = True) -> SignedTreeModel:
    """Format: line 1 "n"; n-1 lines "id left right" (internal nodes, root
    last); then lines "A x y" / "B x y".  Crossing pairs are rejected with a
    line-numbered diagnostic unless ``check_crossing`` is off."""
    lines = _lines(text)
    if not lines:
        raise FormatError(1, "empty input")
    (n,) = _ints(lines[0], 1, 1)
    if n < 1:
        raise FormatError(1, f"leaf count {n} must be positive")
    children: dict[int, tuple[int, int]] = {}
    for i in range(1, n):
        if i >= len(lines):
            raise FormatError(len(lines), f"expected {n - 1} internal-node lines")
        t, l, r = _ints(lines[i], i + 1, 3)
        if t in children:
            raise FormatError(i + 1, f"internal node {t} defined twice")
        children[t] = (l, r)
    pairs_a: list[tuple[int, int]] = []
    pairs_b: list[tuple[int, int]] = []
    for i in range(n, len(lines)):
        if not lines[i]:
            continue
        parts = lines[i].split()
        if len(parts) != 3 or parts[0] not in ("A", "B"):
            raise FormatError(i + 1, f"expected 'A x y' or 'B x y', got {lines[i]!r}")
        x, y = _ints(" ".join(parts[1:]), i + 1, 2)
        (pairs_a if parts[0] == "A" else pairs_b).append((x, y))
    try:
        model = SignedTreeModel(n, children, pairs_a, pairs_b)
    except ValueError as e:
        raise FormatError(1, str(e)) from None
    if check_crossing:
        for kind, msg in validate(model, strict=False).violations:
            if kind == "crossing":
                raise CrossingPairError(stm_pair_line(text, msg), msg)
    return model


def stm_pair_line(text: str, message: str) -> int:
    """The 1-based line of the first "A x y" / "B x y" line of the parsed
    .stm ``text`` whose pair, in either order, is named in ``message`` as
    "(x,y)" or "(x, y)"; 1 if none is.  Only error paths call this."""
    named = {tuple(sorted(map(int, p)))
             for p in re.findall(r"\((\d+),\s*(\d+)\)", message)}
    for i, line in enumerate(_lines(text), start=1):
        parts = line.split()
        if (len(parts) == 3 and parts[0] in ("A", "B")
                and tuple(sorted(map(int, parts[1:]))) in named):
            return i
    return 1


def format_stm(stm: SignedTreeModel) -> str:
    rows = [(t, l, r) for t, (l, r) in enumerate(stm.kids.tolist(), stm.n + 1)]
    rows.sort(key=lambda row: row[0] == stm.root)  # stable: the root's row last
    out = [str(stm.n)] + [f"{t} {l} {r}" for t, l, r in rows]
    for x, y, sign in stm.pairs_signed():
        out.append(f"{'B' if sign > 0 else 'A'} {x} {y}")
    return "\n".join(out) + "\n"


# -- interval biclique partitions -------------------------------------------

def parse_ibp(text: str) -> IntervalBicliquePartition:
    """Format: line 1 "n k"; line 2 the vertices in order, left to right;
    then k lines "a b c d" (order positions)."""
    lines = _lines(text)
    if len(lines) < 2:
        raise FormatError(max(1, len(lines)), "expected header and order lines")
    n, k = _ints(lines[0], 1, 2)
    seq = _ints(lines[1], 2, n)
    try:
        order = LinearOrder.from_vertex_sequence(seq)
    except (ValueError, IndexError):
        raise FormatError(2, f"{seq} is not a permutation of 1..{n}") from None
    if len(lines) < k + 2:
        raise FormatError(len(lines), f"expected {k} biclique lines")
    bicliques = []
    for i in range(2, k + 2):
        a, b, c, d = _ints(lines[i], i + 1, 4)
        if not (1 <= a <= b < c <= d <= n):
            raise FormatError(i + 1, f"biclique ({a},{b},{c},{d}) violates a<=b<c<=d")
        bicliques.append((a, b, c, d))
    return IntervalBicliquePartition(order, bicliques)


def format_ibp(ibp: IntervalBicliquePartition) -> str:
    """The ``parse_ibp`` format, one line per row of ``ibp.quads``."""
    out = [f"{ibp.n} {len(ibp.quads)}",
           " ".join(str(v) for v in ibp.order.vertex_at)]
    out.extend(f"{a} {b} {c} {d}" for a, b, c, d in zip(*ibp.quads.T.tolist()))
    return "\n".join(out) + "\n"


# -- sequences --------------------------------------------------------------

def parse_cseq(text: str, n: int) -> ConstructionSequence:
    """Format: lines "M i j" | "R+ i j" | "R- i j".  The vertex count n is
    not inferable from the operations and must be supplied."""
    ops = []
    for i, ln in enumerate(_lines(text), start=1):
        if not ln:
            continue
        parts = ln.split()
        if len(parts) != 3 or parts[0] not in (MERGE, RESOLVE_POS, RESOLVE_NEG):
            raise FormatError(i, f"expected 'M i j', 'R+ i j' or 'R- i j', got {ln!r}")
        a, b = _ints(" ".join(parts[1:]), i, 2)
        ops.append((parts[0], a, b))
    return ConstructionSequence(n, tuple(ops))


def format_cseq(seq: ConstructionSequence) -> str:
    return "".join(f"{k} {i} {j}\n" for k, i, j in seq.ops)


def parse_sdseq(text: str) -> SdDegenSequence:
    """Format: n-1 lines "u v"."""
    pairs = []
    for i, ln in enumerate(_lines(text), start=1):
        if not ln:
            continue
        u, v = _ints(ln, i, 2)
        pairs.append((u, v))
    return SdDegenSequence(tuple(pairs))


def format_sdseq(seq: SdDegenSequence) -> str:
    return "".join(f"{u} {v}\n" for u, v in seq.pairs)


# -- matrices and path outputs ----------------------------------------------

def parse_matrix(text: str) -> list[list[int]]:
    """Format: line 1 "n"; then n rows of n signed decimals."""
    lines = _lines(text)
    if not lines:
        raise FormatError(1, "empty input")
    (n,) = _ints(lines[0], 1, 1)
    if len(lines) < n + 1:
        raise FormatError(len(lines), f"expected {n} matrix rows")
    return [_ints(lines[i], i + 1, n) for i in range(1, n + 1)]


def format_matrix(rows: np.ndarray | Sequence[Sequence[int]]) -> str:
    """Line 1 "n", then the n rows, from an (n, n) integer array such as
    ``adjacency_matmul``'s, converted one row at a time, or a sequence of
    rows."""
    out = [str(len(rows))]
    out.extend(" ".join(map(str, r.tolist() if isinstance(r, np.ndarray) else r)) for r in rows)
    return "\n".join(out) + "\n"


def format_distance_matrix(rows: np.ndarray | Sequence[Sequence[int]], n: int) -> str:
    """n rows of n integers, from an (n, n) integer array such as ``apsp``'s
    (or a sequence of rows), converted one row at a time; the internal
    unreachable sentinel (any value >= n) prints as -1."""
    return "\n".join(" ".join("-1" if d >= n else str(d) for d in row.tolist())
                     for row in np.asarray(rows)) + "\n"


def format_spt(tree: ShortestPathTree, n: int) -> str:
    """n lines "v dist parent"; dist -1 and parent 0 for unreachable."""
    out = []
    for v in range(1, n + 1):
        d = tree.dist[v - 1]
        out.append(f"{v} {-1 if d >= n else d} {tree.parent[v - 1]}")
    return "\n".join(out) + "\n"


# -- DAG compressions -------------------------------------------------------

def parse_dag(text: str) -> DagCompression:
    """Format: line 1 "n num_nodes e c"; e lines "x y" (DAG edges, parent to
    child); c lines "C x y" (compressed edges).  A DAG that
    ``DagCompression`` rejects is a FormatError on the line of the edge it
    names, or on line 1 for a header defect; so is an integer beyond int64
    on an edge line.  A header whose num_nodes exceeds n + 2(e + c) is a
    line-1 FormatError too: past that bound some node above n touches no
    edge, and the header alone would size the distance model's arrays.  So
    is a num_nodes of 2^31 or more, which n isolated vertices can reach
    with no edges at all.

    The edge lines are read in one token pass straight into int64 arrays;
    only a malformed file is read again line by line, to name its first bad
    line."""
    lines = text.splitlines()
    if not lines:
        raise FormatError(1, "empty input")
    n, num_nodes, e, c = _ints(lines[0].rstrip(), 1, 4)
    if e < 0 or c < 0:
        raise FormatError(1, f"negative edge count in {lines[0].rstrip()!r}")
    if num_nodes > n + 2 * (e + c):  # then some node above n touches no edge
        raise FormatError(1, f"num_nodes {num_nodes} exceeds n + 2(e + c) = {n + 2 * (e + c)}")
    if num_nodes >= 2 ** 31:  # it sizes the distance model's arrays
        raise FormatError(1, f"num_nodes {num_nodes} is not below 2^31")
    body = lines[1:1 + e + c]
    if len(body) < e + c:
        raise FormatError(len(lines), f"expected {e} edge and {c} compressed lines")
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
                raise FormatError(i, f"expected 'C x y', got {line.rstrip()!r}") from None
            fields = _ints(line.rstrip() if i <= e + 1 else " ".join(parts[1:]), i, 2)
            if not all(-2 ** 63 <= v < 2 ** 63 for v in fields):
                raise FormatError(i, f"integer beyond int64 in {line.rstrip()!r}") from None
    try:
        return DagCompression(n, num_nodes, xy[:2 * e].reshape(2, e).T, xy[2 * e:].reshape(2, c).T)
    except DagEdgeError as exc:
        raise FormatError(2 + exc.row, str(exc)) from None
    except ValueError as exc:
        raise FormatError(1, str(exc)) from None


def format_dag(dc: DagCompression) -> str:
    """The ``parse_dag`` format, one line per row of ``dc.edge_rows``, then
    of ``dc.compressed_rows``."""
    out = [f"{dc.n} {dc.num_nodes} {len(dc.edge_rows)} {len(dc.compressed_rows)}"]
    out.extend(f"{x} {y}" for x, y in zip(*dc.edge_rows.T.tolist()))
    out.extend(f"C {x} {y}" for x, y in zip(*dc.compressed_rows.T.tolist()))
    return "\n".join(out) + "\n"
