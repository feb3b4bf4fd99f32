"""Text codecs for every on-disk format.

All formats are line-oriented text of whitespace-separated fields.  One
reader, ``_read``, reads every block of integer rows, so the lexical rules
are the same in every format:

- blank space around fields and CRLF line endings are accepted;
- a field is whatever ``int`` accepts: a sign, ``1_0``, non-ASCII digits;
- lines past a counted block are ignored;
- blank lines are skipped only between "A x y" / "B x y" pair lines and
  sequence lines (``.cseq``, ``.sdseq``); anywhere else they are a
  malformed line.

Parsers raise FormatError carrying the 1-based number of the first bad
line; formatters produce newline-terminated text that parses back to an
equal value.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .convert import (ConstructionSequence, DagCompression, DagEdgeError,
                      IntervalBicliquePartition, MERGE, RESOLVE_NEG,
                      RESOLVE_POS, SdDegenSequence, _bad_quads, _check_dag_size)
from .graph import Graph, InputError, LinearOrder, _check_vertices, _first_repeat
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


# The leading tags a row may carry, and how a message names the rows they allow.
_PAIR = ("A", "B"), "'A x y' or 'B x y'"
_COMPRESSED = ("C",), "'C x y'"
_OP = (MERGE, RESOLVE_POS, RESOLVE_NEG), "'M i j', 'R+ i j' or 'R- i j'"


def _read(block: list[str], first: int, width: int, tags: Optional[tuple] = None,
          skip_blank: bool = False, rule: Optional[tuple] = None) -> tuple[np.ndarray, list[str]]:
    """The rows of ``block``, whose first line is line ``first``: each line
    is ``width`` integers, after a leading tag from ``tags`` if given.
    Returns them as a (rows, width) array and their tags as a list.  Blank
    lines are skipped if ``skip_blank`` is set.  A ``rule``, for a block
    without blank lines, is a function from such an array to a mask of its
    bad rows, and a function from a bad row's fields and its ``line`` to
    its message (such as a ``str.format``).

    The block is read in one token pass.  A ";" closes every line, so a
    well-formed block is, per line, a tag slot (if tagged), ``width``
    integer slots and a ";" slot.  Suppose the token count is that, every
    tag slot holds a tag and every integer slot an integer.  Then every ";"
    is in a ";" slot, so every line has that layout.

    Any failure, and any row ``rule`` marks, sends the block to a second
    reading, line by line, with ``int`` and a tag check per line.  It
    raises a FormatError on the first bad line, whether the line itself is
    malformed or ``rule`` marks its row.  If the only failure was an
    integer beyond int64, it returns the rows as an object array of Python
    ints instead.
    """
    lines = list(filter(str.strip, block)) if skip_blank else block
    per = width + 1 + bool(tags)  # tokens per line, with its ";"
    tok = " ;\n".join(lines + [""]).split()
    try:
        if len(tok) != per * len(lines):
            raise ValueError
        kinds = tok[0::per] if tags else []
        if tags and not frozenset(tags[0]).issuperset(kinds):
            raise ValueError
        del tok[per - 1::per]
        if tags:
            del tok[0::per - 1]
        rows = np.fromiter(map(int, tok), np.int64, len(tok)).reshape(len(lines), width)
        if rule is None or not rule[0](rows).any():
            return rows, kinds
    except (ValueError, OverflowError):
        pass
    rows, kinds, error = [], [], None
    for i, line in enumerate(block, start=first):
        line = line.rstrip()
        parts = line.split()
        if skip_blank and not parts:
            continue
        if tags:
            if len(parts) != width + 1 or parts[0] not in tags[0]:
                error = FormatError(i, f"expected {tags[1]}, got {line!r}")
                break
            kinds.append(parts.pop(0))
        if len(parts) != width:
            error = FormatError(i, f"expected {width} fields, got {len(parts)}")
            break
        try:
            rows.append([int(p) for p in parts])
        except ValueError:
            error = FormatError(i, f"non-integer field in {' '.join(parts) if tags else line!r}")
            break
    if rule is not None and rows:
        bad = np.flatnonzero(rule[0](np.array(rows, dtype=object)))
        if bad.size:  # before the bad line, if there is one
            i = bad[0]
            raise FormatError(first + i, rule[1](*rows[i], line=block[i].rstrip()))
    if error is not None:
        raise error
    return np.array(rows, dtype=object).reshape(len(rows), width), kinds


def _header(lines: list[str], width: int) -> list[int]:
    """Line 1's ``width`` integers."""
    if not lines:
        raise FormatError(1, "empty input")
    return _read(lines[:1], 1, width)[0][0].tolist()


def _format_rows(fmt: str, rows) -> str:
    """``fmt``, one line's %-format, filled once per row of ``rows`` (an
    (m, k) array or a sequence of k-tuples) by one ``%``."""
    flat = rows.ravel().tolist() if isinstance(rows, np.ndarray) else chain.from_iterable(rows)
    return (fmt * len(rows)) % tuple(flat)


# -- graphs -----------------------------------------------------------------

def parse_graph(text: str) -> Graph:
    """Format: line 1 "n m"; then m lines "u v" with 1 <= u < v <= n.  The
    vertex count (``Graph`` takes n < 2^31) is checked before the edge
    lines are read, and an edge line that breaks u < v or the range is
    reported as the line it is."""
    lines = text.splitlines()
    n, m = _header(lines, 2)
    try:
        _check_vertices(n)
    except InputError as e:
        raise FormatError(1, str(e)) from None
    if len(lines) < m + 1:
        raise FormatError(len(lines), f"expected {m} edge lines, got {len(lines) - 1}")
    edges, _ = _read(lines[1:1 + max(m, 0)], 2, 2, rule=(
        lambda r: (r[:, 0] >= r[:, 1]) | (r[:, 0] < 1) | (r[:, 1] > n),
        lambda u, v, line: (f"edge ({u},{v}) must satisfy u < v" if u >= v
                            else f"edge ({u},{v}) out of range [1,{n}]")))
    return Graph(n, edges)


def format_graph(g: Graph) -> str:
    return f"{g.n} {g.m}\n" + _format_rows("%s %s\n", g.edge_rows)


# -- signed tree models -----------------------------------------------------

_DISTINCT = (lambda r: np.arange(len(r)) == _first_repeat(r[:, 0]),
             "internal node {0} defined twice".format)


def parse_stm(text: str, check_crossing: bool = True) -> SignedTreeModel:
    """Format: line 1 "n"; n-1 lines "id left right" (internal nodes, root
    last); then lines "A x y" / "B x y".  Crossing pairs are rejected with a
    line-numbered diagnostic unless ``check_crossing`` is off."""
    lines = text.splitlines()
    (n,) = _header(lines, 1)
    if n < 1:
        raise FormatError(1, f"leaf count {n} must be positive")
    tree, _ = _read(lines[1:n], 2, 3, rule=_DISTINCT)
    if len(tree) < n - 1:
        raise FormatError(len(lines), f"expected {n - 1} internal-node lines")
    pairs, kinds = _read(lines[n:], n + 1, 2, _PAIR, skip_blank=True)
    positive = np.fromiter(map("B".__eq__, kinds), bool, len(kinds))
    try:
        model = SignedTreeModel(n, tree, pairs[~positive], pairs[positive])
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
    "(x,y)" or "(x, y)"; 1 if none is.  Only error paths call this.

    Each pair is matched by its code min * 2n + max, so the work is linear
    in the lines and the named pairs; the model's ids are below 2n, and a
    named pair that is not cannot match."""
    lines = text.splitlines()
    (n,) = _header(lines, 1)
    pairs, _ = _read(lines[n:], n + 1, 2, _PAIR, skip_blank=True)
    named = (sorted(map(int, p)) for p in re.findall(r"\((\d+),\s*(\d+)\)", message))
    pairs.sort(axis=1)
    hit = np.isin(pairs @ np.array([2 * n, 1]),
                  np.array([x * 2 * n + y for x, y in named if y < 2 * n], dtype=np.int64))
    if not hit.any():
        return 1
    return n + 1 + int(np.flatnonzero(list(map(str.strip, lines[n:])))[hit.argmax()])


def format_stm(stm: SignedTreeModel) -> str:
    ids = np.arange(stm.n + 1, 2 * stm.n)
    # stable: the root's row last
    tree = np.column_stack((ids, stm.kids))[np.argsort(ids == stm.root, kind="stable")]
    tags = np.where(stm.sign > 0, "B", "A").tolist()
    return (f"{stm.n}\n" + _format_rows("%s %s %s\n", tree)
            + _format_rows("%s %s %s\n", list(zip(tags, *stm.pairs.T.tolist()))))


# -- interval biclique partitions -------------------------------------------

def parse_ibp(text: str) -> IntervalBicliquePartition:
    """Format: line 1 "n k"; line 2 the vertices in order, left to right;
    then k lines "a b c d" (order positions)."""
    lines = text.splitlines()
    if len(lines) < 2:
        raise FormatError(max(1, len(lines)), "expected header and order lines")
    n, k = _header(lines, 2)
    seq = _read(lines[1:2], 2, n)[0][0]
    try:
        order = LinearOrder.from_vertex_sequence(seq)
    except ValueError:
        raise FormatError(2, f"{seq.tolist()} is not a permutation of 1..{n}") from None
    if len(lines) < k + 2:
        raise FormatError(len(lines), f"expected {k} biclique lines")
    quads, _ = _read(lines[2:2 + max(k, 0)], 3, 4, rule=(
        lambda r: _bad_quads(r, n), "biclique ({0},{1},{2},{3}) violates a<=b<c<=d".format))
    return IntervalBicliquePartition(order, quads)


def format_ibp(ibp: IntervalBicliquePartition) -> str:
    """The ``parse_ibp`` format, one line per row of ``ibp.quads``."""
    order = " ".join(map(str, ibp.order.vertex_at.tolist()))
    return f"{ibp.n} {len(ibp.quads)}\n{order}\n" + _format_rows("%s %s %s %s\n", ibp.quads)


# -- sequences --------------------------------------------------------------

def parse_cseq(text: str, n: int) -> ConstructionSequence:
    """Format: lines "M i j" | "R+ i j" | "R- i j".  The vertex count n is
    not inferable from the operations and must be supplied."""
    ops, kinds = _read(text.splitlines(), 1, 2, _OP, skip_blank=True)
    return ConstructionSequence(n, tuple(zip(kinds, *ops.T.tolist())))


def format_cseq(seq: ConstructionSequence) -> str:
    return _format_rows("%s %s %s\n", seq.ops)


def parse_sdseq(text: str) -> SdDegenSequence:
    """Format: n-1 lines "u v"."""
    pairs, _ = _read(text.splitlines(), 1, 2, skip_blank=True)
    return SdDegenSequence(tuple(map(tuple, pairs.tolist())))


def format_sdseq(seq: SdDegenSequence) -> str:
    return _format_rows("%s %s\n", seq.pairs)


# -- matrices and path outputs ----------------------------------------------

def parse_matrix(text: str) -> list[list[int]]:
    """Format: line 1 "n"; then n rows of n signed decimals, which may lie
    beyond int64 (the int64 product wraps them)."""
    lines = text.splitlines()
    (n,) = _header(lines, 1)
    if len(lines) < n + 1:
        raise FormatError(len(lines), f"expected {n} matrix rows")
    n = max(n, 0)  # a negative n reads as an empty matrix
    return _read(lines[1:1 + n], 2, n)[0].tolist()


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
    dist = [-1 if d >= n else d for d in tree.dist[:n]]
    return _format_rows("%s %s %s\n", list(zip(range(1, n + 1), dist, tree.parent)))


# -- DAG compressions -------------------------------------------------------

# only an object array can hold an integer beyond int64
_INT64 = (lambda r: ((r < -2 ** 63) | (r >= 2 ** 63)).any(axis=1) if r.dtype == object
          else np.zeros(len(r), bool), "integer beyond int64 in {line!r}".format)


def parse_dag(text: str) -> DagCompression:
    """Format: line 1 "n num_nodes e c"; e lines "x y" (DAG edges, parent to
    child); c lines "C x y" (compressed edges).  A DAG that
    ``DagCompression`` rejects is a FormatError on the line of the edge it
    names, or on line 1 for a header defect; so is an integer beyond int64
    on an edge line.  The header's bounds on num_nodes (see
    ``DagCompression``) are checked before the edge lines are read."""
    lines = text.splitlines()
    n, num_nodes, e, c = _header(lines, 4)
    if e < 0 or c < 0:
        raise FormatError(1, f"negative edge count in {lines[0].rstrip()!r}")
    try:
        _check_dag_size(n, num_nodes, e + c)
        if len(lines) < e + c + 1:
            raise FormatError(len(lines), f"expected {e} edge and {c} compressed lines")
        edges, _ = _read(lines[1:1 + e], 2, 2, rule=_INT64)
        compressed, _ = _read(lines[1 + e:1 + e + c], 2 + e, 2, _COMPRESSED, rule=_INT64)
        return DagCompression(n, num_nodes, edges, compressed)
    except DagEdgeError as exc:
        raise FormatError(2 + exc.row, str(exc)) from None
    except InputError as exc:  # a header defect
        raise FormatError(1, str(exc)) from None


def format_dag(dc: DagCompression) -> str:
    """The ``parse_dag`` format, one line per row of ``dc.edge_rows``, then
    of ``dc.compressed_rows``."""
    return (f"{dc.n} {dc.num_nodes} {len(dc.edge_rows)} {len(dc.compressed_rows)}\n"
            + _format_rows("%s %s\n", dc.edge_rows) + _format_rows("C %s %s\n", dc.compressed_rows))
