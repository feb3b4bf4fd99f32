import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stmgraph import (INT64_GROUP, AdditiveGroup, InputError, LinearOrder,
                      adjacency_matmul, decode_bruteforce, graphs_equal,
                      ibp_matvec, ibp_to_graph, stm_to_ibp)
from stmgraph import matmul
from stmgraph.gen import random_stm
from stmgraph.matmul import _BLOCK, _int64_array, dense_matmul_oracle, dense_matvec_oracle

from conftest import counting_group

# INT64_GROUP's operations under another identity, which takes the generic
# Python path instead of the numpy int64 kernel
GENERIC_INT64 = AdditiveGroup(INT64_GROUP.add, INT64_GROUP.sub, INT64_GROUP.zero)

# Entry ranges the int64 kernel converts differently: int64 itself, uint64
# (wrapped by astype), mixed signs past 2**63 (numpy infers float64) and
# integers wider than 64 bits (object arrays).
RANGES = [(-2 ** 63, 2 ** 63), (2 ** 63, 2 ** 64), (-2 ** 64, 2 ** 64), (-2 ** 90, 2 ** 90)]


@st.composite
def kernel_cases(draw):
    """A partition (no bicliques, n = 1 and n past two column blocks
    included), a random caller order, and a seeded rng for the entries."""
    n = draw(st.one_of(st.integers(1, 2 * _BLOCK + 5),
                       st.sampled_from([_BLOCK - 1, _BLOCK + 1, 2 * _BLOCK + 1])))
    pairs = draw(st.one_of(st.just(0), st.integers(0, 3 * n)))
    model = random_stm(n, pairs, seed=draw(st.integers(0, 1 << 16)))
    order = LinearOrder.from_vertex_sequence(draw(st.permutations(range(1, n + 1))))
    lo, hi = draw(st.sampled_from(RANGES))
    rng = random.Random(draw(st.integers(0, 1 << 16)))
    return model, order, lambda: rng.randrange(lo, hi)


class TestGroup:
    def test_wrapping(self):
        big = 2 ** 63 - 1
        assert INT64_GROUP.add(big, 1) == -2 ** 63
        assert INT64_GROUP.sub(-2 ** 63, 1) == big


class TestIbpMatvec:
    def test_p3(self, p3_model):
        ibp = stm_to_ibp(p3_model)
        g = decode_bruteforce(p3_model)
        # in the partition's own order; check against the dense oracle
        x = [1, 2, 3]
        assert ibp_matvec(ibp, x) == dense_matvec_oracle(g, ibp.order, x)

    def test_empty_bicliques(self):
        model = random_stm(5, 0, seed=0)
        ibp = stm_to_ibp(model)
        assert ibp_matvec(ibp, [3, 1, 4, 1, 5]) == [0] * 5

    def test_zero_vector(self, p3_model):
        ibp = stm_to_ibp(p3_model)
        assert ibp_matvec(ibp, [0, 0, 0]) == [0, 0, 0]

    def test_length_mismatch(self, p3_model):
        with pytest.raises(InputError):
            ibp_matvec(stm_to_ibp(p3_model), [1, 2])

    def test_random_against_dense(self):
        for seed in range(100):
            rng = random.Random(seed)
            n = rng.randint(2, 48)
            model = random_stm(n, rng.randint(0, 3 * n), seed=seed)
            g = decode_bruteforce(model)
            ibp = stm_to_ibp(model)
            x = [rng.randrange(-10 ** 12, 10 ** 12) for _ in range(n)]
            assert ibp_matvec(ibp, x) == dense_matvec_oracle(g, ibp.order, x), seed

    def test_linearity(self):
        rng = random.Random(3)
        model = random_stm(16, 40, seed=3)
        ibp = stm_to_ibp(model)
        x = [rng.randrange(-100, 100) for _ in range(16)]
        y = [rng.randrange(-100, 100) for _ in range(16)]
        xy = [a + b for a, b in zip(x, y)]
        lhs = ibp_matvec(ibp, xy)
        rhs = [INT64_GROUP.add(a, b) for a, b in
               zip(ibp_matvec(ibp, x), ibp_matvec(ibp, y))]
        assert lhs == rhs

    def test_op_count_bound(self):
        for seed in range(50):
            rng = random.Random(seed)
            n = rng.randint(2, 64)
            model = random_stm(n, rng.randint(0, 4 * n), seed=seed)
            ibp = stm_to_ibp(model)
            group, ops = counting_group()
            ibp_matvec(ibp, [1] * n, group)
            assert ops[0] <= 8 * (n + len(ibp.quads)), seed

    def test_wrapping_entries(self, p3_model):
        ibp = stm_to_ibp(p3_model)
        # numpy infers float64 for this mix; the kernel must not lose bits
        x = [-1, 2 ** 63 + 1, 2 ** 64 + 3]
        assert ibp_matvec(ibp, x) == ibp_matvec(ibp, x, GENERIC_INT64)
        with pytest.raises(TypeError):
            ibp_matvec(ibp, [1.5, 0, 0])

    def test_int64_array(self):
        """Python rows and vectors read as the int64 array numpy gives for
        the same entries, wrapped as INT64_GROUP wraps them; a non-integer
        entry raises TypeError."""
        cases = [
            ([[1, -2], [2 ** 63, 2 ** 64 + 3]], [[1, -2], [-2 ** 63, 3]]),
            ([[-2 ** 90 - 1, 0], [2 ** 63 - 1, -2 ** 63]], [[-1, 0], [2 ** 63 - 1, -2 ** 63]]),
            ([[True, False], [False, True]], [[1, 0], [0, 1]]),
            ([(np.uint64(2 ** 64 - 1), np.uint64(1)), (0, np.int8(-3))], [[-1, 1], [0, -3]]),
            (np.array([[2 ** 64 - 1, 1]], dtype=np.uint64), [[-1, 1]]),
            (np.array([[2 ** 64 + 3, -1]], dtype=object), [[3, -1]]),
            ([2 ** 64 + 3, -1, True], [3, -1, 1]),
            ([], []),
        ]
        for rows, want in cases:
            got = _int64_array(rows)
            assert got.dtype == np.int64 and got.tolist() == want, rows
        for rows in ([[1.5, 0], [0, 0]], [["3", 0], [0, 0]], [[1.0, 2 ** 64]], [1.5, 0], ["3"],
                     np.array([[1.0, 2.0]])):
            with pytest.raises(TypeError):
                _int64_array(rows)
        for rows in ([[1, 2], [3]], [[1], [2, 3]]):  # ragged
            with pytest.raises(ValueError):
                _int64_array(rows)

    @settings(max_examples=300, deadline=None)
    @given(kernel_cases())
    def test_int64_kernel_matches_generic(self, case):
        model, _, entry = case
        ibp = stm_to_ibp(model)
        x = [entry() for _ in range(model.n)]
        got = ibp_matvec(ibp, x)
        assert got == ibp_matvec(ibp, x, GENERIC_INT64)
        assert got == dense_matvec_oracle(decode_bruteforce(model), ibp.order, x)
        block = ibp_matvec(ibp, [[v, 0] for v in x])
        assert block.dtype == np.int64 and block.shape == (model.n, 2)
        assert block[:, 0].tolist() == got and not block[:, 1].any()

    def test_custom_group(self, p3_model):
        # tuples of ints under componentwise addition
        grp = AdditiveGroup(add=lambda a, b: (a[0] + b[0], a[1] + b[1]),
                            sub=lambda a, b: (a[0] - b[0], a[1] - b[1]),
                            zero=(0, 0))
        ibp = stm_to_ibp(p3_model)
        x = [(1, 0), (0, 1), (2, 2)]
        got = ibp_matvec(ibp, x, group=grp)
        g = decode_bruteforce(p3_model)
        want = dense_matvec_oracle(g, ibp.order, x, group=grp)
        assert got == want


class TestAdjacencyMatmul:
    def test_identity_gives_adjacency(self, p3_model):
        g = decode_bruteforce(p3_model)
        ibp = stm_to_ibp(p3_model)
        order = LinearOrder.identity(3)
        eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        out = adjacency_matmul(g, order, eye, ibp)
        assert out.dtype == np.int64
        assert out.tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]

    def test_random_against_dense(self):
        for seed in range(30):
            rng = random.Random(seed)
            n = rng.randint(2, 24)
            model = random_stm(n, rng.randint(0, 3 * n), seed=seed)
            g = decode_bruteforce(model)
            ibp = stm_to_ibp(model)
            # a random caller-side order, distinct from the partition's
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            order = LinearOrder.from_vertex_sequence(perm)
            N = [[rng.randrange(-50, 50) for _ in range(n)] for _ in range(n)]
            assert graphs_equal(ibp_to_graph(ibp), g), seed
            got = adjacency_matmul(g, order, N, ibp).tolist()
            assert got == dense_matmul_oracle(g, order, N), seed
            # the product needs only the partition
            assert adjacency_matmul(None, order, N, ibp).tolist() == got, seed

    @settings(max_examples=60, deadline=None)
    @given(kernel_cases())
    def test_int64_blocks_match_generic(self, case):
        model, order, entry = case
        n = model.n
        ibp = stm_to_ibp(model)
        N = [[entry() for _ in range(n)] for _ in range(n)]
        got = adjacency_matmul(None, order, N, ibp).tolist()
        assert got == adjacency_matmul(None, order, N, ibp, group=GENERIC_INT64)
        assert got == dense_matmul_oracle(decode_bruteforce(model), order, N)

    def test_chained_product(self):
        rng = random.Random(11)
        n = 12
        m1 = random_stm(n, 24, seed=11)
        m2 = random_stm(n, 24, seed=12)
        g1, g2 = decode_bruteforce(m1), decode_bruteforce(m2)
        i1, i2 = stm_to_ibp(m1), stm_to_ibp(m2)
        order = LinearOrder.identity(n)
        N = [[rng.randrange(-20, 20) for _ in range(n)] for _ in range(n)]
        inner = adjacency_matmul(g2, order, N, i2)
        outer = adjacency_matmul(g1, order, inner, i1)
        want = dense_matmul_oracle(g1, order, dense_matmul_oracle(g2, order, N))
        assert outer.tolist() == want

    def test_size_mismatch(self, p3_model):
        g = decode_bruteforce(p3_model)
        ibp = stm_to_ibp(p3_model)
        with pytest.raises(InputError):
            adjacency_matmul(g, LinearOrder.identity(3), [[1, 2], [3, 4]], ibp)

    def test_matrix_shape(self, p3_model):
        """An array or list of any shape but (n, n) raises the shape's
        InputError; entries that are no integers raise TypeError.  A ragged
        row raises InputError wherever it sits in the partition's order,
        2, 1, 3 here: third, first (numpy's shape of it raised ValueError)
        and second."""
        ibp = stm_to_ibp(p3_model)
        order = LinearOrder.identity(3)
        for bad in (np.arange(3), np.zeros((3, 3, 1), np.int64), np.zeros((3, 4), np.int64),
                    np.zeros((9,), np.uint64), [[1, 2], [3, 4], [5, 6]], [1, 2, 3],
                    [[[0]] * 3] * 3, [[1, 2, 3], 4, [5, 6, 7]],
                    *([[1, 2, 3]] * r + [[[1], 2, 3]] + [[1, 2, 3]] * (2 - r) for r in range(3))):
            with pytest.raises(InputError, match="^matrix is not 3x3$"):
                adjacency_matmul(None, order, bad, ibp)
        for bad in (np.ones((3, 3)), [[1.5, 0, 0]] * 3):
            with pytest.raises(TypeError):
                adjacency_matmul(None, order, bad, ibp)

    @pytest.mark.parametrize("n", [2 * _BLOCK + 1, 150])
    def test_blocked_permuted_product(self, n):
        """Several column blocks, the last one partial, written back into
        the caller's rows: the partition's order and the caller's are two
        different random orders, and the matrix comes as rows of Python
        ints, as int64, uint64 and object arrays; the caller's array is
        left as it was."""
        rng = random.Random(n)
        model = random_stm(n, 3 * n, seed=n)
        ibp = stm_to_ibp(model)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        order = LinearOrder.from_vertex_sequence(perm)
        assert not np.array_equal(order.vertex_at, ibp.order.vertex_at)
        N = [[rng.randrange(-2 ** 63, 2 ** 63) for _ in range(n)] for _ in range(n)]
        want = dense_matmul_oracle(decode_bruteforce(model), order, N)
        assert adjacency_matmul(None, order, N, ibp, group=GENERIC_INT64) == want
        wide = np.array(N, dtype=object)
        wide[n - 1, n // 2] += 3 * 2 ** 64  # beyond int64, the same entry once wrapped
        forms = [np.array(N, np.int64), np.array(N, np.int64).view(np.uint64), wide]
        for form in [N] + forms:
            before = form.copy() if isinstance(form, np.ndarray) else None
            got = adjacency_matmul(None, order, form, ibp)
            assert got.dtype == np.int64 and got.tolist() == want
            if before is not None:
                assert form.dtype == before.dtype and form.tobytes() == before.tobytes()

    def test_one_kernel_for_the_blocks(self):
        """The full blocks share one kernel and so its buffers; a partial
        last block makes one more, of its width.  Each block still goes
        through ``ibp_matvec``."""
        n = 2 * _BLOCK + 1
        ibp = stm_to_ibp(random_stm(n, 3 * n, seed=1))
        made, blocks = [], []
        kernel, matvec = matmul._int64_kernel, matmul.ibp_matvec
        with mock.patch.object(matmul, "_int64_kernel",
                               lambda ibp, k: made.append(k) or kernel(ibp, k)), \
                mock.patch.object(matmul, "ibp_matvec",
                                  lambda *args, **kw: blocks.append(1) or matvec(*args, **kw)):
            adjacency_matmul(None, LinearOrder.identity(n), np.ones((n, n), np.int64), ibp)
        assert made == [_BLOCK, 1] and len(blocks) == 3
