import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from stmgraph import (CapExceeded, Graph, InputError, SdConfig,
                      SdDegenSequence, SequenceError, SignedTreeModel, WidthReport,
                      preset_symdiff, preset_twinwidth, sd_sequence_greedy,
                      sd_sequence_randomized, sdseq_to_stm, validate_sequence)
from stmgraph import convert, sddegen
from stmgraph.gen import erdos_renyi, planted_sdseq

from conftest import traced_peak


def complete(n):
    return Graph(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


class TestSdConfig:
    def test_invariants(self):
        with pytest.raises(InputError):
            SdConfig(g=2, gamma=1, p_hat=0.5, cap=10)
        with pytest.raises(InputError):
            SdConfig(g=1, gamma=2, p_hat=0.0, cap=10)
        with pytest.raises(InputError):
            SdConfig(g=1, gamma=2, p_hat=0.5, cap=0)


class TestPresets:
    def test_twinwidth_formulas(self):
        n = round(math.e ** 2)
        cfg = preset_twinwidth(1, 1.0, n)
        assert cfg.g == 1
        assert cfg.gamma == math.ceil(2 * 1 * 4 * math.log(n))
        assert cfg.p_hat == 0.5
        assert cfg.cap == math.ceil(32 * 4 * 1 * math.log(n))

    def test_twinwidth_scaling(self):
        a = preset_twinwidth(1, 1.0, 100)
        b = preset_twinwidth(2, 1.0, 100)
        assert b.gamma == 2 * a.gamma or abs(b.gamma - 2 * a.gamma) <= 1
        assert b.p_hat == a.p_hat / 2

    def test_cap_monotone(self):
        caps = [preset_twinwidth(2, 1.0, n).cap for n in (10, 100, 1000)]
        assert caps == sorted(caps)

    def test_symdiff_formulas(self):
        cfg = preset_symdiff(1.0, 1.0, 1000)
        assert cfg.g == 30
        assert cfg.p_hat == pytest.approx(1 / 60)
        base = 3 * 1000 ** (1 / 3)
        assert cfg.p_hat * 2 * base == pytest.approx(1.0)
        assert cfg.cap == math.ceil(64 * 1000 ** (2 / 3))

    @pytest.mark.parametrize("preset, args, named", [
        (preset_twinwidth, (2, math.inf), "c=inf"),
        (preset_twinwidth, (2, math.nan), "c=nan"),
        (preset_symdiff, (math.inf, 1.0), "beta=inf"),
        (preset_symdiff, (math.nan, 1.0), "beta=nan"),
        (preset_symdiff, (2.0, math.inf), "c=inf"),
    ])
    def test_not_finite(self, preset, args, named):
        with pytest.raises(InputError, match=f"^{named} is not finite$"):
            preset(*args, 40)


class TestRandomized:
    def test_k4_always_valid(self):
        g = complete(4)
        for seed in range(20):
            cfg = SdConfig(g=1, gamma=2, p_hat=0.5, cap=1000, seed=seed)
            seq, report = sd_sequence_randomized(g, cfg)
            vr = validate_sequence(g, seq)
            assert vr.width <= 2, seed

    def test_n2(self):
        seq, report = sd_sequence_randomized(Graph(2, [(1, 2)]),
                                             SdConfig(1, 2, 0.5, 10))
        assert len(seq.pairs) == 1 and report.width == 0

    def test_n1_rejected(self):
        with pytest.raises(InputError):
            sd_sequence_randomized(Graph(1), SdConfig(1, 2, 0.5, 10))

    def test_cap_failure(self):
        # gamma 0 on a graph with no sd-0 pairs can never make progress
        g = Graph(4, [(1, 2), (2, 3), (3, 4)])
        cfg = SdConfig(g=0, gamma=0, p_hat=0.5, cap=5, seed=0)
        with pytest.raises(CapExceeded) as e:
            sd_sequence_randomized(g, cfg)
        assert e.value.iterations == 5

    def test_planted_loop_bound(self):
        for seed in range(50):
            rng = random.Random(seed)
            n = rng.randint(8, 64)
            d = rng.randint(1, 4)
            g, _ = planted_sdseq(n, d, seed=seed)
            base = preset_twinwidth(d, 1.0, n)
            cfg = SdConfig(base.g, base.gamma, base.p_hat, base.cap, seed)
            seq, report = sd_sequence_randomized(g, cfg)
            vr = validate_sequence(g, seq)
            assert report.max_loop_sd <= cfg.gamma, seed
            # batch sds are measured before the iteration's deletions, and
            # deletions never increase a symmetric difference, so the
            # replayed values are bounded by the reported ones
            k = len(report.loop_sds)
            assert all(r <= b for r, b in zip(vr.loop_sds[:k], report.loop_sds)), seed
            assert max(vr.loop_sds[:k], default=0) <= cfg.gamma, seed

    def test_determinism(self):
        g = erdos_renyi(30, 0.3, seed=5)
        cfg = preset_twinwidth(3, 1.0, 30)
        a = sd_sequence_randomized(g, cfg)
        b = sd_sequence_randomized(g, cfg)
        assert a == b

class TestGreedy:
    def test_p3(self):
        g = Graph(3, [(1, 2), (2, 3)])
        seq, report = sd_sequence_greedy(g)
        assert seq.pairs[0] == (1, 3)
        assert report.width == 0

    def test_complete(self):
        seq, report = sd_sequence_greedy(complete(6))
        assert report.width == 0

    def test_outputs_valid(self):
        for seed in range(30):
            g = erdos_renyi(14, 0.3, seed=seed)
            seq, report = sd_sequence_greedy(g)
            vr = validate_sequence(g, seq)
            assert vr.width == report.width, seed


class TestValidateSequence:
    def test_p3_width0(self):
        g = Graph(3, [(1, 2), (2, 3)])
        assert validate_sequence(g, SdDegenSequence(((1, 3), (2, 3)))).width == 0

    def test_reused_vertex(self):
        g = Graph(3, [(1, 2)])
        with pytest.raises(SequenceError):
            validate_sequence(g, SdDegenSequence(((1, 2), (1, 3))))

    def test_wrong_length(self):
        with pytest.raises(SequenceError):
            validate_sequence(Graph(3), SdDegenSequence(((1, 2),)))

    def test_randomized_outputs_always_valid(self):
        for seed in range(30):
            g = erdos_renyi(24, 0.25, seed=seed)
            cfg = preset_twinwidth(4, 1.0, 24)
            cfg = SdConfig(cfg.g, cfg.gamma, cfg.p_hat, cfg.cap, seed)
            try:
                seq, _ = sd_sequence_randomized(g, cfg)
            except CapExceeded:
                continue
            validate_sequence(g, seq)

    def test_pairs_match_sdseq_to_stm(self):
        """Both replays measure the same eliminations: step i of
        ``sdseq_to_stm`` makes sd_i pairs plus one to v_i."""
        for seed in range(60):
            rng = random.Random(seed)
            n = rng.randint(2, 80)
            g, seq = planted_sdseq(n, rng.randint(0, 6), seed=seed)
            report = validate_sequence(g, seq)
            assert sdseq_to_stm(g, seq).num_pairs == sum(report.loop_sds) + n - 1, seed


# -- the set-based replay: the oracle of the bit-row walks ---------------------

def oracle_delete(adj, u):
    """Delete vertex u from the adjacency sets."""
    for w in adj[u]:
        adj[w].discard(u)
    adj[u] = set()


def oracle_eliminate(adj, pairs):
    """Replay the eliminations ``pairs`` on the adjacency sets ``adj``,
    yielding (u, v, N(u) \\ N[v], N(v) \\ N[u]) while u is present."""
    for u, v in pairs:
        nu, nv = adj[u], adj[v]
        yield u, v, nu - nv - {v}, nv - nu - {u}
        oracle_delete(adj, u)


def oracle_sd(adj, u, v):
    return len((adj[u] - {v}) ^ (adj[v] - {u}))


def oracle_randomized(g, cfg):
    rng = random.Random(cfg.seed)
    adj = list(map(set, g.adjacency))
    alive = list(range(1, g.n + 1))
    pairs, loop_sds, iterations = [], [], 0
    while len(alive) > 2 * cfg.g:
        iterations += 1
        if iterations > cfg.cap:
            raise CapExceeded(iterations - 1)
        X = {v for v in alive if rng.random() < cfg.p_hat}
        buckets = {}
        for v in alive:
            buckets.setdefault(tuple(sorted(adj[v] & X)), []).append(v)
        doomed = []
        for part in buckets.values():
            for u, v in zip(part[0::2], part[1::2]):
                s = oracle_sd(adj, u, v)
                if s <= cfg.gamma:
                    pairs.append((u, v))
                    loop_sds.append(s)
                    doomed.append(u)
        for u in doomed:
            oracle_delete(adj, u)
        dead = set(doomed)
        alive = [v for v in alive if v not in dead]
    tail = list(zip(alive, alive[1:]))
    tail_sds = tuple(len(a) + len(b) for _, _, a, b in oracle_eliminate(adj, tail))
    return SdDegenSequence(tuple(pairs + tail)), WidthReport(tuple(loop_sds), tail_sds)


def oracle_greedy(g):
    adj = list(map(set, g.adjacency))
    alive = list(range(1, g.n + 1))
    pairs, sds = [], []
    while len(alive) >= 2:
        s, u, v = min((oracle_sd(adj, u, v), u, v) for i, u in enumerate(alive)
                      for v in alive[i + 1:])
        pairs.append((u, v))
        sds.append(s)
        oracle_delete(adj, u)
        alive.remove(u)
    return SdDegenSequence(tuple(pairs)), WidthReport(tuple(sds))


def oracle_validate(g, seq):
    return WidthReport(tuple(len(a) + len(b) for _, _, a, b
                             in oracle_eliminate(list(map(set, g.adjacency)), seq.pairs)))


def oracle_sdseq_to_stm(g, seq):
    node_of = list(range(g.n + 1))
    adj = list(map(set, g.adjacency))
    children, pairs_a, pairs_b = {}, [], []
    for made, (u, v, only_u, only_v) in enumerate(oracle_eliminate(adj, seq.pairs),
                                                  start=g.n + 1):
        x = node_of[u]
        pairs_a += [(x, node_of[a]) for a in only_v]
        pairs_b += [(x, node_of[b]) for b in only_u]
        (pairs_b if v in adj[u] else pairs_a).append((x, node_of[v]))
        children[made] = (x, node_of[v])
        node_of[v] = made
    return SignedTreeModel(g.n, children, pairs_a, pairs_b)


def check_against_oracle(g, cfgs, seq=None):
    """Every randomized run under ``cfgs``, and the replays of its sequence
    and of ``seq``, equal the set-based oracle's."""
    seqs = [seq] if seq is not None else []
    for cfg in cfgs:
        try:
            want = oracle_randomized(g, cfg)
        except CapExceeded as e:
            with pytest.raises(CapExceeded) as got:
                sd_sequence_randomized(g, cfg)
            assert got.value.iterations == e.iterations
            continue
        assert sd_sequence_randomized(g, cfg) == want
        seqs.append(want[0])
    for s in seqs:
        assert validate_sequence(g, s) == oracle_validate(g, s)
        assert sdseq_to_stm(g, s) == oracle_sdseq_to_stm(g, s)


WORD_SIZES = (63, 64, 65, 127, 128, 129)  # one, two and three 64-bit words per bit row


class TestAgainstSetOracle:
    @pytest.mark.parametrize("n", WORD_SIZES)
    def test_planted(self, n):
        for seed in range(2):
            g, seq = planted_sdseq(n, 2 * seed + 1, seed=seed)
            tw, sd = preset_twinwidth(2, 1.0, n), preset_symdiff(1.0, 1.0, n)
            check_against_oracle(g, [replace(tw, seed=seed), replace(sd, seed=seed),
                                     SdConfig(2, 2, 0.5, 2, seed)], seq)

    @pytest.mark.parametrize("n", WORD_SIZES)
    def test_erdos_renyi(self, n):
        for seed in range(2):
            g = erdos_renyi(n, 0.2 + 0.5 * seed, seed=seed)
            check_against_oracle(g, [replace(preset_twinwidth(3, 1.0, n), seed=seed)])

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 140), st.floats(0, 1), st.integers(0, 3), st.integers(0, 40),
           st.floats(0.05, 1), st.integers(1, 30), st.integers(0, 2 ** 16))
    def test_random(self, n, p, g_, extra, p_hat, cap, seed):
        g = erdos_renyi(n, p, seed=seed)
        check_against_oracle(g, [SdConfig(g_, g_ + extra, p_hat, cap, seed)],
                             SdDegenSequence(tuple(zip(range(1, n), range(2, n + 1)))))

    def test_blocks_of_one(self, monkeypatch):
        """Rows built, keyed and gathered one row or pair per block give
        the outputs of one block."""
        blocks = convert._blocks
        for module in (convert, sddegen):
            monkeypatch.setattr(module, "_blocks", lambda count, *_: blocks(count, 1 << 30))
        for n in (65, 129):
            g, seq = planted_sdseq(n, 2, seed=n)
            check_against_oracle(g, [replace(preset_twinwidth(2, 1.0, n), seed=1)], seq)
        g = erdos_renyi(9, 0.5, seed=3)
        assert sd_sequence_greedy(g) == oracle_greedy(g)

    def test_greedy(self):
        for seed in range(20):
            g = erdos_renyi(random.Random(seed).randint(2, 12), 0.4, seed=seed)
            assert sd_sequence_greedy(g) == oracle_greedy(g), seed


@pytest.mark.parametrize("n", [512, 1024])
def test_stages_hold_at_most_the_csr(n):
    """Each stage holds at most the graph's CSR: on these dense graphs the
    bit rows, (n + 1)(n // 64 + 1) words whatever m is, and the blocks they
    are built and read in, bounded by their dense bytes and edge ends
    together, are smaller than the CSR."""
    g, seq = planted_sdseq(n, 2, seed=1)
    csr = g.offsets.nbytes + g.targets.nbytes
    cfg = replace(preset_twinwidth(2, 1.0, g.n), seed=1)
    for call in (lambda: sd_sequence_randomized(g, cfg), lambda: validate_sequence(g, seq),
                 lambda: sdseq_to_stm(g, seq)):
        _, peak = traced_peak(call)
        assert peak <= csr


# -- the pair checks of the walk, against the structure check they replaced ---

def oracle_check_structure(seq, n):
    """Raise SequenceError unless ``seq`` is a valid sequence for n vertices:
    the structure check that ran before each replay."""
    if len(seq.pairs) != n - 1:
        raise SequenceError(f"expected {n - 1} pairs, got {len(seq.pairs)}")
    alive = set(range(1, n + 1))
    for step, (u, v) in enumerate(seq.pairs, start=1):
        if u == v:
            raise SequenceError(f"step {step}: pair ({u},{v}) has equal endpoints")
        if u not in alive or v not in alive:
            raise SequenceError(f"step {step}: pair ({u},{v}) uses a deleted vertex")
        alive.remove(u)


def outside_message(seq, n):
    """The message for the first pair with an end outside [1, n], if that
    pair is where the structure check stops: it calls such an end deleted,
    the walk names it as outside [1, n]."""
    for step, (u, v) in enumerate(seq.pairs, 1):
        if u != v and not (0 < u <= n and 0 < v <= n):
            return f"step {step}: pair ({u},{v}) uses a vertex outside [1,{n}]"
    return None


def mutate(seq, n, kind, rng):
    """``seq`` with one defect of ``kind`` at a random step."""
    pairs = list(seq.pairs)
    i = rng.randrange(len(pairs))
    u, v = pairs[i]
    if kind == "equal":
        pairs[i] = (u, u) if rng.random() < 0.5 else (v, v)
    elif kind == "missing":
        del pairs[i]
    elif kind == "outside":
        bad = rng.choice((0, -1, n + 1, 64 * (n // 64 + 1), 2 ** 70))
        pairs[i] = (bad, v) if rng.random() < 0.5 else (u, bad)
    elif i:  # a u of an earlier step, deleted by now
        gone = pairs[rng.randrange(i)][0]
        pairs[i] = (gone, v) if kind == "deleted_u" else (u, gone)
    return SdDegenSequence(tuple(pairs))


class TestWalkChecks:
    @pytest.mark.parametrize("kind", [None, "equal", "deleted_u", "deleted_v", "outside",
                                      "missing"])
    def test_against_structure_check(self, kind):
        """validate_sequence and sdseq_to_stm raise the structure check's
        SequenceError, with its message and step, or else give the set
        replay's results; only an end outside [1, n] is named anew."""
        for seed in range(70):
            rng = random.Random(seed)
            n = rng.randint(2, 140)
            g, seq = planted_sdseq(n, rng.randint(0, 4), seed=seed)
            if kind:
                seq = mutate(seq, n, kind, rng)
            try:
                oracle_check_structure(seq, n)
            except SequenceError as e:
                want = outside_message(seq, n) or str(e)
                for call in (validate_sequence, sdseq_to_stm):
                    with pytest.raises(SequenceError) as got:
                        call(g, seq)
                    assert str(got.value) == want, (seed, call)
                continue
            assert validate_sequence(g, seq) == oracle_validate(g, seq), seed
            assert sdseq_to_stm(g, seq) == oracle_sdseq_to_stm(g, seq), seed

    @pytest.mark.parametrize("n", [3, 63, 64, 65, 130])
    def test_outside_range(self, n):
        """An end outside [1, n] is named so, at its step, on either side of
        the pair."""
        seq = SdDegenSequence(tuple(zip(range(1, n), range(2, n + 1))))
        g = erdos_renyi(n, 0.5, seed=n)
        step = n // 2
        u, v = seq.pairs[step - 1]
        for bad in (0, -1, n + 1, 64 * (n // 64 + 1), 2 ** 70):
            for pair in ((bad, v), (u, bad)):
                bent = SdDegenSequence(seq.pairs[:step - 1] + (pair,) + seq.pairs[step:])
                for call in (validate_sequence, sdseq_to_stm):
                    with pytest.raises(SequenceError) as got:
                        call(g, bent)
                    assert str(got.value) == (f"step {step}: pair ({pair[0]},{pair[1]}) "
                                              f"uses a vertex outside [1,{n}]"), (bad, call)
