import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from diqkd.protocol import (
    CHUNK_ROUNDS,
    PERP,
    Behavior,
    ProtocolParams,
    accept,
    behavior_from_state,
    estimate,
    generate_transcript,
    sift,
    simulate_rounds,
)
from diqkd import cli
from diqkd.quantum import NoiseParams, build_heralded_state, outcome_distribution
from diqkd.protocol import test_statistic as beta_freq
from diqkd.protocol import _X_AXES, _Y_AXES, _Columns, _count_tensor, _setting_index, _thresholds
from diqkd.rng import SLOTS_PER_ROUND, CounterRng, audit_total
from oracles import (
    accept_threshold_float,
    behavior_table_loop,
    cell_counts,
    estimate_masks,
    generate_columns_oneshot,
    uniforms,
    win_min_stepping,
)

CAL_STATE = build_heralded_state(NoiseParams.from_visibilities(0.943, 0.924))
CAL_BEHAVIOR = behavior_from_state(CAL_STATE)
IDEAL_BEHAVIOR = behavior_from_state(build_heralded_state(NoiseParams()))
S_MODEL = math.sqrt(2) * (0.943 + 0.924)
# outcome pairs of probability 0 and 1, so that some cuts are 0 and some 2^53
ZEROS_BEHAVIOR = Behavior(
    np.array(
        [[[0, 0.5, 0.5, 0], [1, 0, 0, 0], [0, 0, 0, 1]], [[0, 0.3, 0, 0.7], [0.25] * 4, [0.6, 0, 0.4, 0]]]
    ).reshape(2, 3, 2, 2)
)


def columns(**cols) -> _Columns:
    """Hand-written rounds as int8 columns (s, t, x, y, a, b, c)."""
    return _Columns(**{name: np.asarray(v, dtype=np.int8) for name, v in cols.items()})


def params(n=10_000, seed=7, omega=0.83, delta=0.01, box_lo=(0, 0, 0), box_hi=None):
    """A protocol at the paper's test fractions; the box is open unless given."""
    box_hi = (n, n, n) if box_hi is None else box_hi
    return ProtocolParams(
        n=n, gamma_a=0.26, gamma_b=0.13, omega_exp=omega, delta=delta, box_lo=box_lo, box_hi=box_hi, seed=seed
    )


class TestCounterRng:
    def test_range_and_determinism(self):
        r1 = uniforms(CounterRng(123), 0, 10_000, 0)
        r2 = uniforms(CounterRng(123), 0, 10_000, 0)
        assert np.array_equal(r1, r2)
        assert r1.min() >= 0.0 and r1.max() < 1.0

    def test_counter_offsets_are_consistent(self):
        rng = CounterRng(9)
        whole = uniforms(rng, 0, 1000, 3)
        assert np.array_equal(whole[200:300], uniforms(CounterRng(9), 200, 100, 3))

    def test_mean_and_draw_accounting(self):
        rng = CounterRng(55)
        before = audit_total()
        u = uniforms(rng, 0, 200_000, 0)
        assert abs(u.mean() - 0.5) < 0.005
        assert audit_total() - before == 200_000

    def test_frozen_values(self):
        # splitmix64 outputs, recorded from the reference implementation
        assert uniforms(CounterRng(7), 2**40, 3, 4).tolist() == [
            0.20111429287658766, 0.5088587239668427, 0.5865047592507743,
        ]
        assert uniforms(CounterRng(2**64 - 1), 0, 2, 0).tolist() == [0.8939429202831845, 0.7695106882796879]

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            CounterRng(-1)
        with pytest.raises(ValueError):
            CounterRng(2**64)

    @pytest.mark.parametrize("seed, start", [(7, 2**40), (2**64 - 1, 0), (123, 3 * 2**61)])
    def test_words_are_the_uniforms_times_two_to_the_53(self, seed, start):
        rng = CounterRng(seed)
        n = 1000
        before = audit_total()
        words = rng.round_words(start, range(SLOTS_PER_ROUND), np.empty((SLOTS_PER_ROUND, n), dtype=np.uint64))
        assert audit_total() - before == SLOTS_PER_ROUND * n
        assert words.dtype == np.uint64 and words.max() >= 2**63  # the raw 64-bit words
        for slot in range(SLOTS_PER_ROUND):
            assert np.array_equal((words[slot] >> np.uint64(11)) * 2.0**-53, uniforms(rng, start, n, slot))
        middle = rng.round_words(start + 100, range(3, 6), np.empty((3, 50), dtype=np.uint64))
        assert np.array_equal(middle, words[3:6, 100:150])
        # the cached Weyl base serves narrower and wider blocks alike
        wider = rng.round_words(start + 100, range(3, 6), np.empty((3, 2 * n), dtype=np.uint64))
        assert np.array_equal(wider[:, : n - 100], words[3:6, 100:])

    @pytest.mark.parametrize("slots", [range(-1, 2), range(6, 9)])
    def test_slots_outside_the_round_rejected(self, slots):
        with pytest.raises(ValueError):
            CounterRng(1).round_words(0, slots, np.empty((len(slots), 4), dtype=np.uint64))


class TestThresholds:
    @staticmethod
    def _exact(c: float) -> int:
        """Least word w with w * 2^-53 >= c, by search over the words around c * 2^53."""
        if c <= 0.0:
            return 0
        w = min(int(c * 2.0**53), 2**53)
        while w > 0 and (w - 1) * 2.0**-53 >= c:
            w -= 1
        while w < 2**53 and w * 2.0**-53 < c:
            w += 1
        return w

    @pytest.mark.parametrize(
        "c, want",
        [(0.0, 0), (1.0, 2**53), (1.0 + 2.0**-52, 2**53), (0.5, 2**52), (3 * 2.0**-53, 3), (2.0**-1074, 1)],
    )
    def test_edges(self, c, want):
        assert int(_thresholds(c)) == want == self._exact(c)

    @pytest.mark.parametrize("k", [1, 2, 3, 2**52 - 1, 2**52 + 1, 123_456_789_012_345, 2**53 - 1])
    def test_around_an_exact_word(self, k):
        c = k * 2.0**-53
        # above 1/2 the doubles are the word grid itself, so the next one down is word k - 1
        below = k if c <= 0.5 else k - 1
        assert int(_thresholds(c)) == k
        assert int(_thresholds(np.nextafter(c, 0.0))) == below == self._exact(np.nextafter(c, 0.0))
        assert int(_thresholds(np.nextafter(c, 2.0))) == k + 1 == self._exact(np.nextafter(c, 2.0))
        for cc in (c, np.nextafter(c, 0.0), np.nextafter(c, 2.0)):
            thr = int(_thresholds(cc))
            for w in (k - 1, k, k + 1):
                if 0 <= w < 2**53:
                    assert (w >= thr) == (w * 2.0**-53 >= cc)

    def test_arrays_keep_their_shape(self):
        cuts = np.cumsum(CAL_BEHAVIOR.table.reshape(6, 4), axis=1)[:, :3].T
        thr = _thresholds(cuts)
        assert thr.shape == (3, 6) and thr.dtype == np.uint64
        assert [int(v) for v in thr.ravel()] == [self._exact(float(c)) for c in cuts.ravel()]


class TestPayoff:
    def test_examples(self):
        # the game rule (a ^ b) == (x & y) as estimate counts it: two wins, one loss
        tr = columns(
            s=[0, 0, 0], t=[0, 0, 0], x=[0, 1, 1], y=[0, 1, 1],
            a=[0, 0, 1], b=[0, 1, 1], c=[1, 1, 0],
        )
        assert estimate([cell_counts(tr)]).counts == (1, 2, 0)


class TestBehavior:
    def test_ideal_win_probability(self):
        assert IDEAL_BEHAVIOR.chsh_win_probability() == pytest.approx((2 + math.sqrt(2)) / 4)

    def test_maximally_mixed(self):
        from diqkd.quantum import TwoQubitState

        b = behavior_from_state(TwoQubitState(np.eye(4) / 4))
        assert np.allclose(b.table, 0.25)

    def test_calibrated_values(self):
        assert CAL_BEHAVIOR.chsh_value() == pytest.approx(S_MODEL, abs=1e-12)
        assert CAL_BEHAVIOR.chsh_win_probability() == pytest.approx(0.5 + S_MODEL / 8, abs=1e-12)
        assert CAL_BEHAVIOR.key_qber() == pytest.approx(0.0285, abs=1e-12)

    @pytest.mark.parametrize("config", [None, "paper11km.cfg", "near-classical.cfg"])
    def test_table_equals_setting_by_setting_loop_on_configs(self, config):
        # the default config and the golden ones: the batched trace gives the loop's bits
        cfg = cli.load_config(None if config is None else str(Path(__file__).parent / "golden" / config), {})
        noise = NoiseParams.from_visibilities(cfg.v_zz, cfg.v_xx, white_noise=cfg.white_noise, delta_phi=cfg.delta_phi)
        want = behavior_table_loop(build_heralded_state(noise), cfg.readout_flip)
        assert np.array_equal(cli._model_behavior(cfg).table, want)

    def test_table_equals_setting_by_setting_loop_on_random_states(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            rho = build_heralded_state(NoiseParams(*rng.uniform(0.0, 1.0, 3), rng.uniform(-math.pi, math.pi)))
            for flip in (0.0, 1e-3, 0.013, 0.5, 1.0):
                want = behavior_table_loop(rho, flip)
                assert np.array_equal(behavior_from_state(rho, flip).table, want)
                # outcome_distribution is the same kernel on one setting pair
                x, y = (int(v) for v in rng.integers(0, (2, 3)))
                assert np.array_equal(outcome_distribution(rho, _X_AXES[x], _Y_AXES[y], flip), want[x, y])

    def test_no_signaling(self):
        # each party's marginal is the same whatever setting the other party holds
        t = CAL_BEHAVIOR.table
        pa = t.sum(axis=3)  # P(a | x, y)
        pb = t.sum(axis=2)  # P(b | x, y)
        assert np.ptp(pa, axis=1).max() < 1e-9
        assert np.ptp(pb, axis=0).max() < 1e-9

    def test_bad_tables_rejected(self):
        t = np.full((2, 3, 2, 2), 0.25)
        t[0, 0] = [[0.5, 0.5], [0.25, 0.25]]
        with pytest.raises(ValueError):
            Behavior(t)


class TestGeneration:
    def test_deterministic_behavior_payoffs(self):
        t = np.zeros((2, 3, 2, 2))
        t[:, :, 0, 0] = 1.0  # both always output 0
        tr = generate_transcript(Behavior(t), params(n=2000))
        test = (tr.s == 0) & (tr.t == 0)
        assert test.any()
        assert np.array_equal(tr.c[test], (tr.a ^ tr.b)[test] == (tr.x & tr.y)[test])
        assert np.all(tr.c[~test] == PERP)

    def test_replay_is_identical(self):
        p = params(n=5000, seed=101)
        t1 = generate_transcript(CAL_BEHAVIOR, p)
        t2 = generate_transcript(CAL_BEHAVIOR, p)
        for col in ("s", "t", "x", "y", "a", "b", "c"):
            assert np.array_equal(getattr(t1, col), getattr(t2, col))

    @pytest.mark.parametrize(
        "n, seed",
        [
            (n, seed)
            for seed in (13, 2**64 - 1)
            for n in (1, CHUNK_ROUNDS - 1, CHUNK_ROUNDS, CHUNK_ROUNDS + 1, 3 * CHUNK_ROUNDS + 17, 8 * CHUNK_ROUNDS + 1)
        ],
    )
    def test_chunked_fill_matches_one_pass_oracle(self, n, seed):
        p = params(n=n, seed=seed)
        before = audit_total()
        tr = generate_transcript(CAL_BEHAVIOR, p)
        assert audit_total() - before == 5 * n
        for col, want in zip("stxyabc", generate_columns_oneshot(CAL_BEHAVIOR, p)):
            got = getattr(tr, col)
            assert got.dtype == np.int8 and np.array_equal(got, want), col
        # the stream the pipeline counts is the transcript, chunk for chunk
        # (the default config's model is CAL_BEHAVIOR)
        before = audit_total()
        streamed = estimate(simulate_rounds(CAL_BEHAVIOR, p))
        assert audit_total() - before == 5 * n
        assert repr(tuple(streamed)) == repr(tuple(estimate([cell_counts(tr)])))
        config = cli.load_config(None, {"security.method": "eat", "protocol.n": str(n), "seed": str(seed)})
        assert cli.run_pipeline(config).beta_freq == beta_freq(tr)

    @pytest.mark.parametrize("behavior", ["cal", "ideal", "zeros"])
    @pytest.mark.parametrize(
        "n, seed",
        [
            (n, seed)
            for seed in (13, 2**64 - 1)
            for n in (1, CHUNK_ROUNDS - 1, CHUNK_ROUNDS + 1, 3 * CHUNK_ROUNDS + 17, 8 * CHUNK_ROUNDS + 1)
        ],
    )
    def test_stream_counts_equal_transcript_and_oracle(self, behavior, n, seed):
        behavior = {"cal": CAL_BEHAVIOR, "ideal": IDEAL_BEHAVIOR, "zeros": ZEROS_BEHAVIOR}[behavior]
        p = params(n=n, seed=seed)
        before = audit_total()
        streamed = _count_tensor(simulate_rounds(behavior, p))
        assert audit_total() - before == 5 * n
        assert np.array_equal(streamed, cell_counts(generate_columns_oneshot(behavior, p)).reshape(streamed.shape))
        assert np.array_equal(streamed, cell_counts(generate_transcript(behavior, p)).reshape(streamed.shape))

    def test_zero_probability_outcomes_give_the_extreme_cuts(self):
        cuts = _thresholds(np.cumsum(ZEROS_BEHAVIOR.table.reshape(6, 4), axis=1)[:, :3])
        assert cuts.min() == 0 and cuts.max() == 2**53

    def test_setting_index_is_the_canonical_layout(self):
        # every (S, X, T, Y), through the key-round rules x = X (1 - S), y = Y (1 - T) + 2 T
        S, X, T, Y = (np.array(bits) for bits in zip(*np.ndindex(2, 2, 2, 2)))
        x, y = X * (1 - S), Y * (1 - T) + 2 * T
        got = _setting_index(np.array([S, X, T, Y], dtype=np.bool_), np.empty(16, dtype=np.uint8))
        assert got.tolist() == (S * 48 + T * 24 + x * 12 + y * 4).tolist()

    def test_traced_peak_is_the_columns_plus_one_chunk(self):
        n = 1_208_000
        p = params(n=n, seed=17)
        tracemalloc.start()
        try:
            generate_transcript(CAL_BEHAVIOR, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 7 * n + 4 * 2**20

    def test_flag_setting_consistency(self):
        tr = generate_transcript(CAL_BEHAVIOR, params(n=20_000, seed=3))
        assert np.all(tr.x[tr.s == 1] == 0)
        assert np.all(tr.y[tr.t == 1] == 2)
        assert np.all((tr.c == PERP) == ~((tr.s == 0) & (tr.t == 0)))

    def test_test_round_fraction_concentrates(self):
        n = 1_000_000
        tr = generate_transcript(CAL_BEHAVIOR, params(n=n, seed=11))
        frac = np.count_nonzero(tr.c != PERP) / n
        gg = 0.26 * 0.13
        band = 3 * math.sqrt(gg * (1 - gg) / n)
        assert abs(frac - gg) <= band


class TestSift:
    def test_zeroes_the_two_dead_classes(self):
        tr = columns(
            s=[1, 0, 0], t=[0, 1, 1], x=[0, 1, 0], y=[0, 2, 2],
            a=[1, 1, 1], b=[1, 0, 0], c=[PERP, PERP, PERP],
        )
        out = sift(tr)
        assert (out.a[0], out.b[0]) == (0, 0)
        assert (out.a[1], out.b[1]) == (0, 0)
        assert (out.a[2], out.b[2]) == (1, 0)  # usable key round, untouched

    def test_round_count_and_tests_preserved(self):
        tr = generate_transcript(CAL_BEHAVIOR, params(n=50_000, seed=5))
        out = sift(tr)
        assert out.a.dtype == out.b.dtype == np.int8 and out.a.shape == out.b.shape == (50_000,)
        assert all(getattr(out, col) is getattr(tr, col) for col in "stxyc")  # shared, not copied
        test = (tr.s == 0) & (tr.t == 0)
        assert np.array_equal(out.a[test], tr.a[test])
        assert np.array_equal(out.c, tr.c)

    def test_survivor_fraction_matches_gamma_eff(self):
        n = 1_000_000
        tr = generate_transcript(CAL_BEHAVIOR, params(n=n, seed=21))
        dead = ((tr.s == 1) & (tr.t == 0)) | ((tr.s == 0) & (tr.t == 1) & (tr.x == 1) & (tr.y == 2))
        frac = 1.0 - np.count_nonzero(dead) / n
        ga, gb = 0.26, 0.13
        geff = 1 - ga / 2 - gb + 1.5 * ga * gb
        band = 3 * math.sqrt(geff * (1 - geff) / n)
        assert abs(frac - geff) <= band


class TestStatisticAndAccept:
    def test_no_test_rounds_gives_zero(self):
        tr = columns(
            s=[1, 1, 1, 1], t=[1, 1, 1, 1], x=[0, 0, 0, 0], y=[2, 2, 2, 2],
            a=[0, 1, 0, 1], b=[0, 1, 1, 0], c=[PERP] * 4,
        )
        assert beta_freq(tr) == 0.0

    def test_all_wins(self):
        tr = columns(
            s=[0, 0, 0], t=[0, 0, 0], x=[0, 0, 1], y=[0, 1, 0],
            a=[0, 1, 1], b=[0, 1, 1], c=[1, 1, 1],
        )
        assert beta_freq(tr) == 1.0

    def test_invariant_under_sift(self):
        tr = generate_transcript(CAL_BEHAVIOR, params(n=100_000, seed=31))
        assert beta_freq(sift(tr)) == beta_freq(tr)

    def test_honest_mean(self):
        n = 1_000_000
        tr = generate_transcript(CAL_BEHAVIOR, params(n=n, seed=41))
        gg = 0.26 * 0.13
        w = CAL_BEHAVIOR.chsh_win_probability()
        beta = beta_freq(tr)
        band = 3 * math.sqrt(gg * w * (1 - gg * w) / n)
        assert abs(beta - gg * w) <= band

    def test_accept_boundary(self):
        # at win_min - 1 and win_min the integer test gives the float
        # test's verdict on the frequency wins / n, over many (n, omega,
        # delta); half the thresholds are set within an ulp of a count
        # k0 / n, where thr * n and k / n round across the boundary
        rng = np.random.default_rng(29)
        gg = 0.26 * 0.13
        for _ in range(3000):
            n = int(10 ** rng.uniform(0.0, 9.0))
            omega = float(rng.uniform(0.7501, 0.85))
            if rng.random() < 0.5:
                delta = float(10 ** rng.uniform(-9.0, -1.0))
            else:
                t = int(rng.integers(0, int(gg * omega * n) + 1)) / n
                t = float(np.nextafter(t, (-np.inf, t, np.inf)[int(rng.integers(0, 3))]))
                delta = max(gg * omega - t, 0.0)
            p = params(n=n, omega=omega, delta=delta)
            k = p.win_min
            assert 0 <= k <= n
            for wins in (k - 1, k):
                if wins >= 0:
                    assert accept((0, wins, n - wins), p)[0] == accept_threshold_float(wins / n, p), (n, omega, delta)
            assert accept((0, k, n - k), p)[0]
        assert accept((10_000, 0, 0), params(delta=0.0)) == (False, True)

    def test_win_min_matches_stepping_search(self):
        # one _last_true search gives the count the stepping loops gave, and
        # the definition holds: k / n reaches the threshold, (k - 1) / n does
        # not.  Thresholds are random, at or below 0, or within an ulp of a
        # count k0 / n, where thr * n and k / n round across the boundary.
        rng = np.random.default_rng(37)
        gg = 0.26 * 0.13
        for _ in range(20_000):
            n = int(10 ** rng.uniform(0.0, 9.0))
            omega = float(rng.uniform(0.7501, 0.85))
            if rng.random() < 0.5:
                delta = float(10 ** rng.uniform(-9.0, 0.0))  # above gg * omega, thr < 0
            else:
                t = int(rng.integers(0, int(gg * omega * n) + 1)) / n
                t = float(np.nextafter(t, (-np.inf, t, np.inf)[int(rng.integers(0, 3))]))
                delta = max(gg * omega - t, 0.0)
            p = params(n=n, omega=omega, delta=delta)
            k, thr = p.win_min, gg * omega - delta
            assert k == win_min_stepping(p), (n, omega, delta)
            assert 0 <= k <= n and k / n >= thr and (k == 0 or (k - 1) / n < thr), (n, omega, delta)

    def test_accept_box_bounds_inclusive(self):
        p = params(n=1000, box_lo=(10, 20, 900), box_hi=(30, 40, 960))
        assert accept((30, 40, 930), p) == (True, True)  # both ends of a bound accept
        assert accept((10, 30, 960), p)[1]
        for counts in ((9, 30, 961), (31, 40, 929), (20, 19, 961), (20, 41, 939), (50, 40, 910)):
            assert accept(counts, p)[1] is False, counts


class TestEstimate:
    def test_ideal_behavior_saturates(self):
        est = estimate(simulate_rounds(IDEAL_BEHAVIOR, params(n=400_000, seed=51)))
        assert not est.flagged
        assert abs(est.s_hat - 2 * math.sqrt(2)) <= 3 * est.s_err

    def test_calibrated_behavior(self):
        est = estimate(simulate_rounds(CAL_BEHAVIOR, params(n=400_000, seed=61)))
        assert abs(est.q_hat - 0.0285) <= 3 * est.q_err
        assert abs(est.s_hat - S_MODEL) <= 3 * est.s_err
        assert sum(est.counts) == 400_000

    @pytest.mark.parametrize("seed", range(6))
    def test_count_tensor_equals_mask_oracle(self, seed):
        tr = _random_transcript(seed, empty_cell=seed % 3 == 1, no_key=seed % 3 == 2)
        got = tuple(estimate([cell_counts(tr)]))
        assert repr(got) == repr(estimate_masks(tr))
        assert got[-1] == (seed % 3 != 0)  # flagged exactly when a cell is empty

    def test_generated_transcripts_equal_mask_oracle(self):
        for seed in (1, 2, 3):
            p = params(n=30_000, seed=seed)
            streamed = estimate(simulate_rounds(CAL_BEHAVIOR, p))
            assert repr(tuple(streamed)) == repr(estimate_masks(generate_transcript(CAL_BEHAVIOR, p)))

    @pytest.mark.parametrize("n", [CHUNK_ROUNDS - 1, CHUNK_ROUNDS, CHUNK_ROUNDS + 1, 2 * CHUNK_ROUNDS + 5])
    def test_block_edges_equal_mask_oracle(self, n):
        p = params(n=n, seed=n)
        streamed = estimate(simulate_rounds(CAL_BEHAVIOR, p))
        assert repr(tuple(streamed)) == repr(estimate_masks(generate_transcript(CAL_BEHAVIOR, p)))

    def test_streamed_peak_is_flat_in_n(self):
        peaks = []
        for n in (200_000, 2_000_000):
            rounds = simulate_rounds(CAL_BEHAVIOR, params(n=n, seed=23))
            tracemalloc.start()
            try:
                estimate(rounds)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert max(peaks) < 1.5 * 2**20
        assert max(peaks) <= 1.1 * min(peaks)

    def test_simulated_pipeline_peak_is_flat_in_n(self):
        # the whole simulated run, not only its estimate: no n-long array on the path
        peaks = []
        for n in (200_000, 2_000_000):
            config = cli.load_config(None, {"security.method": "eat", "protocol.n": str(n), "seed": "23"})
            tracemalloc.start()
            try:
                cli.run_pipeline(config)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert max(peaks) < 1.5 * 2**20
        assert max(peaks) <= 1.1 * min(peaks)

    def test_insufficient_counts_flagged(self):
        tr = columns(
            s=[1, 1], t=[1, 1], x=[0, 0], y=[2, 2],
            a=[0, 1], b=[0, 1], c=[PERP, PERP],
        )
        assert estimate([cell_counts(tr)]).flagged


def _random_transcript(seed: int, empty_cell: bool = False, no_key: bool = False) -> _Columns:
    """The columns of a valid run with uniform settings and outcomes and random test fractions.

    empty_cell leaves no test round at (x, y) = (1, 1); no_key makes every
    round a y-party test round, so (x, y) = (0, 2) never occurs.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(50, 5000))
    gamma_a, gamma_b = (float(g) for g in rng.uniform(0.05, 0.95, 2))
    s = (rng.random(n) >= gamma_a).astype(np.int8)
    t = np.zeros(n, dtype=np.int8) if no_key else (rng.random(n) >= gamma_b).astype(np.int8)
    x = np.where(s == 0, rng.integers(0, 2, n), 0)
    y = np.where(t == 0, rng.integers(0, 2, n), 2)
    if empty_cell:
        y[(s == 0) & (t == 0) & (x == 1) & (y == 1)] = 0
    a, b = rng.integers(0, 2, (2, n))
    c = np.where((s == 0) & (t == 0), (a ^ b) == (x & y), PERP)
    return columns(s=s, t=t, x=x, y=y, a=a, b=b, c=c)

