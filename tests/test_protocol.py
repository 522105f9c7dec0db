import io
import math

import numpy as np
import pytest

from diqkd.protocol import (
    PERP,
    Behavior,
    ProtocolParams,
    RoundRecord,
    Transcript,
    accept,
    behavior_from_state,
    estimate,
    generate_transcript,
    payoff,
    read_transcript,
    sift,
    write_transcript,
)
from diqkd.quantum import NoiseParams, build_heralded_state
from diqkd.protocol import test_statistic as beta_freq
from diqkd.rng import CounterRng, audit_total

CAL_STATE = build_heralded_state(NoiseParams.from_visibilities(0.943, 0.924))
CAL_BEHAVIOR = behavior_from_state(CAL_STATE)
IDEAL_BEHAVIOR = behavior_from_state(build_heralded_state(NoiseParams()))
S_MODEL = math.sqrt(2) * (0.943 + 0.924)


def params(n=10_000, seed=7, omega=0.83, delta=0.01):
    return ProtocolParams(n=n, gamma_a=0.26, gamma_b=0.13, omega_exp=omega, delta=delta, seed=seed)


class TestCounterRng:
    def test_range_and_determinism(self):
        r1 = CounterRng(123).round_uniforms(0, 10_000, 0)
        r2 = CounterRng(123).round_uniforms(0, 10_000, 0)
        assert np.array_equal(r1, r2)
        assert r1.min() >= 0.0 and r1.max() < 1.0

    def test_counter_offsets_are_consistent(self):
        rng = CounterRng(9)
        whole = rng.round_uniforms(0, 1000, 3)
        assert np.array_equal(whole[200:300], CounterRng(9).round_uniforms(200, 100, 3))

    def test_mean_and_draw_accounting(self):
        rng = CounterRng(55)
        before = audit_total()
        u = rng.round_uniforms(0, 200_000, 0)
        assert abs(u.mean() - 0.5) < 0.005
        assert audit_total() - before == 200_000

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            CounterRng(-1)
        with pytest.raises(ValueError):
            CounterRng(2**64)


class TestPayoff:
    def test_examples(self):
        assert payoff(0, 0, 0, 0) == 1
        assert payoff(0, 1, 1, 1) == 1
        assert payoff(1, 1, 1, 1) == 0

    def test_key_setting_rejected(self):
        with pytest.raises(ValueError):
            payoff(0, 0, 0, 2)


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

    def test_no_signaling(self):
        assert CAL_BEHAVIOR.no_signaling_residual() < 1e-9

    def test_bad_tables_rejected(self):
        t = np.full((2, 3, 2, 2), 0.25)
        t[0, 0] = [[0.5, 0.5], [0.25, 0.25]]
        with pytest.raises(ValueError):
            Behavior(t)


class TestGeneration:
    def test_deterministic_behavior_payoffs(self):
        t = np.zeros((2, 3, 2, 2))
        t[:, :, 0, 0] = 1.0  # both always output 0
        tr = generate_transcript(Behavior(t), params(n=10))
        for i in range(10):
            r = tr[i]
            if r.c != PERP:
                assert r.c == payoff(0, 0, r.x, r.y)

    def test_replay_is_identical(self):
        p = params(n=5000, seed=101)
        t1 = generate_transcript(CAL_BEHAVIOR, p)
        t2 = generate_transcript(CAL_BEHAVIOR, p)
        for col in ("s", "t", "x", "y", "a", "b", "c"):
            assert np.array_equal(getattr(t1, col), getattr(t2, col))

    def test_parallel_chunks_bit_identical(self):
        p = params(n=30_001, seed=77)
        seq = generate_transcript(CAL_BEHAVIOR, p, chunks=1)
        par = generate_transcript(CAL_BEHAVIOR, p, chunks=7)
        for col in ("s", "t", "x", "y", "a", "b", "c"):
            assert np.array_equal(getattr(seq, col), getattr(par, col))

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

    def test_record_invariants_enforced(self):
        with pytest.raises(ValueError):
            RoundRecord(s=1, t=0, x=1, y=0, a=0, b=0, c=PERP)
        with pytest.raises(ValueError):
            RoundRecord(s=0, t=0, x=0, y=0, a=0, b=0, c=PERP)
        with pytest.raises(ValueError):
            RoundRecord(s=0, t=0, x=1, y=1, a=0, b=0, c=1)  # payoff(0,0,1,1) = 0


class TestSift:
    def test_zeroes_the_two_dead_classes(self):
        p = params(n=3)
        tr = Transcript(
            p,
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
        assert len(out) == len(tr)
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
        p = params(n=4)
        tr = Transcript(
            p,
            s=[1, 1, 1, 1], t=[1, 1, 1, 1], x=[0, 0, 0, 0], y=[2, 2, 2, 2],
            a=[0, 1, 0, 1], b=[0, 1, 1, 0], c=[PERP] * 4,
        )
        assert beta_freq(tr) == 0.0

    def test_all_wins(self):
        p = params(n=3)
        tr = Transcript(
            p,
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
        p = params(omega=0.8265, delta=0.001)
        thr = p.gamma_a * p.gamma_b * p.omega_exp - p.delta
        assert accept(thr, p)
        assert not accept(thr - 1e-12, p)
        assert not accept(0.0, params(delta=0.0))


class TestEstimate:
    def test_ideal_behavior_saturates(self):
        tr = generate_transcript(IDEAL_BEHAVIOR, params(n=400_000, seed=51))
        est = estimate(tr)
        assert not est.flagged
        assert abs(est.s_hat - 2 * math.sqrt(2)) <= 3 * est.s_err

    def test_calibrated_behavior(self):
        tr = generate_transcript(CAL_BEHAVIOR, params(n=400_000, seed=61))
        est = estimate(tr)
        assert abs(est.q_hat - 0.0285) <= 3 * est.q_err
        assert abs(est.s_hat - S_MODEL) <= 3 * est.s_err
        assert sum(est.counts) == 400_000

    def test_insufficient_counts_flagged(self):
        p = params(n=2)
        tr = Transcript(
            p,
            s=[1, 1], t=[1, 1], x=[0, 0], y=[2, 2],
            a=[0, 1], b=[0, 1], c=[PERP, PERP],
        )
        assert estimate(tr).flagged


class TestSerialization:
    def test_roundtrip(self):
        p = params(n=500, seed=71)
        tr = generate_transcript(CAL_BEHAVIOR, p)
        buf = io.StringIO()
        write_transcript(tr, buf)
        buf.seek(0)
        back = read_transcript(buf)
        assert back.params == p
        for col in ("s", "t", "x", "y", "a", "b", "c"):
            assert np.array_equal(getattr(back, col), getattr(tr, col))

    def test_format_is_ascii_integers(self):
        p = params(n=3, seed=81)
        tr = generate_transcript(CAL_BEHAVIOR, p)
        buf = io.StringIO()
        write_transcript(tr, buf)
        lines = [l for l in buf.getvalue().splitlines() if not l.startswith("#")]
        assert len(lines) == 3
        for line in lines:
            fields = line.split()
            assert len(fields) == 7
            assert all(f in "012" for f in fields)
