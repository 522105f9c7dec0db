"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print.  Every tolerance is pinned here; nothing is deferred to
later calibration.

Criterion 7 checks the p-value engine against the 11 km significance
row the paper published.  That row (N = 39645 trials, log10 p =
-315.24) comes from the Bell-test characterization dataset, which is
distinct from the 1.2 M-event key-generation run that measured
S = 2.612.  The exact binomial tail at the classical bound reproduces
the published value only at the win count k = 32876 (score ~ 2.634,
shipped in the calibration as the back-solved ``s_pvalue``); k = 32875
and k = 32877 land 0.21 away on either side.  Pairing the Bell-test N
with the key run's S = 2.612 gives k = 32767 and log10 p = -292.88,
on which this package's log-space tail, an arbitrary-precision Decimal
summation and an exact integer sum all agree; that pairing is checked
against the Decimal oracle, not against the published row.
"""

import math
import time

import numpy as np

from diqkd.calibration import load_distance_table
from diqkd.cli import RunConfig, run_pipeline, pvalue_table
from diqkd.eat import delta_for_completeness, g_func, g_slope, gamma_eff
from diqkd.link import LinkBudget, TimingModel, arm_efficiency, event_rate, success_probability_spi, success_probability_tpi
from diqkd.mathcore import binomial_tail
from diqkd.postprocess import BitString, ToeplitzSeed, toeplitz_extract
from diqkd.protocol import (
    ProtocolParams,
    accept,
    behavior_from_state,
    build_acceptance_set,
    estimate,
    generate_transcript,
)
from diqkd.quantum import NoiseParams, build_heralded_state, fidelity_from_visibilities
from diqkd.renyi import renyi_key_entropy, sift_weights

from oracles import generate_columns_oneshot, log2_binomial_tail

PAPER_ANALYTIC = RunConfig(analytic=True, s_obs=2.612, q_obs=0.0285)
CAL_BEHAVIOR = behavior_from_state(build_heralded_state(NoiseParams.from_visibilities(0.943, 0.924)))
S_MODEL = math.sqrt(2) * (0.943 + 0.924)  # 2.64033


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_asymptotic_sifted_rate():
    from diqkd.eat import asymptotic_rate_sifted

    t0 = time.perf_counter()
    rate = asymptotic_rate_sifted(2.612, 0.0285, 0.26, 0.13)
    wall = time.perf_counter() - t0
    ok = abs(rate - 0.275) <= 0.002 and wall < 1.0
    _report(1, ok, f"asymptotic sifted rate {rate:.5f} (target 0.275 +- 0.002), {wall:.3f}s")


def test_criterion_2_renyi_rate_and_total():
    t0 = time.perf_counter()
    report = run_pipeline(PAPER_ANALYTIC)
    wall = time.perf_counter() - t0
    ok = (
        abs(report.renyi_rate - 0.112) <= 0.015
        and abs(report.renyi_length - 135_000) <= 18_000
        and wall < 60.0
    )
    _report(
        2,
        ok,
        f"renyi rate {report.renyi_rate:.4f} (0.112 +- 0.015), "
        f"total {report.renyi_length / 1000:.1f} kbit (135 +- 18), {wall:.1f}s",
    )


def test_criterion_3_renyi_tight_soundness():
    report = run_pipeline(
        RunConfig(analytic=True, s_obs=2.612, q_obs=0.0285, eps_snd=1e-15, method="renyi")
    )
    ok = abs(report.renyi_rate - 0.075) <= 0.015
    _report(3, ok, f"renyi rate at eps_snd=1e-15: {report.renyi_rate:.4f} (0.075 +- 0.015)")


def test_criterion_4_eat_rate_below_renyi():
    report = run_pipeline(PAPER_ANALYTIC)
    ok = abs(report.eat_rate - 0.034) <= 0.015 and report.eat_rate < report.renyi_rate
    _report(
        4,
        ok,
        f"accumulation rate {report.eat_rate:.4f} (0.034 +- 0.015), "
        f"strictly below renyi {report.renyi_rate:.4f}",
    )


def test_criterion_5_fidelity_formula():
    f = fidelity_from_visibilities(0.943, 0.924)
    ok = abs(f - 0.9478) <= 1e-4 and abs(f - 0.947) <= 0.005
    _report(5, ok, f"fidelity {f:.5f} (formula 0.9478, measured 0.947 +- 0.005)")


def test_criterion_6_monte_carlo_consistency():
    t0 = time.perf_counter()
    n = 1_000_000
    params = ProtocolParams(
        n=n, gamma_a=0.26, gamma_b=0.13, omega_exp=CAL_BEHAVIOR.chsh_win_probability(), delta=1e-3,
        box_lo=(0, 0, 0), box_hi=(n, n, n), seed=20260808,
    )
    tr = generate_transcript(CAL_BEHAVIOR, params)
    est = estimate(tr)
    wall = time.perf_counter() - t0
    ok = (
        abs(est.q_hat - 0.0285) <= 3 * est.q_err
        and abs(est.s_hat - S_MODEL) <= 3 * est.s_err
        and wall < 60.0
    )
    _report(
        6,
        ok,
        f"Q_hat {est.q_hat:.5f} (0.0285 +- {3 * est.q_err:.5f}), "
        f"S_hat {est.s_hat:.4f} (model 2.6403 +- {3 * est.s_err:.4f}; "
        f"measured-run value 2.612 differs by unmodeled asymmetries), {wall:.1f}s",
    )


def test_criterion_7_pvalue_engine():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 10_001))
        k = int(rng.integers(0, n + 1))
        p = float(rng.uniform(0.05, 0.95))
        got = binomial_tail(n, k, p)
        want = log2_binomial_tail(n, k, p)
        if want == 0.0:
            assert got == 0.0
            continue
        err = abs(got - want) / max(abs(want), 1.0)
        worst = max(worst, err)
    oracle_ok = worst <= 1e-9

    row = next(r for r in load_distance_table() if r.length_km == 11.0)
    published = row.pvalue_log10

    def oracle_log10(k: int) -> float:
        return log2_binomial_tail(row.n_trials, k, 0.75) * math.log10(2.0)

    # the Bell-test row: the shipped back-solved score reproduces the published value
    bell = pvalue_table([(row.length_km, row.n_trials, row.s_pvalue)])[0]
    bell_ok = abs(bell["log10_p"] - published) <= 2.0

    # independently of the engine, the oracle's tail is nearest the published
    # value at exactly the reconstructed win count, with both neighbours farther
    gap = {k: abs(oracle_log10(k) - published) for k in (bell["k"] - 1, bell["k"], bell["k"] + 1)}
    nearest_ok = gap[bell["k"]] < min(gap[bell["k"] - 1], gap[bell["k"] + 1])

    # the key run's S = 2.612 paired with the Bell-test N is a different count;
    # there the engine must match the oracle, which gives 1e-292.88, not the row
    k_key = round(row.n_trials * (0.5 + row.s_obs / 8.0))
    keyrun = pvalue_table([(row.length_km, row.n_trials, row.s_obs)])[0]
    want = oracle_log10(k_key)
    keyrun_ok = keyrun["k"] == k_key and abs(keyrun["log10_p"] - want) <= 1e-9 * abs(want)

    _report(
        7,
        oracle_ok and bell_ok and nearest_ok and keyrun_ok,
        f"oracle agreement worst rel err {worst:.2e} (<= 1e-9: {oracle_ok}); "
        f"11 km Bell-test row S={row.s_pvalue} k={bell['k']} log10 p = {bell['log10_p']:.2f} "
        f"vs {published} +- 2 ({bell_ok}); oracle nearest at that k, gaps "
        f"{gap[bell['k'] - 1]:.2f}/{gap[bell['k']]:.2f}/{gap[bell['k'] + 1]:.2f} ({nearest_ok}); "
        f"key-run S={row.s_obs} k={keyrun['k']} log10 p = {keyrun['log10_p']:.2f} "
        f"vs oracle {want:.2f} ({keyrun_ok})",
    )


def test_criterion_8_link_scaling():
    lengths = np.linspace(11.0, 100.0, 24)
    alpha = 0.022
    spi, tpi = [], []
    for length in lengths:
        eta = arm_efficiency(LinkBudget(length_km=float(length)))
        spi.append(success_probability_spi(alpha, eta, alpha, eta))
        tpi.append(success_probability_tpi(eta, eta))
    ratio = np.polyfit(lengths, np.log10(spi), 1)[0] / np.polyfit(lengths, np.log10(tpi), 1)[0]

    timing = TimingModel()
    # calibrated against the table's total arm efficiency at 11 km
    eff11 = next(r for r in load_distance_table() if r.length_km == 11.0).total_arm_eff
    rate11 = event_rate(success_probability_spi(alpha, eff11, alpha, eff11), timing, 11.0)
    ok = abs(ratio - 0.5) <= 0.02 and abs(rate11 - 0.72) / 0.72 <= 0.10
    _report(
        8,
        ok,
        f"success-probability slope ratio {ratio:.4f} (0.5 +- 0.02), "
        f"11 km event rate {rate11:.3f}/s (0.72 +- 10%)",
    )


def test_criterion_9_completeness():
    behavior = CAL_BEHAVIOR
    omega = behavior.chsh_win_probability()
    n, runs = 100_000, 300
    eat_target, box_target = 1e-2, 0.05
    delta = delta_for_completeness(n, 0.26, 0.13, omega, target=eat_target)
    box_lo, box_hi = build_acceptance_set(n, 0.26, 0.13, omega, box_target)
    aborts_eat = aborts_box = 0
    for seed in range(runs):
        p = ProtocolParams(
            n=n, gamma_a=0.26, gamma_b=0.13, omega_exp=omega, delta=delta, box_lo=box_lo, box_hi=box_hi, seed=seed
        )
        tr = generate_transcript(behavior, p)
        c0 = int(np.count_nonzero(tr.c == 0))
        c1 = int(np.count_nonzero(tr.c == 1))
        accepted, accepted_box = accept((c0, c1, n - c0 - c1), p)
        aborts_eat += not accepted
        aborts_box += not accepted_box
    ok = aborts_eat / runs <= eat_target and aborts_box / runs <= box_target
    _report(
        9,
        ok,
        f"honest aborts: threshold test {aborts_eat}/{runs} (target {eat_target}), "
        f"acceptance box {aborts_box}/{runs} (target {box_target})",
    )


def test_criterion_10_property_suites():
    checks = []

    # survivor fraction of sifting matches gamma_eff statistically
    n = 1_000_000
    params = ProtocolParams(
        n=n, gamma_a=0.26, gamma_b=0.13, omega_exp=0.83, delta=1e-3, box_lo=(0, 0, 0), box_hi=(n, n, n), seed=99
    )
    tr = generate_transcript(CAL_BEHAVIOR, params)
    dead = ((tr.s == 1) & (tr.t == 0)) | ((tr.s == 0) & (tr.t == 1) & (tr.x == 1) & (tr.y == 2))
    frac = 1.0 - np.count_nonzero(dead) / n
    ge = gamma_eff(0.26, 0.13)
    checks.append(abs(frac - ge) <= 3 * math.sqrt(ge * (1 - ge) / n))

    # certificate derivative agrees with central finite differences
    step = 1e-6
    checks.append(
        all(
            abs(g_slope(w) - (g_func(w + step) - g_func(w - step)) / (2 * step))
            <= 1e-5 * abs(g_slope(w))
            for w in np.linspace(0.76, 0.848, 20)
        )
    )

    # sift weight identity
    rng = np.random.default_rng(7)
    checks.append(
        all(
            abs(sum(sift_weights(*rng.uniform(0.01, 0.99, 2))) - 1.0) < 1e-14
            for _ in range(100)
        )
    )

    # entropy monotone in S at fixed order, and in order at fixed S
    ent_s = [renyi_key_entropy(s, 1.3) for s in np.linspace(2.05, 2.8, 12)]
    ent_a = [renyi_key_entropy(2.612, a) for a in np.linspace(1.01, 2.0, 12)]
    checks.append(all(b > a for a, b in zip(ent_s, ent_s[1:])))
    checks.append(all(b < a for a, b in zip(ent_a, ent_a[1:])))

    # extractor linearity
    rng = np.random.default_rng(8)
    m, ell = 400, 160
    seed_bits = ToeplitzSeed(BitString.random(m + ell - 1, rng))
    a, b = BitString.random(m, rng), BitString.random(m, rng)
    checks.append(
        toeplitz_extract(a ^ b, seed_bits, ell)
        == toeplitz_extract(a, seed_bits, ell) ^ toeplitz_extract(b, seed_bits, ell)
    )

    # deterministic replay: chunked generation equals one pass over all rounds, repeated runs are bit-identical
    n = 50_001
    p = ProtocolParams(
        n=n, gamma_a=0.26, gamma_b=0.13, omega_exp=0.83, delta=1e-3, box_lo=(0, 0, 0), box_hi=(n, n, n), seed=5
    )
    tr = generate_transcript(CAL_BEHAVIOR, p)
    checks.append(all(np.array_equal(getattr(tr, c), want) for c, want in zip("stxyabc", generate_columns_oneshot(CAL_BEHAVIOR, p))))
    r1 = run_pipeline(RunConfig(method="eat", analytic=True, s_obs=2.612, q_obs=0.0285))
    r2 = run_pipeline(RunConfig(method="eat", analytic=True, s_obs=2.612, q_obs=0.0285))
    checks.append(r1.to_json() == r2.to_json())

    ok = all(checks)
    _report(10, ok, f"{sum(checks)}/{len(checks)} property groups hold: {checks}")
