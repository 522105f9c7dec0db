import math

import numpy as np
import pytest

from diqkd.quantum import (
    BlochVector,
    NoiseParams,
    TwoQubitState,
    X_AXIS,
    Z_AXIS,
    build_heralded_state,
    diag_axis,
    fidelity_from_visibilities,
)
from diqkd.quantum import _born, _joint_projectors

MIXED = TwoQubitState(np.eye(4) / 4.0)
CAL_11KM = NoiseParams.from_visibilities(0.943, 0.924)
Y_AXIS = BlochVector(0.0, 1.0, 0.0)


def outcome_distribution(rho, a, b, readout_flip=0.0):
    """Joint outcome probabilities P[i, j] of one axis pair: the Born-rule kernel on a one-pair stack."""
    return _born(rho, _joint_projectors((a,), (b,)), readout_flip)[0, 0]


def correlator(rho, a, b, flip_b=False):
    """E = P(equal) - P(differ), read from the outcome distribution."""
    probs = outcome_distribution(rho, a, b.bit_flipped() if flip_b else b)
    return probs[0, 0] - probs[0, 1] - probs[1, 0] + probs[1, 1]


def chsh_value(rho, a_axes, b_axes, flip_b=False):
    e = [[correlator(rho, a, b, flip_b) for b in b_axes] for a in a_axes]
    return e[0][0] + e[0][1] + e[1][0] - e[1][1]


def qber(rho, a, b):
    """Disagreement probability in the bit-flipped convention of the key bases."""
    probs = outcome_distribution(rho, a, b.bit_flipped())
    return probs[0, 1] + probs[1, 0]


def bell_overlap(rho, delta_phi=0.0):
    """<psi|rho|psi> for psi = (ud + e^{i phi} du)/sqrt2."""
    psi = np.array([0.0, 1.0, np.exp(1j * delta_phi), 0.0]) / math.sqrt(2.0)
    return float(np.real(psi.conj() @ rho.matrix @ psi))


def random_phase(rng) -> float:
    """An interferometer phase: pi (the other Bell sign) or uniform on [-pi, pi), evenly."""
    return math.pi if rng.random() < 0.5 else rng.uniform(-math.pi, math.pi)


def random_state(rng) -> TwoQubitState:
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = a @ a.conj().T
    return TwoQubitState(m / np.trace(m).real)


def random_axis(rng) -> BlochVector:
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return BlochVector(*v)


class TestStateConstruction:
    def test_pure_bell_at_alpha_zero(self):
        rho = build_heralded_state(NoiseParams(alpha_exc=0.0))
        assert bell_overlap(rho) == pytest.approx(1.0)

    def test_alpha_one_is_uu(self):
        rho = build_heralded_state(NoiseParams(alpha_exc=1.0))
        expect = np.zeros((4, 4))
        expect[0, 0] = 1.0
        assert np.allclose(rho.matrix, expect)

    def test_alpha_populations(self):
        rho = build_heralded_state(NoiseParams(alpha_exc=0.05))
        assert correlator(rho, Z_AXIS, Z_AXIS) == pytest.approx(2 * 0.05 - 1.0)
        assert correlator(rho, X_AXIS, X_AXIS) == pytest.approx(1.0 - 0.05)

    def test_invariants_over_random_params(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            p = NoiseParams(
                alpha_exc=rng.uniform(0, 1),
                dephase_lambda=rng.uniform(0, 1),
                white_noise=rng.uniform(0, 1),
                delta_phi=random_phase(rng),
            )
            rho = build_heralded_state(p)  # constructor enforces the invariants
            assert abs(np.trace(rho.matrix) - 1.0) < 1e-12

    def test_positivity_guard(self):
        m = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            TwoQubitState(m)


class TestCorrelator:
    def test_maximally_mixed(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert correlator(MIXED, random_axis(rng), random_axis(rng)) == pytest.approx(0.0, abs=1e-12)

    def test_bell_stabilizer(self):
        rho = build_heralded_state(NoiseParams())
        assert correlator(rho, X_AXIS, X_AXIS) == pytest.approx(1.0)

    def test_calibrated_zz(self):
        rho = build_heralded_state(CAL_11KM)
        assert correlator(rho, Z_AXIS, Z_AXIS, flip_b=True) == pytest.approx(0.943)
        assert correlator(rho, X_AXIS, X_AXIS, flip_b=True) == pytest.approx(0.924)

    def test_linear_in_state(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            r1, r2 = random_state(rng), random_state(rng)
            t = rng.uniform()
            mix = TwoQubitState(t * r1.matrix + (1 - t) * r2.matrix)
            a, b = random_axis(rng), random_axis(rng)
            assert correlator(mix, a, b) == pytest.approx(
                t * correlator(r1, a, b) + (1 - t) * correlator(r2, a, b), abs=1e-10
            )


class TestOutcomeDistribution:
    def test_maximally_mixed(self):
        probs = outcome_distribution(MIXED, Z_AXIS, X_AXIS)
        assert np.allclose(probs, 0.25)

    def test_bell_anticorrelated_populations(self):
        rho = build_heralded_state(NoiseParams())
        probs = outcome_distribution(rho, Z_AXIS, Z_AXIS)
        assert np.allclose(probs, [[0.0, 0.5], [0.5, 0.0]], atol=1e-12)

    def test_signed_sum_matches_correlator(self):
        # the signed sum of the Born-rule table is Tr[rho (a.sigma x b.sigma)]
        rng = np.random.default_rng(2)
        for _ in range(100):
            rho = random_state(rng)
            a, b = random_axis(rng), random_axis(rng)
            direct = np.trace(rho.matrix @ np.kron(a.operator(), b.operator())).real
            assert correlator(rho, a, b) == pytest.approx(direct, abs=1e-10)

    def test_readout_flip_half_randomizes(self):
        rho = build_heralded_state(NoiseParams())
        probs = outcome_distribution(rho, Z_AXIS, Z_AXIS, readout_flip=0.5)
        assert np.allclose(probs, 0.25)


class TestChsh:
    def test_tsirelson_saturation(self):
        rho = build_heralded_state(NoiseParams())
        s = chsh_value(rho, (Z_AXIS, X_AXIS), (diag_axis(+1), diag_axis(-1)), flip_b=True)
        assert s == pytest.approx(2 * math.sqrt(2))

    def test_product_state_classical(self):
        rho = build_heralded_state(NoiseParams(alpha_exc=1.0))
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = chsh_value(rho, (random_axis(rng), random_axis(rng)), (random_axis(rng), random_axis(rng)))
            assert abs(s) <= 2.0 + 1e-9

    def test_calibrated_value(self):
        rho = build_heralded_state(CAL_11KM)
        s = chsh_value(rho, (diag_axis(+1), diag_axis(-1)), (Z_AXIS, X_AXIS), flip_b=True)
        assert s == pytest.approx(math.sqrt(2) * (0.943 + 0.924), abs=1e-12)
        assert s == pytest.approx(2.64033, abs=1e-4)

    def test_quantum_bound_random(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            rho = random_state(rng)
            s = chsh_value(
                rho,
                (random_axis(rng), random_axis(rng)),
                (random_axis(rng), random_axis(rng)),
                flip_b=bool(rng.integers(2)),
            )
            assert abs(s) <= 2 * math.sqrt(2) + 1e-9


class TestQber:
    def test_bell_flipped_convention(self):
        rho = build_heralded_state(NoiseParams())
        assert qber(rho, Z_AXIS, Z_AXIS) == pytest.approx(0.0, abs=1e-12)

    def test_calibrated(self):
        rho = build_heralded_state(CAL_11KM)
        assert qber(rho, Z_AXIS, Z_AXIS) == pytest.approx(0.0285, abs=1e-12)

    def test_white_noise_limit(self):
        rho = build_heralded_state(NoiseParams(white_noise=1.0))
        assert qber(rho, Z_AXIS, Z_AXIS) == pytest.approx(0.5)

    def test_error_plus_agreement_is_one(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            rho = random_state(rng)
            a, b = random_axis(rng), random_axis(rng)
            q = qber(rho, a, b)
            probs = outcome_distribution(rho, a, b.bit_flipped())
            agree = probs[0, 0] + probs[1, 1]
            assert q + agree == pytest.approx(1.0, abs=1e-12)


class TestFidelity:
    def test_perfect(self):
        assert fidelity_from_visibilities(1.0, 1.0) == 1.0

    def test_fully_mixed(self):
        assert fidelity_from_visibilities(0.0, 0.0) == 0.25

    def test_paper_point(self):
        assert fidelity_from_visibilities(0.943, 0.924) == pytest.approx(0.94775)

    def test_bell_fidelity_limits(self):
        # the formula at the visibilities read from the ideal and the
        # maximally mixed state equals their Bell-state overlaps, 1 and 1/4
        for rho, expect in ((build_heralded_state(NoiseParams()), 1.0), (MIXED, 0.25)):
            v_zz = correlator(rho, Z_AXIS, Z_AXIS, flip_b=True)
            v_xx = correlator(rho, X_AXIS, X_AXIS, flip_b=True)
            assert fidelity_from_visibilities(v_zz, v_xx) == pytest.approx(expect, abs=1e-12)
            assert bell_overlap(rho) == pytest.approx(expect, abs=1e-12)

    def test_visibility_formula_matches_overlap(self):
        # the visibility combination equals the direct overlap on every state
        # the heralded model can produce (no extra coherences)
        rng = np.random.default_rng(6)
        for _ in range(100):
            params = NoiseParams(
                alpha_exc=rng.uniform(0, 0.5),
                dephase_lambda=rng.uniform(0, 0.5),
                white_noise=rng.uniform(0, 0.5),
                delta_phi=random_phase(rng),
            )
            rho = build_heralded_state(params)
            v_zz = correlator(rho, Z_AXIS, Z_AXIS, flip_b=True)
            # XX visibility as fitted from parity oscillations: the fringe
            # amplitude of the ud/du coherence, independent of the phase
            re = correlator(rho, X_AXIS, X_AXIS, flip_b=True)
            im = correlator(rho, X_AXIS, Y_AXIS, flip_b=True)
            v_xx = math.hypot(re, im)
            f = bell_overlap(rho, params.delta_phi)
            assert fidelity_from_visibilities(v_zz, v_xx) == pytest.approx(f, abs=1e-10)
