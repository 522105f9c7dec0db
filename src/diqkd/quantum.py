"""Two-qubit density-matrix model of the heralded atom-atom state.

Covers the noisy Bell-state family produced by single-photon heralding,
Born-rule measurement statistics in arbitrary Bloch bases, and the
fidelity estimate from the two measured visibilities.  The Born rule has
one kernel, ``_born``, over a stack of joint projectors: the protocol's
six setting pairs build their 24 projectors once per process and take
all their statistics in one batched trace, and ``outcome_distribution``
is a one-pair call.

Basis order throughout is (uu, ud, du, dd) for the two spin qubits.
The heralded family is anti-correlated in Z; measured correlators in the
experiment's convention are made positive by a local bit flip on the
second qubit, implemented as conjugation of that qubit's measurement
axis by sigma_x (``BlochVector.bit_flipped``).
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "BlochVector",
    "TwoQubitState",
    "NoiseParams",
    "Z_AXIS",
    "X_AXIS",
    "diag_axis",
    "build_heralded_state",
    "outcome_distribution",
    "fidelity_from_visibilities",
]

_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)


class _BlochFields(NamedTuple):
    nx: float
    ny: float
    nz: float


class BlochVector(_BlochFields):
    """Unit vector on the Bloch sphere defining a +-1 valued measurement."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "BlochVector":
        self = super().__new__(cls, *args, **kwargs)
        norm = math.sqrt(self.nx**2 + self.ny**2 + self.nz**2)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"Bloch vector must be unit norm, got |n| = {norm}")
        return self

    def operator(self) -> np.ndarray:
        return self.nx * _SX + self.ny * _SY + self.nz * _SZ

    def bit_flipped(self) -> "BlochVector":
        """Axis after conjugating the measurement by sigma_x (Z-basis bit flip)."""
        return BlochVector(self.nx, -self.ny, -self.nz)


Z_AXIS = BlochVector(0.0, 0.0, 1.0)
X_AXIS = BlochVector(1.0, 0.0, 0.0)


def diag_axis(sign: int = +1) -> BlochVector:
    """(Z + sign*X)/sqrt(2), the near-optimal CHSH test axes."""
    r = 1.0 / math.sqrt(2.0)
    return BlochVector(sign * r, 0.0, r)


class TwoQubitState:
    """A 4x4 density matrix with validated Hermiticity, trace and positivity.

    Eigenvalues down to -1e-10 are tolerated as rounding debris; anything
    below that is a modelling bug and raises instead of being silently
    renormalized.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ValueError("density matrix is not Hermitian within 1e-12")
        tr = np.trace(m).real
        if abs(tr - 1.0) > 1e-12:
            raise ValueError(f"density matrix trace is {tr}, not 1 within 1e-12")
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() < -1e-10:
            raise ValueError(f"density matrix has eigenvalue {eigs.min()} < -1e-10")
        self.matrix = m


class _NoiseFields(NamedTuple):
    alpha_exc: float = 0.0
    dephase_lambda: float = 0.0
    white_noise: float = 0.0
    delta_phi: float = 0.0


class NoiseParams(_NoiseFields):
    """Per-distance noise knobs of the heralded-state model.

    alpha_exc is the double-excitation admixture of the heralded state;
    dephase_lambda scales down the ud/du coherence; white_noise mixes in
    the maximally mixed state.  delta_phi is the interferometer phase of
    the heralded Bell state (pi gives the other sign).  Readout errors act
    on outcomes, not on the state: see ``outcome_distribution``.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "NoiseParams":
        self = super().__new__(cls, *args, **kwargs)
        for name in ("alpha_exc", "dephase_lambda", "white_noise"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")
        return self

    @classmethod
    def from_visibilities(
        cls, v_zz: float, v_xx: float, white_noise: float = 0.0, delta_phi: float = 0.0
    ) -> "NoiseParams":
        """Calibrate (alpha_exc, dephase_lambda) to hit measured visibilities.

        Inverts v_zz = (1 - 2a)(1 - w) and v_xx = (1 - a)(1 - l)(1 - w)
        for the delta_phi=0 convention with white-noise level w; delta_phi
        is then passed through to the state.
        """
        if not 0.0 <= white_noise < 1.0:
            raise ValueError("white_noise must lie in [0, 1)")
        vz = v_zz / (1.0 - white_noise)
        vx = v_xx / (1.0 - white_noise)
        alpha = (1.0 - vz) / 2.0
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"v_zz={v_zz} not reachable (alpha={alpha})")
        lam = 1.0 - vx / (1.0 - alpha)
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"v_xx={v_xx} not reachable (lambda={lam})")
        return cls(alpha_exc=alpha, dephase_lambda=lam, white_noise=white_noise, delta_phi=delta_phi)


def build_heralded_state(params: NoiseParams) -> TwoQubitState:
    """Heralded two-qubit state: Bell admixture plus dephasing and white noise.

    Construction order: the ideal mixture of |uu> (weight alpha_exc) with
    the phase-tagged Bell state, then coherence damping by
    (1 - dephase_lambda) on the ud/du element, then white-noise mixing.
    """
    a = params.alpha_exc
    phase = cmath.exp(1j * params.delta_phi)
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0 / math.sqrt(2.0)
    psi[2] = phase / math.sqrt(2.0)
    rho = a * np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    rho += (1.0 - a) * np.outer(psi, psi.conj())
    lam = params.dephase_lambda
    rho[1, 2] *= 1.0 - lam
    rho[2, 1] *= 1.0 - lam
    p = params.white_noise
    rho = (1.0 - p) * rho + p * np.eye(4, dtype=complex) / 4.0
    return TwoQubitState(rho)


def _joint_projectors(a_axes, b_axes) -> np.ndarray:
    """P_a(i) (x) P_b(j) for every axis pair (a, b) and outcome pair (i, j), shape (len(a_axes), len(b_axes), 2, 2, 4, 4).

    Outcome 0 projects on the +1 eigenvector of the axis operator.
    """
    pa, pb = ([[(_I2 + s * axis.operator()) / 2.0 for s in (+1.0, -1.0)] for axis in axes] for axes in (a_axes, b_axes))
    return np.array([[[[np.kron(p, q) for q in qs] for p in ps] for qs in pb] for ps in pa])


def _born(rho: TwoQubitState, projectors: np.ndarray, readout_flip: float) -> np.ndarray:
    """Joint outcome probabilities Tr(rho P) for each stacked (2, 2) block of 4x4 projectors, after readout flips.

    The one Born-rule kernel: every block is clipped to [0, 1] and
    normalised, then each party's outcome is flipped independently with
    probability readout_flip.  One trace per projector, in one batched
    product, so a block's values do not depend on the blocks beside it.
    """
    if not 0.0 <= readout_flip <= 1.0:
        raise ValueError(f"readout_flip={readout_flip} outside [0, 1]")
    probs = np.trace(rho.matrix @ projectors, axis1=-2, axis2=-1).real
    probs = np.clip(probs, 0.0, 1.0)
    probs /= probs.sum(axis=(-2, -1), keepdims=True)
    r = readout_flip
    if r > 0.0:
        flip = np.array([[1.0 - r, r], [r, 1.0 - r]])
        probs = flip @ probs @ flip.T
    return probs


def outcome_distribution(
    rho: TwoQubitState,
    a: BlochVector,
    b: BlochVector,
    readout_flip: float = 0.0,
) -> np.ndarray:
    """Joint outcome probabilities P[i, j] for outcomes i, j in {0, 1}.

    Outcome 0 is the +1 eigenvalue of the axis operator.  Each party's
    outcome is then flipped independently with probability readout_flip.
    A one-pair call of the Born-rule kernel that ``behavior_from_state``
    runs on the protocol's six setting pairs.
    """
    return _born(rho, _joint_projectors((a,), (b,)), readout_flip)[0, 0]


def fidelity_from_visibilities(v_zz: float, v_xx: float) -> float:
    """Bell-state fidelity estimate (1 + V_ZZ + 2 V_XX) / 4 from two visibilities."""
    if not -1.0 <= v_zz <= 1.0 or not -1.0 <= v_xx <= 1.0:
        raise ValueError("visibilities must lie in [-1, 1]")
    return 0.25 * (1.0 + v_zz + 2.0 * v_xx)
