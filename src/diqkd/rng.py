"""Stateless counter-based uniform generator for reproducible parallel runs.

Every draw is a pure function of (seed, round index, slot), so disjoint
round ranges can be generated concurrently and are bit-identical to a
sequential pass with the same master seed.  The mixer is the splitmix64
finalizer over a Weyl sequence keyed by the seed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SLOTS_PER_ROUND", "CounterRng", "audit_total"]

SLOTS_PER_ROUND = 8  # draws reserved per protocol round (5 used today)

_audit_draws = 0


def audit_total() -> int:
    """Process-wide count of uniforms ever produced; for no-RNG assertions."""
    return _audit_draws

_WEYL = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def _mix(z: np.ndarray) -> None:
    """splitmix64 finalizer, in place."""
    z ^= z >> np.uint64(30)
    z *= _M1
    z ^= z >> np.uint64(27)
    z *= _M2
    z ^= z >> np.uint64(31)


class CounterRng:
    """Uniform doubles indexed by an absolute 64-bit counter."""

    def __init__(self, seed: int):
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.seed = np.uint64(seed)

    def round_uniforms(self, start_round: int, n_rounds: int, slot: int) -> np.ndarray:
        """One double per round for a fixed slot, rounds [start, start + n)."""
        if not 0 <= slot < SLOTS_PER_ROUND:
            raise ValueError(f"slot must lie in [0, {SLOTS_PER_ROUND})")
        with np.errstate(over="ignore"):
            # z = seed + (round * SLOTS_PER_ROUND + slot + 1) * WEYL, mod 2^64
            z = np.arange(start_round, start_round + n_rounds, dtype=np.uint64)
            z *= np.uint64(SLOTS_PER_ROUND)
            z += np.uint64(slot + 1)
            z *= _WEYL
            z += self.seed
            _mix(z)
            z >>= np.uint64(11)
        u = z.astype(np.float64)
        u *= 2.0**-53
        global _audit_draws
        _audit_draws += n_rounds
        return u
