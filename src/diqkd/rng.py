"""Stateless counter-based uniform generator for reproducible parallel runs.

Every draw is a pure function of (seed, round index, slot), so disjoint
round ranges can be generated concurrently and are bit-identical to a
sequential pass with the same master seed.  The mixer is the splitmix64
finalizer over a Weyl sequence keyed by the seed.

``round_words`` fills a (slots, rounds) buffer with the raw 64-bit mixed
words z in one pass: the counters of rounds 0, 1, ... are cached per
slot range, so a block costs one add and one mix.  The uniform of a word
is u = (z >> 11) * 2^-53; a caller comparing u with an integer threshold
w in [0, 2^53) compares z with w << 11 instead, so no double is formed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SLOTS_PER_ROUND", "CounterRng", "audit_total"]

SLOTS_PER_ROUND = 8  # draws reserved per protocol round (5 used today)

_audit_draws = 0


def audit_total() -> int:
    """Process-wide count of words ever produced; for no-RNG assertions."""
    return _audit_draws

_WEYL = 0x9E3779B97F4A7C15
_ROUND_STRIDE = np.uint64(SLOTS_PER_ROUND * _WEYL % 2**64)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def _mix(z: np.ndarray) -> None:
    """splitmix64 finalizer, in place, through one temporary block."""
    t = z >> np.uint64(30)
    z ^= t
    z *= _M1
    z ^= np.right_shift(z, np.uint64(27), out=t)
    z *= _M2
    z ^= np.right_shift(z, np.uint64(31), out=t)


class CounterRng:
    """Uniform 64-bit words indexed by an absolute 64-bit counter."""

    def __init__(self, seed: int):
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.seed = np.uint64(seed)
        self._bases: dict[range, np.ndarray] = {}

    def round_words(self, start_round: int, slots: range, out: np.ndarray) -> np.ndarray:
        """Fill out[k, i] with the 64-bit word of slot slots[k] in round start + i; return out.

        ``out`` is a (len(slots), n_rounds) uint64 array.  Callers that draw
        block after block pass the same buffer each time: for 5 x 2^13
        words, a fresh block per call took about as long as mixing it.
        """
        width = out.shape[1]
        base = self._bases.get(slots)
        if base is None or base.shape[1] < width:
            if any(not 0 <= k < SLOTS_PER_ROUND for k in slots):
                raise ValueError(f"slots must lie in [0, {SLOTS_PER_ROUND})")
            # z = seed + (round * SLOTS_PER_ROUND + slot + 1) * WEYL, mod 2^64, from round 0
            offsets = np.array([[(k + 1) * _WEYL % 2**64] for k in slots], dtype=np.uint64)
            base = self._bases[slots] = offsets + (np.arange(width, dtype=np.uint64) * _ROUND_STRIDE + self.seed)
        np.add(base[:, :width], np.uint64(start_round * int(_ROUND_STRIDE) % 2**64), out=out)
        _mix(out)
        global _audit_draws
        _audit_draws += out.size
        return out
