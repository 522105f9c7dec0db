"""Bit-exact classical post-processing: Toeplitz extraction and a verify tag.

The extractor is the two-universal family of Toeplitz matrices over
GF(2), applied matrix-free as a convolution of the seed with the input.
Input and output are cut into blocks of B = 2^16 bits, and each pair of
blocks is one real FFT convolution of length 2 min(B, m).  A length-m
input with length-l output costs O(ceil(l/B) ceil(m/B) B log B)
operations and O(B + l) memory.  The integer counts are summed per
output bit and reduced mod 2.  Rounding each FFT entry to an integer is
exact: a partial count is at most B, far below 2^53, so the float error
stays orders of magnitude under 1/2, and a runtime guard raises if any
entry lies 1/4 or more from its integer.

The verification tag is a polynomial hash over GF(2^128) (GCM modulus)
composed with a multiply-then-truncate map to 64 bits.  For a message of
t = ceil(bits/128) padded blocks the collision probability over a
uniform key is at most (t + 1)/2^128 + 2^-64, which stays below 2^-61
for every supported message length (up to 2^61 bits).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BitString",
    "ToeplitzSeed",
    "toeplitz_extract",
    "TagKey",
    "verify_tag",
    "tag_collision_bound",
]

_GF128_POLY = (1 << 128) | (1 << 7) | (1 << 2) | (1 << 1) | 1  # x^128 + x^7 + x^2 + x + 1

# bits per FFT block of the extractor: every partial count is at most this
_BLOCK = 1 << 16


class BitString:
    """An ordered sequence of bits with exact length bookkeeping."""

    __slots__ = ("bits",)

    def __init__(self, bits):
        a = np.asarray(bits, dtype=np.uint8)
        if a.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        if a.size and a.max() > 1:
            raise ValueError("bits must be 0 or 1")
        self.bits = a

    def __len__(self) -> int:
        return int(self.bits.size)

    def __eq__(self, other) -> bool:
        return isinstance(other, BitString) and np.array_equal(self.bits, other.bits)

    def __xor__(self, other: "BitString") -> "BitString":
        if len(self) != len(other):
            raise ValueError("length mismatch")
        return BitString(self.bits ^ other.bits)

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "BitString":
        return cls(rng.integers(0, 2, size=n, dtype=np.uint8))

    @classmethod
    def from_hex(cls, text: str) -> "BitString":
        """Parse the 'length:hexdigits' serialization."""
        head, _, body = text.strip().partition(":")
        n = int(head)
        if n == 0:
            if body:
                raise ValueError("zero-length bitstring must have empty body")
            return cls(np.zeros(0, dtype=np.uint8))
        nbytes = (n + 7) // 8
        if len(body) != 2 * nbytes:
            raise ValueError(f"expected {2 * nbytes} hex digits for {n} bits, got {len(body)}")
        data = np.frombuffer(bytes.fromhex(body), dtype=np.uint8)
        bits = np.unpackbits(data, bitorder="big")[:n]
        return cls(bits)

    def to_hex(self) -> str:
        n = len(self)
        if n == 0:
            return "0:"
        packed = np.packbits(self.bits, bitorder="big")
        return f"{n}:{packed.tobytes().hex()}"

    def to_int(self) -> int:
        """Big-endian integer value of the bit sequence."""
        if len(self) == 0:
            return 0
        packed = np.packbits(self.bits, bitorder="big")
        return int.from_bytes(packed.tobytes(), "big") >> ((-len(self)) % 8)


@dataclass(frozen=True)
class ToeplitzSeed:
    """Seed bits defining the diagonal-constant matrix for (m, l) extraction."""

    bits: BitString


def toeplitz_extract(raw: BitString, seed: ToeplitzSeed, ell: int) -> BitString:
    """GF(2) product of the Toeplitz matrix T[i, j] = seed[i - j + m - 1] with raw.

    Linear in the input; requires seed length m + ell - 1 and ell <= m.
    """
    m = len(raw)
    if ell < 0:
        raise ValueError("output length must be nonnegative")
    if ell == 0:
        return BitString(np.zeros(0, dtype=np.uint8))
    if ell > m:
        raise ValueError(f"cannot extract {ell} bits from {m}")
    if len(seed.bits) != m + ell - 1:
        raise ValueError(f"seed must have length m + ell - 1 = {m + ell - 1}, got {len(seed.bits)}")

    s, x = seed.bits.bits, raw.bits
    size = 2 * min(_BLOCK, m)  # circular wrap-around never reaches the window kept below
    counts = np.zeros(ell, dtype=np.int64)
    for j0 in range(0, m, _BLOCK):
        width = min(_BLOCK, m - j0)
        raw_f = np.fft.rfft(x[j0 : j0 + width], size)
        for i0 in range(0, ell, _BLOCK):
            b = min(_BLOCK, ell - i0)
            # seed[base + k + width - 1 - t] pairs out bit i0 + k with raw bit j0 + t
            base = i0 + m - j0 - width
            conv = np.fft.irfft(np.fft.rfft(s[base : base + b + width - 1], size) * raw_f, size)
            part = conv[width - 1 : width - 1 + b]
            rounded = np.rint(part)
            if np.abs(part - rounded).max() >= 0.25:
                raise ArithmeticError("FFT convolution too inexact for an exact GF(2) product")
            counts[i0 : i0 + b] += rounded.astype(np.int64)
    return BitString((counts & 1).astype(np.uint8))


def _gf128_mul(x: int, y: int) -> int:
    """Carry-less product reduced by the GCM modulus."""
    out = 0
    while y:
        if y & 1:
            out ^= x
        y >>= 1
        x <<= 1
        if x >> 128:
            x ^= _GF128_POLY
    return out


_MASK128 = (1 << 128) - 1
# t * x^128 reduced, for the 4 overflow bits a nibble shift can produce
_RED4 = [_gf128_mul(t << 124, 1 << 4) if t else 0 for t in range(16)]


def _nibble_tables(k: int) -> list[int]:
    """Multiples v * k for v in 0..15, for windowed multiplication by k."""
    return [_gf128_mul(k, v) for v in range(16)]


def _mul_by_tables(acc: int, tables: list[int]) -> int:
    """acc * k via 4-bit windows of acc, with incremental reduction."""
    res = 0
    for shift in range(124, -4, -4):
        top = res >> 124
        res = ((res << 4) & _MASK128) ^ _RED4[top]
        res ^= tables[(acc >> shift) & 15]
    return res


@dataclass(frozen=True)
class TagKey:
    """256 bits of key material: the evaluation point and the output mixer."""

    point: int
    mixer: int

    def __post_init__(self) -> None:
        if not 0 <= self.point < 2**128 or not 0 <= self.mixer < 2**128:
            raise ValueError("key halves must be 128-bit values")

    @classmethod
    def from_bits(cls, bits: BitString) -> "TagKey":
        if len(bits) != 256:
            raise ValueError(f"tag key needs exactly 256 bits, got {len(bits)}")
        v = bits.to_int()
        return cls(point=v >> 128, mixer=v & ((1 << 128) - 1))


def _padded_blocks(message: BitString) -> list[int]:
    """128-bit blocks of the message with unambiguous 1000... padding."""
    bits = np.concatenate([message.bits, np.ones(1, dtype=np.uint8)])
    rem = (-bits.size) % 128
    bits = np.concatenate([bits, np.zeros(rem, dtype=np.uint8)])
    raw = np.packbits(bits, bitorder="big").tobytes()
    return [int.from_bytes(raw[i : i + 16], "big") for i in range(0, len(raw), 16)]


def verify_tag(message: BitString, key: TagKey) -> int:
    """64-bit verification tag of the message under the given key.

    Horner evaluation seeded at 1 (so differing block counts cannot
    collide identically), then a full-width multiply and truncation.
    """
    if len(message) > 2**61:
        raise ValueError("message exceeds the supported 2^61 bits")
    point_tables = _nibble_tables(key.point)
    acc = 1
    for block in _padded_blocks(message):
        acc = _mul_by_tables(acc ^ block, point_tables)
    mixed = _gf128_mul(acc, key.mixer)
    return mixed & ((1 << 64) - 1)


def tag_collision_bound(message_bits: int) -> float:
    """Collision probability bound for two distinct messages of this size."""
    t = (message_bits + 1 + 127) // 128
    return (t + 1) / 2.0**128 + 2.0**-64
