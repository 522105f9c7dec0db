"""Bit-exact classical post-processing: Toeplitz extraction and a verify tag.

The extractor is the two-universal family of Toeplitz matrices over
GF(2), applied matrix-free as a convolution of the seed with the input.
Input and output are cut into blocks of B = 2^15 bits, and each pair of
blocks is one real FFT convolution of length 2 min(B, m).  B is sized
for a core's L2 cache: on a 2-vCPU host a real FFT of 2^17 points, as
B = 2^16 needs, took 2.4 times as long as one of 2^16 points, so halving
B saves more per transform than the doubled spectrum products cost; at
m = 2^20, l = 2^17 extraction took 10-15% less time than with B = 2^16,
and B = 2^14 was slower again.  The seed segment of a pair depends only
on its diagonal (output block minus input block), and the convolution is
linear, so each output block sums the products of seed and input spectra
in the frequency domain and is inverted once.  A length-m input with
length-l output costs ceil(m/B) input, ceil(m/B) + ceil(l/B) - 1 seed
and ceil(l/B) inverse transforms, about (2m + l)/B + l/B, instead of
3 (m/B)(l/B); memory is O(B + l): per output block one complex
accumulator and one carried seed spectrum.  The sums are rounded to
integer counts, whose parities are the output, after every 2^10 input
blocks and at the end.  Rounding is exact: a rounded entry is a count of
at most 2^10 B = 2^25, far below 2^53, and the float error of an FFT
convolution grows like the unit roundoff times log B times the product
of the input norms, here at most 2^25 sqrt(2), so it stays orders of
magnitude under 1/2; a runtime guard raises if any entry lies 1/4 or
more from its integer.

The verification tag is a polynomial hash over GF(2^128) (GCM modulus)
composed with a multiply-then-truncate map to 64 bits.  For a message of
t = ceil(bits/128) padded blocks the collision probability over a
uniform key is at most (t + 1)/2^128 + 2^-64, which stays below 2^-61
for every supported message length (up to 2^61 bits).  Horner's rule
seeded at 1 is the sum of b_i H^(t+1-i) with 1 added to the first
block; one appended zero block makes the powers run down to H^0.  The
sum is evaluated in k lanes, k the largest power of two up to an eighth
of the block count, at most 256: zero blocks in front make the count a
multiple of k, block r k + c goes to lane c, and each lane runs Horner
with H^k.  Blocks are packed 16 bytes each, and multiplication by a
fixed element is a table of its product with every byte value at every
byte position (the table-driven GCM multiply of McGrew and Viega): one
step for all lanes looks up 16 entries per lane and XORs them, all in
integers.  Tree steps with H, H^2, H^4, ... then join lane pairs (L, L')
into L H + L' while more than 16 lanes are left, and Horner's rule over
the lanes left finishes the sum, one integer product per lane: a table
costs about as much as 8 such products.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "BitString",
    "ToeplitzSeed",
    "toeplitz_extract",
    "TagKey",
    "verify_tag",
    "tag_collision_bound",
]

# bits per FFT block of the extractor
_BLOCK = 1 << 15
# input blocks summed in the frequency domain between two roundings
_FLUSH = 1 << 10


class BitString:
    """An ordered sequence of bits with exact length bookkeeping."""

    __slots__ = ("bits",)

    def __init__(self, bits):
        a = np.asarray(bits)
        if a.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        if not np.array_equal(a, a != 0):
            raise ValueError("bits must be 0 or 1")
        self.bits = a.astype(np.uint8, copy=False)

    def __len__(self) -> int:
        return int(self.bits.size)

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


class ToeplitzSeed(NamedTuple):
    """Seed bits defining the diagonal-constant matrix for (m, l) extraction."""

    bits: BitString


def toeplitz_extract(raw: BitString, seed: ToeplitzSeed, ell: int) -> BitString:
    """GF(2) product of the Toeplitz matrix T[i, j] = seed[i - j + m - 1] with raw.

    Linear in the input; requires seed length m + ell - 1 and ell <= m.
    """
    m = len(raw)
    if ell < 0:
        raise ValueError("output length must be nonnegative")
    if ell > m:
        raise ValueError(f"cannot extract {ell} bits from {m}")
    if len(seed.bits) != m + ell - 1:
        raise ValueError(f"seed must have length m + ell - 1 = {m + ell - 1}, got {len(seed.bits)}")
    if ell == 0:
        return BitString(np.zeros(0, dtype=np.uint8))

    s, x = seed.bits.bits, raw.bits
    b = min(_BLOCK, m)
    size = 2 * b  # circular wrap-around never reaches the window kept below
    n_out, n_in = -(-ell // b), -(-m // b)
    # Output block i against input block j reads 2b seed bits from (i - j - 1) b + m
    # (zero outside the seed: those terms meet padding or discarded rows), so all
    # pairs on a diagonal d = i - j share one spectrum, kept in slot d % ring.
    ring = max(n_out, 2)
    spectra = np.empty((ring, b + 1), dtype=complex)
    acc = np.zeros((n_out, b + 1), dtype=complex)
    raw_f = np.empty(b + 1, dtype=complex)
    out = np.zeros(n_out * b, dtype=np.uint8)

    def load(buf, bits, lo, width):
        """bits[lo : lo + width], zero outside bits, in the first size floats of buf."""
        real = buf.view(float)[:size]
        real.fill(0)
        a, z = max(lo, 0), min(lo + width, len(bits))
        real[a - lo : z - lo] = bits[a:z]
        return real

    for d in range(1, n_out):  # the diagonals input block 0 shares with later blocks
        np.fft.rfft(load(raw_f, s, (d - 1) * b + m, size), out=spectra[d])
    for j in range(n_in):
        # Diagonal -j is first needed by output block 0, so it is transformed
        # last, into slot new, whose memory first holds the raw block.  Slot
        # free holds a spent diagonal, or the one output block n_out - 1 spends
        # in its product, made first and in place; then it is scratch, so no
        # step allocates.
        new, free = -j % ring, (-j - 1) % ring
        np.fft.rfft(load(spectra[new], x, j * b, b), out=raw_f)
        for i in range(n_out - 1, -1, -1):
            if i == 0:
                np.fft.rfft(load(spectra[free], s, (-j - 1) * b + m, size), out=spectra[new])
            np.multiply(spectra[(i - j) % ring], raw_f, out=spectra[free])
            acc[i] += spectra[free]
        if (j + 1) % _FLUSH == 0 or j + 1 == n_in:
            for i in range(n_out):
                part = np.fft.irfft(acc[i], size, out=raw_f.view(float)[:size])[b - 1 : 2 * b - 1]
                whole = np.rint(part, out=spectra[free].view(float)[:b])
                part -= whole
                if np.abs(part, out=part).max() >= 0.25:
                    raise ArithmeticError("FFT convolution too inexact for an exact GF(2) product")
                out[i * b : (i + 1) * b] ^= np.fmod(whole, 2, out=whole).astype(np.uint8)
            acc.fill(0)
    return BitString(out[:ell])


# the low 128 bits of each of 128 slots of 256 bits
_SLOT_LOW = int.from_bytes((bytes(16) + b"\xff" * 16) * 128, "big")
_LOW = (1 << 128) - 1
# the byte position c of each row of a transposed (16, k) block of bytes
_BYTE_AT = np.arange(16)[:, None]


def _fold(g: int, low: int) -> int:
    """One reduction step in every 256-bit slot that low masks: x^128 = x^7 + x^2 + x + 1.

    Two steps take a product of degree up to 254 below 128: first to 133, then below.
    """
    hi = (g >> 128) & low
    return (g & low) ^ hi ^ (hi << 1) ^ (hi << 2) ^ (hi << 7)


def _gf128_mul(x: int, y: int) -> int:
    """Carry-less product reduced by the GCM modulus.

    y is read in 4-bit windows from the top against the table of x times
    every window, then the product is folded twice.
    """
    table = [0, x]
    for i in range(1, 8):
        table += (table[i] << 1, (table[i] << 1) ^ x)
    out = 0
    for b in y.to_bytes(16, "big"):
        out = (((out << 4) ^ table[b >> 4]) << 4) ^ table[b & 15]
    return _fold(_fold(out, _LOW), _LOW)


def _mul_matrix(g: int) -> np.ndarray:
    """The table of multiplication by g, as (256 * 16, 2) uint64: entry 16 v + c is v at byte c times g.

    Bits are big-endian (bit p of a block is the coefficient of x^(127-p)),
    so row p is x^(127-p) g; an entry, viewed as 16 bytes, is the packed
    product, and the 16 entries of a block's bytes XOR to the block times g.
    """
    for c in (1, 2, 4, 8, 16, 32, 64):  # slot e of 256 bits gets x^e g, unreduced
        g |= g << 257 * c
    g = _fold(_fold(g, _SLOT_LOW), _SLOT_LOW)
    rows = np.frombuffer(g.to_bytes(128 * 32, "big"), dtype=np.uint8).reshape(16, 8, 32)[:, ::-1, 16:]
    by_bit = rows.transpose(1, 0, 2).copy().view(np.uint64)  # [e, c]: bit 2^e of byte c is row 8 c + 7 - e
    table = np.empty((256, 16, 2), dtype=np.uint64)
    table[0] = 0
    for e in range(8):  # the entries of byte values below 2^e are in place
        w = 1 << e
        np.bitwise_xor(table[:w], by_bit[e], out=table[w : 2 * w])
    return table.reshape(256 * 16, 2)


def _times(packed: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Packed (k, 16) uint8 blocks times the element whose _mul_matrix is given."""
    index = packed.T * np.intp(16) + _BYTE_AT  # intp: uint8 * 16 would wrap
    return np.bitwise_xor.reduce(table.take(index, axis=0), axis=0).view(np.uint8)


class _TagKeyHalves(NamedTuple):
    point: int
    mixer: int


class TagKey(_TagKeyHalves):
    """256 bits of key material: the evaluation point and the output mixer.

    An immutable (point, mixer) pair; a NamedTuple because a dataclass
    costs about 1 ms of code generation at every import.
    """

    __slots__ = ()

    def __new__(cls, point: int, mixer: int) -> "TagKey":
        if not 0 <= point < 2**128 or not 0 <= mixer < 2**128:
            raise ValueError("key halves must be 128-bit values")
        return tuple.__new__(cls, (point, mixer))

    @classmethod
    def from_bits(cls, bits: BitString) -> "TagKey":
        if len(bits) != 256:
            raise ValueError(f"tag key needs exactly 256 bits, got {len(bits)}")
        v = bits.to_int()
        return cls(point=v >> 128, mixer=v & ((1 << 128) - 1))


def verify_tag(message: BitString, key: TagKey) -> int:
    """64-bit verification tag of the message under the given key.

    Horner evaluation seeded at 1 (so differing block counts cannot
    collide identically), then a full-width multiply and truncation.
    The message gets a single 1 bit and zeros up to whole 128-bit blocks.
    """
    n = len(message)
    if n > 2**61:
        raise ValueError("message exceeds the supported 2^61 bits")
    t = n // 128 + 2  # the padded blocks and a zero block, so the last power is H^0
    lanes_log = min(max(t.bit_length() - 4, 0), 8)
    k = 1 << lanes_log
    data = np.zeros(-(-t // k) * k * 16, dtype=np.uint8)
    padded = data[-t * 16 :]  # after leading zero blocks, which add nothing
    packed = np.packbits(message.bits)
    padded[: packed.size] = packed
    padded[n >> 3] |= 0x80 >> (n & 7)  # the padding's 1 bit
    padded[15] ^= 1  # Horner's seed: the constant term of the first block

    powers = [key.point]  # H^(2^i)
    for _ in range(lanes_log):
        powers.append(_gf128_mul(powers[-1], powers[-1]))
    step = _mul_matrix(powers.pop())
    blocks = data.reshape(-1, k, 16)  # block r k + c goes to lane c
    lanes = blocks[0]
    for row in blocks[1:]:
        lanes = _times(lanes, step) ^ row
    while len(lanes) > 16:  # a table costs about 8 products of _gf128_mul
        lanes = _times(lanes[0::2], _mul_matrix(powers.pop(0))) ^ lanes[1::2]
    acc = int.from_bytes(lanes[0].tobytes(), "big")
    for lane in lanes[1:]:  # Horner over the lanes left, with H^(k / lanes)
        acc = _gf128_mul(acc, powers[0]) ^ int.from_bytes(lane.tobytes(), "big")
    return _gf128_mul(acc, key.mixer) & ((1 << 64) - 1)


def tag_collision_bound(message_bits: int) -> float:
    """Collision probability bound for two distinct messages of this size."""
    t = (message_bits + 1 + 127) // 128
    return (t + 1) / 2.0**128 + 2.0**-64
