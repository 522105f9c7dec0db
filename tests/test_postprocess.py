import hashlib
import tracemalloc

import numpy as np
import pytest
from oracles import gf128_mul_bitwise

from diqkd import postprocess
from diqkd.eat import EPS_EC
from diqkd.postprocess import (
    _BLOCK,
    BitString,
    TagKey,
    ToeplitzSeed,
    _gf128_mul,
    _mul_matrix,
    _times,
    tag_collision_bound,
    toeplitz_extract,
    verify_tag,
)


def random_bits(n: int, rng: np.random.Generator) -> BitString:
    return BitString(rng.integers(0, 2, n, dtype=np.uint8))


def dense_toeplitz_oracle(raw: BitString, seed: ToeplitzSeed, ell: int) -> BitString:
    """Independent dense-matrix reference: T[i][j] = seed[i - j + m - 1]."""
    m = len(raw)
    s = seed.bits.bits
    t = np.zeros((ell, m), dtype=np.uint8)
    for i in range(ell):
        for j in range(m):
            t[i, j] = s[i - j + m - 1]
    return BitString((t @ raw.bits) % 2)


def horner_tag_oracle(message: BitString, key: TagKey) -> int:
    """The tag by its definition: plain bitwise Horner seeded at 1 over the padded blocks."""
    bits = np.concatenate([message.bits, [1], np.zeros((-len(message) - 1) % 128, dtype=np.uint8)])
    data = np.packbits(bits).tobytes()
    acc = 1
    for i in range(0, len(data), 16):
        acc = gf128_mul_bitwise(acc ^ int.from_bytes(data[i : i + 16], "big"), key.point)
    return gf128_mul_bitwise(acc, key.mixer) & ((1 << 64) - 1)


def traced_peak(f) -> int:
    """Peak bytes allocated while f runs, as tracemalloc sees them."""
    f()  # library set-up outside the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        f()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestBitString:
    def test_to_hex(self):
        # length, then the bits packed big-endian with zero padding
        assert BitString([]).to_hex() == "0:"
        assert BitString([1, 0, 1, 1, 0, 0, 0, 0, 1]).to_hex() == "9:b080"
        rng = np.random.default_rng(0)
        for n in (1, 7, 8, 9, 64, 1000):
            b = random_bits(n, rng)
            assert b.to_hex() == f"{n}:{b.to_int() << (-n % 8):0{(n + 7) // 8 * 2}x}"

    def test_to_int(self):
        assert BitString([1, 0, 1, 1]).to_int() == 0b1011
        assert BitString([]).to_int() == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            BitString([0, 2, 1])

    @pytest.mark.parametrize("bad", [np.array([256, 1]), np.array([0.5, 1.0]), np.array([1.7]), np.array([-1, 0])])
    def test_values_that_are_not_bits_rejected(self, bad):
        # a uint8 cast would wrap or truncate these to bits
        with pytest.raises(ValueError):
            BitString(bad)

    def test_bits_of_any_dtype_accepted(self):
        for bits in (np.array([True, False, True]), np.array([1.0, 0.0, 1.0]), np.array([1, 0, 1], dtype=np.int64)):
            b = BitString(bits)
            assert b.bits.dtype == np.uint8 and b.bits.tolist() == [1, 0, 1]


class TestToeplitzExtract:
    def test_empty_output(self):
        rng = np.random.default_rng(1)
        raw = random_bits(16, rng)
        seed = ToeplitzSeed(random_bits(15, rng))  # m + 0 - 1
        out = toeplitz_extract(raw, seed, 0)
        assert len(out) == 0

    def test_zero_input_zero_output(self):
        rng = np.random.default_rng(2)
        seed = ToeplitzSeed(random_bits(100 + 40 - 1, rng))
        out = toeplitz_extract(BitString(np.zeros(100, dtype=np.uint8)), seed, 40)
        assert not out.bits.any()

    def test_hand_worked_example(self):
        # m=3, ell=2, seed=1011: rows [1,0,1] and [1,1,0]; raw=110 -> (1,0)
        seed = ToeplitzSeed(BitString([1, 0, 1, 1]))
        out = toeplitz_extract(BitString([1, 1, 0]), seed, 2)
        assert out.bits.tolist() == [1, 0]

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            m = int(rng.integers(1, 200))
            ell = int(rng.integers(0, m + 1))
            raw = random_bits(m, rng)
            seed = ToeplitzSeed(random_bits(m + ell - 1, rng))
            got = toeplitz_extract(raw, seed, ell)
            want = dense_toeplitz_oracle(raw, seed, ell)
            assert got == want

    def test_linearity(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            m, ell = 300, 120
            a, b = random_bits(m, rng), random_bits(m, rng)
            seed = ToeplitzSeed(random_bits(m + ell - 1, rng))
            left = toeplitz_extract(a ^ b, seed, ell)
            right = toeplitz_extract(a, seed, ell) ^ toeplitz_extract(b, seed, ell)
            assert left == right

    def test_length_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        raw = random_bits(10, rng)
        with pytest.raises(ValueError):
            toeplitz_extract(raw, ToeplitzSeed(random_bits(10, rng)), 5)
        with pytest.raises(ValueError):
            toeplitz_extract(raw, ToeplitzSeed(random_bits(30, rng)), 11)
        with pytest.raises(ValueError):  # an empty output still needs m - 1 seed bits
            toeplitz_extract(raw, ToeplitzSeed(random_bits(10, rng)), 0)

    def test_rows_at_block_boundaries_match_definition(self):
        # several input and output blocks, neither m nor ell a block multiple;
        # a few draws, since one wrong row matches by chance half the time
        rng = np.random.default_rng(16)
        m, ell = 2 * _BLOCK + 37, _BLOCK + 5
        boundaries = [i + d for i in range(_BLOCK, ell, _BLOCK) for d in (-1, 0, 1)]
        for _ in range(8):
            raw = random_bits(m, rng)
            seed = ToeplitzSeed(random_bits(m + ell - 1, rng))
            out = toeplitz_extract(raw, seed, ell).bits
            for i in [0, ell - 1, *boundaries, *rng.integers(0, ell, 16)]:
                row = seed.bits.bits[i : i + m][::-1]  # row[j] = seed[i - j + m - 1]
                assert out[i] == np.count_nonzero(row & raw.bits) & 1, f"row {i}"

    @pytest.mark.parametrize("flush", [None, 2])
    def test_shared_diagonals_match_definition(self, monkeypatch, flush):
        # three output blocks against five input blocks (m not a block multiple),
        # so every diagonal but the outermost serves several block pairs; with
        # flush = 2 the sums are also rounded partway through the input
        if flush:
            monkeypatch.setattr(postprocess, "_FLUSH", flush)
        rng = np.random.default_rng(18)
        m, ell = 4 * _BLOCK + 123, 2 * _BLOCK + 9
        raw = random_bits(m, rng)
        seed = ToeplitzSeed(random_bits(m + ell - 1, rng))
        out = toeplitz_extract(raw, seed, ell).bits
        edges = [i + d for i in range(0, ell + 1, _BLOCK) for d in (-1, 0, 1) if 0 <= i + d < ell]
        for i in [*edges, *rng.integers(0, ell, 24)]:
            row = seed.bits.bits[i : i + m][::-1]  # row[j] = seed[i - j + m - 1]
            assert out[i] == np.count_nonzero(row & raw.bits) & 1, f"row {i}"

    def test_traced_memory_at_paper_shape(self):
        # the input spectra, seed spectra and sums stay O(B + ell): no more than
        # the 5.6 MiB the per-pair loop peaked at
        rng = np.random.default_rng(19)
        m, ell = 1 << 20, 1 << 17
        raw = random_bits(m, rng)
        seed = ToeplitzSeed(random_bits(m + ell - 1, rng))
        assert traced_peak(lambda: toeplitz_extract(raw, seed, ell)) <= 5.6 * 2**20

    def test_inexact_convolution_raises(self, monkeypatch):
        rng = np.random.default_rng(17)
        raw = random_bits(50, rng)
        seed = ToeplitzSeed(random_bits(50 + 20 - 1, rng))
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: irfft(*a, **k) + 0.3)
        with pytest.raises(ArithmeticError):
            toeplitz_extract(raw, seed, 20)

    def test_monobit_balance_at_scale(self):
        rng = np.random.default_rng(6)
        m, ell = 150_000, 100_000
        raw = random_bits(m, rng)
        seed = ToeplitzSeed(random_bits(m + ell - 1, rng))
        out = toeplitz_extract(raw, seed, ell)
        ones = int(out.bits.sum())
        assert abs(ones / ell - 0.5) <= 4.0 / (2.0 * np.sqrt(ell))


class TestVerifyTag:
    @pytest.mark.parametrize("halves", [(-1, 0), (0, -1), (2**128, 0), (0, 2**128)])
    def test_key_halves_outside_128_bits_rejected(self, halves):
        with pytest.raises(ValueError):
            TagKey(*halves)
        with pytest.raises(ValueError):
            TagKey(point=halves[0], mixer=halves[1])

    def test_key_is_an_immutable_pair(self):
        v = (5 << 128) | 9
        key = TagKey.from_bits(BitString([(v >> (255 - i)) & 1 for i in range(256)]))
        assert key == TagKey(5, 9) == TagKey(point=5, mixer=9) and key != TagKey(9, 5)
        assert (key.point, key.mixer) == (5, 9) and hash(key) == hash(TagKey(5, 9))
        with pytest.raises(AttributeError):
            key.point = 1
        with pytest.raises(ValueError):
            TagKey.from_bits(BitString([0] * 255))

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        key = TagKey.from_bits(random_bits(256, rng))
        msg = random_bits(1000, rng)
        assert verify_tag(msg, key) == verify_tag(msg, key)

    def test_empty_message_defined(self):
        rng = np.random.default_rng(8)
        key = TagKey.from_bits(random_bits(256, rng))
        t = verify_tag(BitString([]), key)
        assert 0 <= t < 2**64
        assert t == verify_tag(BitString([]), key)

    def test_tag_is_64_bits(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            key = TagKey.from_bits(random_bits(256, rng))
            t = verify_tag(random_bits(int(rng.integers(0, 500)), rng), key)
            assert 0 <= t < 2**64

    def test_distinct_messages_usually_differ(self):
        rng = np.random.default_rng(10)
        key = TagKey.from_bits(random_bits(256, rng))
        msgs = [random_bits(128, rng) for _ in range(50)]
        tags = {verify_tag(m, key) for m in msgs}
        assert len(tags) == 50

    def test_length_extension_blocked(self):
        # zero-prefixed messages must not collide with their suffix
        rng = np.random.default_rng(11)
        key = TagKey.from_bits(random_bits(256, rng))
        m = random_bits(128, rng)
        prefixed = BitString(np.concatenate([np.zeros(128, dtype=np.uint8), m.bits]))
        assert verify_tag(m, key) != verify_tag(prefixed, key)

    def test_collision_rate_monte_carlo(self):
        # two fixed distinct 1-kbit messages over sampled keys; the analytic
        # bound makes even one collision here overwhelmingly unlikely
        rng = np.random.default_rng(12)
        m1 = random_bits(1000, rng)
        m2 = random_bits(1000, rng)
        assert m1 != m2
        trials = 10_000
        collisions = 0
        for _ in range(trials):
            key = TagKey.from_bits(random_bits(256, rng))
            if verify_tag(m1, key) == verify_tag(m2, key):
                collisions += 1
        assert collisions <= 1
        assert trials * tag_collision_bound(1000) < 1e-10

    def test_collision_bound_is_within_the_tag_budget(self):
        # both certificates charge the tag EPS_EC of the soundness budget
        for bits in (64, 10**6, 2**61):
            assert tag_collision_bound(bits) <= EPS_EC

    def test_mul_matrix_matches_bitwise(self):
        rng = np.random.default_rng(13)
        for y in (0, 1, 2**127, *(int.from_bytes(rng.bytes(16), "big") for _ in range(20))):
            table = _mul_matrix(y)
            for _ in range(5):
                x = int.from_bytes(rng.bytes(16), "big")
                packed = np.frombuffer(x.to_bytes(16, "big"), dtype=np.uint8)[None]
                assert int.from_bytes(_times(packed, table).tobytes(), "big") == gf128_mul_bitwise(x, y)

    @pytest.mark.parametrize("k", [1, 2, 256])
    def test_table_product_of_lanes_matches_bitwise(self, k):
        # byte values of 16 and up wrap if the index product stays in uint8,
        # and each lane's 16 bytes span both uint64 halves of a table entry
        rng = np.random.default_rng(21 + k)
        y = int.from_bytes(rng.bytes(16), "big")
        packed = rng.integers(0, 256, (k, 16), dtype=np.uint8)
        got = _times(packed, _mul_matrix(y))
        assert got.shape == (k, 16)
        for lane, product in zip(packed, got):
            x = int.from_bytes(lane.tobytes(), "big")
            assert int.from_bytes(product.tobytes(), "big") == gf128_mul_bitwise(x, y)

    def test_windowed_product_matches_bitwise(self):
        rng = np.random.default_rng(16)
        edges = (0, 1, 2, 15, 16, 2**127, 2**128 - 1)
        pairs = [(x, y) for x in edges for y in edges]
        pairs += [tuple(int.from_bytes(rng.bytes(16), "big") for _ in range(2)) for _ in range(500)]
        for x, y in pairs:
            assert _gf128_mul(x, y) == gf128_mul_bitwise(x, y), (x, y)

    @pytest.mark.parametrize(
        "bits",
        # block edges, then around k blocks for k up to the 256 lanes of the
        # paper-sized block: with the padding and the appended zero block,
        # d = -257, -129, -1 make 2^p - 1, 2^p, 2^p + 1 blocks, which (from 16
        # blocks on) take one, no and all but one leading zero blocks
        [0, 1, 127, 128, 129, *(128 * k + d for k in (8, 32, 256, 2048) for d in (-257, -129, -1, 0, 1)), 1 << 20],
    )
    def test_matches_bitwise_horner(self, bits):
        rng = np.random.default_rng(bits)
        message = random_bits(bits, rng)
        keys = [TagKey(0, 3), TagKey(1, int.from_bytes(rng.bytes(16), "big"))]
        keys += [TagKey.from_bits(random_bits(256, rng)) for _ in range(1 if bits > 2**16 else 3)]
        for key in keys:
            assert verify_tag(message, key) == horner_tag_oracle(message, key), key

    def test_traced_memory_at_paper_shape(self):
        rng = np.random.default_rng(20)
        message = random_bits(1 << 20, rng)
        key = TagKey.from_bits(random_bits(256, rng))
        assert traced_peak(lambda: verify_tag(message, key)) <= 2 * 2**20

    def test_field_properties(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            a = int(rng.integers(1, 2**63))
            b = int(rng.integers(1, 2**63))
            c = int(rng.integers(1, 2**63))
            assert _gf128_mul(a, b) == _gf128_mul(b, a)
            assert _gf128_mul(a, _gf128_mul(b, c)) == _gf128_mul(_gf128_mul(a, b), c)
            assert _gf128_mul(a, b ^ c) == _gf128_mul(a, b) ^ _gf128_mul(a, c)

    def test_oversize_rejected(self):
        rng = np.random.default_rng(15)
        key = TagKey.from_bits(random_bits(256, rng))

        class OversizeBits(BitString):
            def __len__(self):
                return 2**61 + 1

        with pytest.raises(ValueError):
            verify_tag(OversizeBits(np.zeros(1, dtype=np.uint8)), key)


def test_paper_shape_outputs_are_pinned():
    # digests of both outputs at m = 2^20, l = 2^17, where the sampled-row oracle
    # checks only some rows: the FFT block size and the tag's product kernel may
    # change, these bytes may not
    rng = np.random.default_rng(20260420)
    m, ell = 1 << 20, 1 << 17
    raw = random_bits(m, rng)
    seed = ToeplitzSeed(random_bits(m + ell - 1, rng))
    key = TagKey.from_bits(random_bits(256, rng))
    out = toeplitz_extract(raw, seed, ell)
    assert hashlib.sha256(out.bits.tobytes()).hexdigest() == (
        "b74974c7474464db86c643167c15e4ee0bc26a2f39cefeefdc724e6ea49485e8"
    )
    assert verify_tag(raw, key) == 0xBB7843F57F43C521
