"""Output checks for every timed operation of the benchmark.

Each ``check_*`` function takes plain values (a report dict, sweep rows,
bit arrays) and returns a list of failure messages; an empty list means
the operation's output is correct.  They import nothing from ``diqkd``,
so the reference values here stay independent of the code under test.
"""

from __future__ import annotations

import numpy as np

# Reference values at the paper point (n = 1.208 M, eps_snd = 1e-5).  A
# Renyi rate may fall below its reference (solver error may only shrink a
# certified length) but never rise above it by more than REL_TOL.
RENYI_RATE_REF = 0.11158492510253212
SIM_EAT_RATE_REF = 0.06219128755159127  # at s_eval = model S = 2.6403, any seed
SWEEP_RENYI_RATE_REF = {500_000: 0.038646224140604334, 10_000_000: 0.20303034041476326}
REL_TOL = 1e-9
DRAWS_PER_ROUND = 5

_GF128_POLY = (1 << 128) | 0x87  # x^128 + x^7 + x^2 + x + 1


def _window(name: str, value, center: float, half: float) -> list[str]:
    if value is None or not abs(value - center) <= half:
        return [f"{name} = {value} outside {center} +- {half}"]
    return []


def _not_above(name: str, value, ref: float) -> list[str]:
    if value is None or value > ref * (1.0 + REL_TOL):
        return [f"{name} = {value!r} exceeds the reference {ref!r}"]
    return []


def check_analytic(rep: dict, draws: int) -> list[str]:
    """Acceptance criteria 1, 2 and 4 at the 11 km point, no randomness drawn."""
    out = _window("asymptotic_sifted", rep.get("asymptotic_sifted"), 0.275, 0.002)
    out += _window("renyi_rate", rep.get("renyi_rate"), 0.112, 0.015)
    out += _window("renyi_length", rep.get("renyi_length"), 135_000.0, 18_000.0)
    out += _window("eat_rate", rep.get("eat_rate"), 0.034, 0.015)
    out += _not_above("renyi_rate", rep.get("renyi_rate"), RENYI_RATE_REF)
    if not out and not rep["eat_rate"] < rep["renyi_rate"]:
        out.append("eat_rate is not below renyi_rate")
    if draws != 0:
        out.append(f"analytic run drew {draws} uniforms")
    return out


def check_simulated(rep: dict, draws: int, n: int) -> list[str]:
    """Both acceptance tests pass, 5 draws per round, estimate near the model."""
    out = []
    if rep.get("accepted") is not True or rep.get("accepted_box") is not True:
        out.append(f"accepted = {rep.get('accepted')}, accepted_box = {rep.get('accepted_box')}")
    if draws != DRAWS_PER_ROUND * n or rep.get("rng_draws") != DRAWS_PER_ROUND * n:
        out.append(f"rng draws {draws} (report {rep.get('rng_draws')}) != {DRAWS_PER_ROUND * n}")
    s_hat, s_model, s_err = rep.get("s_hat"), rep.get("s_model"), rep.get("s_err")
    if None in (s_hat, s_model, s_err) or not abs(s_hat - s_model) <= 5.0 * s_err:
        out.append(f"s_hat = {s_hat} not within 5 s_err = {s_err} of s_model = {s_model}")
    rate = rep.get("eat_rate")
    if rate is None or not abs(rate - SIM_EAT_RATE_REF) <= REL_TOL * SIM_EAT_RATE_REF:
        out.append(f"eat_rate = {rate!r} differs from {SIM_EAT_RATE_REF!r}")
    return out


def check_sweep(rows: list[dict]) -> list[str]:
    """One row per grid point; no rate above the asymptote or its Renyi reference."""
    out = []
    if [r.get("n") for r in rows] != sorted(SWEEP_RENYI_RATE_REF):
        out.append(f"grid points {[r.get('n') for r in rows]}")
        return out
    for r in rows:
        for key in ("rate_eat", "rate_renyi"):
            if not 0.0 <= r[key] <= r["rate_asym"]:
                out.append(f"n = {r['n']}: {key} = {r[key]} not in [0, rate_asym = {r['rate_asym']}]")
        out += _not_above(f"n = {r['n']}: rate_renyi", r["rate_renyi"], SWEEP_RENYI_RATE_REF[r["n"]])
    return out


def check_extract(bits: np.ndarray, tag: int, ref_bits: np.ndarray, ref_tag: int) -> list[str]:
    """Extracted bits and tag equal the references built by ``extract_reference``."""
    out = []
    if bits.shape != ref_bits.shape or not np.array_equal(bits, ref_bits):
        wrong = np.flatnonzero(bits != ref_bits) if bits.shape == ref_bits.shape else "shape"
        out.append(f"extracted bits differ from the reference at {wrong}")
    if tag != ref_tag:
        out.append(f"tag {tag:#x} != reference {ref_tag:#x}")
    return out


def toeplitz_reference(raw: np.ndarray, seed: np.ndarray, ell: int, samples: np.ndarray, block: int = 1 << 14) -> np.ndarray:
    """T raw over GF(2) with T[i, j] = seed[i - j + m - 1], by blockwise FFT convolution.

    Output bits are computed ``block`` at a time, each as a sum over input
    blocks of short convolutions, so the reference's memory (a few arrays
    of 2 ``block`` floats) stays far below the extractor's.  Each partial
    count is below 2^53, so float rounding is exact once every entry lies
    within 1/4 of an integer, which is checked.  The rows at ``samples``
    are also recomputed from the definition, one by one.
    """
    m = raw.size
    size = 2 * block  # no circular wrap reaches the window kept below
    out = np.empty(ell, dtype=np.uint8)
    for i0 in range(0, ell, block):
        b = min(block, ell - i0)
        counts = np.zeros(b, dtype=np.int64)
        for j0 in range(0, m, block):
            width = min(block, m - j0)
            base = i0 + m - j0 - width  # seed index of out bit i0 against raw bit j0 + width - 1
            part = np.fft.irfft(np.fft.rfft(seed[base : base + b + width - 1], size) * np.fft.rfft(raw[j0 : j0 + width], size), size)
            window = part[width - 1 : width - 1 + b]
            rounded = np.rint(window)
            if np.abs(window - rounded).max() >= 0.25:
                raise ValueError("FFT convolution too inexact for an exact GF(2) reference")
            counts += rounded.astype(np.int64)
        out[i0 : i0 + b] = counts & 1
    for i in samples:
        row = seed[i : i + m][::-1]  # row[j] = seed[i - j + m - 1]
        if int(np.count_nonzero(row & raw)) & 1 != out[i]:
            raise ValueError(f"FFT reference disagrees with the definition at bit {i}")
    return out


def _clmul_reduce(x: int, y: int) -> int:
    """Carry-less product of two field elements, then reduction mod the GCM polynomial."""
    prod = 0
    while y:
        low = y & -y
        prod ^= x << (low.bit_length() - 1)
        y ^= low
    for bit in range(prod.bit_length() - 1, 127, -1):
        if prod >> bit & 1:
            prod ^= _GF128_POLY << (bit - 128)
    return prod


def tag_reference(message: np.ndarray, point: int, mixer: int) -> int:
    """64-bit tag by its definition: Horner over GF(2^128) seeded at 1, then mixed.

    The message gets a single 1 bit and zeros up to a multiple of 128
    bits, read as big-endian 128-bit blocks.
    """
    pad = np.zeros(1 + (-message.size - 1) % 128, dtype=np.uint8)
    pad[0] = 1
    data = np.packbits(np.concatenate([message.astype(np.uint8, copy=False), pad])).tobytes()
    acc = 1
    for i in range(0, len(data), 16):
        acc = _clmul_reduce(acc ^ int.from_bytes(data[i : i + 16], "big"), point)
    return _clmul_reduce(acc, mixer) & ((1 << 64) - 1)
