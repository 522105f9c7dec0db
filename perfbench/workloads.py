"""The benchmark workloads: inputs, the timed operation, and its output check.

Each workload drives diqkd through its public API.  Only the simulated
pipeline and the extraction inputs depend on the benchmark seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
from diqkd import cli, eat, postprocess, protocol, renyi
from spans import Target

PAPER_POINT = {"analysis.s_obs": "2.612", "analysis.q_obs": "0.0285"}
SWEEP_GRID = sorted(checks.SWEEP_RENYI_RATE_REF)
EXTRACT_M = 1 << 20  # input bits; the paper's block has about 1.2 M
EXTRACT_ELL = 1 << 17  # output bits; the paper certifies about 135 k
EXTRACT_SAMPLES = 256  # output bits recomputed from the matrix definition


def _transcript_bytes(tr) -> int:
    return sum(getattr(tr, col).nbytes for col in ("s", "t", "x", "y", "a", "b", "c"))


# Layer boundaries, wrapped where the callers look the functions up.
TARGETS = [
    Target(cli, "build_heralded_state", "quantum.model"),
    Target(protocol, "behavior_from_state", "quantum.model"),
    Target(protocol, "generate_transcript", "protocol.generate", _transcript_bytes),
    Target(protocol, "sift", "protocol.sift", _transcript_bytes),
    Target(protocol, "test_statistic", "protocol.estimate"),
    Target(protocol, "accept", "protocol.estimate"),
    Target(protocol, "estimate", "protocol.estimate"),
    Target(cli, "build_acceptance_set", "renyi.acceptance_box"),
    Target(eat, "delta_for_completeness", "eat.delta_for_completeness"),
    Target(eat, "leak_ec", "eat.leak_ec"),
    Target(eat, "key_length_eat", "eat.key_length_eat"),
    Target(renyi, "key_length_renyi", "renyi.key_length_renyi"),
    Target(renyi, "h_alpha", "renyi.h_alpha"),
    Target(postprocess, "verify_tag", "postprocess.tag"),
    Target(postprocess, "toeplitz_extract", "postprocess.toeplitz"),
]


@dataclass(frozen=True)
class Workload:
    root: str  # span name of one operation
    op: Callable[[], object]
    check: Callable[[object, int], list[str]]  # (output, rng draws) -> failures
    report: Callable[[object], bytes]  # canonical output bytes
    rates: Callable[[object], dict[str, float]]  # renyi_rate, eat_rate, key_rate


def config_overrides(name: str, seed: int) -> dict[str, str]:
    """load_config overrides: the part of a workload a CLI user would set up."""
    if name == "analytic-11km":
        return {"security.analytic": "true", **PAPER_POINT}
    if name == "simulated-eat-11km":
        return {"security.method": "eat", "seed": str(seed)}
    if name == "sweep-n":
        return dict(PAPER_POINT)
    if name == "extract":
        return {}
    raise ValueError(f"unknown workload {name!r}")


def _pipeline_rates(rep) -> dict[str, float]:
    rates = [r for r in (rep.renyi_rate, rep.eat_rate) if r is not None]
    return {"renyi_rate": rep.renyi_rate or 0.0, "eat_rate": rep.eat_rate or 0.0, "key_rate": sum(rates) / len(rates)}


def _sweep_rates(rows) -> dict[str, float]:
    renyi_rate = sum(r["rate_renyi"] for r in rows) / len(rows)
    eat_rate = sum(r["rate_eat"] for r in rows) / len(rows)
    return {"renyi_rate": renyi_rate, "eat_rate": eat_rate, "key_rate": (renyi_rate + eat_rate) / 2.0}


def _extract(seed: int) -> Workload:
    gen = np.random.default_rng(seed)
    raw_bits = gen.integers(0, 2, EXTRACT_M, dtype=np.uint8)
    seed_bits = gen.integers(0, 2, EXTRACT_M + EXTRACT_ELL - 1, dtype=np.uint8)
    key = postprocess.TagKey.from_bits(postprocess.BitString(gen.integers(0, 2, 256, dtype=np.uint8)))
    samples = np.concatenate([[0, EXTRACT_ELL - 1], gen.choice(np.arange(1, EXTRACT_ELL - 1), EXTRACT_SAMPLES - 2, replace=False)])
    ref_bits = checks.toeplitz_reference(raw_bits, seed_bits, EXTRACT_ELL, samples)
    ref_tag = checks.tag_reference(raw_bits, key.point, key.mixer)
    raw = postprocess.BitString(raw_bits)
    toeplitz_seed = postprocess.ToeplitzSeed(postprocess.BitString(seed_bits))

    def op():
        return postprocess.verify_tag(raw, key), postprocess.toeplitz_extract(raw, toeplitz_seed, EXTRACT_ELL)

    return Workload(
        root="bench.extract",
        op=op,
        check=lambda out, draws: checks.check_extract(out[1].bits, out[0], ref_bits, ref_tag),
        report=lambda out: f"{out[0]:016x} {out[1].to_hex()}".encode(),
        rates=lambda out: {"renyi_rate": 0.0, "eat_rate": 0.0, "key_rate": len(out[1]) / EXTRACT_M},
    )


def prepare(name: str, config: cli.RunConfig, seed: int) -> Workload:
    """The workload's operation on inputs made from the seed (config from config_overrides)."""
    if name == "analytic-11km":
        return Workload(
            root="cli.run_pipeline",
            op=lambda: cli.run_pipeline(config),
            check=lambda rep, draws: checks.check_analytic(json.loads(rep.to_json()), draws),
            report=lambda rep: rep.to_json().encode(),
            rates=_pipeline_rates,
        )
    if name == "simulated-eat-11km":
        return Workload(
            root="cli.run_pipeline",
            op=lambda: cli.run_pipeline(config),
            check=lambda rep, draws: checks.check_simulated(json.loads(rep.to_json()), draws, config.n),
            report=lambda rep: rep.to_json().encode(),
            rates=_pipeline_rates,
        )
    if name == "sweep-n":
        return Workload(
            root="cli.sweep_keyrate_vs_n",
            op=lambda: cli.sweep_keyrate_vs_n(config, SWEEP_GRID),
            check=lambda rows, draws: checks.check_sweep(rows),
            report=lambda rows: json.dumps(rows, sort_keys=True).encode(),
            rates=_sweep_rates,
        )
    if name == "extract":
        return _extract(seed)
    raise ValueError(f"unknown workload {name!r}")
