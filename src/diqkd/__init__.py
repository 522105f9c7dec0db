"""CHSH-based device-independent QKD: link simulator and key-rate calculators."""

from .eat import (
    EatBudget,
    HonestModel,
    asymptotic_rate_nosift,
    asymptotic_rate_sifted,
    key_length_eat,
)
from .mathcore import binomial_tail, chsh_to_winprob
from .protocol import ProtocolParams, behavior_from_state, build_acceptance_set, generate_transcript
from .quantum import NoiseParams, build_heralded_state, fidelity_from_visibilities
from .renyi import RenyiConfig, key_length_renyi

__version__ = "0.1.0"

__all__ = [
    "EatBudget",
    "HonestModel",
    "NoiseParams",
    "ProtocolParams",
    "RenyiConfig",
    "asymptotic_rate_nosift",
    "asymptotic_rate_sifted",
    "behavior_from_state",
    "binomial_tail",
    "build_acceptance_set",
    "build_heralded_state",
    "chsh_to_winprob",
    "fidelity_from_visibilities",
    "generate_transcript",
    "key_length_eat",
    "key_length_renyi",
    "__version__",
]
