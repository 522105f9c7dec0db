"""CHSH-based device-independent QKD: link simulator and key-rate calculators."""

from .eat import (
    HonestModel,
    asymptotic_rate_nosift,
    asymptotic_rate_sifted,
    key_length_eat,
)
from .mathcore import binomial_tail, chsh_to_winprob
from .protocol import ProtocolParams, behavior_from_state, build_acceptance_set
from .quantum import NoiseParams, build_heralded_state, fidelity_from_visibilities
from .renyi import key_length_renyi

__version__ = "0.1.0"

__all__ = [
    "HonestModel",
    "NoiseParams",
    "ProtocolParams",
    "asymptotic_rate_nosift",
    "asymptotic_rate_sifted",
    "behavior_from_state",
    "binomial_tail",
    "build_acceptance_set",
    "build_heralded_state",
    "chsh_to_winprob",
    "fidelity_from_visibilities",
    "key_length_eat",
    "key_length_renyi",
    "__version__",
]
