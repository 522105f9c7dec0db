"""How the certified key lengths move between the points the golden files pin.

Each check runs the analytic pipeline at the paper's 11 km point (n =
1.208 M, S = 2.612, Q = 0.0285) with one input moved, and asserts the
direction the length must take, for both methods.  A change to how a
length or its acceptance test is computed that breaks a direction
fails here, even when every pinned point still holds.
"""


import numpy as np
import pytest

from diqkd.cli import RunConfig, run_pipeline
from oracles import renyi_sifted_bound

PAPER = RunConfig(analytic=True, s_obs=2.612, q_obs=0.0285)
RAW = ("eat_raw_length", "renyi_raw_length")


def evaluate(**changes):
    """The paper point's report with changes applied, after checking its h_alpha bound.

    The honest distribution lies in the box, where the divergence term
    vanishes, so the worst case over the box is at most the honest
    point's diluted entropy (1 - gamma_a gamma_b) H(S(omega_exp)).
    """
    r = run_pipeline(PAPER.replace(**changes))
    ga, gb, omega = r.inputs["gamma_a"], r.inputs["gamma_b"], r.inputs["omega_exp"]
    bound = (1.0 - ga * gb) * renyi_sifted_bound(r.renyi_alpha, ga, gb, 8.0 * (omega - 0.5))
    assert r.renyi_h_alpha <= bound, changes
    return r


def raw_lengths(key, values):
    """{name: [raw length per value]} for both methods, with config field key set to each value."""
    reports = [evaluate(**{key: v}) for v in values]
    return {name: [getattr(r, name) for r in reports] for name in RAW}


def increasing(xs):
    return all(b > a for a, b in zip(xs, xs[1:]))


def nondecreasing(xs):
    return all(b >= a for a, b in zip(xs, xs[1:]))


@pytest.mark.parametrize(
    "key, values", [("q_obs", np.linspace(0.032, 0.020, 5)), ("s_obs", np.linspace(2.58, 2.63, 5))]
)
def test_raw_length_falls_with_q_and_rises_with_s(key, values):
    lengths = raw_lengths(key, [float(v) for v in values])
    for name in RAW:
        assert increasing(lengths[name]), (name, key, lengths[name])


def test_wider_completeness_levels_certify_no_less():
    # a larger honest abort level narrows the Renyi box and lowers the threshold's slack
    box = raw_lengths("eps_com_at", [1e-4, 1e-3, 5e-3, 0.02, 0.1])["renyi_raw_length"]
    assert nondecreasing(box) and box[-1] > box[0], box
    slack = raw_lengths("eps_ea_com", [1e-4, 1e-3, 1e-2, 0.05, 0.2])["eat_raw_length"]
    assert nondecreasing(slack) and slack[-1] > slack[0], slack


def test_tighter_soundness_certifies_no_more():
    lengths = raw_lengths("eps_snd", [1e-4, 1e-6, 1e-9, 1e-12, 1e-15])
    for name in RAW:
        assert all(b <= a for a, b in zip(lengths[name], lengths[name][1:])), (name, lengths[name])


def test_rate_rises_with_n_past_the_first_positive_n():
    ns = [300_000, 500_000, 800_000, 1_208_000, 2_000_000, 3_000_000]
    reports = [evaluate(n=n) for n in ns]
    for name in ("eat_length", "renyi_length"):
        rates = [getattr(r, name) / n for r, n in zip(reports, ns)]
        first = next(i for i, rate in enumerate(rates) if rate > 0.0)
        assert first < len(ns) - 1 and increasing(rates[first:]), (name, rates)
