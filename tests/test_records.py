"""The records of the package are validated NamedTuples: what a frozen dataclass promised still holds.

Each check runs in the record's __new__, so it runs on every construction
path the package uses; namedtuple's own _replace builds through
tuple.__new__ and skips it, so no code path calls that.
"""

import numpy as np
import pytest

from diqkd import cli, eat, link, protocol, quantum, renyi, tables

PARAMS = protocol.ProtocolParams(
    n=1000, gamma_a=0.26, gamma_b=0.13, omega_exp=0.8265, delta=0.0, box_lo=(0, 0, 0), box_hi=(1000,) * 3
)


def _instances():
    """One instance of each record, by name."""
    report = cli.run_pipeline(cli.RunConfig(n=10_000, method="eat"))
    rows = protocol.simulate_rounds(protocol.behavior_from_state(quantum.build_heralded_state(quantum.NoiseParams())), PARAMS)
    return {
        "RunConfig": report.config,
        "KeyRateReport": report,
        "DistanceCalibration": tables.load_distance_table()[0],
        "RenyiResult": renyi.key_length_renyi([PARAMS], 1e-5, [0.0], alpha=1.5)[0],
        "EatResult": eat.key_length_eat(PARAMS, 1e-5, 0.0),
        "EstimateResult": protocol.estimate(rows),
        "LinkBudget": link.LinkBudget(),
        "TimingModel": link.TimingModel(),
        "ProtocolParams": PARAMS,
        "HonestModel": eat.HonestModel.from_chsh(2.6, 0.03, 0.26, 0.13),
        "BlochVector": quantum.Z_AXIS,
        "NoiseParams": quantum.NoiseParams(),
    }


def test_every_record_is_immutable():
    records = _instances()
    assert len(records) == 12
    for name, record in records.items():
        assert type(record).__name__ == name
        assert isinstance(record, tuple), name
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], record[0])
    with pytest.raises(AttributeError):
        records["RunConfig"].nn = 5  # a mistyped field is no new attribute either


# A record with one bad field, built through its constructor.
BAD_INPUTS = {
    "RunConfig": lambda: cli.RunConfig(method="bb84"),
    "LinkBudget": lambda: link.LinkBudget(collection=1.5),
    "TimingModel": lambda: link.TimingModel(duty_cycle=0.0),
    "ProtocolParams": lambda: protocol.ProtocolParams(**{**PARAMS._asdict(), "box_hi": (1000, 1000, 1001)}),
    "HonestModel": lambda: eat.HonestModel(0.7, 0.03, 0.26, 0.13),
    "BlochVector": lambda: quantum.BlochVector(1.0, 1.0, 0.0),
    "NoiseParams": lambda: quantum.NoiseParams(white_noise=-0.1),
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_constructor_rejects_bad_input(name):
    with pytest.raises(ValueError):
        BAD_INPUTS[name]()


def test_positional_and_default_fields_are_checked_too():
    with pytest.raises(ValueError):
        link.LinkBudget(1.5)
    with pytest.raises(ValueError):
        quantum.BlochVector(0.0, 0.0, 2.0)
    assert protocol.ProtocolParams(*PARAMS) == PARAMS


def test_run_config_replace_checks_again():
    config = cli.RunConfig()
    assert config.replace(n=5).n == 5 and config.n == 1_208_000
    for change in ({"n": 0}, {"method": "bb84"}, {"sweep_q_grid": (2.0,)}, {"renyi_alpha": 3.0}):
        with pytest.raises(cli.ConfigError):
            config.replace(**change)
    with pytest.raises(TypeError):
        config.replace(not_a_field=1)


def test_calibrated_link_budget_checks_again(monkeypatch):
    # the distance sweep builds each length's budget, the configured one with the row's length and
    # measured transmission, by the LinkBudget constructor, so a calibrated row out of range fails there
    row = tables.load_distance_table()[0]
    (out,) = tables.sweep_rate_vs_distance(cli.RunConfig(qfc=0.5, sweep_lengths=(row.length_km,)))
    budget = link.LinkBudget(qfc=0.5, length_km=row.length_km, measured_arm_transmission=row.fiber_transmission)
    assert out["arm_efficiency"] == link.arm_efficiency(budget)
    monkeypatch.setattr(tables, "load_distance_table", lambda: [row._replace(fiber_transmission=1.5)])
    with pytest.raises(ValueError, match="measured_arm_transmission"):
        tables.sweep_rate_vs_distance(cli.RunConfig())


@pytest.mark.parametrize(
    "call",
    [
        lambda: renyi.h_alpha(PARAMS, np.full((len(PARAMS), 1), 1.1)),
        lambda: renyi.certified_h_alpha(PARAMS, [1.1] * 8),
        lambda: renyi.key_length_renyi(PARAMS, 1e-5, [0.0] * 8),
    ],
    ids=["h_alpha", "certified_h_alpha", "key_length_renyi"],
)
def test_lone_protocol_is_not_taken_for_its_fields(call):
    # as a tuple, a ProtocolParams has 8 items; as many orders or leakages must not make it 8 points
    with pytest.raises(TypeError, match="lone ProtocolParams"):
        call()


def test_run_config_link_defaults_are_the_link_models():
    config = cli.RunConfig()
    for record in (link.LinkBudget(), link.TimingModel()):
        for name, default in record._asdict().items():
            if name != "length_km":  # the run's own default length is the 11 km point
                assert getattr(config, name) == default, name
    assert config.collection == 0.085 and config.measured_arm_transmission is None
    assert type(config.overhead_s) is float
