import math
import re
from importlib import resources

import numpy as np
import pytest

from diqkd import tables
from diqkd.link import (
    LinkBudget,
    TimingModel,
    arm_efficiency,
    event_rate,
    success_probability_spi,
    success_probability_tpi,
)
from diqkd.cli import RunConfig
from diqkd.quantum import fidelity_from_visibilities
from diqkd.tables import error_budget_report, load_distance_table, sweep_rate_vs_distance

TIMING = TimingModel()
TABLE = load_distance_table()


class TestArmEfficiency:
    def test_zero_component_kills_link(self):
        b = LinkBudget(collection=0.0, length_km=11)
        assert arm_efficiency(b) == 0.0

    def test_component_product_at_zero_length(self):
        b = LinkBudget(length_km=0.0)
        assert arm_efficiency(b) == pytest.approx(0.011170, abs=5e-7)

    def test_measured_override_at_11km(self):
        b = LinkBudget(length_km=11.0, measured_arm_transmission=0.683)
        eff = arm_efficiency(b)
        assert eff == pytest.approx(0.00763, abs=5e-6)
        # analytic-product vs table-total gap is ~6%
        assert abs(eff - 0.0072) / 0.0072 < 0.06

    def test_monotone_decreasing_in_length(self):
        effs = [arm_efficiency(LinkBudget(length_km=l)) for l in (0, 10, 50, 100, 200)]
        assert all(b < a for a, b in zip(effs, effs[1:]))
        assert all(0.0 <= e <= 1.0 for e in effs)

    def test_table_totals_within_10_percent(self):
        # the distance command's budgets, built from the shipped calibration
        # (0.32 dB/km default, measured per-length fiber transmissions taking precedence)
        for row, out in zip(TABLE, sweep_rate_vs_distance(RunConfig()), strict=True):
            eff = out["arm_efficiency"]
            rel = abs(eff - row.total_arm_eff) / row.total_arm_eff
            limit = 0.15 if row.length_km == 11 else 0.10
            assert rel < limit, f"L={row.length_km}: {eff} vs {row.total_arm_eff}"


class TestSuccessProbability:
    def test_zeros(self):
        assert success_probability_spi(0, 0) == 0.0
        assert success_probability_spi(0.0, 0.5) == 0.0

    def test_both_arms_at_one_half(self):
        assert success_probability_spi(0.5, 1.0) == 1.0

    def test_paper_point(self):
        p = success_probability_spi(0.022, 0.0072)
        assert p == pytest.approx(3.168e-4, rel=1e-9)

    def test_overflow_flagged(self):
        with pytest.raises(ValueError):
            success_probability_spi(1.0, 0.6)  # two arms at 0.6 each sum past 1
        with pytest.raises(ValueError):
            success_probability_spi(1.5, 0.1)
        with pytest.raises(ValueError):
            success_probability_tpi(-0.1)

    def test_tpi(self):
        assert success_probability_tpi(1.0) == 0.5
        assert success_probability_tpi(0.0072) == pytest.approx(2.592e-5, rel=1e-9)

    def test_spi_tpi_ratio(self):
        spi = success_probability_spi(0.022, 0.0072)
        tpi = success_probability_tpi(0.0072)
        assert spi / tpi == pytest.approx(2 * 0.022 / (0.5 * 0.0072), rel=1e-9)
        assert spi / tpi == pytest.approx(12.22, abs=0.01)
        # at 100 km the linear-vs-quadratic scaling is worth >100x
        eta100 = 0.00023
        ratio100 = success_probability_spi(0.022, eta100) / success_probability_tpi(eta100)
        assert ratio100 > 100.0


class TestEventRate:
    def test_zero_probability(self):
        assert event_rate(0.0, TIMING, 11.0) == 0.0

    def test_paper_rate_at_11km(self):
        p = success_probability_spi(0.022, 0.0072)
        r = event_rate(p, TIMING, 11.0)
        assert r == pytest.approx(0.709, abs=2e-3)
        assert abs(r - 0.72) / 0.72 < 0.05

    def test_monotone_in_length(self):
        rates = [event_rate(1e-4, TIMING, l) for l in (0, 11, 50, 100)]
        assert all(b < a for a, b in zip(rates, rates[1:]))

    def test_slope_ratio_spi_tpi(self):
        # success-probability slopes vs distance: SPI halves the attenuation
        # exponent, so the fitted log-slope ratio is 1/2.  The per-trial
        # latency factor is common to both schemes and kept out of the fit.
        lengths = np.linspace(11.0, 100.0, 24)
        alpha = 0.022
        spi, tpi = [], []
        for l in lengths:
            eta = arm_efficiency(LinkBudget(length_km=l))
            spi.append(success_probability_spi(alpha, eta))
            tpi.append(success_probability_tpi(eta))
        s_spi = np.polyfit(lengths, np.log10(spi), 1)[0]
        s_tpi = np.polyfit(lengths, np.log10(tpi), 1)[0]
        assert s_spi / s_tpi == pytest.approx(0.5, abs=0.02)


class TestCalibrationData:
    def test_distance_rows_are_the_file_text_by_field_name(self):
        # read apart from parse_flat: every distance.<length>.<field> line of the file
        text = resources.files("diqkd.data").joinpath("distances.cfg").read_text(encoding="utf-8")
        raw = {}
        for ell, name, value in re.findall(r"^distance\.(\d+)\.(\w+) = (\S+)$", text, re.M):
            raw.setdefault(float(ell), {})[name] = value
        assert [r.length_km for r in TABLE] == list(raw)
        for row in TABLE:
            for name, value in row._asdict().items():
                if name == "length_km":
                    continue
                if name == "s_obs" and row.length_km != 11.0:
                    assert value is None and name not in raw[row.length_km]
                    continue
                kind = int if name == "n_trials" else float
                assert type(value) is kind and value == kind(raw[row.length_km][name]), (row.length_km, name)

    def test_distance_row_missing_a_field_raises(self, monkeypatch):
        read = tables._read_bundle
        monkeypatch.setattr(tables, "_read_bundle", lambda name: {k: v for k, v in read(name).items() if k != "distance.20.qber"})
        with pytest.raises(KeyError, match="distance.20.qber"):
            load_distance_table()

    def test_distance_table_shape(self):
        assert [r.length_km for r in TABLE] == [11.0, 20.0, 50.0, 70.0, 100.0]
        assert TABLE[0].s_obs == 2.612
        assert all(r.s_obs is None for r in TABLE[1:])
        for r in TABLE:
            assert 0.0 < r.qber < 0.5
            assert 2.0 < r.s_pvalue < 2 * math.sqrt(2)

    def test_fidelity_consistency(self):
        # shipped (v_zz, v_xx) reproduce the fidelity anchors via the
        # visibility combination, within the +-0.01 calibration band
        for r in TABLE:
            assert fidelity_from_visibilities(r.v_zz, r.v_xx) == pytest.approx(r.fidelity, abs=0.01)

    def test_error_budget_sums(self):
        rows = error_budget_report()
        assert [r["length_km"] for r in rows] == [r.length_km for r in TABLE]
        for row in rows:
            assert row["row_sum"] == pytest.approx(row["total"], abs=1e-4)

    def test_error_budget_missing_a_length_raises(self, monkeypatch):
        # the budget is read at the distance table's lengths, not at lengths found among its keys
        read = tables._read_bundle
        monkeypatch.setattr(
            tables, "_read_bundle", lambda name: {k: v for k, v in read(name).items() if not k.startswith("budget.50.")}
        )
        with pytest.raises(KeyError, match="budget.50."):
            error_budget_report()
