import math

import pytest

from oscconv import (
    ConfigurationError,
    HardwareParams,
    inference_cost_estimate,
    locking_range_fraction,
    power_per_oscillator,
)

REFERENCE = HardwareParams(i_drv=0.26e-3, vcc=0.8, f=6e9, c_coup=1e-15, n=26)


class TestLockingRangeFraction:
    def test_reference_operating_point(self):
        assert locking_range_fraction(REFERENCE) == pytest.approx(0.116, abs=1e-3)
        assert locking_range_fraction(REFERENCE) == pytest.approx(0.11599726720946929)

    def test_homogeneity(self):
        base = locking_range_fraction(REFERENCE)
        doubled_c = HardwareParams(i_drv=0.26e-3, vcc=0.8, f=6e9, c_coup=2e-15)
        assert locking_range_fraction(doubled_c) == pytest.approx(2 * base)
        doubled_i = HardwareParams(i_drv=0.52e-3, vcc=0.8, f=6e9, c_coup=1e-15)
        assert locking_range_fraction(doubled_i) == pytest.approx(0.5 * base)
        scaled = HardwareParams(i_drv=0.26e-3, vcc=1.6, f=3e9, c_coup=1e-15)
        assert locking_range_fraction(scaled) == pytest.approx(base)

    def test_positive(self):
        assert locking_range_fraction(REFERENCE) > 0


class TestPower:
    def test_reference_operating_point(self):
        assert power_per_oscillator(REFERENCE) == pytest.approx(0.208e-3)

    def test_unit_product(self):
        hw = HardwareParams(i_drv=1e-3, vcc=1.0, f=1e9, c_coup=1e-15)
        assert power_per_oscillator(hw) == 1e-3

    def test_bilinear(self):
        hw = HardwareParams(i_drv=0.52e-3, vcc=1.6, f=6e9, c_coup=1e-15)
        assert power_per_oscillator(hw) == pytest.approx(4 * power_per_oscillator(REFERENCE))


class TestCostEstimate:
    def test_reference_energy(self):
        cost = inference_cost_estimate(REFERENCE, delay_per_conv=6e-9, n_filters=1)
        assert cost.delay == pytest.approx(6e-9)
        assert cost.energy == pytest.approx(3.2448e-11)
        assert cost.energy == pytest.approx(26 * 0.208e-3 * 6e-9)

    def test_linear_in_delay_and_filters(self):
        one = inference_cost_estimate(REFERENCE, 6e-9, 1)
        ten_delay = inference_cost_estimate(REFERENCE, 6e-8, 1)
        assert ten_delay.delay == pytest.approx(10 * one.delay)
        assert ten_delay.energy == pytest.approx(10 * one.energy)
        bank = inference_cost_estimate(REFERENCE, 6e-9, 18)
        assert bank.delay == pytest.approx(18 * one.delay)
        assert bank.energy == pytest.approx(18 * one.energy)

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigurationError):
            inference_cost_estimate(REFERENCE, 0.0, 1)
        with pytest.raises(ConfigurationError):
            inference_cost_estimate(REFERENCE, 6e-9, 0)


class TestParams:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(i_drv=0.0, vcc=0.8, f=6e9, c_coup=1e-15),
            dict(i_drv=0.26e-3, vcc=-0.8, f=6e9, c_coup=1e-15),
            dict(i_drv=0.26e-3, vcc=0.8, f=0.0, c_coup=1e-15),
            dict(i_drv=0.26e-3, vcc=0.8, f=6e9, c_coup=0.0),
            dict(i_drv=0.26e-3, vcc=0.8, f=6e9, c_coup=1e-15, n=0),
        ],
    )
    def test_rejects_nonpositive(self, kw):
        with pytest.raises(ConfigurationError):
            HardwareParams(**kw)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["i_drv", "vcc", "f", "c_coup"])
    def test_rejects_non_finite(self, name, value):
        kw = dict(i_drv=0.26e-3, vcc=0.8, f=6e9, c_coup=1e-15)
        kw[name] = value
        with pytest.raises(ConfigurationError, match=name):
            HardwareParams(**kw)
        with pytest.raises(ConfigurationError, match="delay_per_conv"):
            inference_cost_estimate(REFERENCE, value, 1)

    def test_default_count(self):
        assert REFERENCE.n == 26
