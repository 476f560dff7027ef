"""Closed-form hardware analysis for a capacitively coupled oscillator array.

SI units throughout (amperes, volts, hertz, farads, seconds, joules).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError


@dataclass(frozen=True)
class HardwareParams:
    """Electrical operating point of one oscillator array.

    Attributes:
        i_drv: drive current amplitude, amperes.
        vcc: supply voltage, volts.
        f: oscillation frequency, hertz.
        c_coup: coupling capacitance, farads.
        n: oscillator count.
    """

    i_drv: float
    vcc: float
    f: float
    c_coup: float
    n: int = 26

    def __post_init__(self):
        for name, value in vars(self).items():
            if not 0 < value < math.inf:  # also rejects NaN
                raise ConfigurationError(f"{name} must be positive and finite, got {value}")


def locking_range_fraction(hw: HardwareParams) -> float:
    """Relative locking range 2*pi*f*C_coup*Vcc / I_drv (the delta_omega/omega bound)."""
    return 2.0 * math.pi * hw.f * hw.c_coup * hw.vcc / hw.i_drv


def power_per_oscillator(hw: HardwareParams) -> float:
    """Power drawn by one oscillator, I_drv * Vcc, watts."""
    return hw.i_drv * hw.vcc


@dataclass(frozen=True)
class CostEstimate:
    """Array-level inference cost: total delay (s) and energy (J)."""

    delay: float
    energy: float


def inference_cost_estimate(
    hw: HardwareParams, delay_per_conv: float, n_filters: int
) -> CostEstimate:
    """Delay and energy for matching n_filters filters run back to back.

    delay = n_filters * delay_per_conv (filters run sequentially);
    energy = n * power_per_oscillator * delay.
    """
    if not 0 < delay_per_conv < math.inf:
        raise ConfigurationError(f"delay_per_conv must be finite and > 0, got {delay_per_conv}")
    if n_filters < 1:
        raise ConfigurationError(f"n_filters must be >= 1, got {n_filters}")
    delay = n_filters * delay_per_conv
    energy = hw.n * power_per_oscillator(hw) * delay
    return CostEstimate(delay=delay, energy=energy)
