"""Filter banks, fragment normalization, and FSK frequency encoding.

A fragment (image patch) and a filter are compared by loading their
element-wise difference onto the natural frequencies of an oscillator
array: omega_j = omega0 + delta_omega * (F_j - G_j). A perfect match
collapses every detuning to zero; mismatched pixels push oscillators
up to 2*delta_omega away from center.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError

_TOL = 1e-12


def _frozen_values(values, dims: tuple[int, int], what: str, bounded: bool = True) -> np.ndarray:
    """A read-only float64 copy of values, the flat row-major vector of a
    dims[0] x dims[1] grid, with entries in [-1, +1] when bounded."""
    if min(dims) < 1:
        raise ConfigurationError(f"{what} dimensions must be positive, got {dims[0]}x{dims[1]}")
    values, length = np.array(values, dtype=np.float64), dims[0] * dims[1]
    if values.shape != (length,):
        raise ConfigurationError(
            f"{what} values must be a flat length-{length} vector, got shape {values.shape}"
        )
    # the negated comparison also rejects NaN
    if bounded and not (values.min() >= -1.0 - _TOL and values.max() <= 1.0 + _TOL):
        raise ConfigurationError(
            f"{what} values must lie in [-1, +1], got range "
            f"[{values.min():.6g}, {values.max():.6g}]"
        )
    values.setflags(write=False)
    return values


@dataclass(frozen=True)
class Fragment:
    """Flattened side x side image patch, row-major, entries in [-1, +1]."""

    side: int
    values: np.ndarray

    def __post_init__(self):
        if self.side < 1:
            raise ConfigurationError(f"side must be >= 1, got {self.side}")
        values = _frozen_values(self.values, (self.side, self.side), "fragment")
        object.__setattr__(self, "values", values)


def _check_parameters(side: int, theta_deg: float, k: float, phase: float) -> None:
    if side < 1:
        raise ConfigurationError(f"side must be >= 1, got {side}")
    if not 0 <= k < math.inf:
        raise ConfigurationError(f"k must be >= 0 and finite, got {k}")
    for name, value in (("theta_deg", theta_deg), ("phase", phase)):
        if not math.isfinite(value):
            raise ConfigurationError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class GaborFilter:
    """Flattened side x side oriented grating filter with its parameters.

    theta_deg is the grating direction in degrees, k the inverse spatial
    period in cycles per pixel. Binarized filters carry entries in
    {-1, +1}; unbinarized ones carry the raw cosine values.
    """

    side: int
    values: np.ndarray
    theta_deg: float
    k: float
    phase: float = 0.0
    binarized: bool = True

    def __post_init__(self):
        _check_parameters(self.side, self.theta_deg, self.k, self.phase)
        values = _frozen_values(self.values, (self.side, self.side), "filter")
        if self.binarized and not np.isin(values, (-1.0, 1.0)).all():
            raise ConfigurationError("binarized filter entries must be exactly -1 or +1")
        object.__setattr__(self, "values", values)


def normalize_fragment(raw: np.ndarray, g_max: float) -> Fragment:
    """Map side x side grayscale values in [0, g_max] onto [-1, +1].

    value = 2 * raw / g_max - 1, flattened row-major.

    Raises:
        InputError: on out-of-range pixels or a non-square array.
        ConfigurationError: on a g_max that is not positive and finite.
    """
    if not 0 < g_max < math.inf:  # negated, so NaN fails too
        raise ConfigurationError(f"g_max must be positive and finite, got {g_max}")
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
        raise InputError(f"fragment must be a square 2-D array, got shape {raw.shape}")
    if not (raw.min() >= 0 and raw.max() <= g_max):
        raise InputError(
            f"pixel values must lie in [0, {g_max}], got range [{raw.min()}, {raw.max()}]"
        )
    values = 2.0 * raw.ravel() / g_max - 1.0
    return Fragment(side=raw.shape[0], values=values)


def gabor_filter(
    side: int,
    theta_deg: float,
    k: float,
    phase: float = 0.0,
    binarized: bool = True,
) -> GaborFilter:
    """Oriented cosine grating on a centered pixel grid.

    With centered coordinates x, y in {-(side-1)/2, ..., +(side-1)/2},
    raw(i, j) = cos(2*pi*k*(x*cos(theta) + y*sin(theta)) + phase).
    Binarized output maps raw >= 0 to +1 and raw < 0 to -1 (ties at
    exactly 0 break to +1); otherwise the raw cosine values are kept. A k
    and phase whose angle overflows a float raise ConfigurationError.
    """
    # checked before the grid is built: math.cos rejects an infinite angle
    _check_parameters(side, theta_deg, k, phase)
    half = (side - 1) / 2.0
    coords = np.arange(side) - half
    x, y = np.meshgrid(coords, coords, indexing="xy")
    theta = math.radians(theta_deg)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed angle is rejected below
        angle = 2.0 * math.pi * k * (x * math.cos(theta) + y * math.sin(theta)) + phase
    if not np.isfinite(angle).all():  # np.cos would make it NaN, which binarizes to -1
        raise ConfigurationError(f"k={k:g} and phase={phase:g} overflow the grating phase")
    raw = np.cos(angle)
    values = np.where(raw >= 0, 1.0, -1.0).ravel() if binarized else raw.ravel()
    return GaborFilter(
        side=side, values=values, theta_deg=theta_deg, k=k, phase=phase, binarized=binarized
    )


BANK_THETAS_DEG = (0.0, 30.0, 60.0, 90.0, 120.0, 150.0)
BANK_KS = (0.2, 0.35, 0.5)


def default_bank(side: int = 5) -> tuple[GaborFilter, ...]:
    """The bundled 18-filter bank: 6 orientations x 3 spatial frequencies.

    Orientation-major order, frozen: index = theta_index * 3 + k_index
    over theta in {0, 30, 60, 90, 120, 150} degrees and k in
    {0.2, 0.35, 0.5} cycles per pixel, phase 0, binarized.
    """
    return tuple(
        gabor_filter(side, theta, k)
        for theta in BANK_THETAS_DEG
        for k in BANK_KS
    )


def fsk_encode(
    fragment: Fragment,
    filt: GaborFilter,
    omega0: float,
    delta_omega: float,
) -> np.ndarray:
    """Natural-frequency vector omega_j = omega0 + delta_omega * (F_j - G_j).

    Every output lies in [omega0 - 2*delta_omega, omega0 + 2*delta_omega].

    Raises:
        ConfigurationError: on side mismatch or invalid omega0/delta_omega.
    """
    if fragment.side != filt.side:
        raise ConfigurationError(
            f"fragment side {fragment.side} does not match filter side {filt.side}"
        )
    if omega0 <= 0:
        raise ConfigurationError(f"omega0 must be positive, got {omega0}")
    if delta_omega < 0:
        raise ConfigurationError(f"delta_omega must be >= 0, got {delta_omega}")
    return omega0 + delta_omega * (fragment.values - filt.values)


def edge_fragment() -> Fragment:
    """Bundled 5x5 sample patch: a bright oblique bar on a graded background.

    Hand-drawn grayscale values with the look of a natural-image crop;
    used by the examples and the acceptance suite.
    """
    raw = np.array(
        [
            [0.20, 0.35, 0.80, 0.30, 0.15],
            [0.30, 0.75, 0.90, 0.35, 0.20],
            [0.70, 0.95, 0.55, 0.30, 0.25],
            [0.90, 0.60, 0.35, 0.30, 0.20],
            [0.55, 0.40, 0.30, 0.25, 0.15],
        ]
    )
    return normalize_fragment(raw, g_max=1.0)
