"""Exact digital reference for the analog match pipeline.

Dot products, valid-mode convolution/correlation, and the algebraic
identity 2*(F.G) = |F|^2 + |G|^2 - |F-G|^2 that links dot products to
Euclidean distances. These are the ground truth the oscillator readout
is validated against.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import Fragment, _frozen_values
from .errors import ConfigurationError, InputError

# image values per row block of convolve_valid: the block's running sum, its
# tap buffer and the image rows it reads stay in L2
_BLOCK_VALUES = 2**14


@dataclass(frozen=True)
class Image:
    """Row-major grayscale image with values in [-1, +1]."""

    width: int
    height: int
    values: np.ndarray

    def __post_init__(self):
        values = _frozen_values(self.values, (self.width, self.height), "image")
        object.__setattr__(self, "values", values)

    def grid(self) -> np.ndarray:
        return self.values.reshape(self.height, self.width)

    def window(self, row: int, col: int, side: int) -> Fragment:
        """side x side fragment whose top-left pixel is (row, col)."""
        if row < 0 or col < 0 or row + side > self.height or col + side > self.width:
            raise InputError(
                f"window {side}x{side} at ({row}, {col}) exceeds image "
                f"{self.height}x{self.width}"
            )
        return Fragment(side=side, values=self.grid()[row:row + side, col:col + side].ravel())


@dataclass(frozen=True)
class FeatureMap:
    """Row-major map over all valid filter positions.

    For maps produced by the oscillator pipeline, cells whose runs failed
    hold NaN and the failures are listed in errors as (row, col, message).
    """

    width: int
    height: int
    values: np.ndarray
    errors: tuple = ()

    def __post_init__(self):
        values = _frozen_values(self.values, (self.width, self.height), "map", bounded=False)
        object.__setattr__(self, "values", values)

    def grid(self) -> np.ndarray:
        return self.values.reshape(self.height, self.width)


def dot(fragment, filt) -> float:
    """Sum of element-wise products over all side^2 entries."""
    if fragment.side != filt.side:
        raise ConfigurationError(
            f"side mismatch: {fragment.side} vs {filt.side}"
        )
    return float(fragment.values @ filt.values)


def convolve_valid(img: Image, filt, mode: str = "convolution") -> FeatureMap:
    """Valid-mode sliding-window convolution or correlation, stride 1.

    Convolution mode flips the kernel (180-degree rotation); correlation
    mode applies it element-aligned. Correlation is the mode that matches
    the element-wise FSK comparison, so it is the ground truth for DOM
    maps; convolution is the classical feature-map definition.

    The map is built in blocks of whole map rows, as many as fit in
    _BLOCK_VALUES image values (at least one), so that a block's running
    sum, its tap buffer and the image rows it reads stay in cache. A
    block starts at zero and adds one kernel tap at a time, in row-major
    order of the (flipped, in convolution mode) kernel. Tap (i, j) is one
    contiguous run of the flat image, starting i rows down and j columns
    right of the block's top-left pixel, which fills a block as wide as
    the image; the last side - 1 columns of each row wrap around to the
    next row and are dropped. A
    tap of exactly 1.0 adds the run and a tap of exactly -1.0 subtracts
    it (x*1.0 is x, x*-1.0 is -x, and a - x is a + -x); any other tap
    adds the run times the tap. Each cell is thus ((0 + x00*k00) +
    x01*k01) + ..., the textbook sum over the window in the same order,
    and equals it bit for bit.

    Raises:
        InputError: if the filter does not fit inside the image.
        ConfigurationError: on an unknown mode.
    """
    if mode not in ("convolution", "correlation"):
        raise ConfigurationError(f"mode must be 'convolution' or 'correlation', got {mode!r}")
    s = filt.side
    if s > img.width or s > img.height:
        raise InputError(
            f"filter side {s} exceeds image {img.height}x{img.width}"
        )
    kernel = np.asarray(filt.values, dtype=np.float64).reshape(s, s)
    if mode == "convolution":
        kernel = kernel[::-1, ::-1]
    flat, width = img.values, img.width
    h, w = img.height - s + 1, width - s + 1
    rows = min(h, max(1, _BLOCK_VALUES // width))
    taps = [(i * width + j, kernel[i, j]) for i in range(s) for j in range(s)]
    out, wide, tap = np.empty((h, w)), np.empty(rows * width), np.empty(rows * width)
    for top in range(0, h, rows):
        n = min(rows, h - top)
        size, first = (n - 1) * width + w, top * width
        block = wide[:size]
        block.fill(0.0)
        for offset, k in taps:
            x = flat[first + offset:first + offset + size]
            if k == 1.0:
                block += x
            elif k == -1.0:
                block -= x
            else:
                block += np.multiply(x, k, out=tap[:size])
        out[top:top + n] = wide[:n * width].reshape(n, width)[:, :w]
    # freed before FeatureMap copies out, so the copy does not raise the peak
    del wide, tap
    return FeatureMap(width=w, height=h, values=out.ravel())


def distance_identity_check(fragment, filt) -> tuple[float, float]:
    """Both sides of 2*(F.G) = |F|^2 + |G|^2 - |F-G|^2, evaluated independently.

    The left side goes through dot; the right side goes through squared
    norms. Agreement to ~1e-12 relative is an algebraic identity check.
    """
    lhs = 2.0 * dot(fragment, filt)
    f = np.asarray(fragment.values, dtype=np.float64)
    g = np.asarray(filt.values, dtype=np.float64)
    rhs = float(f @ f) + float(g @ g) - float((f - g) @ (f - g))
    return lhs, rhs
