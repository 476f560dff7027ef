"""Minimal PGM (portable graymap) reader and writer, 8-bit only.

Reads both P2 (ASCII) and P5 (binary) variants with `#` comments in the
header; writes P2. Values are returned raw together with the file's
maxval so the caller controls normalization.
"""
from __future__ import annotations

import os
import re
from pathlib import Path

import numpy as np

from .errors import InputError

# grammar: P2|P5 (sep+ token){3} ws; sep: one whitespace byte or one '#' comment with its newline
# tokens (width, height, maxval) are 1-9 digits, as a 10-digit dimension needs 10**9 pixels;
# a token that could take '#' would split a run of '#' many ways (quadratic time)
_HEADER = re.compile(rb"P[25]" + rb"(?:\s|#[^\n]*\n)+(\d{1,9})" * 3 + rb"\s")


def read_pgm(path: str | os.PathLike) -> tuple[np.ndarray, int]:
    """Read an 8-bit PGM file.

    Returns:
        (raw, maxval): raw is a (height, width) float array of pixel
        values in [0, maxval].

    Raises:
        InputError: on malformed content or unsupported variants.
    """
    try:
        buf = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read image file {path}: {exc}") from exc
    if buf[:2] not in (b"P2", b"P5"):
        raise InputError(f"{path}: not a PGM file (P2/P5), magic {buf[:2]!r}")
    header = _HEADER.match(buf)
    if header is None:
        raise InputError(f"{path}: truncated or malformed PGM header")
    width, height, maxval = (int(token) for token in header.groups())
    if width < 1 or height < 1:
        raise InputError(f"{path}: invalid dimensions {width}x{height}")
    if not 1 <= maxval <= 255:
        raise InputError(f"{path}: only 8-bit PGM supported, maxval {maxval}")
    n = width * height
    if buf[:2] == b"P2":
        fields = buf[header.end():].split()
        if len(fields) != n:
            raise InputError(f"{path}: expected {n} pixels, found {len(fields)}")
        try:
            # object, not bytes: a bytes array pads every field to the longest one
            flat = np.array(fields, dtype=object).astype(np.int64)
        except (ValueError, OverflowError) as exc:  # not an integer, or beyond int64
            raise InputError(f"{path}: non-numeric pixel data") from exc
    else:
        raster = buf[header.end():header.end() + n]
        if len(raster) < n:
            raise InputError(f"{path}: expected {n} raster bytes, found {len(raster)}")
        flat = np.frombuffer(raster, dtype=np.uint8).astype(np.int64)
    if flat.min() < 0 or flat.max() > maxval:
        raise InputError(f"{path}: pixel value outside [0, {maxval}]")
    return flat.reshape(height, width).astype(np.float64), maxval


def write_pgm(path: str | os.PathLike, raw: np.ndarray, maxval: int = 255) -> None:
    """Write a (height, width) array of integers in [0, maxval] as ASCII PGM."""
    raw = np.asarray(raw)
    if raw.ndim != 2:
        raise InputError(f"PGM data must be 2-D, got shape {raw.shape}")
    if not 1 <= maxval <= 255:
        raise InputError(f"only 8-bit PGM supported, maxval {maxval}")
    if not np.isfinite(raw).all():  # before the int cast, which would warn on NaN
        raise InputError("pixel values must be finite")
    pixels = np.rint(raw).astype(np.int64)
    if pixels.min() < 0 or pixels.max() > maxval:
        raise InputError(f"pixel values outside [0, {maxval}]")
    lines = ["P2", f"{raw.shape[1]} {raw.shape[0]}", f"{maxval}"]
    lines += [" ".join(str(v) for v in row) for row in pixels]
    Path(path).write_text("\n".join(lines) + "\n")
