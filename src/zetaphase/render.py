"""Grayscale density images of the per-unit-interval zero counts.

Wrapping F(n) into rows of a fixed width makes the slow drift of the zero
density interfere with the row period and produces visible Moire waves.
The beat width of that interference against the ln 2 lattice is the
bracketed constant scale * 2 pi / ln 2.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .zeros import UnitIntervalCounts

_SHADE_STEP = 60


@dataclass(frozen=True)
class DensityImage:
    width: int
    height: int
    pixels: bytes

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be positive")
        if len(self.pixels) != self.width * self.height:
            raise ValueError("pixel buffer does not match width * height")

    def to_pgm_bytes(self) -> bytes:
        return b"P5\n%d %d\n255\n" % (self.width, self.height) + self.pixels


def render_counts(counts: UnitIntervalCounts, width: int) -> DensityImage:
    """Map n to the cell at row n // width, column n % width.

    Cell value is max(0, 255 - 60 F(n)); cell 0 and cells past n_max stay
    white.  Height is the smallest row count holding n_max.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    height = counts.n_max // width + 1
    buf = np.full(width * height, 255, dtype=np.uint8)
    buf[1:counts.n_max + 1] = np.maximum(0, 255 - _SHADE_STEP * counts.counts)
    return DensityImage(width=width, height=height, pixels=buf.tobytes())


def beat_width(scale: float) -> float:
    """Moire beat constant scale * 2 pi / ln 2."""
    if not scale > 0.0:
        raise ValueError("scale must be positive")
    return scale * 2.0 * math.pi / math.log(2.0)


def write_pgm(image: DensityImage, path: str | os.PathLike) -> None:
    with open(path, "wb") as fh:
        fh.write(image.to_pgm_bytes())


def read_pgm(path: str | os.PathLike) -> DensityImage:
    """Parse a binary P5 graymap written by write_pgm."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary graymap (no P5 magic)")
    parts = data.split(b"\n", 3)
    if len(parts) != 4:
        raise ValueError(f"{path}: truncated graymap header")
    dims = parts[1].split()
    if len(dims) != 2 or parts[2] != b"255":
        raise ValueError(f"{path}: unsupported graymap header")
    width, height = int(dims[0]), int(dims[1])
    pixels = parts[3]
    if len(pixels) != width * height:
        raise ValueError(f"{path}: pixel payload size mismatch")
    return DensityImage(width=width, height=height, pixels=pixels)
