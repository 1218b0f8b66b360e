"""Grayscale density images of the per-unit-interval zero counts.

Wrapping F(n) into rows of a fixed width makes the slow drift of the zero
density interfere with the row period and produces visible Moire waves.
The beat width of that interference against the ln 2 lattice is the
bracketed constant scale * 2 pi / ln 2.
"""

from __future__ import annotations

import math
import operator
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
    if (width := operator.index(width)) < 1:
        raise ValueError("width must be >= 1")
    height = counts.n_max // width + 1
    buf = np.full(width * height, 255, dtype=np.uint8)
    buf[1:counts.n_max + 1] = np.maximum(0, 255 - _SHADE_STEP * counts.counts)
    return DensityImage(width=width, height=height, pixels=buf.tobytes())


def beat_width(scale: float) -> float:
    """Moire beat constant scale * 2 pi / ln 2."""
    if not 0.0 < scale < math.inf:
        raise ValueError("scale must be positive and finite")
    return scale * 2.0 * math.pi / math.log(2.0)


def write_pgm(image: DensityImage, path: str | os.PathLike) -> None:
    with open(path, "wb") as fh:
        fh.write(image.to_pgm_bytes())
