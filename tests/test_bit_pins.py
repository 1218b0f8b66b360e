"""Bit pins: the exact bits of the census ordinates, of hardy_z and of zeta.

The 1e-9 reference census and the 12-decimal CLI digests let a value move
by an ulp unseen; these SHA-256 digests do not.  They were frozen with
NumPy's X86_V4 (AVX-512) float64 loops for cos, sin, log, exp, log1p and
expm1, whose results can differ in the last bit from the loops NumPy runs
on other instruction sets, so the pins run only where NumPy reports those
loops.  A deliberate change of the values updates the digests and
rewrites data/hardy_z_pins.txt, repr(v) per line for v in
hardy_z(pinned_heights()).
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from zetaphase import ScanConfig, hardy_z, scan_zeros, zeta_critical_line
from zetaphase.special import T_Z_MAX

PINS = Path(__file__).resolve().parent / "data" / "hardy_z_pins.txt"
CENSUS_1E4_SHA256 = "07b7deff22da1af378230bfb9341bfc7b31e21a18fa52ec52c53fc26554cb0a3"
HARDY_Z_SHA256 = "c0b009cc5a8541c7f9f4159db7b8a9549a3d78cd0a6086dae66aca66d0f79957"
# zeta_critical_line(pinned_heights()) as little-endian complex128 bytes.
ZETA_SHA256 = "46b88a38923def97e6e7c6f9c5b6f8a11ce00210721ed90b5addc19c558c8085"
PINNED_LOOPS = ("cos", "sin", "log", "exp", "log1p", "expm1")


def _float64_loop_targets() -> dict:
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # NumPy before 2.0 cannot say
        return {}
    info = opt_func_info(func_name=f"^({'|'.join(PINNED_LOOPS)})$", signature="float64")
    return {name: loop.get("current") for name, loops in info.items() for loop in loops.values()}


pytestmark = pytest.mark.skipif(
    _float64_loop_targets() != dict.fromkeys(PINNED_LOOPS, "X86_V4"),
    reason="the pins hold for NumPy's X86_V4 float64 loops",
)


def pinned_heights() -> np.ndarray:
    """2,000 heights in [0, T_Z_MAX), one in each of 2,000 equal strata at a golden-ratio offset."""
    k = np.arange(2000.0)
    return (k + k * 0.6180339887498949 % 1.0) * (T_Z_MAX / 2000)


def sha256(values: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()


def pinned_values() -> np.ndarray:
    return np.array([float(s) for s in PINS.read_text().splitlines() if not s.startswith("#")])


def test_pin_file_matches_digest():
    assert sha256(pinned_values()) == HARDY_Z_SHA256


def test_census_ordinates():
    ordinates = scan_zeros(ScanConfig(0.0, 1e4)).ordinates
    assert len(ordinates) == 10142
    assert sha256(ordinates) == CENSUS_1E4_SHA256


def test_hardy_z_at_stratified_heights():
    ts = pinned_heights()
    got = hardy_z(ts)
    if sha256(got) != HARDY_Z_SHA256:
        pinned = pinned_values()
        k = int(np.flatnonzero(got.view(np.int64) != pinned.view(np.int64))[0])
        pytest.fail(f"hardy_z({float(ts[k])!r}) = {float(got[k])!r}, pinned {float(pinned[k])!r}")


def test_zeta_at_stratified_heights():
    zeta = zeta_critical_line(pinned_heights())
    assert hashlib.sha256(np.asarray(zeta, dtype="<c16").tobytes()).hexdigest() == ZETA_SHA256
