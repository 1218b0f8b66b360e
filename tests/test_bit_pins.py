"""Bit pins: the exact bits of the census ordinates, of hardy_z and of zeta.

The 1e-9 reference census and the 12-decimal CLI digests let a value move
by an ulp unseen; these SHA-256 digests do not.  NumPy's float64 loops for
cos, sin, log, exp, log1p and expm1 can differ in the last bit from one
instruction set to another, so the digests are kept per map of those loops
to the targets NumPy runs them on, and the pins run only on a map that has
digests: the X86_V4 (AVX-512) loops; the map that
NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" leaves, X86_V3
(AVX2) loops for cos, sin, log and exp and baseline ones for log1p and
expm1; and the baseline loops alone, with X86_V3 disabled too.  A
deliberate change of the values updates the digests of every map and
rewrites data/hardy_z_pins.txt, repr(v) per line for v in
hardy_z(pinned_heights()) on the X86_V4 loops.
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
_V4, _V3, _BASE = "X86_V4", "X86_V3", "baseline(X86_V2)"
# (census, hardy_z, zeta) digests per loop map, its targets in PINNED_LOOPS
# order.  The census digest is the same on the two maps without X86_V4.
DIGESTS = {
    (_V4,) * 6: (CENSUS_1E4_SHA256, HARDY_Z_SHA256, ZETA_SHA256),
    (_V3, _V3, _V3, _V3, _BASE, _BASE): (
        "9c7badd3b25718f70a21ec4a1f50a3bf3e2c9a24355f386795f0a0f4a27dc9a7",
        "3ca3a66535ed478134f9f90a6879790ee4b94501d9dfcaf341550a2254f8f754",
        "250073929915e11d464d604c262812b0a2edc774642e3b3921d03106fbb00e5f",
    ),
    (_BASE,) * 6: (
        "9c7badd3b25718f70a21ec4a1f50a3bf3e2c9a24355f386795f0a0f4a27dc9a7",
        "5ad3842557ab3973247bffc999183a6b388fd1237c2f9f87ddb671dcc813a817",
        "926be2be77f9aaf955bc3f02c76dcd6c24b6e881ce21a4035838d190f0227709",
    ),
}


def _float64_loop_targets() -> dict:
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # NumPy before 2.0 cannot say
        return {}
    info = opt_func_info(func_name=f"^({'|'.join(PINNED_LOOPS)})$", signature="float64")
    return {name: loop.get("current") for name, loops in info.items() for loop in loops.values()}


LOOP_MAP = tuple(_float64_loop_targets().get(name) for name in PINNED_LOOPS)
CENSUS, HARDY_Z, ZETA = DIGESTS.get(LOOP_MAP, (None, None, None))

pytestmark = pytest.mark.skipif(
    LOOP_MAP not in DIGESTS,
    reason="the pins hold for NumPy's X86_V4, AVX2 and baseline float64 loop maps",
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
    assert sha256(ordinates) == CENSUS


def test_hardy_z_at_stratified_heights():
    ts = pinned_heights()
    got = hardy_z(ts)
    if sha256(got) != HARDY_Z:
        # The pin file holds the X86_V4 values, which the other maps move
        # by an ulp at some heights.
        pinned = pinned_values()
        differ = np.flatnonzero(got.view(np.int64) != pinned.view(np.int64))
        message = f"{len(differ)} values differ from the X86_V4 pins"
        if differ.size:
            k = int(differ[0])
            message += (f", the first hardy_z({float(ts[k])!r}) = {float(got[k])!r},"
                        f" pinned {float(pinned[k])!r}")
        pytest.fail(message)


def test_zeta_at_stratified_heights():
    zeta = zeta_critical_line(pinned_heights())
    assert hashlib.sha256(np.asarray(zeta, dtype="<c16").tobytes()).hexdigest() == ZETA
