"""Bit pins: the exact bits of the census ordinates, of hardy_z and of zeta,
and of the unrounded fixed-point logarithm that _ln_fixed rounds.

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

A change of the scan lattice moves the census and [0, 2001] cache
digests alone.  These three commands, run from the repository root, print
each map's loop targets and those two digests, with the same
NPY_DISABLE_CPU_FEATURES values as the CI steps that run the pins:

    PYTHONPATH=src python tests/test_bit_pins.py
    NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" PYTHONPATH=src python tests/test_bit_pins.py
    NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR" PYTHONPATH=src python tests/test_bit_pins.py
"""

import hashlib
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest

from zetaphase import ScanConfig, hardy_z, scan_zeros, write_zero_cache, zeta_critical_line
from zetaphase.special import T_Z_MAX, _ln_wide

PINS = Path(__file__).resolve().parent / "data" / "hardy_z_pins.txt"
CENSUS_1E4_SHA256 = "51268b48fe55ab50b89a0d80ce4acbb5477b361c279c86fde470785a425f8b83"
HARDY_Z_SHA256 = "c0b009cc5a8541c7f9f4159db7b8a9549a3d78cd0a6086dae66aca66d0f79957"
# zeta_critical_line(pinned_heights()) as little-endian complex128 bytes.
ZETA_SHA256 = "46b88a38923def97e6e7c6f9c5b6f8a11ce00210721ed90b5addc19c558c8085"
# str(_ln_wide(m)) for m in pinned_integers(), one per line, as ASCII.  The
# sum is integer arithmetic alone, so one digest holds on every map.
LN_WIDE_SHA256 = "b5f5402744b1ea52d275029f3115215e066f18bdcbc95b87b960b459721d8bdc"
PINNED_LOOPS = ("cos", "sin", "log", "exp", "log1p", "expm1")
_V4, _V3, _BASE = "X86_V4", "X86_V3", "baseline(X86_V2)"
# The [0, 2001] census written as a cache file, which test_zero_finder's
# test_census_bytes_frozen pins.  Each map has its own: the X86_V4 and AVX2
# loops put the ordinates near 696.6261, 1122.4586, 1219.0500 and 1841.4786
# on either side of a rounding to 12 decimals, and the AVX2 and baseline
# loops the one near 1432.0497.
CACHE_2001_SHA256 = "3dde7bd6425646ee449ed9ac220ab812e4a26df97691c4fa2b8ee4b5adb849fc"
# (census, hardy_z, zeta, cache) digests per loop map, its targets in
# PINNED_LOOPS order.
DIGESTS = {
    (_V4,) * 6: (CENSUS_1E4_SHA256, HARDY_Z_SHA256, ZETA_SHA256, CACHE_2001_SHA256),
    (_V3, _V3, _V3, _V3, _BASE, _BASE): (
        "3a7729243fac4a84f3b319dada419f6281b8ad7b30b9aa8b9b64567fdca66bd6",
        "3ca3a66535ed478134f9f90a6879790ee4b94501d9dfcaf341550a2254f8f754",
        "250073929915e11d464d604c262812b0a2edc774642e3b3921d03106fbb00e5f",
        "73573cb4335ce20fc9a7d3998b643456ddb76986bdc3997902b1dce2a7ebde05",
    ),
    (_BASE,) * 6: (
        "870fd8a7c0155a1d4f458dfc3c55606cd84a326e2faae2cde3996db66441f968",
        "5ad3842557ab3973247bffc999183a6b388fd1237c2f9f87ddb671dcc813a817",
        "926be2be77f9aaf955bc3f02c76dcd6c24b6e881ce21a4035838d190f0227709",
        "3bfa75f5ed363288bf195ed1c644d4f01a5b5679019c30dcaaba95de951c1cf7",
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
CENSUS, HARDY_Z, ZETA, CACHE_2001 = DIGESTS.get(LOOP_MAP, (None,) * 4)

pytestmark = pytest.mark.skipif(
    LOOP_MAP not in DIGESTS,
    reason="the pins hold for NumPy's X86_V4, AVX2 and baseline float64 loop maps",
)


def pinned_heights() -> np.ndarray:
    """2,000 heights in [0, T_Z_MAX), one in each of 2,000 equal strata at a golden-ratio offset."""
    k = np.arange(2000.0)
    return (k + k * 0.6180339887498949 % 1.0) * (T_Z_MAX / 2000)


def pinned_integers() -> list[int]:
    """m = 1..10^5, then 20,000 seeded integers of 150 to 400 bits."""
    rng = random.Random(40)
    bits = [rng.randint(150, 400) for _ in range(20000)]
    return [*range(1, 10 ** 5 + 1), *(rng.getrandbits(b) | 1 << b - 1 for b in bits)]


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


def test_ln_wide_sum():
    # _ln_fixed rounds this sum to _FIXED_BITS, which hides most changes in
    # its low bits: rounding u up instead of down moves the sum at 58,937 of
    # these integers and _ln_fixed at 2.
    text = "\n".join(str(_ln_wide(m)) for m in pinned_integers())
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == LN_WIDE_SHA256


def test_zeta_at_stratified_heights():
    zeta = zeta_critical_line(pinned_heights())
    assert hashlib.sha256(np.asarray(zeta, dtype="<c16").tobytes()).hexdigest() == ZETA


if __name__ == "__main__":
    # The loop map, then its census digest and its [0, 2001] cache digest.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "zeros.txt"
        write_zero_cache(scan_zeros(ScanConfig(0.0, 2001.0)), path)
        cache = hashlib.sha256(path.read_bytes()).hexdigest()
    print(LOOP_MAP, sha256(scan_zeros(ScanConfig(0.0, 1e4)).ordinates), cache, sep="\n")
