"""Cross-checks of the recorded-vs-canonical corrections data file.

Every canonical value in tests/data/reference_corrections.json must be
reproducible by the implementation, and every recorded value must
actually disagree the way the entry says it does.
"""

import json
import math
import pathlib

import pytest

from zetaphase import (
    approx_arg_gamma,
    approx_arg_zeta,
    approx_error,
    arg_gamma_quarter,
    arg_zeta_principal,
    carrier_gamma,
    symbolic_expression,
)

DATA = json.loads(
    (pathlib.Path(__file__).parent / "data" / "reference_corrections.json").read_text()
)
ENTRIES = {e["id"]: e for e in DATA["entries"]}


def test_all_entries_have_evidence():
    for entry in DATA["entries"]:
        assert entry["evidence"], entry["id"]
        assert "recorded" in entry and "canonical" in entry, entry["id"]


def test_true_phase_rows():
    entry = ENTRIES["true-phase-rows-missing-leading-digits"]
    for n, want in zip((12, 13, 14, 15), entry["canonical"]):
        assert arg_zeta_principal(float(n)) == pytest.approx(want, abs=1e-9)


def test_lnpi_coefficients():
    entry = ENTRIES["symbolic-lnpi-sign-rows-9-11"]
    assert symbolic_expression(9).c_lnpi == entry["canonical"]["row9_lnpi"] == 36
    assert symbolic_expression(11).c_lnpi == entry["canonical"]["row11_lnpi"] == 44
    assert entry["recorded"]["row9_lnpi"] == -36


def test_constant_row_13():
    entry = ENTRIES["symbolic-constant-row-13"]
    assert symbolic_expression(13).c_const == entry["canonical"] == 52
    # With the recorded constant the expression misses by 10/(8 pi).
    e = symbolic_expression(13)
    off = float(e.evaluate()) + (e.c_const - entry["recorded"]) / (8.0 * math.pi)
    assert abs(off - approx_arg_zeta(13)) == pytest.approx(
        10.0 / (8.0 * math.pi), abs=1e-12
    )


def test_closed_form_ten_thousand():
    e = symbolic_expression(10000)
    assert e.c_pi == 81137
    assert float(e.evaluate()) == pytest.approx(approx_arg_zeta(10000), abs=1e-12)


def test_double_intervals(census_counts):
    entry = ENTRIES["double-count-intervals-below-300"]
    doubles = [n for n in range(1, 301) if census_counts.counts[n - 1] == 2]
    assert doubles == entry["canonical"]
    assert doubles != entry["recorded"]


def test_gap_magnitude():
    entry = ENTRIES["gap-magnitude-n-10000"]
    assert approx_error(10000) == pytest.approx(entry["canonical"], rel=1e-12)
    # Printed digits match, magnitude is ten times larger.
    assert float(entry["recorded"]) == pytest.approx(
        10.0 * entry["canonical"], rel=1e-10
    )


def test_gamma_carrier_value():
    entry = ENTRIES["gamma-carrier-slope-value"]
    assert carrier_gamma(1) == pytest.approx(entry["canonical"], abs=1e-14)
    assert abs(carrier_gamma(1) - entry["recorded"]) > 5e-7


def test_gamma_gap_bound():
    gap = abs(approx_arg_gamma(100) - arg_gamma_quarter(100.0))
    canonical_bound = 1.0 / (48.0 * math.pi * 100.0)
    recorded_bound = canonical_bound / math.pi
    assert abs(gap - canonical_bound) < 1e-6
    assert gap > 2.0 * recorded_bound
