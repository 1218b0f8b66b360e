"""Tests for the count-density graymap and the beat-width constant."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaphase import (
    DensityImage,
    UnitIntervalCounts,
    beat_width,
    read_pgm,
    render_counts,
    write_pgm,
)


def make_counts(n_max, mapping):
    f = np.zeros(n_max, dtype=np.int64)
    for n, c in mapping.items():
        f[n - 1] = c
    return UnitIntervalCounts(f)


class TestDensityImage:
    def test_pixel_length_enforced(self):
        with pytest.raises(ValueError):
            DensityImage(width=3, height=2, pixels=b"\xff" * 5)
        with pytest.raises(ValueError):
            DensityImage(width=0, height=2, pixels=b"")

    def test_pgm_bytes(self):
        img = DensityImage(width=2, height=1, pixels=b"\x00\xff")
        assert img.to_pgm_bytes() == b"P5\n2 1\n255\n\x00\xff"


class TestRenderCounts:
    def test_all_empty_is_white(self):
        img = render_counts(make_counts(100, {}), width=10)
        assert img.width == 10
        assert img.height == 11
        assert img.pixels == b"\xff" * 110

    def test_single_count_cell(self):
        img = render_counts(make_counts(100, {14: 1}), width=100)
        assert img.height == 2
        assert img.pixels[14] == 195
        assert img.pixels.count(b"\xff") == 199

    def test_row_column_mapping(self):
        img = render_counts(make_counts(100, {57: 1}), width=10)
        row, col = divmod(57, 10)
        assert img.pixels[row * 10 + col] == 195

    def test_shade_scale_with_clamp(self):
        counts = make_counts(8, {1: 1, 2: 2, 3: 3, 4: 4, 5: 5})
        img = render_counts(counts, width=8)
        assert img.pixels[1] == 195
        assert img.pixels[2] == 135
        assert img.pixels[3] == 75
        assert img.pixels[4] == 15
        assert img.pixels[5] == 0

    def test_cell_zero_stays_white(self):
        img = render_counts(make_counts(9, {1: 1}), width=10)
        assert img.pixels[0] == 255

    def test_tail_cells_stay_white(self):
        # n_max = 95 at width 10 leaves cells 96..99 past the data.
        img = render_counts(make_counts(95, {95: 2}), width=10)
        assert img.height == 10
        assert img.pixels[95] == 135
        assert img.pixels[96:] == b"\xff" * 4

    def test_height_formula(self):
        assert render_counts(make_counts(100, {}), width=30).height == 4
        assert render_counts(make_counts(90, {}), width=30).height == 4
        assert render_counts(make_counts(89, {}), width=30).height == 3

    def test_last_interval_shaded_when_width_divides_n_max(self):
        img = render_counts(make_counts(90, {90: 1}), width=30)
        assert img.pixels[90] == 195
        assert img.pixels.count(b"\xff") == img.width * img.height - 1

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=60),
           st.integers(min_value=1, max_value=20))
    def test_matches_per_cell_formula(self, f, width):
        img = render_counts(UnitIntervalCounts(np.array(f)), width=width)
        want = bytearray(b"\xff" * (width * (len(f) // width + 1)))
        for n, c in enumerate(f, start=1):
            want[n] = max(0, 255 - 60 * c)
        assert img.pixels == bytes(want)

    def test_width_validation(self):
        with pytest.raises(ValueError):
            render_counts(make_counts(10, {}), width=0)

    def test_deterministic_bytes(self):
        counts = make_counts(500, {14: 1, 111: 2, 499: 3})
        a = render_counts(counts, width=37)
        b = render_counts(counts, width=37)
        assert a.pixels == b.pixels


class TestPgmRoundtrip:
    def test_roundtrip(self, tmp_path):
        img = render_counts(make_counts(64, {7: 1, 33: 2}), width=8)
        path = tmp_path / "density.pgm"
        write_pgm(img, path)
        back = read_pgm(path)
        assert back == img

    def test_missing_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(ValueError, match="bad.pgm"):
            read_pgm(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n2 1")
        with pytest.raises(ValueError):
            read_pgm(path)

    def test_bad_size_line_names_file(self, tmp_path):
        path = tmp_path / "size.pgm"
        path.write_bytes(b"P5\nab cd\n255\n")
        with pytest.raises(ValueError, match="size.pgm: unsupported graymap header"):
            read_pgm(path)

    def test_payload_size_mismatch_names_file(self, tmp_path):
        path = tmp_path / "payload.pgm"
        path.write_bytes(b"P5\n2 2\n255\n\x00\x00\x00")
        with pytest.raises(ValueError, match="payload.pgm: pixel payload size mismatch"):
            read_pgm(path)


class TestBeatWidth:
    def test_reference_scale(self):
        assert beat_width(1.0) == pytest.approx(9.0647, abs=1e-4)

    def test_thousand_scale_bracket(self):
        assert 9064.0 < beat_width(1000.0) < 9065.0

    def test_inverse_scale_is_unit(self):
        assert beat_width(math.log(2.0) / (2.0 * math.pi)) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_domain(self):
        for scale in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                beat_width(scale)


class TestCensusImage:
    def test_landmark_pixels(self, census_counts):
        img = render_counts(census_counts, width=4000)
        assert img.width == 4000
        assert img.height == 2
        assert img.pixels[14] == 195
        assert img.pixels[111] == 135
        # 5826 sits in row 1 at column 1826.
        assert img.pixels[5826] == 75
        assert img.pixels[0] == 255

    def test_stable_bytes(self, census_counts):
        a = render_counts(census_counts, width=4000).to_pgm_bytes()
        b = render_counts(census_counts, width=4000).to_pgm_bytes()
        assert a == b
