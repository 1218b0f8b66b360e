"""End-to-end tests of the command line interface, run in process."""

import json

import pytest

from zetaphase.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTheta:
    def test_single_height(self, capsys):
        code, out, err = run_cli(capsys, "theta", "100")
        assert code == 0
        assert out.strip() == "87.972165231787"

    def test_series_order(self, capsys):
        code, out, _ = run_cli(capsys, "theta", "10", "--series-order", "2")
        assert code == 0
        assert out.strip() == "-3.067074400164"


class TestArgCommands:
    def test_arg_zeta_values(self, capsys):
        code, out, _ = run_cli(capsys, "arg-zeta", "1", "4000")
        assert code == 0
        lines = out.strip().splitlines()
        # mpmath gives -0.38234352033977 at n = 4000; |zeta| = 0.048 there
        # magnifies the kernel's error into the 12th decimal.
        assert lines == ["-0.437372012316", "-0.382343520338"]

    def test_arg_zeta_approx(self, capsys):
        code, out, _ = run_cli(capsys, "arg-zeta", "1", "--approx")
        assert code == 0
        assert out.strip() == "-0.423337836994"

    def test_arg_zeta_approx_requires_integer(self, capsys):
        code, _, err = run_cli(capsys, "arg-zeta", "1.5", "--approx")
        assert code == 2
        assert "error:" in err

    def test_arg_gamma(self, capsys):
        code, out, _ = run_cli(capsys, "arg-gamma", "1")
        assert code == 0
        assert out.strip() == "-0.380438567846"

    def test_arg_gamma_approx(self, capsys):
        code, out, _ = run_cli(capsys, "arg-gamma", "1", "--approx")
        assert code == 0
        assert out.strip() == "-0.394472743168"

    def test_arg_zeta_at_zero_is_error(self, capsys):
        code, _, err = run_cli(capsys, "arg-zeta", "14.134725141734694")
        assert code == 2
        assert "error:" in err


class TestZerosCommand:
    def test_scan_to_fifty(self, capsys, tmp_path):
        out_path = tmp_path / "z50.txt"
        code, out, err = run_cli(
            capsys, "zeros", "--max", "50", "--out", str(out_path)
        )
        assert code == 0, err
        body = out_path.read_text()
        ordinate_lines = [
            s for s in body.splitlines() if s and not s.startswith("#")
        ]
        assert len(ordinate_lines) == 10
        assert ordinate_lines[0].startswith("14.1347251")

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        p1 = tmp_path / "a.txt"
        p2 = tmp_path / "b.txt"
        assert run_cli(capsys, "zeros", "--max", "50", "--out", str(p1))[0] == 0
        assert run_cli(capsys, "zeros", "--max", "50", "--out", str(p2))[0] == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_window(self, capsys, tmp_path):
        out_path = tmp_path / "z10.txt"
        code, _, _ = run_cli(capsys, "zeros", "--max", "10", "--out", str(out_path))
        assert code == 0
        ordinate_lines = [
            s
            for s in out_path.read_text().splitlines()
            if s and not s.startswith("#")
        ]
        assert ordinate_lines == []

    def test_bad_window_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "zeros", "--min", "60", "--max", "50",
            "--out", str(tmp_path / "x.txt"),
        )
        assert code == 2
        assert "error:" in err


class TestCountsCommand:
    def test_text_output(self, capsys, census_cache):
        code, out, _ = run_cli(
            capsys, "counts", "--cache", str(census_cache), "--n-max", "300",
        )
        assert code == 0
        rows = dict(
            tuple(map(int, line.split())) for line in out.strip().splitlines()
        )
        assert rows[14] == 1
        assert rows[111] == 2
        assert 13 not in rows

    def test_json_output(self, capsys, census_cache):
        code, out, _ = run_cli(
            capsys, "counts", "--cache", str(census_cache), "--n-max", "20",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        by_n = {row["n"]: row["count"] for row in data}
        assert len(by_n) == 20
        assert by_n[14] == 1
        assert by_n[1] == 0

    def test_missing_cache_is_error(self, capsys):
        code, _, err = run_cli(
            capsys, "counts", "--cache", "/nonexistent/zeros.txt", "--n-max", "20",
        )
        assert code == 2
        assert "/nonexistent/zeros.txt" in err

    def test_zero_n_max_is_error(self, capsys, census_cache):
        code, out, err = run_cli(
            capsys, "counts", "--cache", str(census_cache), "--n-max", "0",
        )
        assert code == 2
        assert out == ""
        assert "n_max must be >= 1" in err


class TestTableCommand:
    def test_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--start", "1", "--end", "3", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)
        assert [row["n"] for row in rows] == [1, 2, 3]
        first = rows[0]
        assert first["true"] == pytest.approx(-0.437372012317, abs=1e-9)
        assert first["approx"] == pytest.approx(-0.423337836994, abs=1e-9)
        assert first["expr"]["pi"] == -7
        assert first["expr"]["const"] == 4
        assert first["expr"]["lnpi"] == 4
        assert first["expr"]["primes"] == [[2, 4]]

    def test_json_values_have_twelve_decimals(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--start", "9990", "--end", "10000", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 11
        for row in rows:
            for key in ("true", "approx"):
                assert row[key] == float(f"{row[key]:.12f}"), (row["n"], key)

    def test_text_contains_expression(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--start", "1", "--end", "1")
        assert code == 0
        assert "(1/(8*pi))*(-7*pi +4 +4*ln(pi) +4*ln(2))" in out


class TestSequencesCommand:
    def test_coeff(self, capsys):
        code, out, _ = run_cli(
            capsys, "sequences", "--kind", "coeff", "--p", "2", "--count", "8"
        )
        assert code == 0
        values = [int(s) for s in out.replace(",", " ").split()]
        assert values == [4, 0, 12, -16, 20, 0, 28, -64]

    def test_ruler(self, capsys):
        code, out, _ = run_cli(
            capsys, "sequences", "--kind", "ruler", "--p", "2", "--count", "8"
        )
        assert code == 0
        values = [int(s) for s in out.replace(",", " ").split()]
        assert values == [2, 3, 2, 4, 2, 3, 2, 5]


class TestEstimateCommand:
    def test_values(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "1", "2", "1000")
        assert code == 0
        assert out.strip().splitlines() == [
            "14.521346953066",
            "20.655740355700",
            "1419.517764572191",
        ]


class TestStaircaseCommand:
    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "staircase", "--max", "15", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        header, rows = lines[0], lines[1:]
        assert header.split(",")[0] == "n"
        assert len(rows) == 15
        first = rows[0].split(",")
        assert int(first[0]) == 1
        assert float(first[1]) == pytest.approx(0.485966, abs=2e-5)

    def test_json_values_have_twelve_decimals(self, capsys):
        code, out, _ = run_cli(capsys, "staircase", "--max", "200", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 200
        for row in rows:
            assert row["s"] == float(f"{row['s']:.12f}"), row["n"]


class TestRenderCommand:
    def test_writes_graymap(self, capsys, census_cache, tmp_path):
        out_path = tmp_path / "density.pgm"
        code, _, err = run_cli(
            capsys, "render", "--cache", str(census_cache), "--n-max", "6500",
            "--width", "4000", "--out", str(out_path),
        )
        assert code == 0, err
        data = out_path.read_bytes()
        assert data.startswith(b"P5\n4000 2\n255\n")
        assert data[14 + 14] == 195  # header is 14 bytes, cell 14 holds F = 1

    def test_missing_cache(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "render", "--cache", "/nonexistent/z.txt",
            "--out", str(tmp_path / "x.pgm"),
        )
        assert code == 2
        assert "error:" in err

    def test_zero_n_max_is_error(self, capsys, census_cache, tmp_path):
        out_path = tmp_path / "x.pgm"
        code, _, err = run_cli(
            capsys, "render", "--cache", str(census_cache), "--n-max", "0",
            "--out", str(out_path),
        )
        assert code == 2
        assert "n_max must be >= 1" in err
        assert not out_path.exists()


class TestVerifyCommand:
    def test_filtered_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--only", "gamma point")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("pass")
        assert "gamma point" in lines[0]

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--only", "point 4000", "--format", "json"
        )
        assert code == 0
        records = json.loads(out)
        assert len(records) == 1
        assert records[0]["passed"] is True

    def test_json_format_with_census_checks(self, capsys, census_cache):
        code, out, _ = run_cli(
            capsys, "verify", "--cache", str(census_cache), "--only", "staircase",
            "--format", "json",
        )
        assert code == 0
        records = json.loads(out)
        assert [r["check"] for r in records] == ["staircase anomaly"]
        assert records[0]["passed"] is True

    def test_corrupted_cache_fails_consistency(self, capsys, census_cache, tmp_path):
        lines = census_cache.read_text().splitlines()
        header = [s for s in lines if s.startswith("#")]
        ordinates = [s for s in lines if not s.startswith("#")]
        del ordinates[2000:2004]
        fixed_header = [
            f"# count: {len(ordinates)}" if s.startswith("# count:") else s
            for s in header
        ]
        bad = tmp_path / "corrupted.txt"
        bad.write_text("\n".join(fixed_header + ordinates) + "\n")

        code, out, _ = run_cli(
            capsys, "verify", "--cache", str(bad), "--only", "count consistency"
        )
        assert code == 1
        assert "FAIL" in out
        assert "count consistency" in out

    def test_empty_census_fails_landmarks(self, capsys, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("# zetaphase zero cache v1\n# range: 0.000000 6501.000000\n# count: 0\n")
        code, out, err = run_cli(
            capsys, "verify", "--cache", str(empty), "--only", "landmarks"
        )
        assert code == 1, err
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("FAIL  census landmarks")
        assert "got first at none" in lines[0]

    def test_intact_cache_passes_consistency(self, capsys, census_cache):
        code, out, _ = run_cli(
            capsys, "verify", "--cache", str(census_cache),
            "--only", "count consistency",
        )
        assert code == 0
        assert "pass" in out
