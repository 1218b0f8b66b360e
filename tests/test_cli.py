"""End-to-end tests of the command line interface, run in process."""

import hashlib
import json

import numpy as np
import pytest
from test_zero_finder import _patch_evaluators, _thirds

from zetaphase import ScanConfig, scan_zeros, verify, write_zero_cache
from zetaphase import zeros as zmod
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

    @pytest.mark.parametrize("t", ["30000", "nan"])
    def test_series_outside_theta_domain_is_error(self, capsys, t):
        # The series takes theta's domain, |t| <= T_THETA_MAX = 2e4, as the
        # exact form does.
        code, out, err = run_cli(capsys, "theta", t, "--series-order", "4")
        assert code == 2 and out == ""
        assert "10 <= t <= 20000" in err


class TestArgCommands:
    def test_arg_zeta_values(self, capsys):
        code, out, _ = run_cli(capsys, "arg-zeta", "1", "4000")
        assert code == 0
        lines = out.strip().splitlines()
        # mpmath gives -0.38234352033977 at n = 4000.
        assert lines == ["-0.437372012316", "-0.382343520340"]

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

    def test_arg_gamma_approx_requires_integer(self, capsys):
        code, out, err = run_cli(capsys, "arg-gamma", "1.5", "--approx")
        assert code == 2 and out == ""
        assert "--approx needs integer heights" in err

    def test_arg_zeta_at_zero_is_error(self, capsys):
        code, _, err = run_cli(capsys, "arg-zeta", "14.134725141734694")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_arg_gamma_non_finite_is_error(self, capsys, t):
        code, out, err = run_cli(capsys, "arg-gamma", t)
        assert code == 2
        assert out == ""
        assert "error:" in err


class TestGoldenBytes:
    # SHA-256 of the output bytes: no value printed to 12 decimals may move.
    @pytest.mark.parametrize("argv, digest", [
        (("table", "--start", "1", "--end", "10000"),
         "ed7796f3d64c23142adf5ae28491a33c09d33708964ee1ecece4978131b6421f"),
        (("table", "--start", "1", "--end", "10000", "--format", "json"),
         "219c2e2ca1da491f30fd802f5134d4a272c235e1f97e3d6dd018827ee157cd4d"),
        (("staircase", "--max", "1009"),
         "85490b40ad6598d39b57d89087ee0430c0fe665e4acb3846d18bcb738bf896ef"),
        (("staircase", "--max", "1009", "--format", "json"),
         "4dc69ca9de45faf650649752a0ad2d153faff72b9bbf7d743c8dab02889a3e82"),
        (("arg-zeta", "1", "4000", "14.5"),
         "8735fa4a8506f65edc1c96b30fcb5d815e0a33e1c5190b7cadaf57038e491176"),
    ], ids=["table-text", "table-json", "staircase-csv", "staircase-json", "arg-zeta"])
    def test_output_digest(self, capsys, argv, digest):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


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

    @pytest.mark.parametrize("earlier", [None, b"an earlier file\n"], ids=["absent", "present"])
    def test_suspect_scan_writes_nothing(self, capsys, monkeypatch, tmp_path, earlier):
        # Z sabotaged on [6000, 6010], whose surplus of zeros keeps 6011-6014
        # suspect too: the cache format cannot carry the suspects, so they go
        # to stderr, --out is left as it was, exit 1.
        out_path = tmp_path / "z.txt"
        if earlier is not None:
            out_path.write_bytes(earlier)
        _patch_evaluators(monkeypatch, _thirds)
        code, out, err = run_cli(
            capsys, "zeros", "--min", "5995", "--max", "6015", "--out", str(out_path),
        )
        assert code == 1 and out == ""
        suspects = ", ".join(str(n) for n in range(6000, 6015))
        assert f"suspect intervals: [{suspects}]" in err
        if earlier is None:
            assert not out_path.exists()
        else:
            assert out_path.read_bytes() == earlier

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

    def test_csv_output(self, capsys, census_cache):
        code, out, _ = run_cli(
            capsys, "counts", "--cache", str(census_cache), "--n-max", "20",
            "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,count" and len(lines) == 21
        assert lines[1] == "1,0" and lines[14] == "14,1"

    def test_missing_cache_is_error(self, capsys):
        code, _, err = run_cli(
            capsys, "counts", "--cache", "/nonexistent/zeros.txt", "--n-max", "20",
        )
        assert code == 2
        assert "/nonexistent/zeros.txt" in err

    @pytest.mark.parametrize("line, message", [("1_4.134725141735", "3: not an ordinate"),
                                               ("14.134725141735é", "3: not ASCII: byte 0xc3")])
    def test_bad_cache_line_is_error(self, capsys, tmp_path, line, message):
        path = tmp_path / "zeros.txt"
        path.write_bytes(f"# zetaphase zero cache v1\n# range: 0 30\n{line}\n".encode())
        code, out, err = run_cli(capsys, "counts", "--cache", str(path), "--n-max", "20")
        assert code == 2
        assert out == ""
        assert f"{path}:{message}" in err

    def test_zero_n_max_is_error(self, capsys, census_cache):
        code, out, err = run_cli(
            capsys, "counts", "--cache", str(census_cache), "--n-max", "0",
        )
        assert code == 2
        assert out == ""
        assert "n_max must be >= 1" in err

    def test_coverage_error_gives_exact_range(self, capsys):
        # The range in the message reads back as the scanned --max.
        code, out, err = run_cli(capsys, "counts", "--max", "1234.0004", "--n-max", "1234")
        assert code == 2 and out == ""
        assert "zero list covers [0, 1234.0004], counts to n_max = 1234 need [1, 1235]" in err


class TestFreshScan:
    # Without --cache, counts and render scan [0, --max] and write no file
    # but render's --out; a scan with suspect intervals is refused.
    @pytest.fixture
    def scan(self, monkeypatch):
        def patch(suspects):
            scanned = []

            def scan_zeros(config):
                scanned.append((config.t_lo, config.t_hi))
                return zmod.ZeroList((14.134725141734694,), config.t_lo, config.t_hi,
                                     suspect_intervals=suspects)
            monkeypatch.setattr(zmod, "scan_zeros", scan_zeros)
            return scanned
        return patch

    def test_one_scan_of_exact_window_per_call(self, capsys, scan, tmp_path):
        # 1234.0004 and 1234 agree to six significant digits; each call scans
        # its own --max, and a rerun scans again.
        scanned = scan(())
        for t_hi in ("1234.0004", "1234", "1234.0004"):
            code, out, _ = run_cli(capsys, "counts", "--max", t_hi, "--n-max", "20")
            assert code == 0 and "14\t1" in out.splitlines()
        code, _, _ = run_cli(capsys, "render", "--max", "200", "--n-max", "20",
                             "--out", str(tmp_path / "image.pgm"))
        assert code == 0
        assert scanned == [(0.0, 1234.0004), (0.0, 1234.0), (0.0, 1234.0004), (0.0, 200.0)]

    def test_writes_nothing_under_home_or_working_directory(self, capsys, monkeypatch,
                                                            tmp_path):
        home, cwd = tmp_path / "home", tmp_path / "cwd"
        home.mkdir()
        cwd.mkdir()
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.chdir(cwd)
        code, out, _ = run_cli(capsys, "counts", "--max", "200", "--n-max", "20")
        assert code == 0 and "14\t1" in out.splitlines()
        image = tmp_path / "image.pgm"
        code, _, _ = run_cli(capsys, "render", "--max", "200", "--n-max", "20",
                             "--out", str(image))
        assert code == 0 and image.exists()
        assert list(home.iterdir()) == [] and list(cwd.iterdir()) == []

    @pytest.mark.parametrize("command", [("counts",), ("render", "--out", "image.pgm")])
    def test_suspect_scan_is_error(self, capsys, monkeypatch, scan, tmp_path, command):
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        scan((100,))
        code, out, err = run_cli(capsys, *command, "--max", "200", "--n-max", "20")
        assert code == 2 and out == ""
        assert "suspect intervals [100]" in err
        assert list(tmp_path.iterdir()) == []


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

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--end", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines() == [
            "n,true,approx,expr",
            "1,-0.437372012316,-0.423337836994,(1/(8*pi))*(-7*pi +4 +4*ln(pi) +4*ln(2))",
            "2,-0.195977582921,-0.192311274140,(1/(8*pi))*(-7*pi +8 +8*ln(pi))",
        ]

    def test_text_contains_expression(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--start", "1", "--end", "1")
        assert code == 0
        assert "(1/(8*pi))*(-7*pi +4 +4*ln(pi) +4*ln(2))" in out

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_empty_range_is_usage_error(self, capsys, fmt):
        code, out, err = run_cli(capsys, "table", "--start", "5", "--end", "3", "--format", fmt)
        assert code == 2 and out == ""
        assert "--end must be >= --start" in err


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

    def test_large_prime(self, capsys):
        code, out, _ = run_cli(
            capsys, "sequences", "--kind", "coeff", "--p", "1000000000039", "--count", "3"
        )
        assert code == 0 and out == "0, 0, 0\n"

    def test_composite_p_is_usage_error(self, capsys):
        # 17592186044423 is the first prime above 2^44.
        for kind, p in (("coeff", "4"), ("ruler", "6"), ("coeff", "1"),
                        ("coeff", "17592186044423"), ("ruler", "17592186044423")):
            code, out, err = run_cli(capsys, "sequences", "--kind", kind, "--p", p)
            assert code == 2, (kind, p)
            assert out == "" and "prime" in err, (kind, p)

    def test_count_below_one_is_usage_error(self, capsys):
        for kind, p, count in (("ruler", "6", "0"), ("coeff", "2", "-3"), ("ruler", "2", "0")):
            code, out, err = run_cli(capsys, "sequences", "--kind", kind, "--p", p,
                                     "--count", count)
            assert code == 2, (kind, p, count)
            assert out == "" and "--count must be >= 1" in err, (kind, p, count)


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


class TestOutFile:
    # --out writes exactly what stdout would have shown, and prints nothing.
    @pytest.mark.parametrize("argv", [
        ("counts", "--n-max", "40"),
        ("counts", "--n-max", "40", "--format", "csv"),
        ("counts", "--n-max", "40", "--format", "json"),
        ("table", "--end", "30"),
        ("table", "--end", "30", "--format", "csv"),
        ("table", "--end", "30", "--format", "json"),
        ("staircase", "--max", "30"),
        ("staircase", "--max", "30", "--format", "json"),
    ])
    def test_out_matches_stdout(self, capsys, census_cache, tmp_path, argv):
        if argv[0] == "counts":
            argv += ("--cache", str(census_cache))
        code, shown, _ = run_cli(capsys, *argv)
        assert code == 0 and shown
        path = tmp_path / "out.txt"
        code, out, err = run_cli(capsys, *argv, "--out", str(path))
        assert code == 0 and out == "" and err == ""
        assert path.read_bytes() == shown.encode("ascii")


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
    def test_landmarks_show_scan_time_to_hundredths(self, census_zeros):
        # The census scan takes well under a second.
        assert "0.30s" in verify.check_census_landmarks(census_zeros, 0.3).detail

    def test_lambert_band_needs_a_thousand_ordinates(self):
        result = verify.check_lambert_band(zmod.ZeroList([14.1, 21.0], 0.0, 30.0))
        assert not result.passed and result.got == "2"

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

    def test_partition_check_with_only(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--only", "beat", "--format", "json")
        assert code == 0, err
        records = json.loads(out)
        assert [r["check"] for r in records] == ["beat and render"]
        assert records[0]["detail"] == "compared with the partitioned scan's ordinates and render"

    def test_cache_above_census_height_passes_beat_and_render(self, capsys, census_zeros,
                                                               tmp_path):
        # The partitioned scan covers [0, 6501]; a cache reaching past it
        # compares on that range.
        path = tmp_path / "zeros.txt"
        write_zero_cache(census_zeros.merge(scan_zeros(ScanConfig(6501.0, 6600.0))), path)
        code, out, err = run_cli(capsys, "verify", "--cache", str(path), "--only", "beat")
        assert code == 0, err
        assert out.startswith("pass  beat and render")

    def test_no_partitioned_scan_without_beat_and_render(self, capsys, monkeypatch):
        def scan_zeros(config):
            raise AssertionError("no check selected needs a scan")
        monkeypatch.setattr(zmod, "scan_zeros", scan_zeros)
        code, out, _ = run_cli(capsys, "verify", "--only", "gamma point")
        assert code == 0
        assert out.startswith("pass  gamma point")

    def test_only_matching_no_check_is_usage_error(self, capsys, monkeypatch):
        def scan_zeros(config):
            raise AssertionError("no check selected needs a scan")
        monkeypatch.setattr(zmod, "scan_zeros", scan_zeros)
        code, out, err = run_cli(capsys, "verify", "--only", "nosuch")
        assert code == 2 and out == ""
        assert "'nosuch'" in err and "'beat and render'" in err

    def test_partition_check_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--partition-check"])
        assert exc.value.code == 2

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
        del ordinates[2000]
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

    @pytest.mark.parametrize("case", ["first lost", "middle lost", "last lost", "one extra"])
    def test_one_zero_off_fails_consistency(self, census_zeros, case):
        ys = census_zeros.ordinates
        edited = {
            "first lost": ys[1:],
            "middle lost": np.delete(ys, 3074),
            "last lost": ys[:-1],
            "one extra": np.insert(ys, 3074, 0.5 * (ys[3073] + ys[3074])),
        }[case]
        zero_list = zmod.ZeroList(edited, census_zeros.t_lo, census_zeros.t_hi)
        result = verify.check_count_consistency(zero_list)
        assert not result.passed and " drifted from " in result.got

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
        assert out == ("pass  count consistency: expected no unit interval drifted from the "
                       "smooth count or suspect, got 0 drifted (tolerance 0)\n")

    def test_suspect_scan_fails_consistency(self, capsys, monkeypatch, census_zeros):
        # The counts of a scan that flags an interval still track the smooth
        # phase; the line fails on the flag alone and names the interval.
        flagged = zmod.ZeroList(census_zeros.ordinates, census_zeros.t_lo, census_zeros.t_hi,
                                suspect_intervals=(4242,))
        monkeypatch.setattr(zmod, "scan_zeros", lambda config: flagged)
        code, out, _ = run_cli(capsys, "verify", "--only", "count consistency")
        assert code == 1
        assert out.startswith("FAIL  count consistency:")
        assert out.endswith("got 0 drifted (tolerance 0) -- suspect intervals [4242]\n")
