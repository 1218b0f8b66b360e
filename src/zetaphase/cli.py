"""Command-line interface.

One subcommand per feature family: phase values, argument values, zero
scanning and counting, the value table, coefficient sequences, zero
estimates, the staircase, image rendering, and self-verification.

All numeric output uses 12 decimal places with '.' as the decimal
separator; byte-for-byte determinism given the same flags and inputs is
part of the contract.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import argexpr, estimate, render, special, verify
from . import zeros as zmod


def _fmt(x: float) -> str:
    return f"{x:.12f}"


def _cache_dir() -> str:
    return os.environ.get(
        "ZETA_CACHE_DIR",
        os.path.join(os.path.expanduser("~"), ".cache", "zetaphase"),
    )


def _load_zeros(path: str) -> zmod.ZeroList:
    if not os.path.exists(path):
        raise FileNotFoundError(f"zero cache not found: {path}")
    return zmod.read_zero_cache(path)


def _obtain_zeros(args: argparse.Namespace) -> zmod.ZeroList:
    """Zero list from --cache if given, otherwise scan (and memoize on disk)."""
    if getattr(args, "cache", None):
        return _load_zeros(args.cache)
    t_hi = float(getattr(args, "max", verify.CENSUS_T_HI))
    name = f"zeros_0_{t_hi:g}_0.05.txt"
    path = os.path.join(_cache_dir(), name)
    if os.path.exists(path):
        return zmod.read_zero_cache(path)
    zero_list = zmod.scan_zeros(zmod.ScanConfig(t_lo=0.0, t_hi=t_hi))
    os.makedirs(_cache_dir(), exist_ok=True)
    zmod.write_zero_cache(zero_list, path)
    return zero_list


def _counts_from_args(args: argparse.Namespace) -> zmod.UnitIntervalCounts:
    """F(n) up to --n-max, or up to the last whole interval the zero list covers."""
    zero_list = _obtain_zeros(args)
    n_max = int(zero_list.t_hi) - 1 if args.n_max is None else args.n_max
    return zmod.unit_interval_counts(zero_list, n_max)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)


def cmd_theta(args: argparse.Namespace) -> int:
    for t in args.t:
        if args.series_order is not None:
            value = special.theta_series(t, args.series_order)
        else:
            value = special.theta_exact(t)
        print(_fmt(value))
    return 0


def cmd_arg_zeta(args: argparse.Namespace) -> int:
    for t in args.t:
        if args.approx:
            n = int(t)
            if n != t:
                raise ValueError("--approx needs integer heights")
            print(_fmt(argexpr.approx_arg_zeta(n)))
        else:
            print(_fmt(special.arg_zeta_principal(t)))
    return 0


def cmd_arg_gamma(args: argparse.Namespace) -> int:
    for t in args.t:
        if args.approx:
            n = int(t)
            if n != t:
                raise ValueError("--approx needs integer heights")
            print(_fmt(argexpr.approx_arg_gamma(n)))
        else:
            print(_fmt(special.arg_gamma_quarter(t)))
    return 0


def cmd_zeros(args: argparse.Namespace) -> int:
    config = zmod.ScanConfig(t_lo=args.min, t_hi=args.max,
                             step=args.step, refine_tol=args.tol)
    zero_list = zmod.scan_zeros(config)
    zmod.write_zero_cache(zero_list, args.out)
    print(f"{zero_list.count} zeros in [{args.min:g}, {args.max:g}] -> {args.out}")
    if zero_list.suspect_intervals:
        print(f"suspect intervals: {list(zero_list.suspect_intervals)}", file=sys.stderr)
        return 1
    return 0


def cmd_counts(args: argparse.Namespace) -> int:
    counts = _counts_from_args(args)
    per_n = enumerate(counts.counts.tolist(), start=1)
    if args.format == "json":
        rows = [{"n": n, "count": c} for n, c in per_n]
        _emit(json.dumps(rows, indent=None, separators=(",", ":")) + "\n", args.out)
    elif args.format == "csv":
        lines = ["n,count"]
        lines.extend(f"{n},{c}" for n, c in per_n)
        _emit("\n".join(lines) + "\n", args.out)
    else:
        lines = [f"{n}\t{c}" for n, c in counts.nonzero_items()]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _expr_record(e: argexpr.SymbolicArgExpression) -> dict:
    return {
        "pi": e.c_pi,
        "const": e.c_const,
        "lnpi": e.c_lnpi,
        "primes": [[p, c] for p, c in e.prime_terms],
    }


def cmd_table(args: argparse.Namespace) -> int:
    rows = []
    for n in range(args.start, args.end + 1):
        e = argexpr.symbolic_expression(n)
        rows.append({
            "n": n,
            "true": special.arg_zeta_principal(float(n)),
            "approx": argexpr.approx_arg_zeta(n),
            "expr": e,
        })
    if args.format == "json":
        payload = [{"n": r["n"], "true": float(_fmt(r["true"])),
                    "approx": float(_fmt(r["approx"])),
                    "expr": _expr_record(r["expr"])} for r in rows]
        _emit(json.dumps(payload, indent=None, separators=(",", ":")) + "\n", args.out)
    elif args.format == "csv":
        lines = ["n,true,approx,expr"]
        lines.extend(f'{r["n"]},{_fmt(r["true"])},{_fmt(r["approx"])},{r["expr"].text()}'
                     for r in rows)
        _emit("\n".join(lines) + "\n", args.out)
    else:
        lines = [f'{r["n"]:>5d}  {_fmt(r["true"])}  {_fmt(r["approx"])}  {r["expr"].text()}'
                 for r in rows]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_sequences(args: argparse.Namespace) -> int:
    if args.kind == "coeff":
        values = argexpr.coeff_sequence(args.p, args.count)
    else:
        values = [argexpr.ruler_normalized(args.p, n) for n in range(1, args.count + 1)]
    print(", ".join(str(v) for v in values))
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    for n in args.n:
        print(_fmt(estimate.zero_estimate_lambert(n)))
    return 0


def cmd_staircase(args: argparse.Namespace) -> int:
    values = estimate.staircase(args.max)
    levels = estimate.staircase_levels(values)
    if args.format == "json":
        rows = [{"n": n, "s": float(_fmt(values[n - 1])), "level": int(levels[n - 1])}
                for n in range(1, args.max + 1)]
        _emit(json.dumps(rows, indent=None, separators=(",", ":")) + "\n", args.out)
    else:
        lines = ["n,s,level"]
        lines.extend(f"{n},{_fmt(values[n - 1])},{levels[n - 1]}"
                     for n in range(1, args.max + 1))
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    image = render.render_counts(_counts_from_args(args), args.width)
    render.write_pgm(image, args.out)
    print(f"{image.width}x{image.height} graymap -> {args.out}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    zero_list = None
    if args.cache:
        zero_list = _load_zeros(args.cache)
    partitioned = None
    if args.partition_check and not args.only:
        mid = float(int(verify.CENSUS_T_HI) // 2)
        lo = zmod.scan_zeros(zmod.ScanConfig(t_lo=0.0, t_hi=mid))
        hi = zmod.scan_zeros(zmod.ScanConfig(t_lo=mid, t_hi=verify.CENSUS_T_HI))
        partitioned = lo.merge(hi)
    results = verify.run_checks(only=args.only, zero_list=zero_list, partitioned=partitioned)
    if args.format == "json":
        print(json.dumps([r.record() for r in results], indent=2))
    else:
        for r in results:
            print(r.line())
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetaphase",
        description="Critical-line argument analysis: phases, zeros, censuses, "
                    "closed-form approximations, and density images.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theta", help="Riemann-Siegel phase at given heights")
    p.add_argument("t", type=float, nargs="+")
    p.add_argument("--series-order", type=int, default=None,
                   help="use the asymptotic series with this many correction terms")
    p.set_defaults(fn=cmd_theta)

    p = sub.add_parser("arg-zeta", help="(1/pi) Arg zeta(1/2 + i t), principal branch")
    p.add_argument("t", type=float, nargs="+")
    p.add_argument("--approx", action="store_true",
                   help="closed-form approximation (integer heights)")
    p.set_defaults(fn=cmd_arg_zeta)

    p = sub.add_parser("arg-gamma", help="(1/pi) Arg Gamma(1/4 + i t/2)")
    p.add_argument("t", type=float, nargs="+")
    p.add_argument("--approx", action="store_true",
                   help="closed-form approximation (integer heights)")
    p.set_defaults(fn=cmd_arg_gamma)

    p = sub.add_parser("zeros", help="scan for zeros and write a cache file")
    p.add_argument("--min", type=float, default=0.0)
    p.add_argument("--max", type=float, required=True)
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_zeros)

    p = sub.add_parser("counts", help="zeros per unit interval")
    p.add_argument("--cache", help="zero cache file (default: scan)")
    p.add_argument("--max", type=float, default=verify.CENSUS_T_HI,
                   help="scan height when no cache is given")
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_counts)

    p = sub.add_parser("table", help="true value, approximation, and symbolic form")
    p.add_argument("--start", type=int, default=1)
    p.add_argument("--end", type=int, default=19)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("sequences", help="coefficient and ruler sequences")
    p.add_argument("--kind", choices=("coeff", "ruler"), required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--count", type=int, default=16)
    p.set_defaults(fn=cmd_sequences)

    p = sub.add_parser("estimate", help="closed-form n-th zero estimates")
    p.add_argument("n", type=int, nargs="+")
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("staircase", help="carrier plus principal argument staircase")
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_staircase)

    p = sub.add_parser("render", help="graymap image of the zero density")
    p.add_argument("--cache", help="zero cache file (default: scan)")
    p.add_argument("--max", type=float, default=verify.CENSUS_T_HI,
                   help="scan height when no cache is given")
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--width", type=int, default=4000)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("verify", help="replay the acceptance checks")
    p.add_argument("--only", default=None, help="run only checks whose name contains this")
    p.add_argument("--cache", default=None, help="zero cache to verify against")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--partition-check", action="store_true",
                   help="also compare a two-part scan's rendering byte-for-byte")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
