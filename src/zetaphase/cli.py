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
import sys

import numpy as np

from . import argexpr, estimate, render, special, verify
from . import zeros as zmod


def _fmt(x: float) -> str:
    return f"{x:.12f}"


def _counts_from_args(args: argparse.Namespace) -> zmod.UnitIntervalCounts:
    """F(n) up to --n-max, or up to the last whole interval the zero list covers.

    The zero list is --cache if given, otherwise a scan of [0, --max]; a
    scan with suspect intervals raises ValueError.
    """
    if args.cache:
        zero_list = zmod.read_zero_cache(args.cache)
    else:
        zero_list = zmod.scan_zeros(zmod.ScanConfig(t_lo=0.0, t_hi=args.max))
        if zero_list.suspect_intervals:
            raise ValueError(f"scan of [0, {args.max:g}] has suspect intervals "
                             f"{list(zero_list.suspect_intervals)}")
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


def _approx_height(t: float) -> int:
    """The integer height that --approx takes; ValueError for any other t."""
    n = int(t)
    if n != t:
        raise ValueError("--approx needs integer heights")
    return n


def cmd_arg_zeta(args: argparse.Namespace) -> int:
    if not args.approx:
        for value in special.arg_zeta_principal(np.array(args.t)).tolist():
            print(_fmt(value))
        return 0
    for t in args.t:
        print(_fmt(argexpr.approx_arg_zeta(_approx_height(t))))
    return 0


def cmd_arg_gamma(args: argparse.Namespace) -> int:
    for t in args.t:
        if args.approx:
            print(_fmt(argexpr.approx_arg_gamma(_approx_height(t))))
        else:
            print(_fmt(special.arg_gamma_quarter(t)))
    return 0


def cmd_zeros(args: argparse.Namespace) -> int:
    zero_list = zmod.scan_zeros(zmod.ScanConfig(t_lo=args.min, t_hi=args.max))
    if zero_list.suspect_intervals:
        # The cache format cannot carry them, so nothing is written.
        print(f"suspect intervals: {list(zero_list.suspect_intervals)}; "
              f"{args.out} not written", file=sys.stderr)
        return 1
    zmod.write_zero_cache(zero_list, args.out)
    print(f"{zero_list.count} zeros in [{args.min:g}, {args.max:g}] -> {args.out}")
    return 0


def cmd_counts(args: argparse.Namespace) -> int:
    counts = _counts_from_args(args)
    per_n = enumerate(counts.counts.tolist(), start=1)
    if args.format == "json":
        text = json.dumps([{"n": n, "count": c} for n, c in per_n],
                          indent=None, separators=(",", ":"))
    elif args.format == "csv":
        text = "\n".join(["n,count"] + [f"{n},{c}" for n, c in per_n])
    else:
        text = "\n".join(f"{n}\t{c}" for n, c in counts.nonzero_items())
    _emit(text + "\n", args.out)
    return 0


def _expr_record(e: argexpr.SymbolicArgExpression) -> dict:
    return {
        "pi": e.c_pi,
        "const": e.c_const,
        "lnpi": e.c_lnpi,
        "primes": [[p, c] for p, c in e.prime_terms],
    }


def cmd_table(args: argparse.Namespace) -> int:
    if args.end < args.start:
        raise ValueError("--end must be >= --start")
    ns = range(args.start, args.end + 1)
    trues = special.arg_zeta_principal(np.array(ns, dtype=np.float64)).tolist()
    rows = [{"n": n, "true": true, "approx": argexpr.approx_arg_zeta(n),
             "expr": argexpr.symbolic_expression(n)} for n, true in zip(ns, trues)]
    if args.format == "json":
        payload = [{"n": r["n"], "true": float(_fmt(r["true"])),
                    "approx": float(_fmt(r["approx"])),
                    "expr": _expr_record(r["expr"])} for r in rows]
        text = json.dumps(payload, indent=None, separators=(",", ":"))
    elif args.format == "csv":
        text = "\n".join(["n,true,approx,expr"] + [
            f'{r["n"]},{_fmt(r["true"])},{_fmt(r["approx"])},{r["expr"].text()}' for r in rows])
    else:
        text = "\n".join(f'{r["n"]:>5d}  {_fmt(r["true"])}  {_fmt(r["approx"])}  {r["expr"].text()}'
                         for r in rows)
    _emit(text + "\n", args.out)
    return 0


def cmd_sequences(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise ValueError("--count must be >= 1")
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
        text = json.dumps(rows, indent=None, separators=(",", ":"))
    else:
        text = "\n".join(["n,s,level"] + [f"{n},{_fmt(values[n - 1])},{levels[n - 1]}"
                                          for n in range(1, args.max + 1)])
    _emit(text + "\n", args.out)
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    image = render.render_counts(_counts_from_args(args), args.width)
    render.write_pgm(image, args.out)
    print(f"{image.width}x{image.height} graymap -> {args.out}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    zero_list = zmod.read_zero_cache(args.cache) if args.cache else None
    results = verify.run_checks(only=args.only, zero_list=zero_list)
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
    # The zero list of counts and render: a cache, or a scan of [0, --max].
    census = argparse.ArgumentParser(add_help=False)
    census.add_argument("--cache", help="zero cache file written by 'zeros --out' "
                                        "(default: scan [0, --max]; no cache is written)")
    census.add_argument("--max", type=float, default=verify.CENSUS_T_HI,
                        help="scan height when no cache is given")
    census.add_argument("--n-max", type=int, default=None)

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
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_zeros)

    p = sub.add_parser("counts", parents=[census], help="zeros per unit interval")
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

    p = sub.add_parser("render", parents=[census], help="graymap image of the zero density")
    p.add_argument("--width", type=int, default=4000)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("verify", help="replay the acceptance checks")
    p.add_argument("--only", default=None, help="run only checks whose name contains this")
    p.add_argument("--cache", default=None,
                   help="zero cache written by 'zeros --out' to verify against "
                        "(default: scan [0, 6501])")
    p.add_argument("--format", choices=("text", "json"), default="text")
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
