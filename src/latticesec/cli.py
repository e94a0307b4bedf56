"""Command-line front end for reproducible batch runs.

Every run is fully determined by its flags: no hidden state, no wall-clock
or RNG dependence, byte-identical output across repeat invocations. Exit
codes: 0 success, 2 usage/domain error (a sum past the largest double
included), 3 internal invariant or construction failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .constellation import (
    TABLE1_LATTICES,
    TABLE1_ROWS,
    TABLE2_LATTICE,
    TABLE2_ROWS,
    SumReport,
    TableRow,
    aligned,
    reports_to_csv,
    table_sweep,
)
from .conjecture import verify_conjecture
from .errors import DomainError, LatticeSecError
from .numfields import LATTICE_NAMES, load_lattice
from .theta import DEFAULT_TOL, eval_z, theta_triple
from .wiretap import ChannelParams, compare_report, db_to_linear
from .zpoly import (
    ZPolynomial,
    known_extremal_table,
    secrecy_gain,
    table_polynomial,
)

__all__ = ["main"]


def _cmd_theta(args: argparse.Namespace) -> int:
    trip = theta_triple(args.y, args.tol)
    z = eval_z(args.y, args.tol)
    print("theta2 = %.17g" % trip.theta2)
    print("theta3 = %.17g" % trip.theta3)
    print("theta4 = %.17g" % trip.theta4)
    print("z = %.17g" % z)
    print("regime = %s" % ("asymptotic" if trip.asymptotic else "series"))
    return 0


def _parse_poly_file(path: str) -> ZPolynomial:
    """Coefficients c0 c1 c2 ... (whitespace or comma separated rationals),
    constant term first."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise DomainError("cannot read polynomial file: %s" % exc)
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise DomainError("polynomial file %s is empty" % path)
    try:
        coeffs = tuple(Fraction(tok) for tok in tokens)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError("bad coefficient in %s: %s" % (path, exc))
    return ZPolynomial(coeffs)


# The flags each secrecy subcommand takes, exactly one of them when any.
_SECRECY_SOURCES = {"table": (), "gain": ("--dim", "--all"),
                    "verify": ("--dim", "--all", "--poly")}


def _cmd_secrecy(args: argparse.Namespace) -> int:
    given = [flag for flag, on in zip(
        ("--dim", "--all", "--poly"),
        (args.dim is not None, args.all, args.poly is not None)) if on]
    takes = _SECRECY_SOURCES[args.subcommand]
    if len(given) != bool(takes) or not set(given) <= set(takes):
        raise DomainError("secrecy %s takes %s" % (args.subcommand, (
            "one of " + "/".join(takes) if takes else "no --dim/--all/--poly")))

    if args.subcommand == "table":
        for dim, poly in known_extremal_table():
            print("dim %d: %s" % (dim, poly))
    elif args.subcommand == "gain":
        if args.all:
            for dim, poly in known_extremal_table():
                print("%d %s" % (dim, secrecy_gain(poly)))
        else:
            print(secrecy_gain(table_polynomial(args.dim)))
    elif args.poly is not None:
        print(verify_conjecture(_parse_poly_file(args.poly)).to_json())
    elif args.all:
        docs = [verify_conjecture(poly).to_json_dict(dimension=dim)
                for dim, poly in known_extremal_table()]
        print(json.dumps(docs, indent=2, sort_keys=True))
    else:
        cert = verify_conjecture(table_polynomial(args.dim))
        print(cert.to_json(dimension=args.dim))
    return 0


def _report_dict(r: SumReport, full_precision: bool) -> dict:
    def f(x: float):
        return x if full_precision else float("%.6g" % x)

    return {
        "lattice": r.lattice_name,
        "m": r.m,
        "p_lim": None if math.isinf(r.p_lim) else r.p_lim,
        "target_size": r.target_size,
        "size": r.size,
        "p_max": f(r.p_max),
        "p_ave": f(r.p_ave),
        "s_value": f(r.s_value),
        "exponent": r.exponent,
    }


def _render_reports(reports: list[SumReport], fmt: str,
                    full_precision: bool) -> str:
    if fmt == "csv":
        return reports_to_csv(reports, full_precision).rstrip("\n")
    if fmt == "json":
        return json.dumps([_report_dict(r, full_precision) for r in reports],
                          indent=2, sort_keys=True)
    # text: the CSV cells, aligned
    return aligned([line.split(",") for line in
                    reports_to_csv(reports, full_precision).splitlines()])


def _table_row(args: argparse.Namespace) -> TableRow:
    """The codebook that --m with --p-lim or --target-size names."""
    if args.target_size is not None and args.p_lim is not None:
        raise DomainError("--p-lim and --target-size are exclusive")
    p_lim = math.inf if args.p_lim is None else args.p_lim
    return TableRow(args.m, p_lim, args.target_size)


def _cmd_sum(args: argparse.Namespace) -> int:
    if args.reproduce is not None:
        if (args.lattice, args.m, args.p_lim, args.target_size) != (None,) * 4:
            raise DomainError(
                "--reproduce replaces --lattice/--m/--p-lim/--target-size")
        sweeps = ([(name, TABLE1_ROWS) for name in TABLE1_LATTICES]
                  if args.reproduce == "table1"
                  else [(TABLE2_LATTICE, TABLE2_ROWS)])
    else:
        if args.lattice is None or args.m is None:
            raise DomainError("sum needs --lattice and --m (or --reproduce)")
        sweeps = [(args.lattice, [_table_row(args)])]
    reports = table_sweep([(load_lattice(name), rows) for name, rows in sweeps],
                          exponent=args.exponent)
    print(_render_reports(reports, args.format, args.full_precision))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    if (args.gamma is None) == (args.gamma_db is None):
        raise DomainError("compare needs exactly one of --gamma/--gamma-db")
    gamma = args.gamma if args.gamma is not None else db_to_linear(args.gamma_db)
    row = _table_row(args)
    reports = table_sweep([(load_lattice(name), [row]) for name in args.lattice])
    params = ChannelParams(gamma_e=gamma, vol_b=args.vol_b, n=reports[0].n)
    doc = compare_report(reports, params)
    print(doc.to_json() if args.format == "json" else doc.render_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticesec",
        description="Secrecy certification and eavesdropper-confusion "
                    "metrics for lattice constellations.",
        epilog="LATTICESEC_DATA overrides the lattice data directory.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_theta = sub.add_parser("theta", help="evaluate theta functions and z")
    p_theta.add_argument("--y", type=float, required=True,
                         help="argument of tau = y*i, y > 0")
    p_theta.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_theta.set_defaults(func=_cmd_theta)

    p_sec = sub.add_parser("secrecy", help="gains and peak certificates")
    p_sec.add_argument("subcommand", choices=("gain", "verify", "table"))
    p_sec.add_argument("--dim", type=int, default=None,
                       help="catalogued dimension (8..80)")
    p_sec.add_argument("--all", action="store_true",
                       help="run every catalogued dimension")
    p_sec.add_argument("--poly", default=None, metavar="FILE",
                       help="verify a polynomial from a coefficient file")
    p_sec.set_defaults(func=_cmd_secrecy)

    p_sum = sub.add_parser("sum", help="inverse-norm power sums over boxes")
    p_sum.add_argument("--lattice", choices=LATTICE_NAMES, default=None)
    p_sum.add_argument("--m", type=int, default=None, help="box bound")
    p_sum.add_argument("--p-lim", type=float, default=None,
                       help="squared-norm cap (default: none)")
    p_sum.add_argument("--target-size", type=int, default=None,
                       help="carve the lowest-energy codebook of this size")
    p_sum.add_argument("--exponent", type=int, default=3)
    p_sum.add_argument("--format", choices=("csv", "json", "text"),
                       default="csv")
    p_sum.add_argument("--full-precision", action="store_true")
    p_sum.add_argument("--reproduce", choices=("table1", "table2"),
                       default=None, help="emit a bundled reference table")
    p_sum.set_defaults(func=_cmd_sum)

    p_cmp = sub.add_parser(
        "compare", help="rank lattices by eavesdropper confusion")
    p_cmp.add_argument("--lattice", choices=LATTICE_NAMES, action="append",
                       required=True, help="repeatable")
    p_cmp.add_argument("--m", type=int, required=True)
    p_cmp.add_argument("--p-lim", type=float, default=None)
    p_cmp.add_argument("--target-size", type=int, default=None)
    p_cmp.add_argument("--gamma", type=float, default=None,
                       help="eavesdropper SNR, linear scale")
    p_cmp.add_argument("--gamma-db", type=float, default=None,
                       help="eavesdropper SNR in dB")
    p_cmp.add_argument("--vol-b", type=float, default=1.0,
                       help="legitimate-user cell volume")
    p_cmp.add_argument("--format", choices=("json", "text"), default="text")
    p_cmp.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DomainError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OverflowError:  # a sum past the largest double
        print("error: result out of float range", file=sys.stderr)
        return 2
    except LatticeSecError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
