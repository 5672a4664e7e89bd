"""Command-line front end with stable, scriptable output.

Subcommands: exp, local-exp, census, count-imprimitive, frobenius,
strings, verify.  Exit codes: 0 success, 2 invalid input, 3 not
primitive / reducible, 4 verification failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import counting, formulas
from . import verify as verify_mod
from .core import CompanionSpec, ReducibleError
from .counting import DispatchMismatchError
from .formulas import NotPrimitiveError, PreconditionError
from .frobenius import conductor

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NOT_PRIMITIVE = 3
EXIT_VERIFY_FAILED = 4

OUTDIR_ENV = "COMPANION_EXP_OUTDIR"


def _spec_from_args(args: argparse.Namespace) -> CompanionSpec:
    row = "1" + args.row if args.y else args.row
    return CompanionSpec(args.n, row)


def _cmd_exp(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    if args.oracle_only:
        formulas.require_primitive(spec)
        report = formulas.oracle_report(spec)
    else:
        try:
            report = formulas.exponent(spec, allow_oracle=not args.rule_only)
        except PreconditionError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_VERIFY_FAILED
    print(f"exp={report.value} rule={report.rule}")
    return EXIT_OK


def _cmd_local_exp(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    if not (1 <= args.i <= spec.n and 1 <= args.j <= spec.n):
        raise ValueError(f"vertices must lie in [1, {spec.n}]")
    print(max(1, spec.n - args.i + formulas.exponent_from_last(spec, args.j)))
    return EXIT_OK


def _cmd_census(args: argparse.Namespace) -> int:
    outdir = Path(os.environ.get(OUTDIR_ENV, "."))
    path = Path(args.out) if args.out else outdir / f"census_n{args.n}.{args.format}"
    if not path.parent.is_dir():  # refused before the walk; the write below still turns any OSError into exit 2
        raise ValueError(f"cannot write {path}: no such directory {path.parent}")
    try:
        record = counting.census(args.n, check_oracle=args.check_oracle)
    except DispatchMismatchError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VERIFY_FAILED
    text = record.to_csv() if args.format == "csv" else record.to_json()
    try:
        path.write_text(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc
    print(
        f"census n={args.n} primitive={record.primitive_count} "
        f"imprimitive={record.imprimitive_count} exponents={len(record.exponent_set)} -> {path}"
    )
    return EXIT_OK


def _cmd_count_imprimitive(args: argparse.Namespace) -> int:
    count = counting.count_imprimitive(args.n)
    rows = counting.list_imprimitive(args.n) if args.list else []
    print(count, *rows, sep="\n")
    return EXIT_OK


def _cmd_frobenius(args: argparse.Namespace) -> int:
    c = conductor(args.generators)
    print(f"conductor={c} classical_frobenius={c - 1}")
    return EXIT_OK


def _cmd_strings(args: argparse.Namespace) -> int:
    if args.kind == "f":
        if len(args.params) != 3:
            raise ValueError("strings f needs exactly three integers: n x k")
        n, x, k = args.params
        print(counting.f_strings(n, x, k))
    else:
        if len(args.params) != 2:
            raise ValueError("strings t needs exactly two integers: r n")
        r, n = args.params
        print(counting.t_runs(r, n))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    results = verify_mod.run_all(args.n_max)
    failed = False
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        failed = failed or not res.passed
        print(f"{status} {res.name}: {res.detail}")
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="companion-exp",
        description="Exponents of primitive (0,1) companion matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("n", type=int, help="matrix order")
        p.add_argument("row", help="last row as a bit string")
        p.add_argument(
            "--y",
            action="store_true",
            help="row is given without the leading irreducibility bit; a 1 is prepended",
        )

    p_exp = sub.add_parser("exp", help="exponent of one spec with the rule that fired")
    add_spec_args(p_exp)
    mode = p_exp.add_mutually_exclusive_group()
    mode.add_argument("--rule-only", action="store_true", help="closed-form rules only, no oracle fallback")
    mode.add_argument("--oracle-only", action="store_true", help="bypass the rules, power the matrix")
    p_exp.set_defaults(handler=_cmd_exp)

    p_local = sub.add_parser("local-exp", help="local exponent exp(i -> j) from the walks out of vertex n")
    add_spec_args(p_local)
    p_local.add_argument("i", type=int, help="source vertex (1-based)")
    p_local.add_argument("j", type=int, help="target vertex (1-based)")
    p_local.set_defaults(handler=_cmd_local_exp)

    p_census = sub.add_parser("census", help="exhaustive exponent census of one order")
    p_census.add_argument("n", type=int, help=f"matrix order (3..{counting.MAX_CENSUS_ORDER})")
    p_census.add_argument("--format", choices=("csv", "json"), default="csv")
    p_census.add_argument("--out", help="output path (default: $%s/census_n<n>.<ext>)" % OUTDIR_ENV)
    p_census.add_argument("--check-oracle", action="store_true",
                          help="assert walk, dispatch and oracle agree on every primitive spec "
                          f"(orders up to {counting.MAX_CHECKED_CENSUS_ORDER})")
    p_census.set_defaults(handler=_cmd_census)

    p_count = sub.add_parser("count-imprimitive", help="number of imprimitive irreducible specs")
    p_count.add_argument("n", type=int, help=f"matrix order (3..{counting.MAX_IMPRIMITIVE_ORDER})")
    p_count.add_argument("--list", action="store_true", help="also print each imprimitive row, fewer than "
                         f"2**(n/2) of them (orders up to {counting.MAX_IMPRIMITIVE_LIST_ORDER})")
    p_count.set_defaults(handler=_cmd_count_imprimitive)

    p_frob = sub.add_parser("frobenius", help="conductor of a generator set")
    p_frob.add_argument("generators", type=int, nargs="+", help="positive integer generators")
    p_frob.set_defaults(handler=_cmd_frobenius)

    p_strings = sub.add_parser("strings", help="binary string counts: 'f n x k' or 't r n'")
    p_strings.add_argument("kind", choices=("f", "t"),
                           help="f: strings with x zeros and longest zero run k; t: strings avoiding r ones in a row")
    p_strings.add_argument("params", type=int, nargs="+", help="integer parameters")
    p_strings.set_defaults(handler=_cmd_strings)

    p_verify = sub.add_parser("verify", help="run the cross-validation families")
    p_verify.add_argument("--n-max", type=int, default=8, help="largest order to check (3..12)")
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ReducibleError, NotPrimitiveError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_NOT_PRIMITIVE
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
