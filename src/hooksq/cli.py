"""Command-line front door: decomposition tables, cross-engine verification,
character lookups, and symmetrizer skew-symmetry checks.

Results go to standard out (UTF-8 text or JSON), diagnostics to standard
error.  Exit codes: 0 success, 1 failed verification, 2 bad arguments,
3 engine mismatch, 4 integrity error, 5 budget exceeded, and 141 (128 +
SIGPIPE, as a shell reports for a writer killed by a closed pipe) when the
reader of standard out went away, as in ``hooksq ... | head``.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache

from .characters import decompose_oracle, irreducible_character, mn_character
from .closed_form import full_table
from .partitions import MAX_N, IntegrityError, Partition, enumerate_partitions
from .tableaux import (
    BudgetError,
    Coloring,
    DEFAULT_PAIR_BUDGET,
    expected_skew_sign,
    verify_skew_symmetry,
)
from .verify import SUITES, run_suites, sweep_colorings

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_ARGS = 2
EXIT_ENGINE_MISMATCH = 3
EXIT_INTEGRITY = 4
EXIT_BUDGET = 5
EXIT_BROKEN_PIPE = 141


def _parse_partition(text: str) -> Partition:
    try:
        return Partition(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad partition {text!r}: {exc}") from None


def _parse_coloring(text: str) -> Coloring:
    try:
        return Coloring(int(c) for c in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad coloring {text!r}: {exc}") from None


def _format_lambda(lam: Partition) -> str:
    return ",".join(str(p) for p in lam)


def _effective_cap(args) -> int:
    if args.budget is None:
        return DEFAULT_PAIR_BUDGET
    if args.budget < 0:
        raise ValueError(f"--budget must be >= 0, got {args.budget}")
    if args.budget > DEFAULT_PAIR_BUDGET and not args.force:
        raise ValueError(
            f"--budget {args.budget} exceeds the default {DEFAULT_PAIR_BUDGET}; "
            "pass --force to acknowledge"
        )
    return args.budget


def cmd_decompose(args) -> int:
    tables = {}
    if args.engine in ("closed", "both"):
        tables["closed"] = full_table(args.n, args.k)
    if args.engine in ("oracle", "both"):
        tables["oracle"] = decompose_oracle(args.n, args.k)
    if args.engine == "both" and tables["closed"] != tables["oracle"]:
        closed, oracle = tables["closed"], tables["oracle"]
        for lam in enumerate_partitions(args.n):
            a, b = closed.rows[lam], oracle.rows[lam]
            if a != b:
                print(
                    f"mismatch at {_format_lambda(lam)}: closed={a}, oracle={b}",
                    file=sys.stderr,
                )
        return EXIT_ENGINE_MISMATCH
    table = tables["closed"] if "closed" in tables else tables["oracle"]
    if args.format == "json":
        print(table.to_json())
    else:
        rows = table.nonzero_rows()
        width = max([len("lambda")] + [len(_format_lambda(lam)) for lam, _ in rows])
        print(f"{'lambda'.ljust(width)}  tensor  sym  ext")
        for lam, (tensor, sym, ext) in rows:
            print(f"{_format_lambda(lam).ljust(width)}  {tensor:>6}  {sym:>3}  {ext:>3}")
    return EXIT_OK


def cmd_verify(args) -> int:
    names = None
    if args.suites:
        names = [name for chunk in args.suites for name in chunk.split(",") if name]
    results = run_suites(args.max_n, names)
    failed = False
    for res in results:
        status = "pass" if res.passed else "FAIL"
        if args.color:
            code = "32" if res.passed else "31"
            status = f"\x1b[{code}m{status}\x1b[0m"
        print(f"{res.name}: {res.checks} checks, {res.failures} failures [{status}]")
        if res.first_failure:
            print(f"  first counterexample: {res.first_failure}")
        if res.name == "swaps" and res.details.get("first_witness"):
            print(
                f"  recorded {res.details['witnesses']} unbalanced sign flips, "
                f"e.g. {res.details['first_witness']}"
            )
        failed = failed or not res.passed
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def cmd_character(args) -> int:
    lam = _parse_partition(args.lam)
    if args.ct is not None:
        ct = _parse_partition(args.ct)
        print(mn_character(lam, ct))
        return EXIT_OK
    chi = irreducible_character(lam)
    for ct in enumerate_partitions(lam.n):
        print(f"{_format_lambda(ct)}\t{chi[ct]}")
    return EXIT_OK


def cmd_symcheck(args) -> int:
    lam = _parse_partition(args.lam)
    if lam.n > MAX_N:
        raise ValueError(f"symcheck requires n <= {MAX_N}, got {lam.n}")
    sign, natural_mode = expected_skew_sign(lam)
    mode = args.mode or natural_mode
    budget = _effective_cap(args)
    if args.x is None:
        colorings = sweep_colorings(lam)
    else:
        x = _parse_coloring(args.x)
        if x.n != lam.n:
            raise ValueError(f"coloring has {x.n} cells but the shape needs {lam.n}")
        if x.k != x.l:
            raise ValueError("skew-symmetry checks need equally many 1-cells and 2-cells")
        if mode == natural_mode == "exact" and any(c in (1, 2) for c in x[: lam[0]]):
            raise ValueError("exact double-hook checks need a first row colored 0/3 only")
        colorings = [x]
    all_ok = True
    for x in colorings:
        verified = verify_skew_symmetry(lam, x, sign, mode, budget).verified
        outcome = "verified" if verified else "FAILED"
        print(
            f"lambda={_format_lambda(lam)} x={','.join(map(str, x))} "
            f"sign={sign:+d} mode={mode} {outcome}"
        )
        all_ok = all_ok and verified
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``hooksq`` parser, built on first use and shared by every later
    ``main`` call of the process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="hooksq",
        description=(
            "Exact multiplicities of irreducibles in the tensor, symmetric and "
            "exterior squares of hook representations of symmetric groups."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dec = sub.add_parser("decompose", help="print a multiplicity table")
    dec.add_argument("--n", type=int, required=True, help="symmetric group size")
    dec.add_argument("--k", type=int, required=True, help="exterior power degree")
    dec.add_argument("--format", choices=("text", "json"), default="text")
    dec.add_argument(
        "--engine",
        choices=("closed", "oracle", "both"),
        default="closed",
        help="closed form, character oracle, or both with cross-checking",
    )
    dec.set_defaults(func=cmd_decompose)

    ver = sub.add_parser("verify", help="run invariant suites")
    ver.add_argument("--max-n", type=int, required=True, dest="max_n")
    ver.add_argument(
        "--suites",
        nargs="+",
        default=None,
        help=f"suites to run (default all): {', '.join(SUITES)}",
    )
    ver.add_argument("--color", action="store_true", help="colorize pass/fail markers")
    ver.set_defaults(func=cmd_verify)

    cha = sub.add_parser("character", help="evaluate an irreducible character")
    cha.add_argument("--lambda", dest="lam", required=True, help="partition, e.g. 5,2,1")
    cha.add_argument("--ct", default=None, help="cycle type; omit for the whole row")
    cha.set_defaults(func=cmd_character)

    sym = sub.add_parser("symcheck", help="check symmetrizer skew-symmetry")
    sym.add_argument("--lambda", dest="lam", required=True, help="partition, e.g. 2,2,1,1")
    sym.add_argument("--x", default=None, help="coloring, e.g. 0,0,1,3,3,2; omit to sweep")
    sym.add_argument("--mode", choices=("exact", "mod-K"), default=None)
    sym.add_argument("--budget", type=int, default=None, help="override the pair budget")
    sym.add_argument("--force", action="store_true", help="acknowledge a raised budget")
    sym.set_defaults(func=cmd_symcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit: point it at devnull so the
        # unwritten rest cannot raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    run()
