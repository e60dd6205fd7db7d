"""Batch command line: straighten, enumerate, verify, and replay goldens.

Exit codes: 0 success, 2 parse or configuration error, 3 verification
failure or an undecided verify (its F_p points could not decide), 4 cap
exceeded.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .tableaux import DomainError, Tableau, check_shape, conjugate, enumerate_on_standard
from .polyring import QQ, CoeffDomain
from .gl_straighten import FUEL, CapExceeded, gl_straighten, single_term, verify_gl
from .on_straighten import GO, ON, on_straighten
from .group_oracle import _suite_points, basis_suite, standard_points, verify_on_group
from .golden import GOLDEN_CASES


def _parse_shape(text: str):
    try:
        return check_shape(int(p) for p in text.replace(",", " ").split())
    except (ValueError, DomainError) as exc:
        raise DomainError(f"bad shape {text!r}: {exc}")


def _read_pair(args) -> tuple[Tableau, Tableau]:
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh if line.strip()]
        if len(lines) != 2:
            raise DomainError("input file must hold exactly two tableau lines")
        return Tableau.parse(lines[0]), Tableau.parse(lines[1])
    if args.left is None or args.right is None:
        raise DomainError("provide --left and --right, or --file")
    return Tableau.parse(args.left), Tableau.parse(args.right)


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_straighten(args) -> int:
    domain = CoeffDomain.parse(args.coeff)
    s, t = _read_pair(args)
    trace: list | None = [] if args.trace else None
    # every mode straightens over Q, is checked there, and maps to the domain
    # once
    mode = GO if args.mode == "go" else ON
    if args.mode == "gl":
        result = gl_straighten(s, t, args.n, fuel=args.fuel, trace=trace)
    else:
        result = on_straighten(s, t, mode, args.n, QQ, fuel=args.fuel, trace=trace)
    if trace is not None:
        for kind, witness, produced in trace:
            print(f"# step {kind} witness={witness} terms ->{produced}", file=sys.stderr)
    if args.points:
        residual = single_term(s, t) - result
        if args.mode == "gl":
            # a GL identity holds in Z[X], and O(n) points cannot see an error
            # in the ideal of O(n): GL is checked by polynomial equality, or at
            # integer matrices when the expansion is too large
            check, ok = verify_gl(residual, args.n, args.points, args.seed)
        else:
            # GO points carry gamma != 1, so the gamma powers are checked too
            check, ok = "point", verify_on_group(
                residual, _suite_points(args.n, args.points, args.seed, mode, QQ))
        if not ok:
            print(f"error: certificate failed {check} verification", file=sys.stderr)
            return 3
    _emit(args, result.reduce(domain).certificate())
    return 0


def cmd_enumerate(args) -> int:
    shape = _parse_shape(args.shape)
    conj = conjugate(shape)
    colsum = (conj[0] if conj else 0) + (conj[1] if len(conj) > 1 else 0)
    lines = [t.format() for t in enumerate_on_standard(shape, args.n)]
    if colsum > args.n:
        lines.append(f"count 0 (column condition: {colsum} > {args.n})")
    else:
        lines.append(f"count {len(lines)}")
    _emit(args, "\n".join(lines))
    return 0


def cmd_verify(args) -> int:
    domain = CoeffDomain.parse(args.coeff)
    mode = GO if args.mode == "go" else ON
    report = basis_suite(args.n, args.degree, mode, num_points=args.points or None,
                         domain=domain, seed=args.seed, cap=args.cap)
    _emit(args, report.text())
    if report.lines and report.lines[0].startswith("refused"):
        return 4
    return 0 if report.passed else 3


def cmd_golden(args) -> int:
    failures = 0
    out_lines = []
    for case in GOLDEN_CASES:
        computed = case.compute()
        ok = computed == case.expected()
        if ok and args.points:
            points = standard_points(case.n, args.points, seed=args.seed)
            ok = verify_on_group(single_term(*case.inputs()) - computed, points)
        status = "PASS" if ok else "FAIL"
        out_lines.append(f"{status} {case.kind}: {case.name}")
        if not ok:
            failures += 1
            out_lines.append("--- expected")
            out_lines.append(case.certificate)
            out_lines.append("--- computed")
            out_lines.append(computed.certificate())
    _emit(args, "\n".join(out_lines))
    return 3 if failures else 0


def at_least(low: int):
    """An argparse type: an int no smaller than low."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="obidet",
        description="Straighten bideterminants and certify standard bases "
                    "on orthogonal groups, in exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, modes=("gl", "on", "go"), points_help="number of verification points"):
        p.add_argument("--n", type=at_least(1), required=True, help="alphabet size")
        p.add_argument("--mode", choices=modes, default="on")
        p.add_argument("--coeff", default="q",
                       help="coefficient domain: q, zhalf, or f<p>")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--points", type=at_least(0), default=0,
                       help=points_help)
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("straighten", help="rewrite a bideterminant in the standard basis")
    common(p)
    p.add_argument("--left", help="left tableau, rows ; separated")
    p.add_argument("--right", help="right tableau")
    p.add_argument("--file", help="file with two tableau lines")
    p.add_argument("--max-terms", type=at_least(0), default=FUEL, dest="fuel",
                   help="straightening fuel: most rule calls (rewrite steps, standard leaves) "
                        "of the pass, and of each normal form it builds")
    p.add_argument("--trace", action="store_true",
                   help="log each rewrite step to stderr")
    p.set_defaults(func=cmd_straighten)

    p = sub.add_parser("enumerate", help="list the standard tableaux of a shape")
    p.add_argument("--n", type=at_least(1), required=True, help="alphabet size")
    p.add_argument("--shape", required=True, help="partition, e.g. '2,1'")
    p.add_argument("--out", default=None, help="write output to a file")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="run the basis certification suite")
    common(p, modes=("on", "go"),
           points_help="points per batch (default: largest torus-weight block + 6)")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--cap", type=at_least(0), default=800,
                   help="refuse when the standard set is larger than this")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("golden", help="replay the embedded worked identities")
    p.add_argument("--points", type=at_least(0), default=0,
                   help="additionally verify each identity at this many points")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_golden)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (DomainError, OSError, UnicodeDecodeError) as exc:
        # OSError and UnicodeDecodeError come from the --file and --out files
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
