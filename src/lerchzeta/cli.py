"""Command-line front end.

    lerch eval   --sigma S --a A [--z Z] [--method auto|series|integral|fe|em]
                 [--tol T]
    lerch scan   --a-min A0 --a-max A1 --a-step DA --z ZSPEC --out PATH
                 [--tol T]
    lerch verify {fe,signs,kernels,identities,all}

`eval` prints "value_re value_im err_estimate method" with 17 significant
digits (binary64 round-trips exactly).  `scan` writes a deterministic CSV
census of zero brackets over an (a, z) grid; its a bounds must lie in
(0, 1] and its step must be finite, positive and large enough to move
--a-max.  `verify` runs a named check suite and exits 0 iff every check
passes.

z arguments accept a complex literal ("1", "-1", "0.5+0.5j", "i" works too)
or "unit:<theta>" for e^{i theta}; eval's --z defaults to 1, and the scan's
--z additionally accepts a comma-separated list of reals.  --tol (default
1e-10, must be positive) is the absolute accuracy target; the scan's --tol
is one tolerance for the values and the roots: each value is evaluated to
it and each root lies in a sign change of Phi narrower than it.  A scan
refuses an empty z list, or any z that classify refuses, before its first
cell; it opens --out once, before its first cell, and writes it after its
last, so a failed scan leaves --out as it was.  Exit codes: 0 success,
1 check failure, 2 usage or domain error.
`--method integral` runs phi_integral, the Mellin integral, for the given
sigma and z; `fe` and `em` have fixed truncations and ignore --tol.
Diagnostics go to stderr.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from .errors import LerchZetaError
from .evaluate import evaluate, hurwitz_em, phi_integral, phi_series
from .functional_eq import phi_fe_rhs, zeta_fe_rhs
from .kernels import _check_tol
from .verify import run_suite, suite_names
from .zeros import classify, scan_zeros

_SCAN_HEADER = "a,z_re,z_im,verdict,n_brackets,roots,max_residual"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_complex(text: str) -> complex:
    text = text.strip()
    if text.startswith("unit:"):
        theta = float(text[5:])
        return complex(math.cos(theta), math.sin(theta))
    try:
        return complex(text.replace("i", "j"))
    except ValueError as exc:
        raise LerchZetaError(f"cannot parse complex value {text!r}") from exc


def _parse_z_spec(text: str) -> list[complex]:
    text = text.strip()
    if "," in text:
        return [complex(float(part), 0.0) for part in text.split(",") if part.strip()]
    return [_parse_complex(text)]


def _tol(text: str) -> float:
    # argparse turns ArgumentTypeError into a usage error (exit 2)
    try:
        return _check_tol(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cmd_eval(args: argparse.Namespace) -> int:
    z = _parse_complex(args.z)
    sigma, a, tol = args.sigma, args.a, args.tol
    method = args.method
    if method == "auto":
        res = evaluate(sigma, a, z, tol)
    elif method == "series":
        res = phi_series(sigma, a, z, tol)
    elif method == "integral":
        res = phi_integral(sigma, a, z, tol)
    elif method == "fe":
        res = zeta_fe_rhs(sigma, a) if z == 1 else phi_fe_rhs(sigma, a, z)
    else:  # em
        if z != 1:
            raise LerchZetaError("--method em applies to z = 1 only")
        res = hurwitz_em(sigma, a)
    print(f"{_fmt(res.value.real)} {_fmt(res.value.imag)} "
          f"{_fmt(res.abs_err_estimate)} {res.method}")
    return 0


def _scan_cell(a: float, z: complex, tol: float) -> str:
    verdict = classify(a, z)
    if z.imag == 0.0:
        rep = scan_zeros(a, z.real, tol=tol)
        n_br = rep.n_brackets
        roots = ";".join(_fmt(r) for r in rep.roots)
        max_res = rep.max_residual
    else:
        n_br, roots, max_res = 0, "", 0.0
    return (f"{_fmt(a)},{_fmt(z.real)},{_fmt(z.imag)},{verdict.tag},"
            f"{n_br},{roots},{_fmt(max_res)}")


def _cmd_scan(args: argparse.Namespace) -> int:
    # a bad grid costs no scan and leaves --out untouched; a step too small
    # to move --a-max would grow the grid without end
    for flag, value in (("--a-min", args.a_min), ("--a-max", args.a_max)):
        if not 0.0 < value <= 1.0:
            raise LerchZetaError(f"{flag} must lie in (0, 1], got {value}")
    if not 0.0 < args.a_step < math.inf:
        raise LerchZetaError(f"--a-step must be positive and finite, "
                             f"got {args.a_step}")
    if args.a_max + args.a_step == args.a_max:
        raise LerchZetaError(f"--a-step {args.a_step} does not move "
                             f"--a-max {args.a_max}")
    # so does an empty z list, or a z that classify (like scan_zeros) refuses
    z_list = _parse_z_spec(args.z)
    if not z_list:
        raise LerchZetaError(f"--z {args.z!r} holds no z")
    for z in z_list:
        try:
            classify(args.a_min, z)
        except LerchZetaError as exc:
            raise LerchZetaError(f"--z {z}: {exc}") from exc
    a_values = []
    a = args.a_min
    while a <= args.a_max + 1e-12:
        a_values.append(round(a, 12))
        a += args.a_step
    cells = sorted(((a, z) for a in a_values for z in z_list),
                   key=lambda cell: (cell[0], cell[1].real, cell[1].imag))
    # open --out before the first cell, so a bad path costs no scan, and
    # write it after the last, so a failed scan leaves it as it was
    existed = os.path.exists(args.out)
    try:
        fh = open(args.out, "a")
    except OSError as exc:
        raise LerchZetaError(f"cannot write {args.out}: {exc}") from exc
    with fh:
        try:
            rows = [_scan_cell(a, z, args.tol) for a, z in cells]
        except BaseException:
            fh.close()
            if not existed:
                os.remove(args.out)
            raise
        if os.fstat(fh.fileno()).st_size:   # not for /dev/null or a pipe
            fh.truncate(0)
        fh.write("".join(line + "\n" for line in [_SCAN_HEADER, *rows]))
    print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_suite(args.suite)
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed",
          file=sys.stderr)
    return 1 if failed else 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args keeps no state between calls
    parser = argparse.ArgumentParser(
        prog="lerch",
        description="Hurwitz-Lerch zeta evaluation, zero scans and "
                    "verification suites")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate Phi(sigma, a, z)")
    p_eval.add_argument("--sigma", type=float, required=True)
    p_eval.add_argument("--a", type=float, required=True)
    p_eval.add_argument("--z", type=str, default="1",
                        help="complex literal or unit:<theta> (default 1)")
    p_eval.add_argument("--method", default="auto",
                        choices=["auto", "series", "integral", "fe", "em"])
    p_eval.add_argument("--tol", type=_tol, default=1e-10)
    p_eval.set_defaults(func=_cmd_eval)

    p_scan = sub.add_parser("scan", help="zero census over an (a, z) grid")
    p_scan.add_argument("--a-min", type=float, required=True)
    p_scan.add_argument("--a-max", type=float, required=True)
    p_scan.add_argument("--a-step", type=float, required=True)
    p_scan.add_argument("--z", type=str, required=True,
                        help="complex literal, unit:<theta>, or list of reals")
    p_scan.add_argument("--out", type=str, required=True)
    p_scan.add_argument("--tol", type=_tol, default=1e-10)
    p_scan.set_defaults(func=_cmd_scan)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=suite_names())
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LerchZetaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
