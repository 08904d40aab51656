"""Command-line front end.

Exit codes: 0 success, 1 a verification report ran and failed, 2 usage or
input errors.  All randomness flows through --seed, and identical invocations
produce byte-identical output (floats in JSON reports are printed at 17
significant digits).
"""

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import approx, fracdiff, kfunc, orlicz, spectrum, verify

_EXIT_OK = 0
_EXIT_FAILED = 1
_EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orliczseq",
        description="Sequence-space norms, smoothness moduli, and approximation reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *names):
        flags = {
            "orlicz": dict(type=str, default='{"family":"power","p":2}',
                           help='gauge spec, e.g. {"family":"power","p":2} (default: quadratic)'),
            "alpha": dict(type=float, default=1.0, help="difference/derivative order (default 1)"),
            "beta": dict(type=float, default=None, help="decay exponent for rate reports"),
            "delta": dict(type=float, default=None, help="shift bound / K-functional scale"),
            "n": dict(type=int, default=None, help="approximation order or band edge"),
            "n_max": dict(type=int, default=64, help="largest order in sweeps (default 64)"),
            "r": dict(type=float, default=None, help="moment order (kernel) or majorant exponent"),
            "input": dict(type=str, default=None, help="coefficient file, JSON lines"),
            "output": dict(type=str, default=None, help="write result here instead of stdout"),
            "format": dict(type=str, choices=("json", "csv"), default="json", help="report format"),
            "grid": dict(type=int, default=512, help="shift-search grid size (default %(default)s)"),
            "tol": dict(type=float, default=1e-12, help="relative solver tolerance (default 1e-12)"),
            "seed": dict(type=int, default=0, help="64-bit seed for sweep families (default 0)"),
            "family": dict(type=str, default="random-band",
                           help=f"sweep family, one of {', '.join(verify.list_families())}"),
            "band": dict(type=int, default=1024, help="model band for rate reports (default 1024)"),
        }
        for name in names:
            p.add_argument("--" + name.replace("_", "-"), dest=name, **flags[name])

    p = sub.add_parser("norm", help="Luxemburg norm of a coefficient file")
    common(p, "orlicz", "input", "output", "tol")
    p = sub.add_parser("onorm", help="Orlicz (dual) norm of a coefficient file")
    common(p, "orlicz", "input", "output", "tol")
    p = sub.add_parser("en", help="best approximation E_n (tail norm)")
    common(p, "orlicz", "input", "output", "n", "tol")
    p = sub.add_parser("omega", help="smoothness modulus of order alpha at scale delta")
    common(p, "orlicz", "input", "output", "alpha", "delta", "grid", "tol")
    p = sub.add_parser("kfunc", help="K-functional estimate at scale delta")
    common(p, "orlicz", "input", "output", "alpha", "delta", "n", "tol")
    p = sub.add_parser("kernel", help="Jackson kernel coefficients for order n, moment order r")
    common(p, "n", "r", "output")
    p = sub.add_parser("sigma", help="Jackson mean of integer order alpha at degree n-1")
    common(p, "orlicz", "input", "output", "alpha", "n", "tol")
    p = sub.add_parser("verify", help="run a verification sweep and emit a report")
    p.add_argument("kind", choices=("direct", "inverse", "equiv", "classify", "rates", "balpha"))
    common(p, "orlicz", "alpha", "beta", "r", "input", "output", "format",
           "grid", "tol", "seed", "family", "band", "n_max")
    p.set_defaults(grid=128)
    return parser


def _load_gauge(parser, args):
    try:
        spec = json.loads(args.orlicz)
    except json.JSONDecodeError as exc:
        parser.error(f"--orlicz is not valid JSON: {exc.msg}")
    try:
        return orlicz.from_spec(spec)
    except ValueError as exc:
        parser.error(str(exc))


def _load_input(parser, args):
    if not args.input:
        parser.error("this command needs --input")
    try:
        return spectrum.read_coeffs(args.input)
    except OSError as exc:
        parser.error(f"cannot read {args.input}: {exc.strerror}")
    except ValueError as exc:
        parser.error(str(exc))


def _emit(path, text: str) -> None:
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _value_text(value: float) -> str:
    # scalars are printed just inside the default solver tolerance so that
    # bracket-midpoint noise in the trailing digits does not leak into output
    return repr(float(f"{float(value):.11g}")) + "\n"


def _require(parser, args, *names):
    for name in names:
        if getattr(args, name) is None:
            parser.error(f"this command needs --{name.replace('_', '-')}")


def run(argv=None) -> int:
    """Parse argv, execute one subcommand, and return the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(parser, args)
    except SystemExit as exc:
        return _EXIT_USAGE if exc.code else _EXIT_OK
    except (ValueError, OSError, ArithmeticError) as exc:
        # arithmetic errors come from parameters beyond the float range, such
        # as a gauge exponent of 1e308 or an order whose modulus underflows to 0
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


# Commands that print one result for a gauge and an input file: (required flags, text of (args, phi, f)).
_SCALAR = {
    "norm": ((), lambda args, phi, f: _value_text(orlicz.luxemburg_norm(phi, f, rtol=args.tol))),
    "onorm": ((), lambda args, phi, f: _value_text(orlicz.orlicz_norm(phi, f, rtol=args.tol))),
    "en": (("n",), lambda args, phi, f: _value_text(approx.best_approx(f, phi, args.n, rtol=args.tol))),
    "omega": (("delta",), lambda args, phi, f: _value_text(fracdiff.modulus(
        f, phi, args.alpha, args.delta, grid=args.grid, rtol=args.tol))),
    # the KEstimate fields, in order
    "kfunc": (("delta",), lambda args, phi, f: verify.format_json(asdict(kfunc.k_functional(
        f, phi, args.alpha, args.delta, args.n, rtol=args.tol))) + "\n"),
}


def _dispatch(parser, args) -> int:
    cmd = args.command
    if not 0.0 <= getattr(args, "tol", 0.0) < 1.0:  # negative, NaN, infinite or >= 1 brackets nothing
        parser.error(f"--tol must be a number in [0, 1), got {args.tol}")
    if cmd in _SCALAR:
        required, text = _SCALAR[cmd]
        _require(parser, args, *required)
        phi = _load_gauge(parser, args)
        _emit(args.output, text(args, phi, _load_input(parser, args)))
    elif cmd == "kernel":
        _require(parser, args, "n", "r")
        if not args.r.is_integer():
            parser.error("kernel needs an integer --r")
        spec, kern = approx.jackson_kernel(args.n, int(args.r))
        spectrum.write_coeffs(kern, args.output or sys.stdout)
        if args.output:
            sys.stdout.write(verify.format_json({**asdict(spec), "degree": spec.degree}) + "\n")
    elif cmd == "sigma":
        _require(parser, args, "n")
        f = _load_input(parser, args)
        sig = approx.jackson_approximant(f, args.alpha, args.n)
        spectrum.write_coeffs(sig, args.output or sys.stdout)
        if args.output:
            # coefficients go to the file; the residual norm goes to stdout
            phi = _load_gauge(parser, args)
            sys.stdout.write(_value_text(orlicz.luxemburg_norm(phi, f - sig, rtol=args.tol)))
    elif cmd == "verify":
        report = _run_verify(parser, args)
        text = report.to_json() if args.format == "json" else report.to_csv()
        _emit(args.output, text)
        return _EXIT_OK if report.passed else _EXIT_FAILED
    return _EXIT_OK


def _run_verify(parser, args):
    phi = _load_gauge(parser, args)
    kind = args.kind
    if kind in ("direct", "inverse"):
        sweep = verify.direct_report if kind == "direct" else verify.inverse_report
        return sweep(args.family, args.alpha, phi, n_max=args.n_max, seed=args.seed, grid=args.grid,
                     rtol=args.tol)
    if kind == "equiv":
        return verify.equivalence_report(args.family, args.alpha, phi, seed=args.seed,
                                         grid=args.grid, rtol=args.tol)
    if kind == "balpha":
        _require(parser, args, "r")
        return verify.balpha_check(verify.MajorantOmega.power(args.r), args.alpha, args.n_max)
    if kind == "classify":
        _require(parser, args, "r")
        f = _load_input(parser, args)
        return verify.classify(f, phi, verify.MajorantOmega.power(args.r), args.alpha,
                               n_max=args.n_max, grid=args.grid, rtol=args.tol)
    if kind == "rates":
        _require(parser, args, "beta")
        return verify.rates_report(args.beta, args.alpha, phi, band=args.band,
                                   j_min=3, j_max=9, grid=args.grid, rtol=args.tol)
    raise AssertionError(kind)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
