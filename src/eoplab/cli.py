"""Batch command-line front end emitting CSV/JSON artifacts plus run manifests.

Exact sequences are emitted as ``n,numerator,denominator`` CSV rows (for
``intseq`` the pairs ``k,U_k,V_k``, whose V_1 = 0 ``eop fit`` refuses);
numeric tables as ``n,value`` with a fixed digit count. No field needs CSV
quoting, so rows are plain lines. Integers are written in full past Python's
int/str digit limit, and ``eop fit`` reads them back. JSON artifacts carry
numeric values as decimal strings, never as binary floats. Every command
writes a manifest recording the command, parameters, precision, and output
files; ``eop replay <manifest>`` re-runs the recorded command (it does not
compare the new outputs with the recorded ones).

Exit codes: 0 success, 1 usage error, 2 domain error, 3 precision failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

from mpmath import mp, workprec

from . import __version__
from .numcore import (DEFAULT_PREC, GUARD_BITS, DomainError, LeadingCoefficientVanishes,
                      PrecisionError, RouteDisagreement, _decimal_str, _parse_int, to_mpf)

# Each command imports the module it runs (constructions, asymlab or gammalab)
# when it runs, so a job does not pay for importing the others; constructions
# imports the series and holonomic layers only inside the sequence routes, so
# only gamma-approx and euler-approx load them. The records are namedtuples
# and plain classes, so that no job loads inspect, ast, dis or tokenize.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_PRECISION = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern plus p/q: "--alpha -5/3" is a value, not an option
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    def error(self, message):
        raise _UsageError(message)


def _parse_rational(text: str) -> Fraction:
    """Accept only p or p/q integer strings; decimals are rejected."""
    parts = text.strip().split("/")
    try:
        if len(parts) <= 2:
            return Fraction(*map(int, parts))
    except (ValueError, ZeroDivisionError):
        pass
    raise _UsageError(f"expected an exact rational like 3 or -1/2, got {text!r}")


def _digits(value, d: int) -> str:
    # mp.nstr converts the whole mantissa, which can pass the int/str digit
    # limit, so first round to the int((d + 3) log2 10) + 10 bits it reads,
    # plus 32 guard bits (the digits change only within 2^-32 of a tie)
    with workprec(int((d + 3) * 3.3219280948873626) + 42):
        return mp.nstr(+value, d, strip_zeros=False)


def _ratio(v: Fraction) -> list:
    return [_decimal_str(v.numerator), _decimal_str(v.denominator)]


def _exact_body(args, rows: list, estimates: dict) -> dict:
    """The JSON fields of an exact sequence; the values, as decimal strings,
    only when the artifact is JSON (CSV writes the rows themselves)."""
    body = {"estimates": estimates}
    if args.format == "json":
        body["values"] = [[n, _decimal_str(a), _decimal_str(b)] for n, a, b in rows]
    return body


# A subcommand: args holds (flag, add_argument keywords) pairs, _DIGITS among
# them for a command that prints numeric digits; compute(args) returns (body,
# rows, footer), the JSON fields after the parameters, the CSV rows and its
# footer; exact_rows says whether the CSV rows are n,numerator,denominator
# triples, each built by its command (else n,value pairs), which _run writes
# as given. _run records the flags given as the parameters: each declared flag
# whose value is not None, an int as itself and anything else as str; --digits
# and --format go into the manifest only.
_Command = namedtuple("_Command", "name help args compute exact_rows")


def _sequence(args) -> tuple:
    from . import constructions

    if args.cmd == "gamma-approx":
        run = constructions.gamma_seq(args.alpha, args.n, args.method, args.prec)
    else:
        run = constructions.euler_seq(args.n, args.method, args.prec)
    estimates = {}
    if run.limit is not None:
        estimates["limit_estimate"] = _digits(run.limit, args.digits)
    if run.rate_exponent is not None:
        estimates["rate_exponent"] = f"{run.rate_exponent:.6f}"
    if "exact_agreement" in run.metadata:
        estimates["exact_agreement"] = run.metadata["exact_agreement"]
    rows = [(n, v.numerator, v.denominator) for n, v in enumerate(run.values)]
    return _exact_body(args, rows, estimates), rows, estimates


def _pade(args) -> tuple:
    from . import constructions

    p, q = constructions.pade_exp(args.n)
    body, rows = {"estimates": {}}, []
    for name, poly in (("p", p), ("q", q)):
        body[f"{name}_coeffs"] = [_ratio(c) for c in poly.coeffs]
        rows += [(f"{name}{i}", c.numerator, c.denominator) for i, c in enumerate(poly.coeffs)]
    if args.z is not None:
        pz, qz = p(args.z), q(args.z)
        body["estimates"] = {"p_at_z": "/".join(_ratio(pz)), "q_at_z": "/".join(_ratio(qz))}
        rows += [(k, v.numerator, v.denominator) for k, v in (("p(z)", pz), ("q(z)", qz))]
    return body, rows, None


def _e_convergents(args) -> tuple:
    from . import constructions

    rows = [(n, *pair) for n, pair in enumerate(constructions.e_convergents(args.n), 1)]
    return _exact_body(args, rows, {}), rows, None


def _intseq(args) -> tuple:
    from . import constructions

    res = constructions.intseq(args.k, args.prec)
    consts = constructions.intseq_constants(args.prec)
    # each (U_k, V_k) is in lowest terms, as U_k V_(k+1) - U_(k+1) V_k = +-1
    rows = [(k, *uv) for k, uv in enumerate(zip(res.U, res.V))]
    estimates = {
        "recurrence_disagreement": _digits(res.recurrence_disagreement, 8),
        **{key: _digits(getattr(consts, key), args.digits)
           for key in ("wronskian", "a", "b", "c", "d")},
    }
    body = {
        "U": [_decimal_str(u) for u in res.U],
        "V": [_decimal_str(v) for v in res.V],
        "A": [_digits(a, args.digits) for a in res.A],
        "estimates": estimates,
    }
    return body, rows, estimates


def _asym_check(args) -> tuple:
    from . import asymlab

    prec, alpha = args.prec, args.alpha
    if (args.which == "ealpha") != (alpha is not None):
        raise _UsageError("--alpha is given with --which ealpha and only with it")
    direct = asymlab.direct_E_eval(args.z, prec, alpha)
    nstar = asymlab.optimal_truncation(args.z)
    if alpha is None:
        series = asymlab.asym_E_log(nstar, prec)
    else:
        series = asymlab.asym_E_alpha(alpha, nstar, prec)
    approx = asymlab.eval_asym(series, args.z, nstar, prec)
    with workprec(prec + GUARD_BITS):
        rel = abs((direct - approx) / direct)
        passed = bool(rel <= to_mpf(Fraction(1, 10**15), prec))
    estimates = {
        "direct": _digits(direct, args.digits),
        "asymptotic": _digits(approx, args.digits),
        "optimal_truncation": nstar,
        "relative_error": _digits(rel, 8),
        "pass": passed,
    }
    return {"values": [], "estimates": estimates}, list(estimates.items()), None


def _gamma_deriv(args) -> tuple:
    from . import gammalab

    derivs = gammalab.gamma_deriv(args.order, args.s, args.prec)
    rows = [(k, _digits(v, args.digits)) for k, v in enumerate(derivs.values)]
    return {"values": rows, "estimates": {}}, rows, None


def _fit(args) -> tuple:
    import csv

    from . import constructions

    try:
        with args.input.open(newline="", encoding="utf-8") as fh:
            # skip the "# key,value" footer lines that sequence CSVs end with
            reader = csv.DictReader((ln for ln in fh if not ln.startswith("#")), restval="")
            if not {"numerator", "denominator"} <= set(reader.fieldnames or ()):
                raise _UsageError("fit input needs an n,numerator,denominator CSV")
            values = [Fraction(_parse_int(row["numerator"]), _parse_int(row["denominator"]))
                      for row in reader]
    # no file, a directory, non-UTF-8 bytes, a bad field, a zero denominator, a short row
    except (OSError, csv.Error, ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"cannot read {args.input} as an n,numerator,denominator CSV: "
                          f"{type(exc).__name__}: {exc}")
    fit = constructions.fit_growth(values)
    estimates = {
        "q": f"{fit.q:.10g}",
        "u": f"{fit.u:.10g}",
        "v": fit.v,
        "sub_geometric": fit.sub_geometric,
        "factorial_order": fit.factorial_order,
        "oscillatory": fit.oscillatory,
    }
    return {"values": [], "estimates": estimates}, list(estimates.items()), None


_METHOD = ("--method",
           dict(choices=("closed", "recurrence", "series", "all"), default="all"))
_N = ("--n", dict(type=int, required=True))
_DIGITS = ("--digits", dict(type=int, default=30))

COMMANDS = (
    _Command("gamma-approx", "sequence converging to Gamma(alpha)",
             (("--alpha", dict(type=_parse_rational, required=True)), _N, _METHOD, _DIGITS),
             _sequence, True),
    _Command("euler-approx", "sequence converging to Euler's constant",
             (_N, _METHOD, _DIGITS), _sequence, True),
    _Command("pade", "diagonal rational approximant to exp",
             (_N, ("--z", dict(type=_parse_rational, default=None))),
             _pade, True),
    _Command("e-convergents", "continued-fraction convergents of e",
             (_N,), _e_convergents, True),
    _Command("intseq", "integer pair for the Bessel-type ratio",
             (("--k", dict(type=int, required=True)), _DIGITS), _intseq, True),
    _Command("asym-check", "asymptotic expansion vs direct summation",
             (("--which", dict(choices=("ealpha", "elog"), required=True)),
              ("--alpha", dict(type=_parse_rational, default=None,
                               help="alpha of E_alpha; given with --which ealpha only")),
              ("--z", dict(type=_parse_rational, required=True)), _DIGITS),
             _asym_check, False),
    _Command("gamma-deriv", "derivatives of Gamma at a rational point",
             (("--s", dict(type=_parse_rational, required=True)),
              ("--order", dict(type=int, required=True)), _DIGITS),
             _gamma_deriv, False),
    _Command("fit", "growth-model fit of an exact CSV sequence",
             (("--input", dict(type=Path, required=True)),), _fit, False),
)


def _dump_json(obj, fh) -> None:
    json.dump(obj, fh, indent=2, sort_keys=True)
    fh.write("\n")


def _create(path: Path, newline=None):
    """Open an output file for writing, making its directory first."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        return path.open("w", newline=newline, encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}")


def _run(command: _Command, args) -> None:
    """Compute, then write the artifact and the manifest, each once."""
    body, rows, footer = command.compute(args)
    params = {}
    for flag, _ in command.args:
        value = getattr(args, flag[2:])
        if flag != "--digits" and value is not None:
            params[flag[2:]] = value if isinstance(value, int) else str(value)
    name = command.name.replace("-", "_")
    out_dir = Path(args.out)
    path = out_dir / f"{name}.{args.format}"
    recorded = {**params, "format": args.format}
    if "digits" in args:
        recorded["digits"] = args.digits
    manifest = {"command": name, "params": recorded, "precision_bits": args.prec,
                "tool_version": __version__, "outputs": [str(path)]}
    with _create(path, newline="") as fh:
        if args.format == "json":
            _dump_json({"command": name, "params": params, "precision_bits": args.prec,
                        **body, "manifest": manifest}, fh)
        else:
            fh.write("n,numerator,denominator\n" if command.exact_rows else "n,value\n")
            fh.writelines(",".join(map(_decimal_str, row)) + "\n" for row in rows)
            fh.writelines(f"# {key},{val}\n" for key, val in (footer or {}).items())
    man_path = out_dir / f"{name}.manifest.json"
    with _create(man_path) as fh:
        _dump_json(manifest, fh)
    print(path)
    print(man_path)


def _read_manifest(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            man = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise _UsageError(f"cannot read manifest {path}: {exc}")
    if not (isinstance(man, dict) and isinstance(man.get("command"), str)
            and isinstance(man.get("params"), dict) and "precision_bits" in man):
        raise _UsageError(f"{path} is not an eop manifest: it needs the keys "
                          "command, params and precision_bits")
    return man


def _cmd_replay(args) -> int:
    man = _read_manifest(args.manifest)
    # --key=value, so that a negative rational is never read as an option
    argv = [man["command"].replace("_", "-")]
    argv += [f"--{key.replace('_', '-')}={val}" for key, val in man["params"].items()]
    argv += [f"--prec={man['precision_bits']}",
             f"--out={args.out or Path(args.manifest).parent}"]
    return main(argv)


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process: parse_args keeps no state in it."""
    parser = _Parser(prog="eop", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command.name, help=command.help)
        for flag, kwargs in command.args:
            p.add_argument(flag, **kwargs)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--prec", type=int, default=DEFAULT_PREC,
                       help=f"precision in bits, at least 1 (default {DEFAULT_PREC})")
        p.add_argument("--out", default=".", help="output directory")
        p.set_defaults(command=command)
    r = sub.add_parser("replay", help="re-run a manifest")
    r.add_argument("manifest")
    r.add_argument("--out", default=None)
    return parser


def main(argv: list | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.cmd == "replay":
            return _cmd_replay(args)
        if args.prec < 1:
            raise _UsageError(f"precision must be at least 1 bit, got {args.prec}")
        if "digits" in args and args.digits < 1:
            raise _UsageError(f"--digits must be at least 1, got {args.digits}")
        _run(args.command, args)
        return EXIT_OK
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, LeadingCoefficientVanishes, RouteDisagreement) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except PrecisionError as exc:
        print(f"precision failure: {exc}", file=sys.stderr)
        return EXIT_PRECISION


if __name__ == "__main__":
    sys.exit(main())
