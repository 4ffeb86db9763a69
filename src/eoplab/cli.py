"""Batch command-line front end emitting CSV/JSON artifacts plus run manifests.

Exact sequences are emitted as ``n,numerator,denominator`` CSV rows; numeric
tables as ``n,value`` with a fixed digit count. JSON artifacts carry numeric
values as decimal strings, never as binary floats. Every command writes a
manifest recording the command, parameters, precision, and output files;
``eop replay <manifest>`` re-runs the recorded command (it does not compare
the new outputs with the recorded ones).

Exit codes: 0 success, 1 usage error, 2 domain error, 3 precision failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import re
import sys
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

from mpmath import mp, workprec

from . import __version__
from .numcore import (DEFAULT_PREC, DomainError, LeadingCoefficientVanishes,
                      PrecisionError, RouteDisagreement, to_mpf)

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


def _digits(value, d: int, prec: int) -> str:
    with workprec(prec + 16):
        return mp.nstr(value, d, strip_zeros=False)


def _precision(prec: int | None) -> int:
    """The --prec value, else EOP_DEFAULT_PREC, else DEFAULT_PREC; at least 1 bit."""
    if prec is None:
        env = os.environ.get("EOP_DEFAULT_PREC")
        try:
            prec = int(env) if env else DEFAULT_PREC
        except ValueError:
            raise _UsageError(f"EOP_DEFAULT_PREC must be an integer, got {env!r}")
    if prec < 1:
        raise _UsageError(f"precision must be at least 1 bit, got {prec}")
    return prec


def _ratio(v: Fraction) -> list:
    return [str(v.numerator), str(v.denominator)]


def _exact_body(args, rows: list, estimates: dict) -> dict:
    """The JSON fields of an exact sequence; the values, as decimal strings,
    only when the artifact is JSON (CSV writes the rows themselves)."""
    body = {"estimates": estimates}
    if args.format == "json":
        body["values"] = [[n, *_ratio(v)] for n, v in rows]
    return body


# A subcommand: args holds (flag, add_argument keywords) pairs; compute(args)
# returns (params, body, rows, footer), the recorded parameters, the other JSON
# fields, the CSV rows and its footer; records_digits says whether the manifest
# records --digits; exact_rows, whether CSV rows are n,numerator,denominator
# (else n,value).
_Command = namedtuple("_Command", "name help args compute records_digits exact_rows")


def _sequence(args) -> tuple:
    from . import constructions

    params = {"n": args.n, "method": args.method}
    if args.cmd == "gamma-approx":
        run = constructions.gamma_seq(args.alpha, args.n, args.method, args.prec)
        params["alpha"] = str(args.alpha)
    else:
        run = constructions.euler_seq(args.n, args.method, args.prec)
    estimates = {}
    if run.limit is not None:
        estimates["limit_estimate"] = _digits(run.limit, args.digits, args.prec)
    if run.rate_exponent is not None:
        estimates["rate_exponent"] = f"{run.rate_exponent:.6f}"
    if "exact_agreement" in run.metadata:
        estimates["exact_agreement"] = run.metadata["exact_agreement"]
    rows = list(enumerate(run.values))
    return params, _exact_body(args, rows, estimates), rows, estimates


def _pade(args) -> tuple:
    from . import constructions

    p, q = constructions.pade_exp(args.n)
    params, body, rows = {"n": args.n}, {"estimates": {}}, []
    for name, poly in (("p", p), ("q", q)):
        body[f"{name}_coeffs"] = [_ratio(c) for c in poly.coeffs]
        rows += [(f"{name}{i}", c) for i, c in enumerate(poly.coeffs)]
    if args.z is not None:
        pz, qz = p(args.z), q(args.z)
        params["z"] = str(args.z)
        body["estimates"] = {
            "p_at_z": f"{pz.numerator}/{pz.denominator}",
            "q_at_z": f"{qz.numerator}/{qz.denominator}",
        }
        rows += [("p(z)", pz), ("q(z)", qz)]
    return params, body, rows, None


def _e_convergents(args) -> tuple:
    from . import constructions

    rows = [(n, Fraction(*pair))
            for n, pair in enumerate(constructions._e_convergent_rows(args.n), 1)]
    return {"n": args.n}, _exact_body(args, rows, {}), rows, None


def _intseq(args) -> tuple:
    from . import constructions

    res = constructions.intseq(args.k, args.prec)
    consts = constructions.intseq_constants(args.prec)
    rows = [(k, Fraction(res.U[k], res.V[k]) if res.V[k] else Fraction(res.U[k]))
            for k in range(len(res.U))]
    estimates = {
        "recurrence_disagreement": _digits(res.recurrence_disagreement, 8, args.prec),
        **{key: _digits(getattr(consts, key), args.digits, args.prec)
           for key in ("wronskian", "a", "b", "c", "d")},
    }
    body = {
        "U": [str(u) for u in res.U],
        "V": [str(v) for v in res.V],
        "A": [_digits(a, args.digits, args.prec) for a in res.A],
        "estimates": estimates,
    }
    return {"k": args.k}, body, rows, estimates


def _asym_check(args) -> tuple:
    from . import asymlab

    prec = args.prec
    if args.which == "ealpha" and args.alpha is None:
        raise _UsageError("--which ealpha requires --alpha")
    alpha = args.alpha if args.which == "ealpha" else None
    which = "E_loglike" if alpha is None else "E_alpha"
    direct = asymlab.direct_E_eval(which, args.z, prec, alpha=alpha)
    order = max(8, int(round(abs(float(args.z)))) + 8)
    if alpha is None:
        series = asymlab.asym_E_log(order, prec)
    else:
        series = asymlab.asym_E_alpha(alpha, order, prec)
    nstar = asymlab.optimal_truncation(args.z, series.order)
    approx = asymlab.eval_asym(series, args.z, nstar, prec)
    with workprec(prec + 16):
        rel = abs((direct - approx) / direct)
        passed = bool(rel <= to_mpf(Fraction(1, 10**15), prec))
    params = {"which": args.which, "z": str(args.z)}
    if alpha is not None:
        params["alpha"] = str(alpha)
    estimates = {
        "direct": _digits(direct, args.digits, prec),
        "asymptotic": _digits(approx, args.digits, prec),
        "optimal_truncation": nstar,
        "relative_error": _digits(rel, 8, prec),
        "pass": passed,
    }
    return params, {"values": [], "estimates": estimates}, list(estimates.items()), None


def _gamma_deriv(args) -> tuple:
    from . import gammalab

    derivs = gammalab.gamma_deriv(args.order, args.s, args.prec)
    rows = [(k, _digits(v, args.digits, args.prec)) for k, v in enumerate(derivs.values)]
    params = {"s": str(args.s), "order": args.order}
    return params, {"values": rows, "estimates": {}}, rows, None


def _fit(args) -> tuple:
    from . import constructions

    path = Path(args.input)
    if not path.exists():
        raise _UsageError(f"input file {path} does not exist")
    with path.open(newline="", encoding="utf-8") as fh:
        # skip the "# key,value" footer lines that sequence CSVs end with
        reader = csv.DictReader(line for line in fh if not line.startswith("#"))
        if reader.fieldnames is None or "numerator" not in reader.fieldnames:
            raise _UsageError("fit input needs an n,numerator,denominator CSV")
        values = [Fraction(int(row["numerator"]), int(row["denominator"]))
                  for row in reader]
    fit = constructions.fit_growth(values, prec=args.prec)
    estimates = {
        "q": f"{fit.q:.10g}",
        "u": f"{fit.u:.10g}",
        "v": fit.v,
        "sub_geometric": fit.sub_geometric,
        "factorial_order": fit.factorial_order,
        "oscillatory": fit.oscillatory,
    }
    body = {"values": [], "estimates": estimates}
    return {"input": str(path)}, body, list(estimates.items()), None


_METHOD = ("--method",
           dict(choices=("closed", "recurrence", "series", "all"), default="all"))
_N = ("--n", dict(type=int, required=True))

COMMANDS = (
    _Command("gamma-approx", "sequence converging to Gamma(alpha)",
             (("--alpha", dict(type=_parse_rational, required=True)), _N, _METHOD),
             _sequence, True, True),
    _Command("euler-approx", "sequence converging to Euler's constant",
             (_N, _METHOD), _sequence, True, True),
    _Command("pade", "diagonal rational approximant to exp",
             (_N, ("--z", dict(type=_parse_rational, default=None))),
             _pade, False, True),
    _Command("e-convergents", "continued-fraction convergents of e",
             (_N,), _e_convergents, False, True),
    _Command("intseq", "integer pair for the Bessel-type ratio",
             (("--k", dict(type=int, required=True)),), _intseq, True, True),
    _Command("asym-check", "asymptotic expansion vs direct summation",
             (("--which", dict(choices=("ealpha", "elog"), required=True)),
              ("--alpha", dict(type=_parse_rational, default=None)),
              ("--z", dict(type=_parse_rational, required=True))),
             _asym_check, True, False),
    _Command("gamma-deriv", "derivatives of Gamma at a rational point",
             (("--s", dict(type=_parse_rational, required=True)),
              ("--order", dict(type=int, required=True))),
             _gamma_deriv, True, False),
    _Command("fit", "growth-model fit of an exact CSV sequence",
             (("--input", dict(required=True)),), _fit, False, False),
)


def _dump_json(obj, fh) -> None:
    json.dump(obj, fh, indent=2, sort_keys=True)
    fh.write("\n")


def _run(command: _Command, args) -> None:
    """Compute, then write the artifact and the manifest, each once."""
    params, body, rows, footer = command.compute(args)
    name = command.name.replace("-", "_")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.{args.format}"
    recorded = {**params, "format": args.format}
    if command.records_digits:
        recorded["digits"] = args.digits
    manifest = {"command": name, "params": recorded, "precision_bits": args.prec,
                "tool_version": __version__, "outputs": [str(path)]}
    with path.open("w", newline="", encoding="utf-8") as fh:
        if args.format == "json":
            _dump_json({"command": name, "params": params, "precision_bits": args.prec,
                        **body, "manifest": manifest}, fh)
        else:
            w = csv.writer(fh, lineterminator="\n")
            if command.exact_rows:
                w.writerow(["n", "numerator", "denominator"])
                rows = [(n, v.numerator, v.denominator) for n, v in rows]
            else:
                w.writerow(["n", "value"])
            w.writerows(rows)
            for key, val in (footer or {}).items():
                fh.write(f"# {key},{val}\n")
    man_path = out_dir / f"{name}.manifest.json"
    with man_path.open("w", encoding="utf-8") as fh:
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
        p.add_argument("--digits", type=int, default=30)
        p.add_argument("--prec", type=int, default=None,
                       help="precision in bits (default 256 or EOP_DEFAULT_PREC)")
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
        args.prec = _precision(args.prec)
        if args.digits < 1:
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
