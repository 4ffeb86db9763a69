"""Batch command-line front end emitting CSV/JSON artifacts plus run manifests.

Exact sequences are emitted as ``n,numerator,denominator`` CSV rows; numeric
tables as ``n,value`` with a fixed digit count. JSON artifacts carry numeric
values as decimal strings, never as binary floats. Every command writes a
manifest recording the command, parameters, precision, and output files;
``eop replay <manifest>`` re-runs it and must reproduce the outputs.

Exit codes: 0 success, 1 usage error, 2 domain error, 3 precision failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

from mpmath import mp, workprec

from . import __version__
from .numcore import DEFAULT_PREC, DomainError, PrecisionError, to_mpf
from . import asymlab, constructions, gammalab

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_PRECISION = 3


@dataclass
class RunManifest:
    command: str
    params: dict
    precision_bits: int
    tool_version: str
    outputs: list


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_rational(text: str) -> Fraction:
    """Accept only p or p/q integer strings; decimals are rejected."""
    t = text.strip()
    parts = t.split("/")
    try:
        if len(parts) == 1:
            return Fraction(int(parts[0]))
        if len(parts) == 2:
            return Fraction(int(parts[0]), int(parts[1]))
    except (ValueError, ZeroDivisionError):
        pass
    raise _UsageError(f"expected an exact rational like 3 or -1/2, got {text!r}")


def _digits(value, d: int, prec: int) -> str:
    with workprec(prec + 16):
        return mp.nstr(value, d, strip_zeros=False)


def _default_prec() -> int:
    env = os.environ.get("EOP_DEFAULT_PREC")
    if env:
        try:
            return int(env)
        except ValueError:
            raise _UsageError(f"EOP_DEFAULT_PREC must be an integer, got {env!r}")
    return DEFAULT_PREC


def _write_exact_csv(path: Path, rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["n", "numerator", "denominator"])
        for n, v in rows:
            w.writerow([n, v.numerator, v.denominator])


def _write_numeric_csv(path: Path, rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["n", "value"])
        for n, v in rows:
            w.writerow([n, v])


def _emit(out_dir: Path, name: str, payload: dict, fmt: str, exact_rows=None,
          numeric_rows=None, footer=None) -> list:
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    if fmt == "csv":
        path = out_dir / f"{name}.csv"
        if exact_rows is not None:
            _write_exact_csv(path, exact_rows)
        else:
            _write_numeric_csv(path, numeric_rows or [])
        if footer:
            with path.open("a", encoding="utf-8") as fh:
                for key, val in footer.items():
                    fh.write(f"# {key},{val}\n")
        outputs.append(str(path))
    else:
        path = out_dir / f"{name}.json"
        with path.open("w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        outputs.append(str(path))
    return outputs


def _finalize(out_dir: Path, name: str, manifest: RunManifest) -> None:
    man_path = out_dir / f"{name}.manifest.json"
    with man_path.open("w", encoding="utf-8") as fh:
        json.dump(asdict(manifest), fh, indent=2, sort_keys=True)
        fh.write("\n")
    for f in manifest.outputs:
        print(f)
    print(man_path)


def _sequence_command(args, which: str) -> None:
    prec = args.prec
    if which == "gamma":
        run = constructions.gamma_seq(args.alpha, args.n, method=args.method, prec=prec)
        name = "gamma_approx"
        params = {"alpha": str(args.alpha), "n": args.n, "method": args.method}
    else:
        run = constructions.euler_seq(args.n, method=args.method, prec=prec)
        name = "euler_approx"
        params = {"n": args.n, "method": args.method}
    estimates = {}
    if run.limit is not None:
        estimates["limit_estimate"] = _digits(run.limit, args.digits, prec)
    if run.rate_exponent is not None:
        estimates["rate_exponent"] = f"{run.rate_exponent:.6f}"
    if "exact_agreement" in run.metadata:
        estimates["exact_agreement"] = run.metadata["exact_agreement"]
    payload = {
        "command": name,
        "params": params,
        "precision_bits": prec,
        "values": [
            [n, str(v.numerator), str(v.denominator)] for n, v in enumerate(run.values)
        ],
        "estimates": estimates,
    }
    outputs = _emit(
        Path(args.out), name, payload, args.format,
        exact_rows=list(enumerate(run.values)), footer=estimates,
    )
    manifest = RunManifest(name, {**params, "format": args.format,
                                  "digits": args.digits},
                           prec, __version__, outputs)
    payload["manifest"] = asdict(manifest)
    if args.format == "json":
        _emit(Path(args.out), name, payload, "json")
    _finalize(Path(args.out), name, manifest)


def _cmd_gamma_approx(args) -> None:
    _sequence_command(args, "gamma")


def _cmd_euler_approx(args) -> None:
    _sequence_command(args, "euler")


def _cmd_pade(args) -> None:
    p, q = constructions.pade_exp(args.n)
    params = {"n": args.n}
    rows = []
    pz = qz = None
    if args.z is not None:
        pz, qz = p(args.z), q(args.z)
        params["z"] = str(args.z)
    payload = {
        "command": "pade",
        "params": params,
        "precision_bits": args.prec,
        "p_coeffs": [[str(c.numerator), str(c.denominator)] for c in p.coeffs],
        "q_coeffs": [[str(c.numerator), str(c.denominator)] for c in q.coeffs],
        "estimates": {},
    }
    for i, c in enumerate(p.coeffs):
        rows.append((f"p{i}", c))
    for i, c in enumerate(q.coeffs):
        rows.append((f"q{i}", c))
    if pz is not None:
        payload["estimates"] = {
            "p_at_z": f"{pz.numerator}/{pz.denominator}",
            "q_at_z": f"{qz.numerator}/{qz.denominator}",
        }
        rows.append(("p(z)", pz))
        rows.append(("q(z)", qz))
    outputs = _emit(Path(args.out), "pade", payload, args.format, exact_rows=rows)
    manifest = RunManifest("pade", {**params, "format": args.format}, args.prec,
                           __version__, outputs)
    payload["manifest"] = asdict(manifest)
    if args.format == "json":
        _emit(Path(args.out), "pade", payload, "json")
    _finalize(Path(args.out), "pade", manifest)


def _cmd_e_convergents(args) -> None:
    rows = []
    for n in range(1, args.n + 1):
        num, den = constructions.e_convergents(n)
        rows.append((n, Fraction(num, den)))
    payload = {
        "command": "e_convergents",
        "params": {"n": args.n},
        "precision_bits": args.prec,
        "values": [[n, str(v.numerator), str(v.denominator)] for n, v in rows],
        "estimates": {},
    }
    outputs = _emit(Path(args.out), "e_convergents", payload, args.format,
                    exact_rows=rows)
    manifest = RunManifest("e_convergents", {"n": args.n, "format": args.format},
                           args.prec, __version__, outputs)
    payload["manifest"] = asdict(manifest)
    if args.format == "json":
        _emit(Path(args.out), "e_convergents", payload, "json")
    _finalize(Path(args.out), "e_convergents", manifest)


def _cmd_intseq(args) -> None:
    res = constructions.intseq(args.k, args.prec)
    consts = constructions.intseq_constants(args.prec)
    rows = [(k, Fraction(res.U[k], res.V[k]) if res.V[k] else Fraction(res.U[k]))
            for k in range(len(res.U))]
    payload = {
        "command": "intseq",
        "params": {"k": args.k},
        "precision_bits": args.prec,
        "U": [str(u) for u in res.U],
        "V": [str(v) for v in res.V],
        "A": [_digits(a, args.digits, args.prec) for a in res.A],
        "estimates": {
            "recurrence_disagreement": _digits(
                res.recurrence_disagreement, 8, args.prec
            ),
            "wronskian": _digits(consts.wronskian, args.digits, args.prec),
            "a": _digits(consts.a, args.digits, args.prec),
            "b": _digits(consts.b, args.digits, args.prec),
            "c": _digits(consts.c, args.digits, args.prec),
            "d": _digits(consts.d, args.digits, args.prec),
        },
    }
    outputs = _emit(Path(args.out), "intseq", payload, args.format, exact_rows=rows,
                    footer=payload["estimates"])
    manifest = RunManifest("intseq", {"k": args.k, "format": args.format,
                                      "digits": args.digits},
                           args.prec, __version__, outputs)
    payload["manifest"] = asdict(manifest)
    if args.format == "json":
        _emit(Path(args.out), "intseq", payload, "json")
    _finalize(Path(args.out), "intseq", manifest)


def _cmd_asym_check(args) -> None:
    prec = args.prec
    which = "E_alpha" if args.which == "ealpha" else "E_loglike"
    alpha = args.alpha if which == "E_alpha" else None
    if which == "E_alpha" and alpha is None:
        raise _UsageError("--which ealpha requires --alpha")
    direct = asymlab.direct_E_eval(which, args.z, prec, alpha=alpha)
    order = max(8, int(round(abs(float(args.z)))) + 8)
    series = (
        asymlab.asym_E_alpha(alpha, order, prec)
        if which == "E_alpha"
        else asymlab.asym_E_log(order, prec)
    )
    nstar = asymlab.optimal_truncation(args.z, series.order)
    approx = asymlab.eval_asym(series, args.z, nstar, prec)
    with workprec(prec + 16):
        rel = abs((direct - approx) / direct)
        passed = bool(rel <= to_mpf(Fraction(1, 10**15), prec))
    params = {"which": args.which, "z": str(args.z)}
    if alpha is not None:
        params["alpha"] = str(alpha)
    payload = {
        "command": "asym_check",
        "params": params,
        "precision_bits": prec,
        "values": [],
        "estimates": {
            "direct": _digits(direct, args.digits, prec),
            "asymptotic": _digits(approx, args.digits, prec),
            "optimal_truncation": nstar,
            "relative_error": _digits(rel, 8, prec),
            "pass": passed,
        },
    }
    rows = [("direct", _digits(direct, args.digits, prec)),
            ("asymptotic", _digits(approx, args.digits, prec)),
            ("optimal_truncation", nstar),
            ("relative_error", _digits(rel, 8, prec)),
            ("pass", passed)]
    outputs = _emit(Path(args.out), "asym_check", payload, args.format,
                    numeric_rows=rows)
    manifest = RunManifest("asym_check", {**params, "format": args.format,
                                          "digits": args.digits},
                           prec, __version__, outputs)
    payload["manifest"] = asdict(manifest)
    if args.format == "json":
        _emit(Path(args.out), "asym_check", payload, "json")
    _finalize(Path(args.out), "asym_check", manifest)


def _cmd_gamma_deriv(args) -> None:
    derivs = gammalab.gamma_deriv(args.order, args.s, args.prec)
    rows = [(k, _digits(v, args.digits, args.prec)) for k, v in enumerate(derivs.values)]
    payload = {
        "command": "gamma_deriv",
        "params": {"s": str(args.s), "order": args.order},
        "precision_bits": args.prec,
        "values": [[k, _digits(v, args.digits, args.prec)]
                   for k, v in enumerate(derivs.values)],
        "estimates": {},
    }
    outputs = _emit(Path(args.out), "gamma_deriv", payload, args.format,
                    numeric_rows=rows)
    manifest = RunManifest(
        "gamma_deriv",
        {"s": str(args.s), "order": args.order, "format": args.format,
         "digits": args.digits},
        args.prec, __version__, outputs)
    payload["manifest"] = asdict(manifest)
    if args.format == "json":
        _emit(Path(args.out), "gamma_deriv", payload, "json")
    _finalize(Path(args.out), "gamma_deriv", manifest)


def _cmd_fit(args) -> None:
    path = Path(args.input)
    if not path.exists():
        raise _UsageError(f"input file {path} does not exist")
    values = []
    with path.open(newline="", encoding="utf-8") as fh:
        # skip the "# key,value" footer lines that sequence CSVs end with
        reader = csv.DictReader(line for line in fh if not line.startswith("#"))
        if reader.fieldnames is None or "numerator" not in reader.fieldnames:
            raise _UsageError("fit input needs an n,numerator,denominator CSV")
        for row in reader:
            values.append(Fraction(int(row["numerator"]), int(row["denominator"])))
    fit = constructions.fit_growth(values, prec=args.prec)
    payload = {
        "command": "fit",
        "params": {"input": str(path)},
        "precision_bits": args.prec,
        "values": [],
        "estimates": {
            "q": f"{fit.q:.10g}",
            "u": f"{fit.u:.10g}",
            "v": fit.v,
            "sub_geometric": fit.sub_geometric,
            "factorial_order": fit.factorial_order,
            "oscillatory": fit.oscillatory,
        },
    }
    rows = list(payload["estimates"].items())
    outputs = _emit(Path(args.out), "fit", payload, args.format, numeric_rows=rows)
    manifest = RunManifest("fit", {"input": str(path), "format": args.format},
                           args.prec, __version__, outputs)
    payload["manifest"] = asdict(manifest)
    if args.format == "json":
        _emit(Path(args.out), "fit", payload, "json")
    _finalize(Path(args.out), "fit", manifest)


def _cmd_replay(args) -> int:
    with open(args.manifest, encoding="utf-8") as fh:
        man = json.load(fh)
    argv = [man["command"].replace("_", "-")]
    params = dict(man["params"])
    for key, val in params.items():
        argv.extend([f"--{key.replace('_', '-')}", str(val)])
    argv.extend(["--prec", str(man["precision_bits"])])
    argv.extend(["--out", args.out or str(Path(args.manifest).parent)])
    return main(argv)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--digits", type=int, default=30)
    p.add_argument("--prec", type=int, default=None,
                   help="precision in bits (default 256 or EOP_DEFAULT_PREC)")
    p.add_argument("--out", default=".", help="output directory")


def _build_parser() -> _Parser:
    parser = _Parser(prog="eop", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gamma-approx", help="sequence converging to Gamma(alpha)")
    g.add_argument("--alpha", type=_parse_rational, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--method", choices=("closed", "recurrence", "series", "all"),
                   default="all")
    _add_common(g)
    g.set_defaults(fn=_cmd_gamma_approx)

    e = sub.add_parser("euler-approx", help="sequence converging to Euler's constant")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--method", choices=("closed", "recurrence", "series", "all"),
                   default="all")
    _add_common(e)
    e.set_defaults(fn=_cmd_euler_approx)

    p = sub.add_parser("pade", help="diagonal rational approximant to exp")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--z", type=_parse_rational, default=None)
    _add_common(p)
    p.set_defaults(fn=_cmd_pade)

    c = sub.add_parser("e-convergents", help="continued-fraction convergents of e")
    c.add_argument("--n", type=int, required=True)
    _add_common(c)
    c.set_defaults(fn=_cmd_e_convergents)

    i = sub.add_parser("intseq", help="integer pair for the Bessel-type ratio")
    i.add_argument("--k", type=int, required=True)
    _add_common(i)
    i.set_defaults(fn=_cmd_intseq)

    a = sub.add_parser("asym-check", help="asymptotic expansion vs direct summation")
    a.add_argument("--which", choices=("ealpha", "elog"), required=True)
    a.add_argument("--alpha", type=_parse_rational, default=None)
    a.add_argument("--z", type=_parse_rational, required=True)
    _add_common(a)
    a.set_defaults(fn=_cmd_asym_check)

    d = sub.add_parser("gamma-deriv", help="derivatives of Gamma at a rational point")
    d.add_argument("--s", type=_parse_rational, required=True)
    d.add_argument("--order", type=int, required=True)
    _add_common(d)
    d.set_defaults(fn=_cmd_gamma_deriv)

    f = sub.add_parser("fit", help="growth-model fit of an exact CSV sequence")
    f.add_argument("--input", required=True)
    _add_common(f)
    f.set_defaults(fn=_cmd_fit)

    r = sub.add_parser("replay", help="re-run a manifest")
    r.add_argument("manifest")
    r.add_argument("--out", default=None)
    r.set_defaults(fn=_cmd_replay)
    return parser


def main(argv: list | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "prec", None) is None and args.cmd != "replay":
            args.prec = _default_prec()
        rc = args.fn(args)
        return EXIT_OK if rc is None else rc
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except PrecisionError as exc:
        print(f"precision failure: {exc}", file=sys.stderr)
        return EXIT_PRECISION


if __name__ == "__main__":
    sys.exit(main())
