"""The ``eop`` commands whose CSV rows are exact ``n,numerator,denominator``
triples from the sequence layers: gamma-approx, euler-approx, pade,
e-convergents and fit.

``cli``'s command table names these functions without importing this module,
which it imports only when one of them runs, so that a numeric command
(gamma-deriv, asym-check, intseq) neither loads nor compiles it. Each takes
the parsed arguments and returns (body, rows, footer) for ``cli._run``: the
JSON fields after the parameters, the CSV rows and the CSV footer.
"""

from __future__ import annotations

from fractions import Fraction

from . import constructions
from .numcore import UsageError, _decimal_str, _digits, _parse_int


def _ratio(v: Fraction) -> list:
    return [_decimal_str(v.numerator), _decimal_str(v.denominator)]


def _exact_body(args, rows: list, estimates: dict) -> dict:
    """The JSON fields of an exact sequence; the values, as decimal strings,
    only when the artifact is JSON (CSV writes the rows themselves)."""
    body = {"estimates": estimates}
    if args.format == "json":
        body["values"] = [[n, _decimal_str(a), _decimal_str(b)] for n, a, b in rows]
    return body


def sequence(args) -> tuple:
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


def pade(args) -> tuple:
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


def e_convergents(args) -> tuple:
    rows = [(n, *pair) for n, pair in enumerate(constructions.e_convergents(args.n), 1)]
    return _exact_body(args, rows, {}), rows, None


def fit(args) -> tuple:
    import csv

    try:
        with args.input.open(newline="", encoding="utf-8") as fh:
            # skip the "# key,value" footer lines that sequence CSVs end with
            reader = csv.DictReader((ln for ln in fh if not ln.startswith("#")), restval="")
            if not {"numerator", "denominator"} <= set(reader.fieldnames or ()):
                raise UsageError("fit input needs an n,numerator,denominator CSV")
            values = [Fraction(_parse_int(row["numerator"]), _parse_int(row["denominator"]))
                      for row in reader]
    # no file, a directory, non-UTF-8 bytes, a bad field, a zero denominator, a short row
    except (OSError, csv.Error, ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot read {args.input} as an n,numerator,denominator CSV: "
                         f"{type(exc).__name__}: {exc}")
    growth = constructions.fit_growth(values)
    estimates = {
        "q": f"{growth.q:.10g}",
        "u": f"{growth.u:.10g}",
        "v": growth.v,
        "sub_geometric": growth.sub_geometric,
        "factorial_order": growth.factorial_order,
        "oscillatory": growth.oscillatory,
    }
    return {"values": [], "estimates": estimates}, list(estimates.items()), None
