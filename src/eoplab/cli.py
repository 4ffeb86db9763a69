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

from mpmath import workprec

from . import __version__
from .numcore import (DEFAULT_PREC, GUARD_BITS, DomainError, LeadingCoefficientVanishes,
                      PrecisionError, RouteDisagreement, UsageError, _decimal_str, _digits,
                      to_mpf)

# A job compiles and imports only what its command runs. main builds the
# sub-parser of the one command it is given. Each command imports the module
# it runs (constructions, asymlab or gammalab) when it runs; the commands
# with exact rows from the sequence layers are in exactrows, which the
# command table names without importing (as pip's command registry does);
# and constructions imports the kernels, series and holonomic layers only
# inside the routines that use them, so that intseq loads none of them. The
# records are namedtuples and plain classes, so that no job loads inspect,
# ast, dis or tokenize.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_PRECISION = 3


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern plus p/q: "--alpha -5/3" is a value, not an option
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    def error(self, message):
        raise UsageError(message)


def _parse_rational(text: str) -> Fraction:
    """Accept only p or p/q integer strings; decimals are rejected."""
    parts = text.strip().split("/")
    try:
        if len(parts) <= 2:
            return Fraction(*map(int, parts))
    except (ValueError, ZeroDivisionError):
        pass
    raise UsageError(f"expected an exact rational like 3 or -1/2, got {text!r}")


# A subcommand: args holds (flag, add_argument keywords) pairs, _DIGITS among
# them for a command that prints numeric digits; compute(args) returns (body,
# rows, footer), the JSON fields after the parameters, the CSV rows and its
# footer; exact_rows says whether the CSV rows are n,numerator,denominator
# triples, each built by its command (else n,value pairs), which _run writes
# as given. _run records the flags given as the parameters: each declared flag
# whose value is not None, an int as itself and anything else as str; --digits
# and --format go into the manifest only.
_Command = namedtuple("_Command", "name help args compute exact_rows")


def _exact_rows(name: str):
    """The command function ``name`` of exactrows, imported when it runs."""
    def compute(args) -> tuple:
        from . import exactrows

        return getattr(exactrows, name)(args)
    return compute


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
        raise UsageError("--alpha is given with --which ealpha and only with it")
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


_METHOD = ("--method",
           dict(choices=("closed", "recurrence", "series", "all"), default="all"))
_N = ("--n", dict(type=int, required=True))
_DIGITS = ("--digits", dict(type=int, default=30))

COMMANDS = (
    _Command("gamma-approx", "sequence converging to Gamma(alpha)",
             (("--alpha", dict(type=_parse_rational, required=True)), _N, _METHOD, _DIGITS),
             _exact_rows("sequence"), True),
    _Command("euler-approx", "sequence converging to Euler's constant",
             (_N, _METHOD, _DIGITS), _exact_rows("sequence"), True),
    _Command("pade", "diagonal rational approximant to exp",
             (_N, ("--z", dict(type=_parse_rational, default=None))),
             _exact_rows("pade"), True),
    _Command("e-convergents", "continued-fraction convergents of e",
             (_N,), _exact_rows("e_convergents"), True),
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
             (("--input", dict(type=Path, required=True)),), _exact_rows("fit"), False),
)
_BY_NAME = {command.name: command for command in COMMANDS}
# each sub-parser's name and its line in the full parser's help
_HELP = {**{command.name: command.help for command in COMMANDS}, "replay": "re-run a manifest"}


def _dump_json(obj, fh) -> None:
    json.dump(obj, fh, indent=2, sort_keys=True)
    fh.write("\n")


def _create(path: Path, newline=None):
    """Open an output file for writing, making its directory first."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        return path.open("w", newline=newline, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}")


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
        raise UsageError(f"cannot read manifest {path}: {exc}")
    if not (isinstance(man, dict) and isinstance(man.get("command"), str)
            and isinstance(man.get("params"), dict) and "precision_bits" in man):
        raise UsageError(f"{path} is not an eop manifest: it needs the keys "
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


def _add_arguments(parser: _Parser, name: str) -> _Parser:
    """The sub-parser of command ``name``, or of replay, given its arguments."""
    if name == "replay":
        parser.add_argument("manifest")
        parser.add_argument("--out", default=None)
        return parser
    command = _BY_NAME[name]
    for flag, kwargs in command.args:
        parser.add_argument(flag, **kwargs)
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--prec", type=int, default=DEFAULT_PREC,
                        help=f"precision in bits, at least 1 (default {DEFAULT_PREC})")
    parser.add_argument("--out", default=".", help="output directory")
    parser.set_defaults(command=command)
    return parser


@functools.cache
def _build_parser() -> _Parser:
    """The full parser, built once per process: parse_args keeps no state in it.
    main needs it only for --help, --version, and a missing or unknown command."""
    parser = _Parser(prog="eop", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, help_line in _HELP.items():
        _add_arguments(sub.add_parser(name, help=help_line), name)
    return parser


@functools.cache
def _command_parser(name: str) -> _Parser:
    """The sub-parser of one command alone, as the full parser builds it."""
    return _add_arguments(_Parser(prog=f"eop {name}"), name)


def _parse(argv: list) -> argparse.Namespace:
    """argv parsed as the full parser parses it, through the sub-parser of
    its command alone when it begins with one."""
    if argv and argv[0] in _HELP:
        return _command_parser(argv[0]).parse_args(argv[1:], argparse.Namespace(cmd=argv[0]))
    return _build_parser().parse_args(argv)


def main(argv: list | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if args.cmd == "replay":
            return _cmd_replay(args)
        if args.prec < 1:
            raise UsageError(f"precision must be at least 1 bit, got {args.prec}")
        if "digits" in args and args.digits < 1:
            raise UsageError(f"--digits must be at least 1, got {args.digits}")
        _run(args.command, args)
        return EXIT_OK
    except UsageError as exc:
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
