"""Output checks for each job kind, against oracles independent of `eoplab`.

Each check reads the artifacts a job wrote to its output directory and
returns None when they are right, or a one-line reason when they are not.
The exact sequences are recomputed at sample indices from their closed sums,
written here; numeric values are compared with mpmath special functions.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

import mpmath
from mpmath import mp, mpf

# The numeric jobs print DIGITS significant digits; allow a few for rounding.
DIGIT_SLACK = 5
# Limit estimates of the N = 200 sequences are within 3.3e-3 of the limit.
LIMIT_RTOL = 0.01


def _mpq(x: Fraction):
    return mpf(x.numerator) / x.denominator


def _rel(a, b):
    return abs(a - b) / abs(b)


def _tol(text: str):
    """Relative tolerance for a value printed as `text`, DIGIT_SLACK digits
    looser than its last significant digit."""
    mantissa = text.lstrip("-").split("e")[0].replace(".", "").lstrip("0")
    return mpf(10) ** (DIGIT_SLACK - len(mantissa))


# --- artifact readers ------------------------------------------------------


def _read_csv(path: Path):
    """Data rows and `# key,value` footer of a CSV artifact."""
    rows, footer = [], {}
    with path.open(encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        if line.startswith("# "):
            key, _, value = line[2:].partition(",")
            footer[key] = value
        else:
            rows.append(next(csv.reader([line])))
    return header, rows, footer


def _sequence(out: Path, stem: str, fmt: str):
    """(n, value) pairs and the limit estimate of a gamma/euler artifact."""
    if fmt == "json":
        payload = json.loads((out / f"{stem}.json").read_text(encoding="utf-8"))
        values = [(int(n), Fraction(int(p), int(q))) for n, p, q in payload["values"]]
        return values, payload["estimates"]
    header, rows, footer = _read_csv(out / f"{stem}.csv")
    if header != ["n", "numerator", "denominator"]:
        raise ValueError(f"unexpected CSV header {header}")
    return [(int(n), Fraction(int(p), int(q))) for n, p, q in rows], footer


def _numeric_rows(out: Path, stem: str) -> dict:
    header, rows, _ = _read_csv(out / f"{stem}.csv")
    if header != ["n", "value"]:
        raise ValueError(f"unexpected CSV header {header}")
    return {key: value for key, value in rows}


# --- closed sums -----------------------------------------------------------


def gamma_closed(alpha: Fraction, n: int) -> Fraction:
    """P_n = sum_k binom(n+alpha, k+alpha) (-1)^k / (k! (k+alpha)), where
    binom(n+alpha, k+alpha) = prod_{j=k+1}^{n} (j+alpha) / (n-k)!."""
    fact = [1] * (n + 1)
    for j in range(1, n + 1):
        fact[j] = fact[j - 1] * j
    total = Fraction(0)
    rising = Fraction(1)  # prod_{j=k+1}^{n} (j + alpha)
    for k in range(n, -1, -1):
        total += (-1) ** k * rising / (fact[n - k] * fact[k] * (k + alpha))
        rising *= k + alpha
    return total


def euler_closed(n: int) -> Fraction:
    """P_n = sum_{k=1}^{n} (-1)^k binom(n, k) (1/k) (1 - 1/k!)."""
    total = Fraction(0)
    fact = 1
    for k in range(1, n + 1):
        fact *= k
        total += (-1) ** k * math.comb(n, k) * Fraction(fact - 1, k * fact)
    return total


def e_convergents(count: int) -> list:
    """The first `count` convergents of e = [2; 1, 2, 1, 1, 4, 1, 1, 6, ...]."""
    quotients = [2]
    m = 1
    while len(quotients) < count:
        quotients += [1, 2 * m, 1]
        m += 1
    out = []
    p0, p1, q0, q1 = 1, quotients[0], 0, 1
    out.append(Fraction(p1, q1))
    for a in quotients[1:count]:
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
        out.append(Fraction(p1, q1))
    return out


# --- checks ----------------------------------------------------------------


def check_sequence(job, out: Path, rng, deep: bool):
    fmt = "json" if "json" in job.argv else "csv"
    gamma = job.kind == "gamma"
    values, estimates = _sequence(out, "gamma_approx" if gamma else "euler_approx", fmt)
    n_total = job.params["n"]
    if [n for n, _ in values] != list(range(n_total)):
        return f"expected rows 0..{n_total - 1}, got {len(values)} rows"
    if "--method" not in job.argv and str(estimates.get("exact_agreement")) != "True":
        return "three-route agreement not reported"
    n = rng.randrange(n_total)
    want = gamma_closed(job.params["alpha"], n) if gamma else euler_closed(n)
    if values[n][1] != want:
        return f"P_{n} differs from the closed sum"
    with mp.workprec(128):
        limit = mpf(estimates["limit_estimate"])
        target = mpmath.gamma(_mpq(job.params["alpha"])) if gamma else +mp.euler
        if _rel(limit, target) > LIMIT_RTOL:
            return f"limit {limit} is not within {LIMIT_RTOL} of {target}"
    return None


def check_pade(job, out: Path, rng, deep: bool):
    n, z = job.params["n"], job.params["z"]
    _, rows, _ = _read_csv(out / "pade.csv")
    got = {label: Fraction(int(p), int(q)) for label, p, q in rows}
    # Diagonal Pade approximant of exp, scaled so that
    # p_k = (-1)^n (2n-k)! / (n! k! (n-k)!) and q_k = (-1)^k p_k.
    p = [(-1) ** n * Fraction(math.factorial(2 * n - k),
                              math.factorial(n) * math.factorial(k) * math.factorial(n - k))
         for k in range(n + 1)]
    q = [(-1) ** k * c for k, c in enumerate(p)]
    want = {f"p{k}": c for k, c in enumerate(p)}
    want.update({f"q{k}": c for k, c in enumerate(q)})
    want["p(z)"] = sum(c * z**k for k, c in enumerate(p))
    want["q(z)"] = sum(c * z**k for k, c in enumerate(q))
    if got != want:
        bad = sorted(k for k in want.keys() | got.keys() if got.get(k) != want.get(k))
        return f"Pade coefficients differ at {bad[:4]}"
    return None


def check_e_convergents(job, out: Path, rng, deep: bool):
    n = job.params["n"]
    _, rows, _ = _read_csv(out / "e_convergents.csv")
    conv = e_convergents(3 * n)
    got = [(int(k), Fraction(int(p), int(q))) for k, p, q in rows]
    # n! P_n(1) / n! Q_n(1) is the convergent of index 3n - 2
    want = [(k, conv[3 * k - 2]) for k in range(1, n + 1)]
    if got != want:
        return "e convergents differ from the continued fraction of e"
    return None


def check_gamma_deriv(job, out: Path, rng, deep: bool):
    s, order, prec = job.params["s"], job.params["order"], job.params["prec"]
    rows = _numeric_rows(out, "gamma_deriv")
    if sorted(rows, key=int) != [str(k) for k in range(order + 1)]:
        return f"expected derivatives 0..{order}, got {sorted(rows)}"
    with mp.workprec(prec + 64):
        tol = _tol(rows["0"])
        if _rel(mpf(rows["0"]), mpmath.gamma(_mpq(s))) > tol:
            return "Gamma(s) differs from mpmath.gamma"
        if deep and order >= 1:
            k = rng.randint(1, order)
            want = mpmath.diff(mpmath.gamma, _mpq(s), k)
            if _rel(mpf(rows[str(k)]), want) > tol:
                return f"Gamma^({k})(s) differs from mpmath.diff"
    return None


def check_asym(job, out: Path, rng, deep: bool):
    z, prec = job.params["z"], job.params["prec"]
    rows = _numeric_rows(out, "asym_check")
    with mp.workprec(prec + 64):
        zv = _mpq(z)
        if job.kind == "asym-ealpha":
            a = _mpq(job.params["alpha"])
            want = zv ** (-a) * mpmath.gammainc(a, 0, zv)
        else:
            want = -(mpmath.e1(zv) + mpmath.log(zv) + mp.euler)
        tol = _tol(rows["direct"])
        if _rel(mpf(rows["direct"]), want) > tol:
            return "direct summation differs from the mpmath oracle"
        rel = _rel(mpf(rows["asymptotic"]), want)
        if abs(rel - mpf(rows["relative_error"])) > mpf("1e-6") * rel + tol:
            return "reported relative error differs from the oracle's"
        if rows["pass"] != str(rel <= mpf("1e-15")):
            return "pass flag disagrees with the oracle's relative error"
    return None


def check_intseq(job, out: Path, rng, deep: bool):
    kmax, prec = job.params["k"], job.params["prec"]
    payload = json.loads((out / "intseq.json").read_text(encoding="utf-8"))
    U, V = [0, 1], [1, 0]
    for k in range(1, kmax):
        U.append(k * U[k] + U[k - 1])
        V.append(k * V[k] + V[k - 1])
    if [int(u) for u in payload["U"]] != U or [int(v) for v in payload["V"]] != V:
        return "U/V differ from the recurrence"
    A = payload["A"]
    if len(A) != kmax + 1:
        return f"expected A_0..A_{kmax}, got {len(A)} values"
    est = payload["estimates"]
    with mp.workprec(prec + 64):
        tol = _tol(A[0])
        for k in range(kmax + 1):
            if _rel(mpf(A[k]), (-1) ** k * mpmath.besseli(k, 2)) > tol:
                return f"A_{k} differs from (-1)^k I_k(2)"
        # F(1) = I0(2), F'(1) = I1(2); G = -2 sum H_n x^n / n!^2 gives
        # G(1) = -2 (K0(2) + gamma I0(2)), G'(1) = -2 (I0(2)/2 + gamma I1(2) - K1(2))
        i0, i1 = mpmath.besseli(0, 2), mpmath.besseli(1, 2)
        k0, k1 = mpmath.besselk(0, 2), mpmath.besselk(1, 2)
        f, fp = i0, i1
        g = -2 * (k0 + mp.euler * i0)
        gp = -2 * (i0 / 2 + mp.euler * i1 - k1)
        w = g * fp - f * f - f * gp
        want = {"wronskian": w, "a": g / w, "b": -f / w, "c": -(f + gp) / w, "d": fp / w}
        for key, value in want.items():
            if _rel(mpf(est[key]), value) > tol:
                return f"connection constant {key} differs from the Bessel oracle"
    return None


CHECKS = {
    "gamma": check_sequence,
    "euler": check_sequence,
    "pade": check_pade,
    "e-convergents": check_e_convergents,
    "gamma-deriv": check_gamma_deriv,
    "asym-ealpha": check_asym,
    "asym-elog": check_asym,
    "intseq": check_intseq,
}


def check(job, out: Path, rng, deep: bool = False):
    """None when the job's artifacts are right, else the reason they are not."""
    try:
        return CHECKS[job.kind](job, out, rng, deep)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
