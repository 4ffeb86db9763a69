"""The benchmark's workloads: seeded `eop` command lines and their warm-ups.

A job is one `eop` argv (without `--out`, which the runner adds). The program
sees only these argvs. Rationals are drawn as p/q with q <= 12. Job cost grows
with q, so the denominators are stratified: each cycle visits every allowed q
once, in shuffled pairs of a small and a large q, so that any run, however
many jobs it completes, does nearly the same mix of work. The job kinds follow
a fixed pattern per workload for the same reason; the cheap kinds sit late in
the pattern, so that the tail percentile (ten jobs beyond it) reads the
dominant kind in any run of 13 or more jobs. Negative values are passed
as `--alpha=-5/3`, since argparse reads `--alpha -5/3` as an option.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Job:
    kind: str
    argv: tuple
    params: dict


@dataclass(frozen=True)
class Workload:
    name: str
    in_process: bool
    # kind pattern repeated for the whole run
    pattern: tuple
    # jobs run once, untimed, before timing starts (in-process workloads)
    warmup: tuple


def _nonpositive_integer(x: Fraction) -> bool:
    return x.denominator == 1 and x <= 0


class _Rationals:
    """p/q in (lo, hi) with gcd(p, q) = 1; q runs through balanced cycles."""

    def __init__(self, rng, lo, hi, qs, excluded=_nonpositive_integer):
        self.rng, self.lo, self.hi, self.qs = rng, lo, hi, list(qs)
        self.excluded = excluded
        self._cycle = []

    def draw(self) -> Fraction:
        if not self._cycle:
            half = len(self.qs) // 2
            pairs = [[self.qs[i], self.qs[-1 - i]] for i in range(half)]
            if len(self.qs) % 2:
                pairs.append([self.qs[half]])
            self.rng.shuffle(pairs)
            for pair in pairs:
                self.rng.shuffle(pair)
                self._cycle += pair
            self._cycle.reverse()
        q = self._cycle.pop()
        while True:
            p = self.rng.randrange(math.floor(self.lo * q) + 1, math.ceil(self.hi * q))
            x = Fraction(p, q)
            if x.denominator == q and not self.excluded(x):
                return x


def _arg(flag: str, x: Fraction) -> str:
    return f"--{flag}={x}"


SEQ_N = 200
REC_N = 800
WARM_PREC = 1024
COLD_PREC = 512
DIGITS = 100

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "seq-all", True,
            ("gamma", "gamma", "euler", "gamma", "gamma", "e-convergents",
             "gamma", "euler", "gamma", "gamma", "pade", "gamma"),
            (("gamma-approx", "--alpha=1/3", "--n", str(SEQ_N)),
             ("euler-approx", "--n", str(SEQ_N)),
             ("pade", "--n", "60", "--z=1/2"),
             ("e-convergents", "--n", "50")),
        ),
        Workload(
            "seq-recurrence", True,
            ("gamma", "gamma", "gamma", "gamma", "gamma", "euler"),
            (("gamma-approx", "--alpha=1/3", "--n", str(REC_N),
              "--method", "recurrence", "--format", "json"),
             ("euler-approx", "--n", str(REC_N),
              "--method", "recurrence", "--format", "json")),
        ),
        Workload(
            "gamma-warm", True,
            ("gamma-deriv",),
            # s = 2 is shifted to exactly X0, the point that needs the most
            # Bernoulli numbers, so the table is full before timing starts
            tuple(("gamma-deriv", "--s=2", "--order", str(k), "--prec", str(WARM_PREC),
                   "--digits", str(DIGITS)) for k in range(5)),
        ),
        Workload(
            "numeric-cold", False,
            ("gamma-deriv", "asym-ealpha", "gamma-deriv", "asym-ealpha",
             "gamma-deriv", "gamma-deriv", "asym-ealpha", "gamma-deriv",
             "asym-ealpha", "gamma-deriv", "asym-elog", "intseq"),
            (),
        ),
    )
}


def jobs(workload: Workload, seed: int):
    """Endless, deterministic job stream of `workload` for `seed`."""
    rng = random.Random(f"{workload.name}:{seed}")
    alphas = _Rationals(rng, -3, 1, range(2, 13))
    points = _Rationals(rng, -3, 5, range(1, 13))
    asym_alphas = _Rationals(rng, -3, 3, range(1, 13))
    zs = _Rationals(rng, 10, 40, range(1, 13), excluded=lambda x: False)
    orders = []
    i = 0
    while True:
        kind = workload.pattern[i % len(workload.pattern)]
        i += 1
        if workload.name == "seq-all":
            yield _seq_job(kind, rng, alphas, SEQ_N, ())
        elif workload.name == "seq-recurrence":
            yield _seq_job(kind, rng, alphas, REC_N,
                           ("--method", "recurrence", "--format", "json"))
        elif kind == "gamma-deriv":
            if not orders:
                orders = list(range(5))
                rng.shuffle(orders)
            s, k = points.draw(), orders.pop()
            prec = WARM_PREC if workload.name == "gamma-warm" else COLD_PREC
            yield Job(kind, ("gamma-deriv", _arg("s", s), "--order", str(k),
                             "--prec", str(prec), "--digits", str(DIGITS)),
                      {"s": s, "order": k, "prec": prec})
        elif kind == "asym-ealpha":
            a, z = asym_alphas.draw(), zs.draw()
            yield Job(kind, ("asym-check", "--which", "ealpha", _arg("alpha", a),
                             _arg("z", z), "--prec", str(COLD_PREC),
                             "--digits", str(DIGITS)),
                      {"alpha": a, "z": z, "prec": COLD_PREC})
        elif kind == "asym-elog":
            z = zs.draw()
            yield Job(kind, ("asym-check", "--which", "elog", _arg("z", z),
                             "--prec", str(COLD_PREC), "--digits", str(DIGITS)),
                      {"z": z, "prec": COLD_PREC})
        elif kind == "intseq":
            k = rng.randint(50, 150)
            yield Job(kind, ("intseq", "--k", str(k), "--prec", str(COLD_PREC),
                             "--digits", str(DIGITS), "--format", "json"),
                      {"k": k, "prec": COLD_PREC})
        else:
            raise ValueError(f"unknown job kind {kind!r}")


def _seq_job(kind, rng, alphas, n, extra):
    if kind == "gamma":
        a = alphas.draw()
        return Job(kind, ("gamma-approx", _arg("alpha", a), "--n", str(n), *extra),
                   {"alpha": a, "n": n})
    if kind == "euler":
        return Job(kind, ("euler-approx", "--n", str(n), *extra), {"n": n})
    if kind == "pade":
        m = rng.randint(40, 80)
        z = Fraction(rng.randint(-24, 24), rng.randint(1, 12))
        return Job(kind, ("pade", "--n", str(m), _arg("z", z)), {"n": m, "z": z})
    if kind == "e-convergents":
        m = rng.randint(40, 60)
        return Job(kind, ("e-convergents", "--n", str(m)), {"n": m})
    raise ValueError(f"unknown job kind {kind!r}")
