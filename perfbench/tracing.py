"""Per-layer tracing installed from outside the program.

A `Tracer` replaces each traced function of `eoplab` with a wrapper that
records a span (name, start, end, parent, job) in memory. `from ... import`
binds a function's name in the importing module too, so the wrapper is
installed at every module attribute that holds the original function object
(for example `gammalab.bernoulli` as well as `numcore.bernoulli`), and at
every class attribute that aliases a traced method (`__rmul__ = __mul__`).

Self time of a span is its duration minus the durations of its direct
children, so the self times of one job add up to the duration of its root
spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# The traced layers, one (module, qualified name) per wrapped function, in
# the layer order numcore -> series -> holonomic -> gammalab ->
# constructions/asymlab -> cli. README.md says which end-to-end metric each
# one is expected to move.
TARGETS = (
    ("numcore", "bernoulli"),
    ("series", "TruncatedSeries.__mul__"),
    ("series", "euler_substitution"),
    ("series", "binomial_series"),
    ("series", "e_alpha_series"),
    ("series", "e_log_series"),
    ("series", "partial_sums"),
    ("series", "log_over_one_minus_z"),
    ("holonomic", "unroll"),
    ("gammalab", "gamma_value"),
    ("gammalab", "psi"),
    ("gammalab", "polygamma"),
    ("gammalab", "gamma_deriv"),
    ("gammalab", "euler_gamma"),
    ("constructions", "gamma_seq"),
    ("constructions", "euler_seq"),
    ("constructions", "limit_estimate"),
    ("constructions", "fit_growth"),
    ("constructions", "pade_exp"),
    ("constructions", "e_convergents"),
    ("constructions", "intseq"),
    ("constructions", "intseq_constants"),
    ("constructions", "bessel_f"),
    ("constructions", "bessel_g"),
    ("asymlab", "direct_E_eval"),
    ("asymlab", "asym_E_alpha"),
    ("asymlab", "asym_E_log"),
    ("asymlab", "eval_asym"),
    ("cli", "main"),
)

SPAN_NAMES = tuple(f"{mod}.{qual}" for mod, qual in TARGETS)

# Pseudo-span for a child process: its wall time minus its `cli.main` span.
STARTUP = "cli.startup"


def _observe_bernoulli(counts, args, kwargs, result):
    k = args[0] if args else kwargs["k"]
    if k > counts["numcore.bernoulli.max_k"]:
        counts["numcore.bernoulli.max_k"] = k


def _observe_unroll(counts, args, kwargs, result):
    counts["holonomic.unroll.terms"] += len(result)


_OBSERVERS = {
    "numcore.bernoulli": _observe_bernoulli,
    "holonomic.unroll": _observe_unroll,
}


def merge_counts(total, counts):
    """Add the counters of one trace to `total` (maxima are maximised)."""
    for key, value in counts.items():
        total[key] = max(total[key], value) if key.endswith(".max_k") else total[key] + value


class Tracer:
    """Wraps the functions in TARGETS and records their spans in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, job]
        self.errors = Counter()
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack, errors = self.spans, self._stack, self.errors
        observe = _OBSERVERS.get(name)
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = [name, start, end, parent, self.job]
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target at every `eoplab` module or class attribute
        that refers to it."""
        modules = {m: importlib.import_module(f"eoplab.{m}") for m, _ in TARGETS}
        package = importlib.import_module("eoplab")
        holders = [package, *modules.values()]
        for mod, qual in TARGETS:
            name = f"{mod}.{qual}"
            owner = modules[mod]
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part)
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                wrapper = self._wrap(name, original)
                for key, value in list(owner.__dict__.items()):
                    if value is original:
                        self._set(owner, key, wrapper)
            else:
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._set(holder, key, wrapper)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "errors": self.errors,
                       "counts": self.counts}, fh)


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def check_job_accounting(spans, job_walls, tol=1e-6):
    """Each job's self times must add up to its root spans, no self time may
    be negative, and the root spans must fit inside the job's wall time.

    Returns a list of problems, empty when the trace is consistent."""
    selfs = self_times(spans)
    total = defaultdict(float)
    roots = defaultdict(float)
    problems = []
    for s, st in zip(spans, selfs):
        if st < -tol:
            problems.append(f"job {s[4]}: {s[0]} has negative self time {st:.3g} s")
        total[s[4]] += st
        if s[3] < 0:
            roots[s[4]] += s[2] - s[1]
    for job, wall in job_walls.items():
        if abs(total[job] - roots[job]) > tol * max(1.0, wall):
            problems.append(f"job {job}: self times sum to {total[job]:.6f} s, "
                            f"root spans to {roots[job]:.6f} s")
        if roots[job] > wall + tol:
            problems.append(f"job {job}: root spans {roots[job]:.6f} s exceed "
                            f"its wall time {wall:.6f} s")
    return problems


def main(argv):
    """Child launcher: `tracing.py <spans.json> <eop argv...>` runs one CLI job
    with the tracer installed and writes its spans, then exits like `eop`."""
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from eoplab import cli

    try:
        rc = cli.main(cli_argv)
    finally:
        tracer.dump(spans_path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
