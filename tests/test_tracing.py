"""The benchmark's per-layer tracer (perfbench/tracing.py) still finds every
function it wraps, so a renamed or removed one fails here and not silently in a
traced benchmark run."""

import importlib
import importlib.util
from collections import Counter
from fractions import Fraction
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(mod, qual):
    owner = importlib.import_module(f"eoplab.{mod}")
    for part in qual.split("."):
        owner = getattr(owner, part)
    return owner


def _namespaces(targets):
    mods = {importlib.import_module(f"eoplab.{mod}") for mod, _ in targets}
    return [importlib.import_module("eoplab"), *mods,
            *(v for m in mods for v in vars(m).values()
              if isinstance(v, type) and v.__module__.startswith("eoplab"))]


def test_tracer_wraps_every_target_and_restores_it():
    tracing = _load_tracing()
    originals = {(mod, qual): _resolve(mod, qual) for mod, qual in tracing.TARGETS}
    spaces = _namespaces(tracing.TARGETS)
    before = [dict(vars(ns)) for ns in spaces]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (mod, qual), original in originals.items():
            assert _resolve(mod, qual).__wrapped__ is original, (mod, qual)
        from eoplab import constructions

        constructions.intseq_constants(64)
        called = {span[0] for span in tracer.spans}
        assert {"constructions.intseq_constants", "constructions.bessel_f",
                "constructions.bessel_g"} <= called
    finally:
        tracer.uninstall()
    for ns, attrs in zip(spaces, before):
        assert all(vars(ns).get(k) is v for k, v in attrs.items()), ns


# The spans that one gamma_seq(1/3, 20) or euler_seq(20) call records for each
# traced series and holonomic function: work that moves into an untraced
# function shows up as a missing span. The series route of both families,
# kernels.laguerre_sums, is no tracer target, and no route calls the series ring.
SEQUENCE_SPANS = {
    "gamma": {"holonomic.unroll": 1},
    "euler": {"holonomic.unroll": 1},
}


def test_sequence_routes_run_through_the_traced_functions():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        from eoplab import constructions

        runs = {"gamma": lambda: constructions.gamma_seq(Fraction(1, 3), 20),
                "euler": lambda: constructions.euler_seq(20)}
        for kind, run in runs.items():
            tracer.spans.clear()
            run()
            counts = Counter(span[0] for span in tracer.spans)
            traced = {name: counts[name] for name in tracing.SPAN_NAMES
                      if name.startswith(("series.", "holonomic."))}
            want = {name: SEQUENCE_SPANS[kind].get(name, 0) for name in traced}
            assert traced == want, kind
        assert not tracer.errors
    finally:
        tracer.uninstall()


def test_e_convergents_job_records_one_construction_span(tmp_path, capsys):
    # the rows the CLI writes come from the traced public function
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        from eoplab import cli

        assert cli.main(["e-convergents", "--n", "12", "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    spans = Counter(span[0] for span in tracer.spans)
    assert spans["constructions.e_convergents"] == 1
    assert spans["cli.main"] == 1
