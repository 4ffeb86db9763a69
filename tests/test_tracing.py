"""The benchmark's per-layer tracer (perfbench/tracing.py) still finds every
function it wraps, so a renamed or removed one fails here and not silently in a
traced benchmark run."""

import importlib
import importlib.util
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
