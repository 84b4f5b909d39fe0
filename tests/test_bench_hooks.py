"""The traced benchmark's hooks still find every library name they patch.

``bench/tracing.py`` replaces names where the library looks them up at call
time: module globals, class ``__dict__`` entries and the
``VARIANT_CHECKERS`` table. Renaming or moving one of them must fail here,
not halfway through a benchmark run.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = (
    "cli",
    "solver",
    "limits",
    "averaging",
    "density",
    "products",
    "families",
    "pseudo_orbits",
    "reporting",
)


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fresh_library() -> SimpleNamespace:
    """A separate import of shadowlab, as the benchmark makes; sys.modules is left as found."""

    def ours(name):
        return name == "shadowlab" or name.startswith("shadowlab.")

    saved = {name: module for name, module in sys.modules.items() if ours(name)}
    for name in saved:
        del sys.modules[name]
    try:
        importlib.import_module("shadowlab")
        return SimpleNamespace(**{m: importlib.import_module(f"shadowlab.{m}") for m in MODULES})
    finally:
        for name in [name for name in sys.modules if ours(name)]:
            del sys.modules[name]
        sys.modules.update(saved)


def test_instrument_patches_and_restores_a_fresh_import():
    tracing = load_tracing()
    lib = fresh_library()
    tracer = tracing.Tracer()
    patches = tracing.instrument(lib, tracer)
    saved = list(patches.saved)
    try:
        patched = {(id(owner), attr) for owner, attr, _original, _is_dict in saved}
        limits, products = lib.limits, lib.products
        oracles = (limits.TransportOracle, limits.ExhaustiveOracle, limits.PullbackOracle)
        expected = [(oracle, attr) for oracle in oracles for attr in ("shadow", "modulus")]
        expected += [
            (products, name)
            for name in (
                "perturb_orbit",
                "inject_defects",
                "limit_shadow_point",
                "pullback_shadow",
                "product_family",
            )
        ]
        expected += [
            (lib.pseudo_orbits.PseudoOrbit, "from_points"),
            (lib.families.MapFamily, "compose"),
        ]
        for owner, attr in expected:
            assert (id(owner), attr) in patched, (owner, attr)

        fam = lib.families.finite_cycle_family(3)
        po = lib.pseudo_orbits.PseudoOrbit.from_points(fam, (0, 2))
        assert limits.ExhaustiveOracle(fam).shadow(po, 0.5, 0, po.horizon)[0] == 0
        budget = products.VariantBudget(epsilon=0.6, delta=0.4, max_len=3)
        assert products.VARIANT_CHECKERS["h"](fam, budget).passed
        # The finite paths above follow step tables and never compose.
        assert fam.compose(0, 2) == (0, 1, 2)
        names = {span[0] for span in tracer.spans}
        assert {
            "pseudo_orbits.from_points",
            "limits.oracle_shadow",
            "families.compose",
            "products.check.h",
        } <= names
    finally:
        patches.restore()
    for owner, attr, original, is_dict in saved:
        current = owner[attr] if is_dict else owner.__dict__[attr]
        assert current is original, (owner, attr)


# The benchmark's limit job shapes at shorter horizons: rotation runs on the
# transport oracle, doubling and alternating on the pullback oracle.
LIMIT_SHAPES = (("rotation", 2000, 0.2), ("doubling", 1000, 0.3), ("alternating", 1000, 0.7))


def test_traced_limit_passes_repeat_their_counts_and_report_bodies(tmp_path):
    """A traced run fails when a count or a report body differs between passes.

    Library state kept from one call to the next (a module-level or
    per-family memo) makes the second pass do less work or report other
    values; two passes through ``cli.run_scenario`` must agree exactly.
    """
    tracing = load_tracing()
    lib = fresh_library()
    paths = []
    for kind, horizon, x0 in LIMIT_SHAPES:
        params = {"horizon": horizon, "levels": 8, "profile": {"kind": "harmonic", "scale": 1.0}, "x0": x0}
        scenario = {"name": f"limit-{kind}", "experiment": "limit", "family": {"kind": kind}, "parameters": params}
        paths.append(tmp_path / f"limit-{kind}.json")
        paths[-1].write_text(json.dumps(scenario))
    reporting = lib.reporting

    def body_size(report):
        return len(reporting.canonical_json(report))

    tracer = tracing.Tracer()
    patches = tracing.instrument(lib, tracer)
    passes = []
    try:
        for _ in range(2):
            tracer.reset()
            bodies = []
            for path in paths:
                tracer.job = path.stem
                root = tracer.open("cli.run_scenario")
                try:
                    assert lib.cli.run_scenario(path, tmp_path / "out", quiet=True) == 0, path.stem
                finally:
                    tracer.close(root)
                envelope = reporting.load_report(tmp_path / "out" / f"{path.stem}.report.json")
                bodies.append(reporting.report_body_bytes(envelope))
            layer = tracing.layer_metrics(tracer.spans, tracer.counts, body_size)
            passes.append(({name: layer[name] for name in tracing.COUNT_METRICS}, bodies))
    finally:
        patches.restore()
    (counts, bodies), (counts_again, bodies_again) = passes
    assert counts["limits.splice_calls"] > 0 and counts["limits.modulus_calls"] > 0
    assert counts_again == counts
    assert bodies_again == bodies


def test_micro_benchmarks_run_on_a_fresh_import():
    """``bench/micro.py`` calls library names directly; each must still resolve."""
    lib = fresh_library()
    sys.path.insert(0, str(BENCH))
    try:
        speed = importlib.import_module("speed")
        micro = importlib.import_module("micro")
        micro.CALLS = 64
        with speed.SpeedMeter() as meter:
            metrics = micro.micro_metrics(lib, 0, meter)
    finally:
        sys.path.remove(str(BENCH))
        for name in ("micro", "speed"):
            sys.modules.pop(name, None)
    assert len(metrics) == 12
    for name, value in metrics.items():
        assert value > 0.0, name
