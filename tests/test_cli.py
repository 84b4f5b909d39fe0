import json
import math

import pytest

from shadowlab import cli, solver
from shadowlab.cli import (
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_OK,
    bundled_scenarios_dir,
    main,
    run_scenario,
    run_suite,
)
from shadowlab.reporting import load_report, report_body_bytes


def write_scenario(tmp_path, name, payload):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload))
    return path


SMALL_SHADOW = {
    "name": "small-shadow",
    "experiment": "shadow",
    "family": {"kind": "doubling"},
    "parameters": {"epsilon": 0.1, "noise": 0.049, "horizon": 32, "seeds": 3, "seed": 5},
}


def test_run_bundled_doubling_shadow(tmp_path):
    scenario = bundled_scenarios_dir() / "doubling-shadow.json"
    code = run_scenario(scenario, tmp_path, quiet=True)
    assert code == EXIT_OK
    report = load_report(tmp_path / "doubling-shadow.report.json")["report"]
    assert report["verdict"] is True
    assert report["max_error_overall"] < 0.1
    assert (tmp_path / "doubling-shadow.errors.csv").exists()


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run_scenario(path, tmp_path, quiet=True) == EXIT_CONFIG


def test_unknown_experiment_exits_2(tmp_path):
    path = write_scenario(tmp_path, "x", {"name": "x", "experiment": "nope"})
    assert run_scenario(path, tmp_path, quiet=True) == EXIT_CONFIG


def test_missing_parameter_exits_2(tmp_path):
    payload = {
        "name": "y",
        "experiment": "shadow",
        "family": {"kind": "doubling"},
        "parameters": {"noise": 0.01},
    }
    path = write_scenario(tmp_path, "y", payload)
    assert run_scenario(path, tmp_path, quiet=True) == EXIT_CONFIG


def test_zero_seeds_exits_2(tmp_path):
    payload = {**SMALL_SHADOW, "parameters": {**SMALL_SHADOW["parameters"], "seeds": 0}}
    path = write_scenario(tmp_path, "small-shadow", payload)
    assert run_scenario(path, tmp_path / "out", quiet=True) == EXIT_CONFIG


def test_empty_base_points_exits_2(tmp_path):
    scenario = json.loads((bundled_scenarios_dir() / "doubling-periodic.json").read_text())
    scenario["parameters"]["base_points"] = []
    path = write_scenario(tmp_path, "empty-cycle", scenario)
    assert run_scenario(path, tmp_path / "out", quiet=True) == EXIT_CONFIG


def test_epsilon_too_large_exits_1(tmp_path):
    payload = {
        "name": "big-eps",
        "experiment": "shadow",
        "family": {"kind": "doubling"},
        "parameters": {"epsilon": 0.2, "noise": 0.01, "horizon": 8, "seeds": 1},
    }
    path = write_scenario(tmp_path, "big-eps", payload)
    assert run_scenario(path, tmp_path, quiet=True) == EXIT_FAIL


def test_suite_empty_directory(tmp_path):
    out = tmp_path / "out"
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_suite(empty, out, quiet=True) == EXIT_OK


def test_suite_expect_fail_inversion(tmp_path):
    failing = {
        "name": "control",
        "experiment": "shadow",
        "expect_fail": True,
        "family": {"kind": "barely_expanding"},
        "parameters": {"epsilon": 0.1, "noise": 0.02, "horizon": 16, "seeds": 1},
    }
    write_scenario(tmp_path, "control", failing)
    assert run_suite(tmp_path, tmp_path / "out", quiet=True) == EXIT_OK
    # An unexpected pass flips the suite to failure.
    passing = dict(SMALL_SHADOW)
    passing["expect_fail"] = True
    write_scenario(tmp_path, "unexpected", passing)
    assert run_suite(tmp_path, tmp_path / "out", quiet=True) == EXIT_FAIL


def test_reports_byte_identical_across_runs(tmp_path):
    path = write_scenario(tmp_path, "small-shadow", SMALL_SHADOW)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_scenario(path, out1, quiet=True) == EXIT_OK
    assert run_scenario(path, out2, quiet=True) == EXIT_OK
    b1 = report_body_bytes(load_report(out1 / "small-shadow.report.json"))
    b2 = report_body_bytes(load_report(out2 / "small-shadow.report.json"))
    assert b1 == b2
    assert (out1 / "small-shadow.errors.csv").read_bytes() == (
        out2 / "small-shadow.errors.csv"
    ).read_bytes()


def test_seed_override_changes_report(tmp_path):
    path = write_scenario(tmp_path, "small-shadow", SMALL_SHADOW)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    run_scenario(path, out1, quiet=True)
    run_scenario(path, out2, seed=99, quiet=True)
    b1 = report_body_bytes(load_report(out1 / "small-shadow.report.json"))
    b2 = report_body_bytes(load_report(out2 / "small-shadow.report.json"))
    assert b1 != b2


def test_horizon_override(tmp_path):
    path = write_scenario(tmp_path, "small-shadow", SMALL_SHADOW)
    out = tmp_path / "r"
    run_scenario(path, out, horizon=16, quiet=True)
    report = load_report(out / "small-shadow.report.json")["report"]
    assert report["horizon"] == 16


def test_main_entry_point(tmp_path):
    path = write_scenario(tmp_path, "small-shadow", SMALL_SHADOW)
    code = main(["run", str(path), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == EXIT_OK
    code = main(["suite", str(tmp_path), "--out", str(tmp_path / "o2"), "--quiet"])
    assert code == EXIT_OK


def test_bundled_suite_all_pass(tmp_path):
    assert run_suite(bundled_scenarios_dir(), tmp_path, quiet=True) == EXIT_OK


def test_non_finite_start_point_fails_cleanly(tmp_path):
    payload = {**SMALL_SHADOW, "parameters": {**SMALL_SHADOW["parameters"], "x0": float("nan")}}
    path = write_scenario(tmp_path, "small-shadow", payload)
    # A non-finite x0 is a config error now, refused before it reaches the library.
    assert run_scenario(path, tmp_path / "out", quiet=True) == EXIT_CONFIG


def test_periodic_error_equal_to_epsilon_fails(tmp_path, monkeypatch):
    # Errors whose maximum is exactly epsilon are not epsilon-shadowing.
    monkeypatch.setattr(cli, "periodic_shadow", lambda family, po, eps: (0.0, 0.0, (0.0, eps)))
    scenario = bundled_scenarios_dir() / "doubling-periodic.json"
    assert run_scenario(scenario, tmp_path, quiet=True) == EXIT_FAIL
    assert load_report(tmp_path / "doubling-periodic.report.json")["report"]["verdict"] is False


def test_shadow_summary_prints_the_bound_in_exponent_form(tmp_path, capsys):
    # At k = 1100 the float bound 2 eps 2^-k underflows to 0.0; the summary
    # prints log2(0.2) - 1100 = -1102.32 instead.
    payload = {**SMALL_SHADOW, "parameters": {**SMALL_SHADOW["parameters"], "horizon": 1100, "seeds": 1}}
    assert run_scenario(write_scenario(tmp_path, "long", payload), tmp_path) == EXIT_OK
    assert load_report(tmp_path / "small-shadow.report.json")["report"]["diameter_bound"] == 0.0
    assert "[diam<=2^-1102.3]" in capsys.readouterr().out


def _with(scenario, family=None, **params):
    """A copy of `scenario` with its family and some parameters replaced."""
    return {
        **scenario,
        "family": family or scenario["family"],
        "parameters": {**scenario["parameters"], **params},
    }


def _bundled(name):
    return json.loads((bundled_scenarios_dir() / f"{name}.json").read_text())


def _product_case(**fields):
    """The bundled product scenario cut to its first case, with some case fields replaced."""
    scenario = _bundled("finite-products")
    case = {**scenario["parameters"]["cases"][0], **fields}
    return {**scenario, "parameters": {**scenario["parameters"], "cases": [case]}}


_DOUBLING = {"kind": "doubling"}
_DENSITY = _bundled("squares-density")

INVALID_CONFIGS = {
    "unknown-family-kind": _with(SMALL_SHADOW, {"kind": "nope"}),
    "unknown-family-parameter": _with(SMALL_SHADOW, {"kind": "doubling", "degree": 3}),
    "non-numeric-epsilon": _with(SMALL_SHADOW, epsilon="abc"),
    "list-x0-on-a-product": _with(
        SMALL_SHADOW, {"kind": "product", "factors": [{"kind": "doubling"}] * 2}, x0=[0.3, 0.7]
    ),
    "empty-average-subset": _with(_bundled("eight-state-average"), subset=[]),
    "zero-limit-levels": _with(_bundled("rotation-limit"), levels=0),
    "negative-shadow-horizon": _with(SMALL_SHADOW, horizon=-1),
    "unknown-product-variant": _product_case(variant="nope"),
    "non-numeric-product-max-len": _product_case(max_len="six"),
    "non-numeric-product-delta-left": _product_case(delta_left="x"),
    "non-numeric-profile-scale": _with(_bundled("rotation-limit"), profile={"kind": "harmonic", "scale": "abc"}),
    "negative-shadow-epsilon": _with(SMALL_SHADOW, epsilon=-0.1),
    "negative-shadow-noise": _with(SMALL_SHADOW, noise=-0.01),
    "shadow-margin-above-one": _with(SMALL_SHADOW, margin=2),
    "negative-periodic-epsilon": _with(_bundled("doubling-periodic"), epsilon=-0.05),
    "periodic-on-a-product": _with(_bundled("doubling-periodic"), {"kind": "product", "factors": [_DOUBLING] * 2}),
    "zero-product-max-len": _product_case(max_len=0),
    "one-point-product-max-len": _product_case(max_len=1),
    "zero-product-delta": _product_case(delta=0),
    "negative-product-delta": _product_case(delta=-1),
    "zero-product-delta-left": _product_case(delta_left=0),
    "zero-product-epsilon": _product_case(epsilon=0),
    "negative-product-epsilon": _product_case(epsilon=-1),
    "zero-product-trials": _product_case(left=_DOUBLING, right=_DOUBLING, trials=0),
    "negative-product-trials": _product_case(left=_DOUBLING, right=_DOUBLING, trials=-1),
    "negative-plain-product-horizon": _product_case(
        left=_DOUBLING, right=_DOUBLING, variant="plain", horizon=-2
    ),
    "zero-h-product-max-len": _product_case(left=_DOUBLING, right=_DOUBLING, max_len=0),
    "identity-on-a-described-space": _with(_bundled("rotation-limit"), {"kind": "identity", "space": {"kind": "interval"}}),
    "fractional-finite-limit-x0": _with(_bundled("rotation-limit"), {"kind": "eight_state"}, x0=1.5),
    "fractional-average-subset-item": _with(_bundled("eight-state-average"), subset=[0, 1.7, 2]),
    "fractional-average-x0": _with(_bundled("eight-state-average"), x0=0.5),
    "fractional-shadow-horizon": _with(SMALL_SHADOW, horizon=16.9),
    "fractional-shadow-seeds": _with(SMALL_SHADOW, seeds=2.5),
    "fractional-shadow-seed": _with(SMALL_SHADOW, seed=0.5),
    "fractional-periodic-seed": _with(_bundled("doubling-periodic"), seed=1.5),
    "fractional-product-seed": _product_case(seed=0.5),
    "infinite-shadow-horizon": _with(SMALL_SHADOW, horizon=float("inf")),
    "negative-average-magnitude": _with(_bundled("eight-state-average"), magnitude=-1.0),
    "zero-average-tolerance": _with(_bundled("eight-state-average"), tolerance=0.0),
    "negative-periodic-delta": _with(_bundled("doubling-periodic"), delta=-0.01),
    "one-state-finite-cycle": _with(_bundled("rotation-limit"), {"kind": "finite_cycle", "n": 1}, x0=0),
    "empty-finite-cycle": _with(_bundled("rotation-limit"), {"kind": "finite_cycle", "n": 0}, x0=0),
    "boolean-finite-cycle-n": _with(_bundled("rotation-limit"), {"kind": "finite_cycle", "n": True}, x0=0),
    "nan-rotation-alpha": _with(_bundled("rotation-limit"), {"kind": "rotation", "alpha": math.nan}),
    "boolean-shadow-horizon-and-seeds": _with(SMALL_SHADOW, horizon=True, seeds=True),
    "boolean-average-subset-item": _with(_bundled("eight-state-average"), subset=[0, True, 2]),
    "nan-shadow-x0": _with(SMALL_SHADOW, x0=math.nan),
    "infinite-limit-x0": _with(_bundled("rotation-limit"), x0=math.inf),
    "nan-periodic-base-point": _with(_bundled("doubling-periodic"), base_points=[math.nan, 0.5]),
    "nan-density-bound": {**_DENSITY, "parameters": {**_DENSITY["parameters"], "bound": math.nan}},
    "nan-profile-scale": _with(_bundled("rotation-limit"), profile={"kind": "harmonic", "scale": math.nan}),
    "zero-density-horizon": {**_DENSITY, "parameters": {**_DENSITY["parameters"], "horizon": 0}},
    "zero-average-horizon": _with(_bundled("eight-state-average"), horizon=0),
    "zero-periodic-horizon": _with(_bundled("doubling-periodic"), horizon=0),
    "periodic-horizon-below-the-period": _with(_bundled("doubling-periodic"), horizon=1),
    "zero-limit-horizon": _with(_bundled("rotation-limit"), horizon=0),
    "shadow-on-a-product": _with(SMALL_SHADOW, {"kind": "product", "factors": [_DOUBLING] * 2}),
    "shadow-on-a-finite-family": _with(SMALL_SHADOW, {"kind": "eight_state"}, x0=0),
    "average-on-a-circle-family": _with(_bundled("eight-state-average"), {"kind": "identity"}, subset=[0], x0=0),
    "average-on-a-finite-product": _with(
        _bundled("eight-state-average"), {"kind": "product", "factors": [{"kind": "eight_state"}, {"kind": "two_bit_swap"}]}
    ),
    "limit-on-a-circle-product": _with(_bundled("rotation-limit"), {"kind": "product", "factors": [_DOUBLING] * 2}),
    "limit-on-a-finite-product": _with(
        _bundled("rotation-limit"), {"kind": "product", "factors": [{"kind": "eight_state"}, {"kind": "two_bit_swap"}]}
    ),
    "unknown-product-key": _product_case(
        left={"kind": "product", "factors": [{"kind": "identity_pair"}] * 2, "extra": 1}
    ),
    "name-leaving-the-out-directory": {**SMALL_SHADOW, "name": "../escaped"},
    "name-with-a-slash": {**SMALL_SHADOW, "name": "a/b"},
    "name-with-a-backslash": {**SMALL_SHADOW, "name": "a\\b"},
    "name-with-a-nul": {**SMALL_SHADOW, "name": "a\0b"},
    "empty-name": {**SMALL_SHADOW, "name": ""},
    "dot-name": {**SMALL_SHADOW, "name": "."},
    "dot-dot-name": {**SMALL_SHADOW, "name": ".."},
    "string-expect-fail": {**_DENSITY, "expect_fail": "false"},
    "numeric-expect-fail": {**_DENSITY, "expect_fail": 0},
}


@pytest.mark.parametrize("case", sorted(INVALID_CONFIGS))
def test_invalid_scenario_configs_exit_2(tmp_path, case):
    # Each of these once raised a traceback or passed; run_suite must also
    # get through them and report the config error.
    path = write_scenario(tmp_path, "invalid", INVALID_CONFIGS[case])
    assert run_scenario(path, tmp_path / "out", quiet=True) == EXIT_CONFIG
    assert run_suite(tmp_path, tmp_path / "suite", quiet=True) == EXIT_CONFIG
    assert not list(tmp_path.rglob("*.report.json"))  # neither in an out directory nor beside one


def test_periodic_distance_to_base_measures_from_the_reduced_base_point(tmp_path):
    # Base points off [0, 1) are reduced before they reach the metric; the
    # raw 1.333... against the fixed point near 1/3 reads 1.3686096700382677e-10.
    base = [1.3333333333333333, 1.6666666666666667]
    scenario = _with(_bundled("doubling-periodic"), base_points=base, seed=0, epsilon=0.05, delta=0.01)
    assert run_scenario(write_scenario(tmp_path, "periodic", scenario), tmp_path / "out", quiet=True) == EXIT_OK
    report = load_report(tmp_path / "out" / "doubling-periodic.report.json")["report"]
    assert report["distance_to_base"] == 1.36861022514978e-10


@pytest.mark.parametrize("x0", [None, 5])
def test_limit_runs_on_a_finite_family(tmp_path, x0):
    # x0 is read as a state on a finite family, 0 by default; read as a float
    # it lay outside the space and the run exited 1.
    params = {"horizon": 400} if x0 is None else {"horizon": 400, "x0": x0}
    payload = {"name": "eight-limit", "experiment": "limit", "family": {"kind": "eight_state"}, "parameters": params}
    assert run_scenario(write_scenario(tmp_path, "eight-limit", payload), tmp_path / "out", quiet=True) == EXIT_OK
    report = load_report(tmp_path / "out" / "eight-limit.report.json")["report"]
    assert report["verdict"] is True and report["converged"] is True
    assert report["point"] in range(8)


def test_barely_expanding_past_its_float_rates_fails_with_the_step(tmp_path, capsys):
    # From step 53 on, the rate 1 - 2^-(n+1) rounds to 1.0: f_n does not expand.
    path = write_scenario(tmp_path, "barely", _with(_bundled("barely-expanding-control"), horizon=60))
    assert run_scenario(path, tmp_path / "out") == EXIT_FAIL
    assert "NotExpanding: rate 1 - 2^-54 rounds to 1.0 at step 53 (witness: 53)" in capsys.readouterr().err
    # The scenario expects to fail, so the suite counts the failure as a pass.
    assert run_suite(tmp_path, tmp_path / "suite", quiet=True) == EXIT_OK


def test_shadow_seeds_share_one_delta_budget(tmp_path, monkeypatch):
    calls = []
    budget = solver.delta_budget

    def counted(*args, **kwargs):
        calls.append(args)
        return budget(*args, **kwargs)

    monkeypatch.setattr(solver, "delta_budget", counted)
    assert SMALL_SHADOW["parameters"]["seeds"] == 3
    path = write_scenario(tmp_path, "small-shadow", SMALL_SHADOW)
    assert run_scenario(path, tmp_path, quiet=True) == EXIT_OK
    assert len(calls) == 1

