"""Acceptance gate: one test per criterion, every tolerance pinned.

Each test prints a single PASS line once its assertions hold, so a verbose
run doubles as the acceptance report.
"""

import hashlib
import math
import time
from fractions import Fraction

from oracles import doubling_grid_minimizer, uniqueness_certificate
from shadowlab.averaging import InvariantSubsystem, average_shadow_point
from shadowlab.cli import EXIT_OK, bundled_scenarios_dir, run_suite
from shadowlab.density import (
    IndexSet,
    cesaro_to_density_zero,
    density_zero_to_cesaro,
    patch_sets,
    upper_density,
)
from shadowlab.families import (
    barely_expanding_family,
    doubling_family,
    eight_state_family,
    finite_cycle_family,
    identity_pair_family,
    rotation_family,
    slow_expanding_family,
    two_bit_swap_family,
)
from shadowlab.limits import limit_shadow_point
from shadowlab.products import VariantBudget, product_equivalence_check
from shadowlab.pseudo_orbits import (
    PseudoOrbit,
    displace_orbit,
    inject_defects,
    perturb_orbit,
)
from shadowlab.reporting import load_report, report_body_bytes
from shadowlab.solver import periodic_shadow, pullback_shadow
from shadowlab.spaces import circle_distance


def test_criterion_1_shadowing_bound_100_seeds():
    """Doubling family, eps 0.1, budget noise 0.049, horizon 64, 100 seeds."""
    fam = doubling_family()
    started = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        x0 = (0.123 + 0.6180339887498949 * seed) % 1.0
        po = perturb_orbit(fam, x0, 64, 0.049, seed)
        report, _ = pullback_shadow(fam, po, 0.1, margin=0.98)
        assert report.verdict, seed
        worst = max(worst, max(report.per_step_errors))
        assert worst < 0.1
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    print(f"\nPASS criterion 1: 100 seeds, worst error {worst:.4f} < 0.1, {elapsed:.2f}s")


def test_criterion_2_uniqueness_decay():
    """Certificates: 2e*2^-k exact; telescoping within 1e-12; control floored."""
    eps = 0.1
    fam = doubling_family()
    po = perturb_orbit(fam, 0.3, 30, 0.0, seed=0)
    for k in range(1, 31):
        assert uniqueness_certificate(fam, po, eps, k) == 2 * eps * 2.0**-k
    slow = slow_expanding_family()
    po_slow = perturb_orbit(slow, 0.3, 30, 0.0, seed=0)
    for k in range(1, 31):
        cert = uniqueness_certificate(slow, po_slow, eps, k)
        assert abs(cert - 2 * eps / (k + 1)) < 1e-12, k
    bare = barely_expanding_family()
    po_bare = perturb_orbit(bare, 0.3, 30, 0.0, seed=0)
    for k in range(1, 31):
        cert = uniqueness_certificate(bare, po_bare, eps, k)
        floor = 0.2 * 2 * eps * math.prod(1 - 2.0**-n for n in range(1, k + 1))
        assert cert > floor, k
    print("PASS criterion 2: uniqueness certificates exact/telescoping/floored, k=1..30")


def test_criterion_3_oracle_agreement():
    """Solver vs brute-force grid minimizer at resolution 1e-6, 10 seeds."""
    fam = doubling_family()
    started = time.perf_counter()
    worst_gap = 0.0
    for s in range(10):
        po = perturb_orbit(fam, (0.11 + 0.083 * s) % 1.0, 16, 0.049, seed=100 + s)
        report, _ = pullback_shadow(fam, po, 0.1)
        cert = report.diameter_bound
        grid_point, _ = doubling_grid_minimizer(po.points, 1e-6)
        gap = circle_distance(report.shadow_point, grid_point)
        worst_gap = max(worst_gap, gap)
        assert gap <= cert, (s, gap, cert)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    print(f"PASS criterion 3: worst solver-grid gap {worst_gap:.2e} <= {cert:.2e}, {elapsed:.1f}s")


def test_criterion_4_periodic_shadowing():
    """Period-2 pseudo-orbit near {1/3, 2/3}: fixed point within tolerances."""
    fam = doubling_family()
    cycle = [1.0 / 3.0 + 0.004, 2.0 / 3.0 + 0.006]
    po = PseudoOrbit.from_points(fam, [cycle[i % 2] for i in range(9)])
    assert po.max_defect < 0.01
    x, residual, errors = periodic_shadow(fam, po, 0.05)
    assert residual < 1e-9
    assert circle_distance(x, 1.0 / 3.0) < 0.05
    assert max(errors) < 0.05
    print(f"PASS criterion 4: |F_2(x)-x| = {residual:.2e} < 1e-9, d(x,1/3) = {circle_distance(x, 1/3):.4f} < 0.05")


def test_criterion_5_lemma_equivalence_squares():
    """Square-indicator extraction: density 0.01, complement zero, certified.

    Density decay under horizon growth is asserted in both true readings:
    the extracted set's density halves exactly when the horizon doubles
    around it (fixed members), and re-extraction at the quadrupled horizon
    halves the re-measured density (sqrt-sparse sets scale by 1/sqrt(2) per
    doubling, so the doubling re-extraction cannot halve; see the decisions
    ledger).
    """
    horizon = 10_000
    values = [1.0 if math.isqrt(i) ** 2 == i else 0.0 for i in range(4 * horizon)]
    report = cesaro_to_density_zero(values[:horizon], horizon)
    squares = [i * i for i in range(100)]
    assert list(report.index_set.members) == squares
    assert report.density_at_horizon == Fraction(1, 100)
    assert all(sup == 0.0 for sup in report.complement_sups)
    certificate = density_zero_to_cesaro(values[:horizon], report.index_set, 1.0)
    assert certificate.actual_mean == Fraction(1, 100)
    assert certificate.holds
    # Fixed-set halving at the doubled horizon (exact; within 10% trivially).
    d_fixed = upper_density(report.index_set.extended(2 * horizon), 2 * horizon)
    assert abs(float(d_fixed) - 0.005) <= 0.1 * 0.005
    # Re-extraction halving at the quadrupled horizon (within 10%).
    report_4h = cesaro_to_density_zero(values, 4 * horizon)
    d4 = float(report_4h.density_at_horizon)
    assert abs(d4 - 0.005) <= 0.1 * 0.005
    print(
        f"PASS criterion 5: density 0.01, complement 0, certificate {float(certificate.certificate):.4f}"
        f" >= 0.01, halving fixed-set {float(d_fixed):.4f} / re-extraction@4H {d4:.4f}"
    )


def test_criterion_6_patching_block_identity():
    """Dyadic test family at horizon 2^14: exhaustive block identity."""
    horizon = 2**14
    sets = [
        IndexSet.from_iterable(range(0, horizon, 2 ** (i + 1)), horizon)
        for i in range(1, 13)
    ]
    menus = [range(1, horizon) for _ in range(len(sets) - 1)]
    result = patch_sets(sets, menus, horizon)
    bounds = list(result.boundaries) + [horizon]
    patched = set(result.index_set.members)
    for idx, sel in enumerate(result.selectors):
        lo, hi = bounds[idx], bounds[idx + 1]
        expected = {n for n in sets[sel - 1].members if lo <= n < hi}
        assert {n for n in patched if lo <= n < hi} == expected
    for idx, m in enumerate(result.boundaries[1:]):
        assert m in menus[idx]
    assert float(result.density_at_horizon) < 0.01
    print(
        f"PASS criterion 6: block identity exhaustive over {len(result.selectors)} windows,"
        f" density {float(result.density_at_horizon):.5f}"
    )


def test_criterion_7_limit_shadowing_rotation():
    """Rotation family, harmonic defects, horizon 10^4, 8 levels."""
    fam = rotation_family()
    po = inject_defects(fam, 0.2, [1.0 / (i + 1) for i in range(10_000)])
    result = limit_shadow_point(fam, po, levels=8)
    assert len(result.levels) == 8
    assert result.table_nonincreasing
    assert all(b < a for a, b in zip(result.table, result.table[1:])), "strict decrease"
    assert result.table[-1] < 1.0 / 8.0
    print(
        f"PASS criterion 7: table strictly decreasing, final window error"
        f" {result.table[-1]:.2e} < 1/8"
    )


def test_criterion_8_average_shadowing_eight_state():
    """Finite 8-state system, 3-cycle A, square-indicator injection, 10^4."""
    fam = eight_state_family()
    horizon = 10_000
    displacements = [
        1.01 if math.isqrt(i + 1) ** 2 == i + 1 else 0.0 for i in range(horizon)
    ]
    po = displace_orbit(fam, 0, displacements)
    sub = InvariantSubsystem.finite(fam, [0, 1, 2])
    result = average_shadow_point(sub, po)
    assert result.lift.support_contained, "lifted defects must sit in J' union B"
    assert result.final_cesaro_error < 0.05
    assert result.final_cesaro_exact <= result.term_shadow_vs_lift + result.term_lift_vs_data
    print(
        f"PASS criterion 8: support exact, Cesaro error {result.final_cesaro_error:.4f} < 0.05,"
        " triangle certificate holds in exact arithmetic"
    )


def test_criterion_9_product_theorems_sweep():
    """3 finite built-ins x {pass, fail} configs x both variants: consistent."""
    families = {
        "cycle3": finite_cycle_family(3),
        "pair": identity_pair_family(),
        "swap": two_bit_swap_family(),
    }
    configs = {}
    for name, fam in families.items():
        min_dist = fam.space_at(0).min_positive_distance()
        diam = fam.space_at(0).diameter
        configs[(name, "pass")] = (0.6 * min_dist, 0.4 * min_dist)
        configs[(name, "fail")] = (0.4 * min_dist, 1.1 * diam)
    started = time.perf_counter()
    cases = 0
    for (ln, lc), (l_eps, l_delta) in configs.items():
        for (rn, rc), (r_eps, r_delta) in configs.items():
            for variant in ("h", "s_limit"):
                budget = VariantBudget(
                    epsilon=min(l_eps, r_eps), delta=min(l_delta, r_delta), max_len=6
                )
                record = product_equivalence_check(
                    families[ln],
                    families[rn],
                    variant,
                    budget,
                    delta_left=l_delta,
                    delta_right=r_delta,
                )
                assert record.consistent, (ln, lc, rn, rc, variant, record)
                cases += 1
    elapsed = time.perf_counter() - started
    assert cases == 72
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    print(f"PASS criterion 9: {cases} equivalence records all consistent, {elapsed:.1f}s")


# sha256 of report_body_bytes for each bundled report. A change that moves
# one of these changes what the library reports, and must say so.
BUNDLED_REPORT_SHA256 = {
    "doubling-periodic.report.json": "ff92ad9e4bff0adc01dca676280d497612aa8367d20697f063ee3ea22abab02c",
    "doubling-shadow.report.json": "671610ca1937c57c5feb159f50eb1522ece96b7bc3db44ed9c90f62ff5b0d34a",
    "eight-state-average.report.json": "0801192e0200ba04c81c8303b4458761c44bcabfc5dacde409c6d3c9161d79cd",
    "finite-products.report.json": "95aa395bb01987dd26a790a16e8d5b0c937bc3de87f87c3cd5130521653a1e38",
    "rotation-limit.report.json": "153bd1d10959ef295c8bc2e81654d8f0e05ec0fe349bda8667d45d8dc87de3af",
    "squares-density.report.json": "409b8c5aad3c213f0f2206481cf88fd147875f9d71494ea2bf195b322aed941a",
}

# sha256 of the bytes of each bundled CSV series. The series back the
# reports' verdicts, so a change that moves one of these must say so too.
BUNDLED_CSV_SHA256 = {
    "doubling-periodic.errors.csv": "a0b57a1f38b7662f9e94fd82b9e35d8e7bb09365d2196d789d64ace502a9cb4f",
    "doubling-shadow.errors.csv": "62379f4543dbc3854914748aa8aa47725685b07e4c01a087d2b41b77e192adc6",
    "doubling-shadow.orbit.csv": "99e98c2cf611c45e24c66890a7395fc21feb73c12158dac11cb80b31a7282cf5",
    "eight-state-average.certificates.csv": "9c7874ebbb64866af3f14f7d038f1aac559bd245217bb806c127b16fba1dd734",
    "eight-state-average.lift_defects.csv": "b0a8b70b43a6ce95644126d8f5b669b52cafde96a032293803a67ba68ec3bc56",
    "finite-products.cases.csv": "f1bdaec85804a5824f155a2d3f7c4c687d94cf38d9e09e09b33a911a1fcfc4bb",
    "rotation-limit.table.csv": "df7c6391b6260538e36696624453544516cf05a2f32e2317b494ad68446c62f3",
    "squares-density.cesaro.csv": "40edc86697fde188e0bcf479c377d3adef89ca3b41b03d5502464a08e6daed3f",
}


def test_criterion_10_determinism(tmp_path):
    """The bundled acceptance suite is byte-identical across reruns and pinned."""
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert run_suite(bundled_scenarios_dir(), out1, quiet=True) == EXIT_OK
    assert run_suite(bundled_scenarios_dir(), out2, quiet=True) == EXIT_OK
    reports = sorted(p.name for p in out1.glob("*.report.json"))
    assert reports == sorted(BUNDLED_REPORT_SHA256)
    assert not (out1 / "barely-expanding-control.report.json").exists()
    for name in reports:
        body1 = report_body_bytes(load_report(out1 / name))
        body2 = report_body_bytes(load_report(out2 / name))
        assert body1 == body2, name
        assert hashlib.sha256(body1).hexdigest() == BUNDLED_REPORT_SHA256[name], name
    series = sorted(p.name for p in out1.glob("*.csv"))
    assert series == sorted(BUNDLED_CSV_SHA256)
    for name in series:
        data = (out1 / name).read_bytes()
        assert data == (out2 / name).read_bytes(), name
        assert hashlib.sha256(data).hexdigest() == BUNDLED_CSV_SHA256[name], name
    print(f"PASS criterion 10: {len(reports)} reports and {len(series)} series byte-identical")
