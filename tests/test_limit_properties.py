"""Property tests: every cut the limit route picks passes the solver's budget gate.

For each level of ``limit_shadow_point`` on an expanding family, the splice at
the level's cut must pass ``delta_budget``'s check at the level's accuracy:
the pullback oracle's modulus is the least budget over the tail steps, so no
tail defect can reach its own step's budget. Each cut is also the first
admissible one from where the search started.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from shadowlab.families import (  # noqa: E402
    alternating_family,
    doubling_family,
    product_family,
    slow_expanding_family,
    tripling_family,
)
from shadowlab.limits import PullbackOracle, limit_shadow_point, splice  # noqa: E402
from shadowlab.pseudo_orbits import inject_defects  # noqa: E402
from shadowlab.solver import delta_budget  # noqa: E402

FAMILIES = {
    "doubling": doubling_family(),
    "tripling": tripling_family(),
    "alternating": alternating_family(),
    "slow_expanding": slow_expanding_family(),
    "doubling*doubling": product_family(doubling_family(), doubling_family()),
}


@settings(max_examples=30)
@given(
    name=st.sampled_from(sorted(FAMILIES)),
    x=st.floats(0.0, 1.0, exclude_max=True),
    horizon=st.integers(16, 300),
    scale=st.floats(0.01, 1.0),
    levels=st.integers(1, 8),
)
def test_every_level_cut_passes_the_budget_gate_on_its_splice(name, x, horizon, scale, levels):
    fam = FAMILIES[name]
    x0 = (x, 1.0 - x) if fam.space.kind == "product" else x
    # Harmonic defects: the final-quarter tail, below scale / 13, clears every level's target.
    po = inject_defects(fam, x0, [scale / (i + 1) for i in range(horizon)])
    result = limit_shadow_point(fam, po, levels=levels)
    oracle = PullbackOracle(fam)
    start = 0
    for rec in result.levels:
        budget = delta_budget(fam, oracle.accuracy(rec.target), horizon=horizon)
        budget.check(splice(fam, po, rec.cut).orbit.defects)
        assert rec.delta == min(budget.values[rec.cut :], default=budget.values[-1])
        if rec.cut > start:
            assert max(po.defects[rec.cut - 1 :]) >= oracle.modulus(rec.target, rec.cut - 1, horizon)
        start = rec.cut
