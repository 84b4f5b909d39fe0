"""Property tests: each runner's CSV lines against the csv.writer series writer.

The runners format their series lines where they make the data (floats
through repr, ints and names through str, rows ending "\\r\\n");
``oracles.write_series_reference`` is the csv.writer writer those lines
replaced. For every line shape, both must write the same bytes, down to
-0.0, infinities, NaN, subnormals and the exponent forms of repr.
"""

import math
from types import SimpleNamespace

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oracles import write_series_reference  # noqa: E402
from shadowlab.cli import _cesaro_lines, _orbit_lines, _pair_lines, _table_lines  # noqa: E402
from shadowlab.families import doubling_family, product_family  # noqa: E402
from shadowlab.pseudo_orbits import PseudoOrbit, perturb_orbit, pseudo_orbit_rows  # noqa: E402
from shadowlab.reporting import csv_lines, write_series  # noqa: E402

EDGE_FLOATS = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, 1e-7, 0.1 + 0.2]
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
ints = st.integers(min_value=-(10**20), max_value=10**20)
PRODUCT = product_family(doubling_family(), doubling_family())


@pytest.fixture(scope="module")
def same_bytes(tmp_path_factory):
    """Check that the lines and the oracle's rows write the same file."""
    tmp = tmp_path_factory.mktemp("series")
    old, new = tmp / "old.csv", tmp / "new.csv"

    def check(header, rows, lines):
        assert len(lines) == len(rows)  # one line per data row, as the benchmark counts them
        write_series_reference(old, header, rows)
        write_series(new, header, lines)
        assert new.read_bytes() == old.read_bytes()

    return check


@given(seed=ints, errors=st.lists(floats, max_size=20))
@example(seed=0, errors=[i / 7 for i in range(2 * 1024 + 5)])  # more than one write's worth
def test_shadow_error_lines(same_bytes, seed, errors):
    rows = [[seed, i, e] for i, e in enumerate(errors)]
    same_bytes(["seed", "step", "error"], rows, _pair_lines(enumerate(errors), f"{seed},"))


@given(errors=st.lists(floats, max_size=20))
def test_periodic_error_lines(same_bytes, errors):
    rows = [[i, e] for i, e in enumerate(errors)]
    same_bytes(["step", "error"], rows, _pair_lines(enumerate(errors)))


@given(values=st.lists(floats, max_size=40))
@example(values=[-0.0])
@example(values=[-0.0, -0.0, 1e16, 1.0])
def test_cesaro_lines_keep_the_running_sum_from_zero(same_bytes, values):
    # accumulate without initial=0.0 would yield -0.0 first where 0.0 + -0.0 is 0.0
    rows = []
    acc = 0.0
    for n, v in enumerate(values, start=1):
        acc += v
        rows.append([n, acc / n])
    same_bytes(["n", "mean"], rows, _cesaro_lines(values))


@given(records=st.lists(st.tuples(ints, ints, floats, floats, floats), max_size=10))
def test_limit_table_lines(same_bytes, records):
    recs = [SimpleNamespace(level=a, cut=b, target=c, window_error=d) for a, b, c, d, _ in records]
    table = [r[4] for r in records]
    rows = [[rec.level, rec.cut, rec.target, rec.window_error, table[i]] for i, rec in enumerate(recs)]
    header = ["level", "cut", "target", "window_error", "final_table"]
    same_bytes(header, rows, _table_lines(recs, table))


@given(values=st.lists(floats, min_size=4, max_size=4), defects=st.lists(floats, max_size=20))
def test_average_term_and_defect_lines(same_bytes, values, defects):
    names = ["final_cesaro", "term_shadow_vs_lift", "term_lift_vs_data", "slack_density"]
    terms = list(zip(names, values))
    same_bytes(["term", "value"], [list(t) for t in terms], _pair_lines(terms))
    rows = [[i, d] for i, d in enumerate(defects) if d > 0.0]
    positive = ((i, d) for i, d in enumerate(defects) if d > 0.0)
    same_bytes(["index", "defect"], rows, _pair_lines(positive))


@given(
    points=st.lists(st.tuples(floats, floats), min_size=1, max_size=12),
    data=st.data(),
)
def test_product_orbit_lines_flatten_points_and_leave_the_last_defect_empty(same_bytes, points, data):
    defects = data.draw(st.lists(floats, min_size=len(points) - 1, max_size=len(points) - 1))
    po = PseudoOrbit(PRODUCT, tuple(points), tuple(defects))
    lines = _orbit_lines(po)
    assert lines[-1].endswith(",\r\n")
    same_bytes(["index", "x0", "x1", "defect"], pseudo_orbit_rows(po), lines)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_orbit_lines_of_a_product_shadow_input(same_bytes, seed):
    po = perturb_orbit(PRODUCT, (0.1, 0.7), 30, 0.01, seed)
    lines = _orbit_lines(po)
    assert all(line.count(",") == 3 for line in lines)
    assert lines[-1].endswith(",\r\n")
    same_bytes(["index", "x0", "x1", "defect"], pseudo_orbit_rows(po), lines)


names = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"), max_size=8)


@given(
    cases=st.lists(
        st.tuples(names, names, names, st.booleans(), st.booleans(), st.booleans(), st.booleans(),
                  st.one_of(st.just(""), names, st.builds(repr, st.tuples(st.tuples(ints, ints), st.tuples(ints, ints))))),
        max_size=6,
    )
)
@example(cases=[("two_bit_swap", "finite_cycle_3", "s_limit", False, False, False, True, repr(((0, 0), (0, 0))))])
def test_product_case_lines_quote_the_tuple_witness(same_bytes, cases):
    rows = [list(case) for case in cases]
    header = ["left", "right", "variant", "left_passed", "right_passed", "product_passed", "consistent", "witness"]
    lines = csv_lines(rows)
    if any("," in row[-1] for row in rows):
        assert any('"' in line for line in lines)
    same_bytes(header, rows, lines)


def test_the_tuple_witness_is_quoted():
    line = csv_lines([["a", "b", "h", True, True, False, True, repr(((0, 0), (0, 0)))]])
    assert line == ['a,b,h,True,True,False,True,"((0, 0), (0, 0))"\r\n']
