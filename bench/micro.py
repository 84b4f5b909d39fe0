"""Micro-benchmarks of the per-step functions that tracing does not wrap.

Each entry calls one public function from outside, in a plain loop over
precomputed arguments, on the families the workloads use (doubling,
doubling x doubling, eight_state). The figure is nanoseconds per call,
loop overhead included: the median of several repeats, rescaled to the
reference speed by the mean speed the meter sampled during them.
"""

from __future__ import annotations

import random
import statistics

import speed

CALLS = 20_000
REPEATS = 5


def micro_metrics(lib, seed: int, meter) -> dict:
    def _ns_per_call(loop, calls: int = CALLS) -> float:
        raws, speeds = [], []
        for _ in range(REPEATS):
            mark = meter.mark()
            loop(calls)
            raw, samples = meter.since(mark)
            raws.append(raw / calls * 1e9)
            speeds += samples
        return speed.at_reference_speed(statistics.median(raws), speeds, meter.mean_speed())

    families, solver = lib.families, lib.solver
    rng = random.Random(f"shadowlab-bench/micro/{seed}")
    doubling = families.doubling_family()
    product = families.product_family(doubling, families.doubling_family())
    eight = families.eight_state_family()
    circle = doubling.space_at(0)
    pair_space = product.space_at(0)
    finite = eight.space_at(0)
    doubling_map = doubling.map_at(0)
    product_map = product.map_at(0)

    xs = [rng.random() for _ in range(256)]
    pairs = [(rng.random(), rng.random()) for _ in range(256)]
    states = [rng.randrange(8) for _ in range(256)]
    mask = 255

    def require(n):
        f, a = circle.require, xs
        for i in range(n):
            f(a[i & mask])

    def distance(space, points):
        def loop(n):
            f, a = space.distance, points
            for i in range(n):
                f(a[i & mask], a[(i + 1) & mask])
        return loop

    def evaluate(family, points):
        def loop(n):
            f, a = family.evaluate, points
            for i in range(n):
                f(i, a[i & mask])
        return loop

    def apply(n):
        f, a = doubling_map.apply, xs
        for i in range(n):
            f(a[i & mask])

    def map_at(family):
        def loop(n):
            f = family.map_at
            for i in range(n):
                f(i)
        return loop

    # Cells of radius 0.01 around each point, pulled back through the branch
    # the point selects; w is the point's image, as in the solver.
    circle_args = [
        (doubling_map.branch_of(x), doubling_map.apply(x), (doubling_map.apply(x), 0.01)) for x in xs
    ]
    pair_args = [
        (
            product_map.branch_of(p),
            product_map.apply(p),
            tuple((c, 0.01) for c in product_map.apply(p)),
        )
        for p in pairs
    ]

    def cell_pull(space, mapobj, args):
        def loop(n):
            f, a = solver.cell_pull, args
            for i in range(n):
                branch, w, cell = a[i & mask]
                f(space, mapobj, branch, w, cell)
        return loop

    return {
        "spaces.require_ns": _ns_per_call(require),
        "spaces.distance_ns.circle": _ns_per_call(distance(circle, xs)),
        "spaces.distance_ns.finite": _ns_per_call(distance(finite, states)),
        "spaces.distance_ns.product": _ns_per_call(distance(pair_space, pairs)),
        "families.evaluate_ns.doubling": _ns_per_call(evaluate(doubling, xs)),
        "families.evaluate_ns.product": _ns_per_call(evaluate(product, pairs)),
        "families.evaluate_ns.finite": _ns_per_call(evaluate(eight, states)),
        "families.apply_ns.doubling": _ns_per_call(apply),
        "families.map_at_ns.constant": _ns_per_call(map_at(doubling)),
        "families.map_at_ns.product": _ns_per_call(map_at(product)),
        "solver.cell_pull_ns.circle": _ns_per_call(cell_pull(circle, doubling_map, circle_args)),
        "solver.cell_pull_ns.product": _ns_per_call(cell_pull(pair_space, product_map, pair_args)),
    }
