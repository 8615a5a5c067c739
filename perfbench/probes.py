"""One round of layer probes: each module timed from outside, through its
public functions, in a fresh interpreter.

Differences isolate what no public name exposes alone: the family mask
tables are cold minus warm n_counts_all, the combine step is warm
distribution minus its warm inputs, the CLI overhead is warm cli.main
minus the direct call.  Counts marked "computed" come from formulas in
q, not from counting inside the program.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import time

from bch3 import cli, coset, curves, gf2m, oracle

import expected
from inputs import BFS_DEGREES

WARM_REPEATS = 5
COMBINE_REPEATS = 15


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def _median_time(fn, *args, repeats: int = WARM_REPEATS) -> float:
    return statistics.median(_timed(fn, *args)[0] for _ in range(repeats))


def _per_call(calls) -> float:
    """Median seconds of one call over a list of zero-argument callables."""
    times = []
    for call in calls:
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_probe(spec: dict) -> tuple[dict[str, float], list[str], int]:
    """Per-layer metrics, failed checks, and the number of checks made."""
    out: dict[str, float] = {}
    checks: list[tuple[bool, str]] = []
    m13 = spec["m13"]
    out["gf2m.make_field.s"] = statistics.median(_timed(gf2m.make_field, 13, p)[0] for p in m13)
    field = gf2m.make_field(13, m13[0])
    q, m = field.q, field.m

    out["gf2m.inverse_table.s"], inv = _timed(gf2m.inverse_table, field)
    out["gf2m.trace_mul_table.s"], tmul = _timed(gf2m.trace_mul_table, field)
    out["gf2m.table_bytes"] = inv.nbytes + tmul.nbytes

    cold, _ = _timed(curves.n_counts_all, field)
    warm = _median_time(curves.n_counts_all, field)
    out["curves.family_tables.s"] = cold - warm
    out["curves.wht.s"] = warm
    out["curves.wht.butterflies"] = 7 * (q // 2) * m  # computed

    point = []
    for lam in spec["point_lambdas"]:
        point += [lambda i=i, lam=lam: curves.n_count(field, i, lam, 0) for i in range(1, 8)]
        point.append(lambda lam=lam: curves.g_count(field, lam))
    out["curves.point.s"] = _per_call(point)
    out["coset.N_of.s"] = _per_call(
        [lambda c=c, b=b: coset.N_of(field, c, b) for c, b in spec["n_of"]]
    )

    table = coset.distribution(13, m13[0])
    checks.append((table.normalized == expected.TABLES[13], "distribution(13)"))
    dist, combine = [], []
    for _ in range(COMBINE_REPEATS):  # adjacent calls, so drift cancels
        t_field, _ = _timed(gf2m.make_field, 13, m13[0])
        t_counts, _ = _timed(curves.n_counts_all, field)
        t_dist, _ = _timed(coset.distribution, 13, m13[0])
        dist.append(t_dist)
        combine.append(t_dist - t_counts - t_field)
    dist = statistics.median(dist)
    out["coset.combine.s"] = statistics.median(combine)
    out["coset.bounds.s"] = statistics.median(
        _timed(lambda: [coset.bounds(k) for k in (5, 7, 9, 11, 13)])[0] for _ in range(20)
    )
    gamma = coset.load_gamma()
    out["coset.gamma.s"] = _median_time(coset.gamma_report, 13, gamma, table)
    for k in (5, 7):  # builds the default-field tables, as verify has by then
        coset.calibrate_boundary(k)
    out["coset.calibrate_boundary.s"] = statistics.median(
        _timed(lambda: [coset.calibrate_boundary(k) for k in (5, 7)])[0] for _ in range(3)
    )

    oracle_times = []
    for p in spec["m9"]:
        seconds, hist = _timed(oracle.weight4_histogram, gf2m.make_field(9, p))
        oracle_times.append(seconds)
        checks.append((int(hist.sum()) == expected.subsets_with_sum_one(512), "weight4_histogram"))
    out["oracle.weight4_histogram.s"] = statistics.median(oracle_times)
    out["oracle.weight4_histogram.subsets"] = int(hist.sum())
    out["oracle.weight4_histogram.bytes"] = hist.nbytes

    for k in BFS_DEGREES:
        seconds, report = _timed(oracle.covering_radius, k)
        out[f"oracle.covering_radius.m{k}.s"] = seconds
        checks.append((report.reached_at_weight == expected.REACHED_AT_WEIGHT[k], f"BFS m={k}"))
    for depth, count in enumerate(report.reached_at_weight):
        out[f"oracle.bfs.frontier.d{depth}"] = count
    # computed: every depth's frontier is stepped by all q - 1 generators,
    # over a 2^(3m)-entry visited table, at the largest degree probed.
    out["oracle.bfs.edges"] = sum(report.reached_at_weight) * ((1 << report.m) - 1)
    out["oracle.bfs.visited_bytes"] = 1 << (3 * report.m)

    argv = ["table", "--m", "13", "--modulus", hex(m13[0])]
    sink = io.StringIO()

    def main():
        with contextlib.redirect_stdout(sink):
            cli.main(argv)

    out["cli.overhead.s"] = _median_time(main) - dist
    failures = [what for ok, what in checks if not ok]
    return out, failures, len(checks)
