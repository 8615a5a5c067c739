"""Acceptance gate: every published number and invariant, at its stated
tolerance, with one printed PASS/FAIL line per criterion (run with -s).
"""

import math
import random
import time
from collections import Counter
from contextlib import contextmanager

from bch3 import coset, curves, gf2m, oracle
from bch3.curves import curve_params, curve_traces, n_count, split_count
from bch3.gf2m import make_field
from conftest import full_group_bfs_layers, g_count_slow, n_count_slow


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number:>2} PASS  {description}")


def cold_distribution(m, modulus=None):
    """Time one distribution run with every per-field cache cleared."""
    curves._count_table.cache_clear()
    curves._point_table.cache_clear()
    coset.invariants.cache_clear()
    gf2m.power_table.cache_clear()
    gf2m.exp_table.cache_clear()
    gf2m.log_tables.cache_clear()
    gf2m.trace_mul_table.cache_clear()
    start = time.perf_counter()
    table = coset.distribution(m, modulus)
    return table, time.perf_counter() - start


def test_criterion_1_table_q32():
    with criterion(1, "q=2^5 distribution {0:27, 2:35} in under 1 s"):
        table, elapsed = cold_distribution(5)
        assert table.normalized == {0: 27, 2: 35}
        assert elapsed < 1.0


def test_criterion_2_table_q128():
    with criterion(2, "q=2^7 distribution matches the published table in under 1 s"):
        table, elapsed = cold_distribution(7)
        assert table.normalized == {0: 2, 2: 28, 4: 98, 6: 84, 8: 35, 10: 7}
        assert elapsed < 1.0


def test_criterion_3_table_q512():
    with criterion(3, "q=2^9 distribution matches the published table in under 5 s"):
        table, elapsed = cold_distribution(9)
        expected = dict(
            zip(range(12, 33, 2), [18, 21, 117, 180, 148, 195, 199, 81, 36, 18, 9])
        )
        assert table.normalized == expected
        assert elapsed < 5.0


def test_criterion_4_table_q2048():
    with criterion(4, "q=2^11 distribution matches the published table in under 30 s"):
        table, elapsed = cold_distribution(11)
        expected = dict(
            zip(
                range(66, 109, 2),
                [22, 66, 88, 55, 176, 264, 187, 374, 374, 374, 451,
                 365, 341, 275, 341, 154, 44, 55, 33, 11, 22, 22],
            )
        )
        assert table.normalized == expected
        assert elapsed < 30.0


def test_criterion_5_gamma_q8192():
    with criterion(5, "q=2^13 residuals are 1 at l=11,37 and 0 elsewhere, under 5 min"):
        table, elapsed = cold_distribution(13)
        gamma = coset.load_gamma()
        report = coset.gamma_report(13, gamma, table=table)
        assert report.residual_nonzero == {11: 1, 37: 1}
        for ell in range(51):  # the residual is 0 at every l it does not list
            assert report.histogram[ell] - 13 * gamma[ell] == report.residual_nonzero.get(ell, 0)
        for value in (292, 296, 300, 386):
            assert report.histogram[(value - 290) // 2] == 0
        assert elapsed < 300.0


def test_criterion_6_bound_tables():
    with criterion(6, "both published bound tables reproduce exactly"):
        refined = {5: (0, 4), 7: (0, 14), 9: (4, 38), 11: (50, 120), 13: (270, 412)}
        heuristic = {5: (0, 6), 7: (0, 12), 9: (10, 34), 11: (64, 108), 13: (300, 384)}
        for m in (5, 7, 9, 11, 13):
            report = coset.bounds(m)
            assert report.refined_even == refined[m]
            assert report.heuristic_even == heuristic[m]


def test_criterion_7_heuristic_coverage():
    with criterion(7, "under 1% of q=2^13 values fall outside [300, 384]"):
        table = coset.distribution(13)
        total = sum(table.normalized.values())
        outside = sum(c for v, c in table.normalized.items() if v < 300 or v > 384)
        assert outside / total < 0.01


def test_criterion_8_oracle_equivalence():
    with criterion(8, "closed form equals the exhaustive oracle (m=5, 7 full; m=9 sampled)"):
        for m in (5, 7):
            field = make_field(m)
            pairs = [(cls, b) for cls in (0, 1) for b in range(field.q) if b != 1]
            assert len(pairs) == 2 * (field.q - 1)
            for cls, b in pairs:
                assert coset.N_of(field, cls, b) == oracle.brute_N(field, cls, b)
        field = make_field(9)
        rng = random.Random(20260810)
        checked = 0
        while checked < 50:
            cls, b = rng.randrange(2), rng.randrange(field.q)
            if b == 1:
                continue
            assert coset.N_of(field, cls, b) == oracle.brute_N(field, cls, b)
            checked += 1


def test_criterion_9_property_suite():
    with criterion(9, "curve-side property suite, exhaustive at m=5 and m=7"):
        for m in (5, 7):
            field = make_field(m)
            q = field.q
            bound = math.isqrt(4 * q)
            root2q = 1 << ((m + 1) // 2)
            lo, hi = coset.bounds(m).refined_even
            t3_seen = set()
            # the counts the table reads from the rows of n1, n3 and n5:
            # every lam at m = 5, eight seeded lam at m = 7
            sampled = range(1, q) if m == 5 else random.Random(m).sample(range(1, q), 8)
            for lam in sampled:
                for i in (2, 4, 6, 7):
                    assert n_count(field, i, lam, 0) == n_count_slow(field, i, lam, 0)
                assert curves.g_count(field, lam) == g_count_slow(field, lam)
            for lam in range(1, q):
                assert n_count(field, 5, lam, 0) == curves.g_count(field, field.pow(lam, 4))
                for c in (0, 1):
                    zeros = n_count(field, 1, lam, field.trace(c)) + (1 - field.trace(c))
                    assert q - 2 * zeros in (0, root2q, -root2q)
            for cls in (0, 1):
                for b in range(q):
                    if b == 1:
                        continue
                    params = curve_params(field, cls, b)
                    profile = curve_traces(params)
                    assert profile.t3 % 2 == 1
                    assert profile.t3 % 4 == (1 if cls == 1 else 3)
                    t3_seen.add(profile.t3)
                    value = coset.N_of(field, cls, b)
                    assert value % 2 == 0 and lo <= value <= hi
                    for subset in ("f1f2", "f3"):
                        slo, shi = curves.split_interval(subset, field, cls)
                        assert slo <= split_count(subset, params) <= shi
            assert t3_seen == {t for t in range(-bound, bound + 1) if t % 2}


def test_criterion_10_combined_trace_consistency():
    with criterion(10, "q+1-t equals 24N plus the 12/0 boundary constant"):
        boundary = {0: 0, 1: 12}
        for m in (5, 7):
            assert coset.calibrate_boundary(m) == boundary
            field = make_field(m)
            for cls in (0, 1):
                for b in range(field.q):
                    if b == 1:
                        continue
                    profile = curve_traces(curve_params(field, cls, b))
                    lhs = field.q + 1 - profile.t_combined
                    assert lhs == 24 * coset.N_of(field, cls, b) + boundary[cls]
        field = make_field(9)
        rng = random.Random(20260810)
        checked = 0
        while checked < 50:
            cls, b = rng.randrange(2), rng.randrange(field.q)
            if b == 1:
                continue
            profile = curve_traces(curve_params(field, cls, b))
            lhs = field.q + 1 - profile.t_combined
            assert lhs == 24 * coset.N_of(field, cls, b) + boundary[cls]
            checked += 1


def test_criterion_11_covering_radius():
    with criterion(11, "covering radius 5 for m=4..7 (m=7 under 1 min), every layer = full-group BFS"):
        for m in (4, 5, 6):
            assert oracle.covering_radius(m).rho == 5
        start = time.perf_counter()
        assert oracle.covering_radius(7).rho == 5
        assert time.perf_counter() - start < 60.0
        for m in (4, 5, 6, 7):
            assert oracle.covering_radius(m).reached_at_weight == full_group_bfs_layers(m)


def test_criterion_12_representation_independence():
    with criterion(12, "distributions agree across distinct irreducible moduli"):
        assert coset.distribution(5, 0x25).normalized == coset.distribution(5, 0x29).normalized
        assert coset.distribution(7, 0x83).normalized == coset.distribution(7, 0x89).normalized


def test_criterion_13_second_moment():
    with criterion(13, "sum N(N - 1) = (70 A_8 - P_0) / ((q - 1) q/2) exactly at m=5..19"):
        pairs = [70, 6342, 449990, 29565382, 1904685510, 122100871622,
                 7817675698630, 500382779077062]
        for m, expected in zip(range(5, 20, 2), pairs):
            q = 1 << m
            table = coset.distribution(m)
            assert sum(v * (v - 1) * c for v, c in table.normalized.items()) == expected
            a8 = coset.weight8_count(m)
            assert coset.flat_pairs(m) + (q - 1) * (q // 2) * expected == 70 * a8


def test_per_class_histograms_match_oracle():
    # beyond the merged tables: the class split itself agrees with brute force
    for m in (5, 7):
        field = make_field(m)
        table = coset.distribution(m)
        for cls in (0, 1):
            hist = Counter(
                oracle.brute_N(field, cls, b) for b in range(field.q) if b != 1
            )
            assert dict(hist) == table.per_class[cls]
