import dataclasses
import decimal
import math
import random
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from bch3 import coset, curves, gf2m, oracle
from bch3.curves import DegenerateLambdaError, curve_params, curve_traces, split_count
from bch3.coset import (
    BOUNDS_MAX_M,
    DistributionTable,
    N_of,
    N_of_general,
    bounds,
    calibrate_boundary,
    distribution,
    dual_weight_distribution,
    flat_pairs,
    gamma_report,
    load_gamma,
    weight8_count,
)
from bch3.gf2m import is_irreducible, make_field
from conftest import (
    dual_weights_by_enumeration,
    invariants_emptied_around,
    open_states_by_grid,
    trace_by_definition,
    weight4_histogram_by_triples,
)


TABLE_M7 = {0: 2, 2: 28, 4: 98, 6: 84, 8: 35, 10: 7}
TABLE_M9 = dict(zip(range(12, 33, 2), [18, 21, 117, 180, 148, 195, 199, 81, 36, 18, 9]))
TABLE_M11 = dict(
    zip(
        range(66, 109, 2),
        [22, 66, 88, 55, 176, 264, 187, 374, 374, 374, 451, 365, 341, 275, 341, 154, 44, 55, 33, 11, 22, 22],
    )
)
SECOND_MOMENT_DOC = Path(__file__).parents[1] / "docs" / "second_moment.md"
# sum N(N - 1) over both classes and every lam != 0
PAIRS = {5: 70, 7: 6342, 9: 449990, 11: 29565382, 13: 1904685510}
# values outside bounds(m).heuristic_even, of 2(q - 1); m = 21 and 23
# from `bch3 table`, too large for the suite
HEURISTIC_MISSES = {13: 78, 15: 394, 17: 1802, 19: 6974, 21: 29431, 23: 122889}


class TestNOf:
    def test_degenerate_b_rejected(self, f5):
        with pytest.raises(DegenerateLambdaError):
            N_of(f5, 0, 1)

    def test_even_degree_rejected(self, f4):
        with pytest.raises(ValueError):
            N_of(f4, 0, 0)

    def test_values_at_m5(self, f5):
        lo, hi = bounds(5).refined_even
        multiset = Counter()
        for cls in (0, 1):
            for b in range(f5.q):
                if b == 1:
                    continue
                value = N_of(f5, cls, b)
                assert value % 2 == 0 and lo <= value <= hi
                multiset[value] += 1
        assert dict(multiset) == {0: 27, 2: 35}

    def test_matches_oracle_at_origin(self, f5):
        assert N_of(f5, 0, 0) == 0 == oracle.brute_N(f5, 0, 0)

    @pytest.mark.parametrize("m", [5, 7, 9, 11, 13])
    def test_table_indexed_by_lam(self, m):
        # slot cls << m | lam of the one invariant table holds N at
        # B = lam + 1 (A = 0 or 1, class A), with filler -1 at lam = 0
        field = make_field(m)
        values = coset.invariants(field)
        assert values.shape == (2 * field.q,) and values[0] == values[field.q] == -1
        for cls in (0, 1):
            for lam in range(1, field.q):
                slot = cls << m | lam
                assert values[slot] == N_of(field, cls, lam ^ 1) == N_of_general(field, cls, lam ^ 1)

    def test_lattice_gate_fires(self, monkeypatch):
        # row n1 two up at one lam moves 24N by 8, off the lattice
        field = make_field(7)
        perturbed = curves._count_table(field).copy()
        perturbed[0, 7] += 2
        monkeypatch.setattr(curves, "_count_table", lambda field: perturbed)
        with pytest.raises(AssertionError, match="^invariant left its lattice$"):
            coset.invariants.__wrapped__(field)

    def test_combine_peak(self):
        # with the count table built: an int64 output of 2 * 8q for both
        # classes, one int32 transient of 4q and a mask of q
        field = make_field(17)
        curves._count_table(field)
        tracemalloc.start()
        try:
            values = coset.invariants.__wrapped__(field)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.nbytes == 2 * 8 * field.q
        assert peak <= 2.75 * 8 * field.q

    def test_split_pair_identity(self, f5):
        # each completely splitting pair contributes 16 of the 24 N words
        for cls in (0, 1):
            for b in range(f5.q):
                if b == 1:
                    continue
                m_pairs = split_count("f1f2f3", curve_params(f5, cls, b))
                assert 3 * N_of(f5, cls, b) == 2 * m_pairs


def _lam_by_hand(field, a: int, b: int) -> int:
    """lam = b + a^2 + a + 1 by a scalar product."""
    return b ^ field.mul(a, a) ^ a ^ 1


class TestNOfGeneral:
    @pytest.mark.parametrize("largest", [False, True], ids=["default", "largest"])
    @pytest.mark.parametrize("m", [5, 7, 9])
    def test_slot_key_by_hand(self, m, largest):
        # on the default modulus and on the largest irreducible of degree m
        field = make_field(m, _largest_modulus(m) if largest else None)
        key = coset.slot_key(field)
        assert key.dtype == np.int64 and not key.flags.writeable
        assert np.array_equal(key, _key_by_hand(field))

    def test_degenerate_rejected(self, f5):
        with pytest.raises(DegenerateLambdaError):
            N_of_general(f5, 0, 1)

    def test_normalization_rule(self, f5):
        for a in (0, 5, 17):
            for b in (0, 7, 23):
                lam = _lam_by_hand(f5, a, b)
                if lam == 0:
                    continue
                assert N_of_general(f5, a, b) == N_of(f5, f5.trace(a), lam ^ 1)

    def test_trivial_class_zero(self, f5):
        for b in range(2, 6):
            assert N_of_general(f5, 0, b) == N_of(f5, 0, b)

    def test_twenty_random_against_oracle(self, f5):
        rng = random.Random(1)
        seen = 0
        while seen < 20:
            a, b = rng.randrange(32), rng.randrange(32)
            if _lam_by_hand(f5, a, b) == 0:
                continue
            assert N_of_general(f5, a, b) == oracle.brute_N(f5, a, b)
            seen += 1

    def test_checked_once(self, f5, monkeypatch):
        # the general query checks (a, b) itself and reads the invariant
        # array directly: neither the normalized entry point nor its
        # check runs a second time
        expected = {(a, b): oracle.brute_N(f5, a, b) for a, b in ((0, 0), (3, 2), (17, 30), (31, 5))}
        monkeypatch.setattr(coset, "N_of", _refuse)
        monkeypatch.setattr(curves, "_lam", _refuse)
        for (a, b), value in expected.items():
            assert N_of_general(f5, a, b) == value
        with pytest.raises(ValueError, match="^0x20 is not an element of F_2\\^5$"):
            N_of_general(f5, 32, 0)
        with pytest.raises(ValueError, match="^0x20 is not an element of F_2\\^5$"):
            N_of_general(f5, 0, 32)
        with pytest.raises(DegenerateLambdaError, match="^a=0x0, b=0x1 give lam=0: "):
            N_of_general(f5, 0, 1)
        with pytest.raises(ValueError, match="odd extension degree, got m=6"):
            N_of_general(make_field(6), 0, 0)

    def test_every_valid_pair_against_oracle(self, f5):
        # all 992 nondegenerate (a, b): the normalization rule is exact
        for a in range(f5.q):
            for b in range(f5.q):
                if _lam_by_hand(f5, a, b) != 0:
                    assert N_of_general(f5, a, b) == oracle.brute_N(f5, a, b)


class TestDistribution:
    def test_even_m_rejected(self):
        with pytest.raises(ValueError):
            distribution(6)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="m >= 5"):
            distribution(3)
        with pytest.raises(ValueError, match="too large for the per-field tables"):
            distribution(25)

    def test_published_m7(self):
        assert distribution(7).normalized == TABLE_M7

    def test_published_m9(self):
        assert distribution(9).normalized == TABLE_M9

    def test_reads_no_cube_inverse_or_log_table(self, monkeypatch):
        # cold: the count tables come from exp_table and T alone
        for cache in (gf2m.exp_table, gf2m.log_tables, gf2m.power_table, gf2m.trace_mul_table):
            cache.cache_clear()
        curves._count_table.cache_clear()
        coset.invariants.cache_clear()

        def refuse(*args):
            raise LookupError("a cube, inverse or log table was read")

        for module in (gf2m, curves):
            for name in ("power_table", "inverse_table", "log_tables"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        for m, table in {5: {0: 27, 2: 35}, 7: TABLE_M7, 9: TABLE_M9, 11: TABLE_M11}.items():
            assert distribution(m).normalized == table
        report = gamma_report(13, load_gamma(), table=distribution(13))
        assert report.residual_nonzero == {11: 1, 37: 1}

    def test_class_totals(self):
        table = distribution(7)
        q = 1 << 7
        for cls in (0, 1):
            assert sum(table.per_class[cls].values()) == q - 1
        assert sum(table.normalized.values()) == 2 * (q - 1)

    @pytest.mark.parametrize(
        "m, moment", [(5, 70), (7, 1302), (9, 21590), (11, 348502), (13, 5588310)]
    )
    def test_first_moment(self, m, moment):
        # sum over both classes and every lam != 0 of N = (q - 2)(q - 4)/12
        q = 1 << m
        table = distribution(m)
        assert sum(value * count for value, count in table.normalized.items()) == moment
        assert 12 * moment == (q - 2) * (q - 4)

    def test_first_moment_gate_fires(self, monkeypatch):
        # one value raised by 2 stays even and inside the interval; only the
        # moment check can see it
        invariants = coset.invariants

        def perturbed(field):
            values = invariants(field).copy()
            values[int(values[2 : field.q].argmin()) + 2] += 2  # in class 0
            return values

        monkeypatch.setattr(coset, "invariants", perturbed)
        with pytest.raises(AssertionError, match="first moment"):
            distribution(7)

    def test_interval_gate_fires(self, monkeypatch):
        # the m = 7 table holds N = 0, which an interval from 2 must refuse
        report = bounds(7)
        narrowed = dataclasses.replace(report, refined_even=(2, report.refined_even[1]))
        monkeypatch.setattr(coset, "bounds", lambda m: narrowed)
        with pytest.raises(AssertionError, match="^a value escaped the proven interval$"):
            distribution(7)

    def test_keys_even_and_bounded(self):
        table = distribution(9)
        lo, hi = bounds(9).refined_even
        for key in table.normalized:
            assert key % 2 == 0 and lo <= key <= hi

    def test_representation_independent(self):
        assert distribution(5, 0x25).normalized == distribution(5, 0x29).normalized

    def test_json_shape(self):
        payload = distribution(5).to_json_dict()
        assert payload == {
            "q": 32,
            "modulus": "0x25",
            "distribution": {"0": 27, "2": 35},
            "normalized_by": 16,
        }

    def test_tsv_shape(self):
        text = distribution(5).to_tsv()
        lines = text.splitlines()
        assert lines[0] == "N\tcount_class0\tcount_class1\tnormalized"
        assert lines[1] == "0\t11\t16\t27"
        assert lines[2] == "2\t20\t15\t35"


class TestSecondMoment:
    @pytest.mark.parametrize("m", [5, 7])
    def test_dual_distribution_by_enumeration(self, m):
        assert dual_weight_distribution(m) == dual_weights_by_enumeration(make_field(m))

    @pytest.mark.parametrize("fn", [dual_weight_distribution, weight8_count])
    def test_even_m_refused(self, fn):
        # Kasami's weights hold at odd m only: at m = 6 the formula gave no
        # words of weight 16 or 48, where enumeration finds 252 of each
        with pytest.raises(ValueError, match="odd extension degree, got m=6"):
            fn(6)

    def test_weight8_count(self):
        # at m = 5 the extended code is self-dual: A_8 = B_8
        assert weight8_count(5) == dual_weight_distribution(5)[8] == 620
        assert weight8_count(7) == 774192

    @pytest.mark.parametrize("m", [5, 7, 9])
    def test_flat_pairs_by_enumeration(self, m):
        # ordered pairs of distinct 4-sets with sum 0 and one (s3, s5)
        counts = weight4_histogram_by_triples(make_field(m), total=0)
        assert flat_pairs(m) == int((counts * (counts - 1)).sum())

    @pytest.mark.parametrize("m", sorted(PAIRS))
    def test_pinned(self, m):
        q = 1 << m
        pairs = sum(v * (v - 1) * c for v, c in distribution(m).normalized.items())
        assert pairs == PAIRS[m]
        assert flat_pairs(m) + (q - 1) * (q // 2) * pairs == 70 * weight8_count(m)

    def test_value_swap_trips_the_gate(self, monkeypatch):
        # one N up by 2 and another down by 2 keeps the lattice, the class
        # totals, the first moment and the interval [0, 14]; sum N(N - 1)
        # moves by 4(N_i - N_j) + 8 = 4(4 - 8) + 8 = -8
        invariants = coset.invariants

        def swapped(field):
            values = invariants(field).copy()
            values[values.tolist().index(4)] += 2
            values[values.tolist().index(8)] -= 2
            return values

        monkeypatch.setattr(coset, "invariants", swapped)
        with pytest.raises(AssertionError, match="second moment"):  # the last gate
            distribution(7)

    @pytest.mark.parametrize("m", [15, 17, 19])
    def test_beyond_the_paper(self, m):
        # no oracle reaches these m: distribution returns only if the
        # lattice, both moments and the interval all pass
        assert sum(distribution(m).normalized.values()) == 2 * ((1 << m) - 1)

    def test_heuristic_misses_recorded_in_doc(self):
        text = SECOND_MOMENT_DOC.read_text()
        for m, outside in HEURISTIC_MISSES.items():
            total = 2 * ((1 << m) - 1)
            assert f"m = {m}: {outside} of {total} ({100 * outside / total:.2f}%)" in text
        for m in (13, 15, 17, 19):
            lo, hi = bounds(m).heuristic_even
            values = distribution(m).normalized
            assert sum(c for v, c in values.items() if not lo <= v <= hi) == HEURISTIC_MISSES[m]


class TestBounds:
    # Published enclosures for q = 2^5 .. 2^13.
    REFINED = {5: (0, 4), 7: (0, 14), 9: (4, 38), 11: (50, 120), 13: (270, 412)}
    HEURISTIC = {5: (0, 6), 7: (0, 12), 9: (10, 34), 11: (64, 108), 13: (300, 384)}

    @pytest.mark.parametrize("m", [5, 7, 9, 11, 13])
    def test_published_tables(self, m):
        report = bounds(m)
        assert report.refined_even == self.REFINED[m]
        assert report.heuristic_even == self.HEURISTIC[m]

    @pytest.mark.parametrize("m", [5, 7, 9, 11, 13])
    def test_weil_contains_refined(self, m):
        lo, hi = bounds(m).weil
        rlo, rhi = bounds(m).refined_even
        assert lo <= rlo and rhi <= hi
        assert lo >= 0.0

    def test_even_m_rejected(self):
        with pytest.raises(ValueError):
            bounds(6)

    def test_largest_degree(self):
        # the last odd m whose Weil endpoints fit a double; m = 1029 overflows
        lo, hi = bounds(1027).weil
        assert 0 < lo <= hi < math.inf  # equal as doubles this far out
        with pytest.raises(ValueError, match="1027"):
            bounds(1029)

    @staticmethod
    def heuristic_endpoints(m):
        """The heuristic enclosure (q -+ 4t -+ s + {4, 14} + 4*sqrt(2))/24,
        with 4*sqrt(2) carried to 50 digits."""
        q = 1 << m
        t = math.isqrt(4 * q)
        s = 1 << ((m + 3) // 2)
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            root = decimal.Decimal(32).sqrt()
            return (q - 4 * t - s + 4 + root) / 24, (q + 4 * t + s + 14 + root) / 24

    @pytest.mark.parametrize("m", range(5, 62, 2))
    def test_rounding_never_ambiguous(self, m):
        # exact integer endpoints against the 50-digit irrational enclosure:
        # the smallest even-endpoint interval holding it, clamped at 0
        lo, hi = bounds(m).heuristic_even
        real_lo, real_hi = self.heuristic_endpoints(m)
        assert lo % 2 == 0 and hi % 2 == 0
        assert lo <= real_lo < lo + 2 or (lo == 0 and real_lo < 0)
        assert hi - 2 < real_hi <= hi


def z_form_layers(m: int, zero: int) -> tuple[int, ...]:
    """The layers docs/covering_radius_bfs.md derives from Z = zero."""
    q = 1 << m
    low = tuple(math.comb(q - 1, k) for k in range(4))
    last = (q - 1) * (q // 2) * (1 + zero) + q * q - 1 - (q - 1) * (q - 2) // 6
    return (*low, q**3 - sum(low) - last, last)


def _largest_modulus(m: int) -> int:
    return next(p for p in range((2 << m) - 1, 1 << m, -1) if is_irreducible(p))


def _key_by_hand(field) -> np.ndarray:
    """key[A] = Tr A << m | A^2 + A + 1 by scalar products, so that the
    invariant of the normal form (1, A, B) sits at slot key[A] ^ B."""
    return np.array([trace_by_definition(field, a) << field.m | field.mul(a, a) ^ a ^ 1 for a in range(field.q)])


def _assert_open_states_match_the_grid(values: np.ndarray, key: np.ndarray) -> None:
    q = len(key)
    m = q.bit_length() - 1
    s1, a, b = coset._open_states(values, key)
    assert np.array_equal(np.sort(s1 << 2 * m | a << m | b), open_states_by_grid(values, key))
    zero = np.count_nonzero(values == 0)
    assert np.count_nonzero(s1 == 0) == (zero + 2) * q // 2 - 1
    assert np.count_nonzero(s1 == 1) == (zero + 1) * q // 2


class TestCoveringLayers:
    # equality with the BFS at m = 5..13 is in test_oracle.py

    @pytest.mark.parametrize("largest", [False, True], ids=["default", "largest"])
    @pytest.mark.parametrize("m", [5, 7, 9])
    def test_open_states_match_the_grid(self, m, largest):
        # on the default modulus and on the largest irreducible of degree m
        field = make_field(m, _largest_modulus(m) if largest else None)
        _assert_open_states_match_the_grid(coset.invariants(field), _key_by_hand(field))

    @pytest.mark.parametrize("m", [5, 7])
    def test_open_states_match_the_grid_when_emptied(self, m):
        # more slots with N = 0 than the real table holds
        field = make_field(m)
        emptied = invariants_emptied_around(coset.invariants, field, (0, 1, 0))
        _assert_open_states_match_the_grid(emptied(field), _key_by_hand(field))

    def test_certificate_holds_no_q_squared_array(self):
        # the listing takes O(Z q) entries: one int64 array over the q^2
        # (a, b) grid would take 8 q^2 bytes
        field = make_field(7)
        coset._depth_five_certificate(field)  # the invariant, log and power tables, outside the measure
        tracemalloc.start()
        try:
            coset._depth_five_certificate(field)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * field.q**2

    @pytest.mark.parametrize("m", [15, 17, 19, 21])
    def test_z_form_beyond_the_search(self, m):
        # Z read from the checked table, which no BFS reaches
        zero = distribution(m).normalized.get(0, 0)
        assert coset.covering_layers(m) == z_form_layers(m, zero)

    @pytest.mark.parametrize("m", [9, 13, 25, BOUNDS_MAX_M])
    def test_no_field_from_m9_on(self, monkeypatch, m):
        monkeypatch.setattr(coset, "make_field", _refuse)
        assert coset.covering_layers(m) == z_form_layers(m, 0)

    def test_refuses_when_the_interval_admits_zero(self, monkeypatch):
        real = coset.bounds

        def opened(m):
            report = real(m)
            return dataclasses.replace(report, refined_even=(0, report.refined_even[1]))

        monkeypatch.setattr(coset, "bounds", opened)
        with pytest.raises(AssertionError, match="admits N = 0 at m=9"):
            coset.covering_layers(9)

    @pytest.mark.parametrize("m", [5, 7])
    def test_certificate_fires(self, monkeypatch, m):
        # N = 0 at every normal-form neighbour of (0, 1, 0), so it has
        # no neighbour of depth <= 4 in the table
        emptied = invariants_emptied_around(coset.invariants, make_field(m), (0, 1, 0))
        monkeypatch.setattr(coset, "invariants", emptied)
        with pytest.raises(AssertionError, match=r"^state \(0, 0x1, 0x0\) has no neighbour of depth <= 4$"):
            coset.covering_layers(m)

    @pytest.mark.parametrize(
        "m, error", [(3, "need odd 5 <= m"), (6, "requires odd"), (BOUNDS_MAX_M + 2, "need odd 5 <= m")]
    )
    def test_outside_the_range(self, monkeypatch, m, error):
        monkeypatch.setattr(coset, "make_field", _refuse)
        with pytest.raises(ValueError, match=error):
            coset.covering_layers(m)


class TestGammaReport:
    def test_packaged_profile(self):
        gamma = load_gamma()
        assert len(gamma) == 51
        assert sum(gamma) == 1260
        assert gamma[0] == 1 and gamma[-1] == 2

    def test_wrong_m_rejected(self):
        with pytest.raises(ValueError):
            gamma_report(11, [0] * 51)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="^expected 51 profile entries, got 50$"):
            gamma_report(13, [0] * 50)

    def test_key_window_enforced(self):
        fake = DistributionTable(m=13, modulus=0x201B, per_class=({288: 1}, {}), normalized={288: 1})
        with pytest.raises(ValueError):
            gamma_report(13, [0] * 51, table=fake)

    def test_residual_structure(self):
        gamma = load_gamma()
        report = gamma_report(13, gamma)
        assert report.residual_nonzero == {11: 1, 37: 1}
        for ell in range(51):  # the residual is 0 at every l it does not list
            assert report.histogram[ell] - 13 * gamma[ell] == report.residual_nonzero.get(ell, 0)
        assert report.missing_values == [292, 296, 300, 386]
        assert report.histogram[0] == 13
        assert sum(report.histogram.values()) == 2 * ((1 << 13) - 1)
        for value in (292, 296, 300, 386):
            assert report.histogram[(value - 290) // 2] == 0


class TestCalibration:
    def test_constants(self):
        assert calibrate_boundary(5) == {0: 0, 1: 12}
        assert calibrate_boundary(7) == {0: 0, 1: 12}
        assert calibrate_boundary(7, 0x89) == {0: 0, 1: 12}
        for m in (3, 9, 11, 13, 15):  # one array pass, at every odd m
            assert calibrate_boundary(m) == {0: 0, 1: 12}

    def test_unsupported_m(self):
        # the trace formulas need Tr(1) = 1, so odd m
        with pytest.raises(ValueError, match="odd extension degree"):
            calibrate_boundary(6)

    def test_combined_trace_identity(self, f5):
        boundary = {0: 0, 1: 12}
        q = f5.q
        for cls in (0, 1):
            for b in range(q):
                if b == 1:
                    continue
                profile = curve_traces(curve_params(f5, cls, b))
                assert q + 1 - profile.t_combined == 24 * N_of(f5, cls, b) + boundary[cls]


def _refuse(*args, **kwargs):
    raise LookupError("a per-field table was read before the input was checked")


TABLES = [(coset, "invariants"), (curves, "_count_table")]
KEY = [(coset, "slot_key")]
LAM0 = DegenerateLambdaError
# id: (entry point, field degree, the other arguments, the builders it must
# not reach, the error it must raise)
REFUSALS = {
    "curve_params-bad-b": (curve_params, 5, (0, 32), TABLES, ValueError),
    "curve_params-b1": (curve_params, 5, (0, 1), TABLES, LAM0),
    "curve_params-even-m": (curve_params, 6, (0, 0), TABLES, ValueError),
    "CurveParams-b1": (curves.CurveParams, 5, (0, 1), TABLES, LAM0),
    "CurveParams-b-q": (curves.CurveParams, 5, (1, 32), TABLES, ValueError),
    "CurveParams-b-negative": (curves.CurveParams, 5, (0, -1), TABLES, ValueError),
    "CurveParams-class2": (curves.CurveParams, 5, (2, 0), TABLES, ValueError),
    "CurveParams-even-m": (curves.CurveParams, 6, (0, 0), TABLES, ValueError),
    "n_count-bad-lam": (curves.n_count, 5, (1, 32, 0), TABLES, ValueError),
    "n_count-lam0": (curves.n_count, 5, (1, 0, 0), TABLES, LAM0),
    "g_count-bad-lam": (curves.g_count, 5, (32,), TABLES, ValueError),
    "g_count-lam0": (curves.g_count, 5, (0,), TABLES, LAM0),
    "N_of-bad-b": (N_of, 5, (0, 32), TABLES, ValueError),
    "N_of-b1": (N_of, 5, (1, 1), TABLES, LAM0),
    "N_of-even-m": (N_of, 6, (0, 0), TABLES, ValueError),
    "N_of_general-bad-a": (N_of_general, 5, (32, 0), TABLES + KEY, ValueError),
    "N_of_general-bad-b": (N_of_general, 5, (0, 32), TABLES + KEY, ValueError),
    # lam = 0 is seen in the slot key[a] ^ b, so only the key is left open
    "N_of_general-lam0": (N_of_general, 5, (0, 1), TABLES, LAM0),
    # a row no earlier test reads, so no row cached by a test can hide the order
    "brute_N-bad-b": (oracle.brute_N, 7, (0x55, 128), [(oracle, "weight4_rows")], ValueError),
    # the key histogram is cached per field, so a warm cache would read no power table
    "weight4_rows-a-q": (
        oracle.weight4_rows, 5, ((32,),), [(oracle, "_key_counts"), (oracle, "power_table")], ValueError
    ),
}


@pytest.mark.parametrize("fn, m, args, patched, error", list(REFUSALS.values()), ids=list(REFUSALS))
def test_input_checked_before_any_table(monkeypatch, fn, m, args, patched, error):
    field = make_field(m)
    for module, name in patched:
        monkeypatch.setattr(module, name, _refuse)
    with pytest.raises(ValueError) as info:
        fn(field, *args)
    assert type(info.value) is error
