import dataclasses
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bch3 import cli, coset, curves, gf2m
from bch3.curves import (
    CurveParams,
    DegenerateLambdaError,
    curve_params,
    curve_traces,
    g_count,
    n_count,
    n_counts_all,
    split_count,
    split_interval,
)
from bch3.gf2m import (
    exp_table,
    find_default_modulus,
    inverse_table,
    is_irreducible,
    make_field,
    power_table,
    trace_mul_table,
)
from conftest import (
    count_rows_by_three_transforms,
    g_count_slow,
    mul_array,
    n_count_slow,
    phi_by_hand,
    read_profile_fixture,
    trace_by_definition,
)

FIXTURE = Path(__file__).parent / "data" / "trace_profiles_m5.tsv"

# The covers phi_i that each split_count subset names, for the direct count
COVERS = {"f1f2": (1, 2), "f3": (3,), "f1f2f3": (1, 2, 3)}


class TestLambda:
    """lam = b + a^2 + a + 1 is the low m bits of the slot key[a] ^ b that
    coset.N_of_general reads; Tr a is its bit m."""

    def test_base_cases(self, f5):
        key = coset.slot_key(f5)
        assert key[0] == 1 and key[1] == 1 << 5 | 1  # lam = 1 at (0, 0) and (1, 0); Tr 1 = 1
        assert coset.N_of_general(f5, 0, 0) == coset.N_of(f5, 0, 0)
        assert coset.N_of_general(f5, 1, 0) == coset.N_of(f5, 1, 0)

    def test_degenerate_locus(self, f5):
        key = coset.slot_key(f5)
        for a in range(f5.q):
            b = f5.square(a) ^ a ^ 1
            assert key[a] ^ b == f5.trace(a) << 5
            with pytest.raises(DegenerateLambdaError, match=f"^a=0x{a:x}, b=0x{b:x} give lam=0: "):
                coset.N_of_general(f5, a, b)

    def test_params_reject_degenerate(self, f5):
        with pytest.raises(DegenerateLambdaError):
            curve_params(f5, 0, 1)

    def test_params_derive_lam(self, f5):
        # lam = b + 1 is derived on construction, never passed in
        for cls in (0, 1):
            for b in (0, 2, 5, 31):
                assert CurveParams(f5, cls, b).lam == b ^ 1
        init = [f.name for f in dataclasses.fields(CurveParams) if f.init]
        assert init == ["field", "trace_class_a", "b"]
        with pytest.raises(TypeError):
            CurveParams(f5, 0, 5, 9)

    def test_params_expose_j_invariant(self, f5):
        for b in (0, 2, 30):
            params = curve_params(f5, 1, b)
            assert f5.mul(params.j_invariant, f5.pow(params.lam, 4)) == 1

    def test_j_invariant_computed_when_read(self, f5, monkeypatch):
        # j = lam^(q - 5) by one scalar power: neither the counts nor
        # reading j builds a per-field log or power table
        def refuse(*args):
            raise LookupError("a per-field table was built")

        for name in ("log_tables", "power_table"):
            monkeypatch.setattr(gf2m, name, refuse)
            assert not hasattr(curves, name)  # no copy of the name escapes the patch
        for b in (0, 2, 30):
            params = curve_params(f5, b & 1, b)
            curve_traces(params)
            split_count("f1f2", params)
            assert params.j_invariant == f5.inv(f5.pow(params.lam, 4))

    @pytest.mark.parametrize("m, sample", [(7, None), (9, None), (13, 200)])
    def test_j_invariant_matches_scalar_reference(self, m, sample):
        # the single power lam^(q - 5) against inverting lam^4
        field = make_field(m)
        lams = range(1, field.q)
        if sample:
            lams = random.Random(m).sample(lams, sample)
        for lam in lams:
            params = curve_params(field, lam & 1, lam ^ 1)
            assert params.j_invariant == field.inv(field.pow(lam, 4))

    def test_lambda_matches_scalar_square(self, f7):
        key = coset.slot_key(f7)
        for a in range(f7.q):
            for b in (0, 1, 0x5A):
                lam = b ^ f7.square(a) ^ a ^ 1
                assert key[a] ^ b == f7.trace(a) << 7 | lam
                if lam:
                    assert coset.N_of_general(f7, a, b) == coset.N_of(f7, f7.trace(a), lam ^ 1)

    @pytest.mark.parametrize("a", [-1, 128])
    def test_lambda_rejects_non_elements(self, f7, a):
        # a negative index would otherwise wrap around the slot key
        with pytest.raises(ValueError, match="is not an element of F_2\\^7$"):
            coset.N_of_general(f7, a, 0)


class TestPhiEval:
    """The family functions, through the reference evaluation phi_by_hand."""

    def test_phi3_vanishes_at_one(self, f5):
        assert all(phi_by_hand(f5, 3, 1, lam) == 0 for lam in range(f5.q))

    def test_inversion_swaps_phi1_phi2(self, f5):
        for x in range(1, f5.q):
            assert phi_by_hand(f5, 1, x, 9) == phi_by_hand(f5, 2, f5.inv(x), 9)

    def test_cancellation_identities(self, f5):
        # phi5 = lam*(x^3 + 1/x) and phi7 = lam*(x^3 + 1/x^3)
        for x in range(1, f5.q):
            inv3 = f5.pow(f5.inv(x), 3)
            cube = f5.pow(x, 3)
            assert phi_by_hand(f5, 5, x, 11) == f5.mul(11, cube ^ f5.inv(x))
            assert phi_by_hand(f5, 7, x, 11) == f5.mul(11, cube ^ inv3)


class TestCounts:
    def test_rejects_degenerate(self, f5):
        with pytest.raises(DegenerateLambdaError, match="^lam=0: the curve degenerates into twelve lines$"):
            n_count(f5, 1, 0, 0)
        with pytest.raises(DegenerateLambdaError):
            g_count(f5, 0)

    def test_rejects_bad_index_and_offset(self, f5):
        for i in (0, 8):
            with pytest.raises(ValueError, match=f"^function index must be in 1..7, got {i}$"):
                n_count(f5, i, 1, 0)
        with pytest.raises(ValueError, match="^offset_bit must be 0 or 1$"):
            n_count(f5, 1, 1, 2)

    def test_matches_slow_reference_everywhere(self, f5):
        for lam in range(1, f5.q):
            for i in range(1, 8):
                for off in (0, 1):
                    assert n_count(f5, i, lam, off) == n_count_slow(f5, i, lam, off)
            assert g_count(f5, lam) == g_count_slow(f5, lam)

    def test_frozen_fixture(self, f5):
        rows = read_profile_fixture(FIXTURE)
        assert len(rows) == f5.q - 1
        for row in rows:
            assert row["m"] == 5 and row["modulus"] == f5.modulus
            lam = row["lambda"]
            for i in range(1, 8):
                assert row[f"n{i}"] == n_count(f5, i, lam, 0)
            assert row["t1"] == f5.q - 2 * (row["n1"] + 1)
            assert row["t3"] == f5.q - 1 - 2 * row["n3"]
            assert row["t5"] == f5.q - 1 - 2 * row["n5"]
            assert row["tg"] == f5.q - 1 - 2 * g_count(f5, lam)

    def test_recorded_spot_value(self, f5):
        # frozen by exhaustive enumeration over the 31 nonzero x
        assert n_count(f5, 3, 1, 0) == 21

    def test_table_is_read_only(self, f5):
        # the cached two rows n1 + n3 and n5, the cached three point rows,
        # and the seven-row expansion made from them
        table = curves._count_table(f5)
        assert table.shape == (2, f5.q) and table.dtype == np.int32
        with pytest.raises(ValueError):
            table[0, 1] = 0
        point = curves._point_table(f5)
        assert point.shape == (3, f5.q) and point.dtype == np.int32
        with pytest.raises(ValueError):
            point[0, 1] = 0
        with pytest.raises(ValueError):
            n_counts_all(f5)[:, 1] = 0
        assert n_counts_all(f5).shape == (7, f5.q)

    def test_batched_equals_pointwise(self, f7):
        # the batched table against the per-x reference at a second field size
        table = n_counts_all(f7)
        for lam in (1, 2, 45, 100, 127):
            for i in range(1, 8):
                assert int(table[i - 1, lam]) == n_count_slow(f7, i, lam, 0)


def _three_moduli(m: int) -> list[int]:
    """The default modulus of degree m and the two largest irreducibles."""
    top = (p for p in range((2 << m) - 1, 1 << m, -1) if is_irreducible(p))
    return [find_default_modulus(m), next(top), next(top)]


class TestMaskHistograms:
    """The exponent-order masks against the construction they replace:
    bincounts of T[x^3 + x], T[1/x + x] and T[x^3 + 1/x] over F_q^*, with
    x^3 and 1/x read from power_table and inverse_table.  The two-row
    histograms are phi1's and phi3's added, and phi5's; the point table
    rebuilds phi1's alone."""

    @pytest.mark.parametrize("m", [3, 5, 7, 9, 11, 13, 15])
    def test_equal_cube_and_inverse_construction(self, m):
        for modulus in _three_moduli(m):
            field = make_field(m, modulus)
            T = trace_mul_table(field)
            xs = np.arange(1, field.q, dtype=np.int64)
            cube, inv = power_table(field, 3)[1:], inverse_table(field)[1:]
            h1, h3, h5 = (np.bincount(T[psi], minlength=field.q) for psi in (cube ^ xs, inv ^ xs, cube ^ inv))
            assert np.array_equal(curves._mask_histograms(field), [h1 + h3, h5])
            assert np.array_equal(np.bincount(curves._phi1_mask(field)[1], minlength=field.q), h1)

    @pytest.mark.parametrize("m", [4, 6])
    def test_even_degree_gate_fires(self, m):
        # 3 divides q - 1 at even m, so k -> 3k mod (q - 1) is no permutation
        with pytest.raises(AssertionError, match="every exponent"):
            curves._mask_histograms(make_field(m))

    def test_cold_count_build_peak(self):
        # with exp and T prebuilt: the masks take 2 * 8q (the phi3 mask
        # overwrites texp, the phi5 mask the phi1 mask), the two int32 rows
        # 8q and a bincount 8q; the cube and inverse construction peaked
        # at 7.5 * 8q
        field = make_field(17)
        exp_table(field)
        trace_mul_table(field)
        tracemalloc.start()
        try:
            curves._count_table.__wrapped__(field)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 8 * field.q


class TestTwoRows:
    """The two-row table and the point table against the three-row build of
    conftest, and the gates that guard them."""

    @pytest.mark.parametrize("m", range(5, 18, 2))
    def test_equal_three_transform_build(self, m):
        for modulus in _three_moduli(m):
            field = make_field(m, modulus)
            n1, n3, n5 = want = count_rows_by_three_transforms(field)
            assert np.array_equal(curves._count_table(field), [n1 + n3, n5])
            assert np.array_equal(curves._point_table(field), want)

    def test_table_path_transforms_two_rows(self, capsys, monkeypatch):
        field = make_field(9, _three_moduli(9)[1])
        seen = []
        transform = curves._fwht

        def spy(a):
            seen.append(a.shape)
            return transform(a)

        monkeypatch.setattr(curves, "_fwht", spy)
        for cache in (curves._count_table, curves._point_table, coset.invariants):
            cache.cache_clear()
        assert cli.main(["table", "--m", "9", "--modulus", hex(field.modulus)]) == 0
        capsys.readouterr()
        assert seen == [(2, field.q)]

    def test_point_build_peak(self):
        # with exp, T and the count table built: texp and M1 take 2 * 8q,
        # and the stack n1, (n1 + n3) - n1 and its (3, q) result 2.5 * 8q.
        # Within 3 * 8q, the retained count table (8q) and this stage stay
        # under the count build's own peak of 4 * 8q, so traces and split
        # peak no higher than table
        field = make_field(17)
        curves._count_table(field)
        tracemalloc.start()
        try:
            curves._point_table.__wrapped__(field)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * field.q

    def test_value_set_gate_fires(self, monkeypatch):
        # n1 two up and n3 two down at lam = 7: n1 + n3 and n5 keep their
        # values, so the lattice gate passes, S1 moves by 4, so the parity
        # gate passes, and 1 + S1 leaves {0, +-2^((m+1)/2)}
        field = make_field(7)
        n1, n3, n5 = curves._point_table(field).copy()
        n1[7] += 2
        n3[7] -= 2
        monkeypatch.setattr(curves, "_count_table", lambda field: np.stack([n1 + n3, n5]))
        assert np.array_equal(coset.invariants.__wrapped__(field), coset.invariants(field))
        transform = curves._fwht

        def shifted(a):
            sums = transform(a)
            sums[0, 7] += 4
            return sums

        monkeypatch.setattr(curves, "_fwht", shifted)
        with pytest.raises(AssertionError, match="^row n1 left Carlitz's value set"):
            curves._point_table.__wrapped__(field)


class TestWalshHadamard:
    @pytest.mark.parametrize("m", range(1, 11))
    def test_matches_sylvester_product(self, m):
        n = 1 << m
        idx = np.arange(n)
        hadamard = 1 - 2 * (np.bitwise_count(idx[:, None] & idx[None, :]) & 1).astype(np.int64)
        rng = np.random.default_rng(m)
        top = (1 << 30) - 1  # q - 1 at m = 30, the largest degree int32 holds exactly
        rows = np.zeros((4, n), dtype=np.int64)
        # a mask histogram of n - 1 entries, and a signed one
        rows[0] = np.bincount(rng.integers(0, n, n - 1), minlength=n)
        signs = rng.integers(0, 2, n - 1).astype(bool)
        masks = rng.integers(0, n, n - 1)
        rows[1] = np.bincount(masks[signs], minlength=n) - np.bincount(masks[~signs], minlength=n)
        rows[2, rng.integers(n)] = top
        rows[3, rng.integers(n)] = -top
        got = curves._fwht(rows.astype(np.int32))
        assert got.dtype == np.int32
        assert np.array_equal(got, rows @ hadamard)

    def test_parity_gate_fires(self, monkeypatch):
        transform = curves._fwht

        def off_by_one(a):
            sums = transform(a)
            sums[1, 7] += 1  # the phi5 row, which holds n4, n5 and n6
            return sums

        monkeypatch.setattr(curves, "_fwht", off_by_one)
        with pytest.raises(AssertionError, match="count parity"):
            curves._count_table.__wrapped__(make_field(7))


class TestBeyondThePaper:
    """Count tables past m = 13 at a few seeded lam, against counts from
    mul_array products and the trace mask: no transform, no
    trace_mul_table.  The per-x references of conftest are too slow here."""

    @pytest.mark.parametrize("m", [15, 17, 19])
    def test_sampled_columns_match_direct_count(self, m):
        field = make_field(m)
        xs = np.arange(1, field.q, dtype=np.int64)
        inv = inverse_table(field)[1:]
        assert (mul_array(field, xs, inv) == 1).all()
        cube = mul_array(field, xs, mul_array(field, xs, xs))
        inv_cube = mul_array(field, inv, mul_array(field, inv, inv))

        def traces(lam, psi):
            return np.bitwise_count(mul_array(field, lam, psi) & field.trace_mask) & 1

        table = n_counts_all(field)  # all seven rows, through the row map
        for lam in random.Random(m).sample(range(1, field.q), 3):
            t1, t2, t3 = (traces(lam, psi) for psi in (cube ^ xs, inv_cube ^ inv, xs ^ inv))
            tg = traces(lam, cube) ^ (np.bitwise_count(inv & field.trace_mask) & 1)
            rows = (t1, t2, t3, t1 ^ t2, t1 ^ t3, t2 ^ t3, t1 ^ t2 ^ t3, tg)
            got = table[:, lam].tolist() + [g_count(field, lam)]
            assert got == [int(np.count_nonzero(t == 0)) for t in rows]


class TestTraceProfiles:
    def test_even_degree_rejected(self, f4):
        with pytest.raises(ValueError):
            curve_traces(curve_params(f4, 0, 0))

    def test_profile_shape(self, f5):
        profile = curve_traces(curve_params(f5, 1, 0))
        assert all(0 <= v <= f5.q - 1 for v in profile.n)
        assert profile.t_combined == 2 * profile.t1 + 2 * profile.t3 + 2 * profile.t5 + profile.tg

    def test_supersingular_and_weil_ranges(self, f5):
        bound = math.isqrt(4 * f5.q)
        root2q = 1 << ((f5.m + 1) // 2)
        for cls in (0, 1):
            for b in range(f5.q):
                if b == 1:
                    continue
                p = curve_traces(curve_params(f5, cls, b))
                assert p.t1 in (0, root2q, -root2q)
                assert p.t3 % 2 == 1 and abs(p.t3) <= bound
                assert p.t5 % 2 == 1 and abs(p.t5) <= 2 * bound
                assert p.tg % 2 == 1 and abs(p.tg) <= 2 * bound
                assert abs(p.t_combined) <= 13 * bound

    def test_kloosterman_congruence(self, f5):
        for cls in (0, 1):
            want = 1 if cls == 1 else 3  # Tr(A+1) = 0 exactly in class 1
            for b in range(f5.q):
                if b == 1:
                    continue
                p = curve_traces(curve_params(f5, cls, b))
                assert p.t3 % 4 == want

    def test_t3_hits_every_odd_value(self, f5):
        bound = math.isqrt(4 * f5.q)
        seen = {
            curve_traces(curve_params(f5, cls, b)).t3
            for cls in (0, 1)
            for b in range(f5.q)
            if b != 1
        }
        assert seen == {t for t in range(-bound, bound + 1) if t % 2}


class TestSplitCounts:
    @pytest.mark.parametrize("subset", sorted(curves.SUBSETS))
    def test_even_degree_rejected(self, f4, subset):
        # both read Tr(A + 1) through Tr(1) = 1, which fails for even m
        with pytest.raises(ValueError, match="odd extension degree"):
            split_count(subset, curve_params(f4, 0, 0))
        with pytest.raises(ValueError, match="odd extension degree"):
            split_interval(subset, f4, 0)

    def test_unknown_subset(self, f4, f5):
        # an unknown name is not f1f2f3's "no proven interval": both entry
        # points refuse it with one message, before the degree or class
        with pytest.raises(ValueError) as count_error:
            split_count("f5", curve_params(f5, 0, 0))
        for field, cls in ((f5, 0), (f5, 1), (f4, 0), (f5, 2)):
            with pytest.raises(ValueError) as interval_error:
                split_interval("f5", field, cls)
            assert str(interval_error.value) == str(count_error.value)

    @pytest.mark.parametrize("bump, message", [(1, "^inclusion-exclusion must give"), (2, "^split set must pair up")])
    def test_whole_count_gates_fire(self, f5, monkeypatch, bump, message):
        # f1f2 sums (2 - 4)(q - 1) + 2(2 n1' + n5) over width 4: n5 one up
        # leaves a remainder, two up gives a whole but odd pair count
        rows = curves._rows

        def bumped(*args):
            off, n1, n3, n5 = rows(*args)
            return off, n1, n3, n5 + bump

        monkeypatch.setattr(curves, "_rows", bumped)
        with pytest.raises(AssertionError, match=message):
            split_count("f1f2", curve_params(f5, 0, 0))

    def test_direct_enumeration(self, f5):
        # every valid b at m = 5, both classes: the exact reference for the
        # inclusion-exclusion over the count table
        for b in range(f5.q):
            if b == 1:
                continue
            lam = b ^ 1
            traces = {
                (i, x): trace_by_definition(f5, phi_by_hand(f5, i, x, lam))
                for i in (1, 2, 3)
                for x in range(2, f5.q)
            }
            for cls in (0, 1):
                off = cls ^ 1
                params = curve_params(f5, cls, b)
                for subset, idx in COVERS.items():
                    direct = sum(
                        1 for x in range(2, f5.q) if all(traces[i, x] == off for i in idx)
                    )
                    assert direct % 2 == 0
                    assert split_count(subset, params) == direct // 2

    @pytest.mark.parametrize("m", [5, 7, 9, 11, 13])
    def test_triple_split_is_three_halves_of_n(self, m):
        # the row form (2, 2, 3) of f1f2f3 is the one in 24N, so the
        # triple count is 3N/2 at every lam (docs/count_table.md)
        field = make_field(m)
        values = coset.invariants(field)
        for cls in (0, 1):
            for b in range(field.q):
                if b != 1:
                    split = split_count("f1f2f3", curve_params(field, cls, b))
                    assert 2 * split == 3 * values[cls << m | b ^ 1]  # lam = B + 1

    @pytest.mark.parametrize("m", [5, 7])
    def test_interval_membership(self, m):
        field = make_field(m)
        for cls in (0, 1):
            for subset in ("f1f2", "f3"):
                lo, hi = split_interval(subset, field, cls)
                for b in range(field.q):
                    if b == 1:
                        continue
                    value = split_count(subset, curve_params(field, cls, b))
                    assert lo <= value <= hi

    @pytest.mark.parametrize("cls", [-1, 2])
    def test_bad_trace_class_rejected(self, f5, cls):
        # trace_class_a is Tr(A) for normalized A, so only 0 and 1 are classes
        bad_class = "trace_class_a must be 0 or 1"
        with pytest.raises(ValueError, match=bad_class):
            curves._rows(f5, cls, 3)
        with pytest.raises(ValueError, match=bad_class):
            split_count("f3", dataclasses.replace(curve_params(f5, 0, 2), trace_class_a=cls))
        with pytest.raises(ValueError, match=bad_class):
            split_interval("f3", f5, cls)

    def test_f3_interval_values(self, f5):
        # Tr(A+1) = 1 is trace class 0: (q-1 -+ [2 sqrt q])/4
        assert split_interval("f3", f5, 0) == (5.0, 10.5)
        assert split_interval("f1f2", f5, 1) == (0.0, 9.25)
        assert split_interval("f1f2f3", f5, 0) is None


class TestIsoCheck:
    """n2, n4, n6, n7 and g are read from the rows that hold n1, n3 and n5
    (docs/count_table.md), so they are checked against their own per-x
    definitions."""

    @pytest.mark.parametrize("m", [5, 7])
    def test_all_lambdas_pass(self, m):
        field = make_field(m)
        for lam in range(1, field.q):
            for i in (2, 4, 6, 7):
                assert n_count(field, i, lam, 0) == n_count_slow(field, i, lam, 0)
            assert g_count(field, lam) == g_count_slow(field, lam)

    @pytest.mark.parametrize("m", [4, 6])
    def test_even_degree_rejected(self, m):
        # n7 = n3 and n4 = n5 need odd m, so no table is built at even m
        field = make_field(m)
        odd_degree = f"odd extension degree, got m={m}"
        with pytest.raises(ValueError, match=odd_degree):
            n_count(field, 1, 1, 0)
        with pytest.raises(ValueError, match=odd_degree):
            g_count(field, 1)
        with pytest.raises(ValueError, match=odd_degree):
            n_counts_all(field)

    def test_lambda_one_directly(self, f5):
        # x -> lam*x turns lam*(x^3 + 1/x) into lam^4*x^3 + 1/x, and 1^4 = 1
        assert n_count_slow(f5, 5, 1, 0) == g_count_slow(f5, 1) == g_count(f5, 1)


class TestAdjustedRows:
    """_rows is the one place where the trace-one constant of class 0 flips
    the rows of n1 and n3 and keeps that of n5, so every row is checked
    against per-x counts of phi_i + c, with c of the trace each row needs."""

    @pytest.mark.parametrize("m", [5, 7])
    def test_rows_match_per_x_counts(self, m):
        field = make_field(m)
        for lam in range(1, field.q):
            n5 = n_count_slow(field, 5, lam, 0)  # phi5 = phi1 + phi3 carries c twice
            for cls in (0, 1):
                off = field.trace(cls ^ 1)  # Tr(A + 1) at the normalized A = cls
                n1, n3 = (n_count_slow(field, i, lam, off) for i in (1, 3))
                assert curves._rows(field, cls, lam) == (off, n1, n3, n5)


class TestExponentialSums:
    @pytest.mark.parametrize("m", [5, 7])
    def test_cubic_sums_are_supersingular(self, m):
        field = make_field(m)
        allowed = {0, 1 << ((m + 1) // 2), -(1 << ((m + 1) // 2))}
        for lam in range(1, field.q):
            for c in (0, 1):
                zeros = n_count(field, 1, lam, field.trace(c)) + (1 - field.trace(c))
                assert field.q - 2 * zeros in allowed


class TestRowIdentities:
    """Rows n1 and n3 of the point table against proven facts about their
    character sums S_i = 2*n_i - (q - 1), at every lam: Carlitz's closed
    form for row n1, and the Kloosterman congruence and fourth moment for
    row n3 (docs/count_table.md, "Row identities").  No reference reads a
    transform."""

    @staticmethod
    def trace(field, v):
        return (np.bitwise_count(v & field.trace_mask) & 1).astype(np.int64)

    @pytest.mark.parametrize("m", range(5, 22, 2))
    def test_row_n1_is_carlitz_sum(self, m):
        field = make_field(m)
        q = field.q
        xs = np.arange(q, dtype=np.int64)
        lam = xs[1:]
        # 1 + S1(lam) = sum over y of e(y^3 + c*y), with c^3 = lam^2
        c = power_table(field, 2 * pow(3, -1, q - 1) % (q - 1))[lam]
        # e(g^3 + g) at each u = g^4 + g; the roots g and g + 1 share u
        u = power_table(field, 4) ^ xs
        e_g = 1 - 2 * self.trace(field, power_table(field, 3) ^ xs)
        sign = np.zeros(q, dtype=np.int64)
        sign[u] = e_g
        assert np.array_equal(sign[u], e_g)
        jacobi = 1 if m % 8 in (1, 7) else -1  # (2/m)
        want = np.where(self.trace(field, c) == 1, jacobi * (1 << (m + 1) // 2) * sign[c ^ 1], 0)
        s1 = 2 * curves._point_table(field)[0, 1:].astype(np.int64) - (q - 1)
        assert np.array_equal(1 + s1, want)

    @pytest.mark.parametrize("m", range(5, 22, 2))
    def test_row_n3_kloosterman_congruence(self, m):
        field = make_field(m)
        lam = np.arange(1, field.q, dtype=np.int64)
        s3 = 2 * curves._point_table(field)[1, 1:].astype(np.int64) - (field.q - 1)
        assert np.array_equal(s3 % 8, np.where(self.trace(field, lam) == 1, 3, 7))

    @pytest.mark.parametrize("m", range(5, 22, 2))
    def test_row_n3_fourth_moment(self, m):
        # sum of S3^4 over lam != 0 is 2q^3 - 2q^2 - 3q - 1; a change of
        # S3 by 8 keeps the parity and the congruence but not this sum.
        # Summed in Python ints: the int64 sum overflows at m = 21.
        q = 1 << m
        s3 = 2 * curves._point_table(make_field(m))[1, 1:].astype(np.int64) - (q - 1)
        values, counts = np.unique(s3, return_counts=True)
        total = sum(int(v) ** 4 * int(c) for v, c in zip(values, counts))
        assert total == 2 * q**3 - 2 * q**2 - 3 * q - 1
