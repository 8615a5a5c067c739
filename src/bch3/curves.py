"""Trace-zero fibre counts for the curve family behind the coset invariant.

For a nonzero parameter lam the family consists of double covers
y^2 + y = f(x) of the x-line, where f runs over seven combinations of

    phi1 = lam*(x^3 + x),  phi2 = lam*(1/x^3 + 1/x),  phi3 = lam*(x + 1/x),

their pairwise sums and the triple sum.  Constant offsets with trace 1
only flip which x count toward a fibre total, so they are carried as a
parity bit instead of field additions; that turns every count into a
popcount parity over precomputed masks and lets one pass over the field
serve all parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gf2m import FieldSpec, inverse_table, isqrt_floor, parity, power_table, trace_mul_table

SUBSETS = {"f1f2": (1, 2), "f3": (3,), "f1f2f3": (1, 2, 3)}


class DegenerateLambdaError(ValueError):
    """Raised when lam = b + a^2 + a + 1 vanishes and the curve family
    degenerates into a union of twelve lines."""


def lambda_of(field: FieldSpec, a: int, b: int) -> int:
    """The family invariant b + a^2 + a + 1."""
    return b ^ field.square(a) ^ a ^ 1


@dataclass(frozen=True)
class CurveParams:
    """One member of the family: trace class of A, the element B, and the
    derived invariants lam and j = lam^-4."""

    field: FieldSpec
    trace_class_a: int
    b: int
    lam: int
    j_invariant: int


def curve_params(field: FieldSpec, trace_class_a: int, b: int) -> CurveParams:
    """Validated CurveParams for normalized A (so lam = b + 1)."""
    if trace_class_a not in (0, 1):
        raise ValueError("trace_class_a must be 0 or 1")
    field._check(b)
    lam = b ^ 1
    if lam == 0:
        raise DegenerateLambdaError(
            f"b=0x{b:x} gives lam=0: the curve degenerates into twelve lines"
        )
    j = field.inv(field.pow(lam, 4))
    return CurveParams(field=field, trace_class_a=trace_class_a, b=b, lam=lam, j_invariant=j)


@dataclass(frozen=True)
class TraceProfile:
    """The seven fibre counts over F_q^* and the derived Frobenius traces."""

    n: tuple[int, int, int, int, int, int, int]
    t1: int
    t3: int
    t5: int
    tg: int
    t_combined: int
    t_prym: int


def phi_eval(field: FieldSpec, i: int, x: int, lam: int) -> int:
    """Value of the i-th constant-free family function at x != 0."""
    if not 1 <= i <= 7:
        raise ValueError(f"function index must be in 1..7, got {i}")
    if x == 0:
        raise ZeroDivisionError("the family functions have a pole at x = 0")
    field._check(x)
    field._check(lam)
    x3 = field.mul(field.square(x), x)
    ix = field.inv(x)
    ix3 = field.mul(field.square(ix), ix)
    parts = {1: x3 ^ x, 2: ix3 ^ ix, 3: x ^ ix}
    acc = 0
    for k, bit in ((1, i in (1, 4, 5, 7)), (2, i in (2, 4, 6, 7)), (3, i in (3, 5, 6, 7))):
        if bit:
            acc ^= parts[k]
    return field.mul(lam, acc)


@lru_cache(maxsize=None)
def _family_tables(field: FieldSpec):
    """Per-field mask tables: bit masks M with trace(lam * psi_i(x)) =
    parity(lam & M[i][x]) for x in F_q^*, plus the pieces for g = lam*x^3 + 1/x.
    """
    q = field.q
    T = trace_mul_table(field)
    inv = inverse_table(field)
    xs = np.arange(q, dtype=np.int64)
    cube = power_table(field, 3)
    icube = cube[inv]

    psi = {
        1: cube ^ xs,
        2: icube ^ inv,
        3: xs ^ inv,
    }
    psi[4] = psi[1] ^ psi[2]
    psi[5] = psi[1] ^ psi[3]
    psi[6] = psi[2] ^ psi[3]
    psi[7] = psi[1] ^ psi[2] ^ psi[3]

    masks = np.zeros((8, q - 1), dtype=np.int64)
    for i in range(1, 8):
        masks[i] = T[psi[i][1:]]
    # Row 0 drives g: trace(lam*x^3 + 1/x) = parity(lam & T[x^3]) xor trace(1/x).
    masks[0] = T[cube[1:]]
    g_shift = parity(inv[1:] & field.trace_mask)
    return masks, g_shift


def n_count(field: FieldSpec, i: int, lam: int, offset_bit: int) -> int:
    """#{x in F_q^* : trace(phi_i(x)) = offset_bit}.

    offset_bit = 1 counts the trace-zero fibres of phi_i + (constant of
    trace one), so both constant choices share one table.
    """
    if not 1 <= i <= 7:
        raise ValueError(f"function index must be in 1..7, got {i}")
    if offset_bit not in (0, 1):
        raise ValueError("offset_bit must be 0 or 1")
    field._check(lam)
    if lam == 0:
        raise DegenerateLambdaError("lam=0 has no associated curves")
    masks, _ = _family_tables(field)
    return int(np.count_nonzero(parity(lam & masks[i]) == offset_bit))


def g_count(field: FieldSpec, lam: int) -> int:
    """#{x in F_q^* : trace(lam*x^3 + 1/x) = 0}."""
    field._check(lam)
    if lam == 0:
        raise DegenerateLambdaError("lam=0 has no associated curves")
    masks, g_shift = _family_tables(field)
    return int(np.count_nonzero((parity(lam & masks[0]) ^ g_shift) == 0))


def curve_traces(params: CurveParams) -> TraceProfile:
    """Fibre counts and Frobenius traces of the seven Jacobian factors.

    Boundary conventions: the cubic-polynomial cover contributes one point
    at infinity (t1 counts over F_q plus that point); the covers with
    poles contribute one ramified point per pole (t3, t5, tg count over
    F_q^* plus two points).
    """
    field = params.field
    if field.m % 2 == 0:
        raise ValueError("trace derivation requires odd extension degree")
    q = field.q
    off = params.trace_class_a ^ 1  # trace of the constant A+1 for odd m
    offsets = (off, off, off, 0, 0, 0, off)
    n = tuple(n_count(field, i, params.lam, offsets[i - 1]) for i in range(1, 8))
    # x = 0 lies on the polynomial cover; its fibre splits iff the constant
    # has trace zero.
    t1 = q - 2 * (n[0] + (1 - off))
    t3 = q - 1 - 2 * n[2]
    t5 = q - 1 - 2 * n[4]
    tg = q - 1 - 2 * g_count(field, params.lam)
    return TraceProfile(
        n=n,
        t1=t1,
        t3=t3,
        t5=t5,
        tg=tg,
        t_combined=2 * t1 + 2 * t3 + 2 * t5 + tg,
        t_prym=0,
    )


def split_count(subset: str, params: CurveParams) -> int:
    """Number of pairs (x, 1/x), x not in {0, 1}, whose fibres split
    completely in every cover named by subset."""
    if subset not in SUBSETS:
        raise ValueError(f"subset must be one of {sorted(SUBSETS)}, got {subset!r}")
    field = params.field
    masks, _ = _family_tables(field)
    off = params.trace_class_a ^ 1
    good = np.ones(field.q - 1, dtype=bool)
    for i in SUBSETS[subset]:
        good &= parity(params.lam & masks[i]) == off
    good[0] = False  # x = 1 sits at index 0 of the F_q^* range
    total = int(np.count_nonzero(good))
    if total % 2:
        raise AssertionError("split set must pair up under x -> 1/x")
    return total // 2


def split_interval(subset: str, field: FieldSpec, trace_class_a: int) -> tuple[float, float] | None:
    """Proven enclosure for split_count, when one exists (f1f2 and f3).

    Lower endpoints are clamped at zero; counts are nonnegative even when
    the small-q formulas dip below it.
    """
    q = field.q
    t = isqrt_floor(4 * q)
    s = 1 << ((field.m + 3) // 2)  # 2*sqrt(2q), exact for odd m
    tr_a1 = trace_class_a ^ 1
    if subset == "f1f2":
        base = q - 7 if tr_a1 == 0 else q + 1
        lo, hi = (base - 3 * t - s) / 8, (base + 3 * t + s) / 8
    elif subset == "f3":
        base = q - 3 if tr_a1 == 0 else q - 1
        lo, hi = (base - t) / 4, (base + t) / 4
    else:
        return None
    return max(lo, 0.0), hi


def iso_check_f5_g(field: FieldSpec, lam: int) -> int:
    """1 iff the x -> lam*x substitution identity holds at lam: the count
    for lam*(x^3 + 1/x) equals the count for lam^4*x^3 + 1/x."""
    if field.m % 2 == 0:
        raise ValueError("identity is stated for odd extension degree")
    field._check(lam)
    if lam == 0:
        raise DegenerateLambdaError("lam=0 has no associated curves")
    lam4 = field.pow(lam, 4)
    return int(n_count(field, 5, lam, 0) == g_count(field, lam4))


def _fwht(a: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform with the (-1)^popcount(i & j) kernel."""
    n = len(a)
    h = 1
    while h < n:
        a = a.reshape(-1, 2, h)
        top = a[:, 0, :].copy()
        a[:, 0, :] = top + a[:, 1, :]
        a[:, 1, :] = top - a[:, 1, :]
        a = a.reshape(n)
        h *= 2
    return a


def n_counts_all(field: FieldSpec) -> np.ndarray:
    """All seven counts for every lam at once: result[i-1][lam] = n_i(lam).

    The mask histograms are Walsh-Hadamard transformed, which evaluates
    sum_x (-1)^trace(lam*psi_i(x)) for every lam simultaneously; exact in
    int64.  Column lam = 0 is filler.
    """
    q = field.q
    masks, _ = _family_tables(field)
    out = np.zeros((7, q), dtype=np.int64)
    for i in range(1, 8):
        hist = np.bincount(masks[i], minlength=q)
        s = _fwht(hist.astype(np.int64))
        if ((s ^ (q - 1)) & 1).any():
            raise AssertionError("character sums must match the count parity")
        out[i - 1] = (q - 1 + s) >> 1
    return out


def write_profile_fixture(path, field: FieldSpec, lams=None) -> None:
    """TSV of constant-free counts and traces per lam: columns
    m, modulus, lambda, n1..n7, t1, t3, t5, tg (hex elements, decimal counts)."""
    q = field.q
    if lams is None:
        lams = range(1, q)
    rows = ["m\tmodulus\tlambda\tn1\tn2\tn3\tn4\tn5\tn6\tn7\tt1\tt3\tt5\ttg"]
    for lam in lams:
        n = [n_count(field, i, lam, 0) for i in range(1, 8)]
        t1 = q - 2 * (n[0] + 1)
        t3 = q - 1 - 2 * n[2]
        t5 = q - 1 - 2 * n[4]
        tg = q - 1 - 2 * g_count(field, lam)
        cells = [str(field.m), f"0x{field.modulus:x}", f"0x{lam:x}"]
        cells += [str(v) for v in n] + [str(t1), str(t3), str(t5), str(tg)]
        rows.append("\t".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


def read_profile_fixture(path) -> list[dict]:
    """Rows of a profile fixture as dicts with int values."""
    with open(path) as fh:
        header = fh.readline().strip().split("\t")
        rows = []
        for line in fh:
            cells = line.strip().split("\t")
            row = dict(zip(header, cells))
            for key, value in row.items():
                row[key] = int(value, 16) if value.startswith("0x") else int(value)
            rows.append(row)
    return rows
