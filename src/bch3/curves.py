"""Trace-zero fibre counts for the curve family behind the coset invariant.

For a nonzero parameter lam the family consists of double covers
y^2 + y = f(x) of the x-line, where f runs over seven combinations of

    phi1 = lam*(x^3 + x),  phi2 = lam*(1/x^3 + 1/x),  phi3 = lam*(x + 1/x),

their pairwise sums and the triple sum, plus g = lam*x^3 + 1/x.  At odd
m these counts take three values, n1 = n2, n3 = n7, n4 = n5 = n6 = g
(docs/count_table.md).  N reads them only through n1 + n3 and n5, so the
cached, read-only table per field (_count_table) holds just those two
rows for all lam, one Walsh-Hadamard transform each: the transform is
linear, so the phi1 and phi3 mask histograms are added before it.  The
point reads (traces, split counts, n_count) take n1, n3 and n5 apart from
a second, lazily built table (_point_table), whose n1 row is one more
transform, and _ROW names the row of it that holds each n_i.  The trace
class of A enters through _rows as off = Tr(A + 1), the trace of a
constant added to phi1 and phi3: off = 1 flips them to n' = q - 1 - n
and keeps n5.  The traces and each splitting count (SUBSETS holds its
coefficients of n1', n3', n5) are fixed forms in these adjusted rows;
coset.invariants reads n1 + n3 unadjusted, with a sign per class, and
t_combined (_combined_trace) reads n1' + n3', so neither builds n1 alone.

CurveParams checks (class, b) on construction and derives lam = b + 1, so
no instance holds an unchecked lam; j = lam^-4 = lam^(q - 5) is computed
only when read, by one scalar power, so reading it builds no per-field
table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from .gf2m import FieldSpec, _readonly, exp_table, trace_mul_table

# Coefficients of (n1', n3', n5) in split_count's sum over the subsets U.
SUBSETS = {"f1f2": (2, 0, 1), "f3": (0, 1, 0), "f1f2f3": (2, 2, 3)}


class DegenerateLambdaError(ValueError):
    """Raised when lam = b + a^2 + a + 1 vanishes and the curve family
    degenerates into a union of twelve lines; given names the input."""

    def __init__(self, given: str = "lam=0"):
        super().__init__(f"{given}: the curve degenerates into twelve lines")


@dataclass(frozen=True)
class CurveParams:
    """One member of the family: trace class of A and the element B, checked
    on construction (_lam), and the invariant lam = B + 1 derived from them."""

    field: FieldSpec
    trace_class_a: int
    b: int
    lam: int = dc_field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "lam", _lam(self.field, self.trace_class_a, self.b))

    @property
    def j_invariant(self) -> int:
        """j = lam^-4 = lam^(q - 5), as lam^(q - 1) = 1."""
        return self.field.pow(self.lam, self.field.q - 5)


curve_params = CurveParams  # the checked constructor, under its functional name


@dataclass(frozen=True)
class TraceProfile:
    """The seven fibre counts over F_q^* and the derived Frobenius traces."""

    n: tuple[int, int, int, int, int, int, int]
    t1: int
    t3: int
    t5: int
    tg: int
    t_combined: int


# The point table row that holds n_i, at index i - 1: n1 and n2 in row 0,
# n3 and n7 in row 1, n4, n5 and n6 in row 2 (docs/count_table.md).
_ROW = (0, 0, 1, 2, 2, 2, 1)


def _fwht(a: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform of each row of a, with the
    (-1)^popcount(i & j) kernel, into a new array; a is used as scratch.

    Each stage is one add and one subtract into the other buffer.  A row
    of length n = hi*lo runs in two phases: the stages on the high bits,
    whose blocks are lo or more long, then a transpose that makes the low
    bits high, their stages on blocks hi or more long, and a transpose
    back, so no stage has a short inner loop.
    """
    rows, n = a.shape
    lo = 1 << (n.bit_length() - 1) // 2
    src, dst = a, np.empty_like(a)
    for block in (lo, n // lo):
        h = block
        while h < n:
            v, out = src.reshape(rows, -1, 2, h), dst.reshape(rows, -1, 2, h)
            np.add(v[:, :, 0], v[:, :, 1], out=out[:, :, 0])
            np.subtract(v[:, :, 0], v[:, :, 1], out=out[:, :, 1])
            src, dst = dst, src
            h *= 2
        flipped = src.reshape(rows, n // block, block).transpose(0, 2, 1)
        dst.reshape(rows, block, n // block)[...] = flipped
        src, dst = dst, src
    return src


def _phi1_mask(field: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """(texp, M1) with the elements of F_q^* taken in exponent order,
    x = g^k for 0 <= k < n = q - 1 (docs/count_table.md): texp = T[exp],
    and M1[k] = texp[3k mod n] ^ texp[k], the mask of x^3 + x, as
    T = trace_mul_table is linear.  No cube, inverse or log table is read.
    """
    n = field.q - 1
    # k -> 3k mod n permutes the exponents when 3 does not divide n (odd m):
    # the k with j*n <= 3k < (j + 1)*n read texp from (-j*n) mod 3 in steps of 3
    if n % 3 == 0:
        raise AssertionError("3k mod n must run through every exponent")
    texp = trace_mul_table(field)[exp_table(field)]
    m1 = np.concatenate([texp[-j * n % 3 :: 3] for j in range(3)])
    m1 ^= texp
    return texp, m1


def _mask_histograms(field: FieldSpec) -> np.ndarray:
    """int32 array of shape (2, q) whose row transforms are S1 + S3 and
    S5, the character sums of phi1 and phi3 added, and that of phi5.

    The mask of 1/x + x is texp[-k mod n] ^ texp[k], and that of
    phi5 = phi1 + phi3 the xor of both, built in place after their
    bincounts.  The q-sized masks die with this frame.
    """
    q, n = field.q, field.q - 1
    texp, m1 = _phi1_mask(field)
    # the phi3 mask is symmetric, m3[k] = m3[n - k], so it overwrites texp:
    # one half from the two halves, then its mirror image (n is odd)
    half = n // 2
    m3 = texp
    m3[1 : half + 1] ^= m3[:half:-1]
    m3[half + 1 :] = m3[half:0:-1]
    m3[0] = 0
    sums = np.empty((2, q), dtype=np.int32)
    sums[0] = np.bincount(m1, minlength=q)
    # added in int32 through row 1: an int64 operand costs a cast buffer
    sums[1] = np.bincount(m3, minlength=q)
    sums[0] += sums[1]
    m1 ^= m3  # phi5 = phi1 + phi3
    sums[1] = np.bincount(m1, minlength=q)
    return sums


def _halve(sums: np.ndarray, totals: tuple[int, ...]) -> np.ndarray:
    """Counts from transformed rows, in place: a row whose histogram holds
    `total` masks has n = (S + total)/2 at every lam, and the parity gate
    refuses an odd numerator."""
    sums += np.array(totals, dtype=sums.dtype)[:, None]
    if (sums & 1).any():
        raise AssertionError("character sums must match the count parity")
    sums >>= 1
    return sums


@lru_cache(maxsize=None)
def _count_table(field: FieldSpec) -> np.ndarray:
    """Read-only int32 table of shape (2, q) for odd m: rows n1 + n3 and
    n5, where n_i(lam) = #{x in F_q^* : trace(phi_i(x)) = 0}.  Column
    lam = 0 is filler.

    With masks M such that trace(lam * psi(x)) = parity(lam & M[x]), the
    Walsh-Hadamard transform of the mask histogram evaluates
    sum_x (-1)^trace(lam*psi(x)) for every lam at once; the transform is
    linear, so the added phi1 and phi3 histograms give S1 + S3 in one row.
    Every value lies within +-2(q - 1), so int32 is exact up to m = 29.
    docs/count_table.md derives the other counts as equal to n1, n3 and
    n5, the last two at odd m only:

        n2 = n1, n6 = n5:  x -> 1/x,
        n7 = n3:           x -> x^3, a bijection of F_q^* at odd m,
        n4 = n5:           u = x + 1/x, then a character sum (odd m).
    """
    require_odd(field.m)
    return _readonly(_halve(_fwht(_mask_histograms(field)), (2 * (field.q - 1), field.q - 1)))


@lru_cache(maxsize=None)
def _point_table(field: FieldSpec) -> np.ndarray:
    """Read-only int32 table of shape (3, q) for odd m: rows n1, n3 and n5,
    and row _ROW[i - 1] holds n_i.  Column lam = 0 is filler.

    n1 is a one-row transform of the phi1 histogram, rebuilt from the
    cached exp and T tables, so no histogram outlives _count_table; then
    n3 = (n1 + n3) - n1, and n5 is _count_table's.  Row n1 is checked
    against Carlitz's value set: 1 + S1 = 2*n1 - (q - 2) is 0 or
    +-2^((m+1)/2) at every lam != 0 (docs/count_table.md, "Row
    identities"), which a transfer between n1 and n3 leaves.
    """
    q = field.q
    pair = _count_table(field)
    hist = np.bincount(_phi1_mask(field)[1], minlength=q).astype(np.int32)[None]
    n1 = _halve(_fwht(hist), (q - 1,))[0]
    carlitz = np.abs(2 * n1[1:] - (q - 2))
    if ((carlitz != 0) & (carlitz != 1 << (field.m + 1) // 2)).any():
        raise AssertionError("row n1 left Carlitz's value set {0, +-2^((m+1)/2)}")
    # hist is the transform's scratch; neither it nor carlitz is held while
    # the three rows are stacked, so this stage peaks below the count build
    del hist, carlitz
    return _readonly(np.stack([n1, pair[0] - n1, pair[1]]))


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
        raise DegenerateLambdaError()
    n = int(_point_table(field)[_ROW[i - 1], lam])
    return field.q - 1 - n if offset_bit else n


def g_count(field: FieldSpec, lam: int) -> int:
    """#{x in F_q^* : trace(lam*x^3 + 1/x) = 0}, which is n5(lam)."""
    return n_count(field, 5, lam, 0)


def require_odd(m: int) -> None:
    """Refuse even m: n7 = n3, n4 = n5 and Tr(1) = 1 hold at odd m only."""
    if m % 2 == 0:
        raise ValueError(f"the pipeline requires odd extension degree, got m={m}")


def _root_forms(m: int) -> tuple[int, int, int]:
    """(q, t, s) for q = 2^m: t = floor(2*sqrt(q)) and s = 2*sqrt(2q),
    exact for odd m.  Every enclosure of a count or of the invariant is
    written in these three integers."""
    q = 1 << m
    return q, math.isqrt(4 * q), 1 << ((m + 3) // 2)


def _offset(field: FieldSpec, trace_class_a: int) -> int:
    """Tr(A + 1) for normalized A: Tr(1) = 1 holds for odd m only."""
    require_odd(field.m)
    if trace_class_a not in (0, 1):
        raise ValueError("trace_class_a must be 0 or 1")
    return trace_class_a ^ 1


def _lam(field: FieldSpec, trace_class_a: int, b: int) -> int:
    """lam = b + 1 for normalized A, validated before any table is read:
    odd m and the trace class (_offset), then b, then lam != 0."""
    _offset(field, trace_class_a)
    lam = field._check(b) ^ 1
    if lam == 0:
        raise DegenerateLambdaError(f"b=0x{b:x} gives lam=0")
    return lam


def _rows(field: FieldSpec, trace_class_a: int, lam: int) -> tuple[int, int, int, int]:
    """(off, n1', n3', n5) at one lam, off = Tr(A + 1): n1' and n3' count
    phi1 + c and phi3 + c, c a constant of trace off (q - 1 - n when
    off = 1), and phi5 = phi1 + phi3 carries c twice: one column of the
    point table."""
    off = _offset(field, trace_class_a)
    n1, n3, n5 = _point_table(field)[:, lam].tolist()
    if off:
        n1, n3 = field.q - 1 - n1, field.q - 1 - n3
    return off, n1, n3, n5


def _sum_rows(field: FieldSpec, trace_class_a: int, lam: int) -> tuple[int, int, int]:
    """(off, n1' + n3', n5) at one lam, as in _rows, from the two-row count
    table: the adjusted sum is 2(q - 1) - (n1 + n3) when off = 1."""
    off = _offset(field, trace_class_a)
    n13, n5 = _count_table(field)[:, lam].tolist()
    if off:
        n13 = 2 * (field.q - 1) - n13
    return off, n13, n5


def _combined_trace(q: int, off: int, n13: int, n5: int) -> int:
    """t_combined = 2*t1 + 2*t3 + 3*t5 = 7q - 9 + 4*off - 4(n1' + n3') - 6*n5
    in the adjusted rows, n13 = n1' + n3' (docs/count_table.md).  The one
    formula for curve_traces and coset.calibrate_boundary."""
    return 7 * q - 9 + 4 * off - 4 * n13 - 6 * n5


def curve_traces(params: CurveParams) -> TraceProfile:
    """Fibre counts and Frobenius traces of the seven Jacobian factors,
    from one column of the point table.

    Boundary conventions: the cubic-polynomial cover contributes one point
    at infinity (t1 counts over F_q plus that point); the covers with
    poles contribute one ramified point per pole (t3, t5, tg count over
    F_q^* plus two points).
    """
    q = params.field.q
    off, n1, n3, n5 = _rows(params.field, params.trace_class_a, params.lam)
    # x = 0 lies on the polynomial cover; its fibre splits iff the constant
    # has trace zero.
    t1 = q - 2 * (n1 + (1 - off))
    t3 = q - 1 - 2 * n3
    t5 = q - 1 - 2 * n5
    n = tuple((n1, n3, n5)[r] for r in _ROW)
    return TraceProfile(n, t1, t3, t5, t5, _combined_trace(q, off, n1 + n3, n5))  # tg = t5, as g_count = n5


def _coefficients(subset: str) -> tuple[int, int, int]:
    """SUBSETS[subset], refusing an unknown name."""
    if subset not in SUBSETS:
        raise ValueError(f"subset must be one of {sorted(SUBSETS)}, got {subset!r}")
    return SUBSETS[subset]


def split_count(subset: str, params: CurveParams) -> int:
    """Number of pairs (x, 1/x), x not in {0, 1}, whose fibres split
    completely in every cover named by subset.

    The indicator of trace(phi_i(x) + c) = 0, c a constant of trace off,
    is (1 + e_i'(x))/2 with e_i'(x) = (-1)^trace(phi_i(x) + c).  Expanding
    the product over the subset S and summing over F_q^* gives

        2^-|S| * sum over U subset of S of chi_U',

    where phi_U is the sum of the phi_i in U (one of phi1..phi7) plus |U|
    copies of c, chi_U' = 2*n_U' - (q - 1) from its adjusted count (_rows),
    and chi of the empty U is q - 1.  So phi4 = phi1 + phi2 reads n5 and
    phi7 reads n3', and with the coefficients c of (n1', n3', n5) summed
    over the nonempty U in SUBSETS, and w = 1 + sum(c) = 2^|S| terms, the
    sum is (2 - w)(q - 1) + 2*sum(c*n').  x = 1, where every phi_i
    vanishes, is then taken out.
    """
    c1, c3, c5 = _coefficients(subset)
    q = params.field.q
    off, n1, n3, n5 = _rows(params.field, params.trace_class_a, params.lam)
    width = 1 + c1 + c3 + c5
    acc = (2 - width) * (q - 1) + 2 * (c1 * n1 + c3 * n3 + c5 * n5)
    if acc % width:
        raise AssertionError("inclusion-exclusion must give a whole count")
    total = acc // width - (1 - off)
    if total % 2:
        raise AssertionError("split set must pair up under x -> 1/x")
    return total // 2


def split_interval(subset: str, field: FieldSpec, trace_class_a: int) -> tuple[float, float] | None:
    """Proven enclosure for split_count, when one exists (f1f2 and f3).

    Lower endpoints are clamped at zero; counts are nonnegative even when
    the small-q formulas dip below it.  Unknown names fail as in split_count,
    before the degree or the class is checked.
    """
    _coefficients(subset)
    off = _offset(field, trace_class_a)
    q, t, s = _root_forms(field.m)
    if subset == "f1f2":
        lo, hi = (q - 7 + 8 * off - 3 * t - s) / 8, (q - 7 + 8 * off + 3 * t + s) / 8
    elif subset == "f3":
        lo, hi = (q - 3 + 2 * off - t) / 4, (q - 3 + 2 * off + t) / 4
    else:
        return None
    return max(lo, 0.0), hi


def n_counts_all(field: FieldSpec) -> np.ndarray:
    """All seven counts for every lam at once: result[i-1][lam] = n_i(lam),
    a read-only (7, q) expansion of the point table, made on each call.
    Column lam = 0 is filler.
    """
    return _readonly(np.take(_point_table(field), _ROW, axis=0))
