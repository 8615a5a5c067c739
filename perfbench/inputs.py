"""Seeded input generation for the benchmark workloads.

Everything here is plain Python with its own tiny F_2[x] arithmetic, so the
inputs are produced without importing the package under test: the program
only ever receives the generated argv lists and arguments.  The same
(seed, workload, pass index) always yields the same spec.
"""

from __future__ import annotations

import random

WORKLOADS = ("tables", "queries", "verify", "covering_radius")
# The operation whose latency is op_ms_p50, per workload; queries pool all.
HEADLINE = {
    "tables": "table --m 13",
    "verify": "verify --m 9",
    "covering_radius": "covering-radius --m 7",
    "queries": None,
}
TABLE_DEGREES = (5, 7, 9, 11, 13)
BFS_DEGREES = (4, 5, 6, 7)
QUERY_M = 13
QUERIES_PER_PASS = 3000
VERIFY_M9_MODULI = 2
PROBE_M13_MODULI = 5
PROBE_POINT_LAMBDAS = 25
PROBE_N_OF_CALLS = 100
SUBSETS = ("f1f2", "f3", "f1f2f3")


def _poly_mod(a: int, b: int) -> int:
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def is_irreducible(p: int) -> bool:
    """Trial division by every polynomial of degree 1..deg(p)/2."""
    m = p.bit_length() - 1
    return m >= 1 and all(
        _poly_mod(p, d) for d in range(2, 1 << (m // 2 + 1))
    )


def default_modulus(m: int) -> int:
    """The smallest irreducible of degree m, which the package picks when
    no modulus is given."""
    return next(p for p in range(1 << m, 1 << (m + 1)) if is_irreducible(p))


def gf_mul(a: int, b: int, modulus: int) -> int:
    """Product in F_2[x] / (modulus)."""
    top = 1 << (modulus.bit_length() - 1)
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= modulus
    return r


def gf_trace(a: int, modulus: int) -> int:
    """Absolute trace a + a^2 + ... + a^(2^(m-1)), from the definition."""
    acc = s = a
    for _ in range(modulus.bit_length() - 2):
        s = gf_mul(s, s, modulus)
        acc ^= s
    return acc


def _fresh_moduli(rng: random.Random, m: int, k: int) -> list[int]:
    """k distinct irreducibles of degree m drawn uniformly by rejection,
    never the package default, so no field a pass builds is already warm
    from another call in the same pass."""
    skip = {default_modulus(m)}
    out: list[int] = []
    while len(out) < k:
        p = (1 << m) | rng.randrange(1 << m) | 1
        if p not in skip and is_irreducible(p):
            skip.add(p)
            out.append(p)
    return out


def make_spec(workload: str, seed: int, index: int) -> dict:
    """The inputs of pass number `index` of a run with `seed`."""
    rng = random.Random(f"bch3-bench:{workload}:{seed}:{index}")
    if workload == "tables":
        moduli = {m: _fresh_moduli(rng, m, 1)[0] for m in TABLE_DEGREES}
        ops = []
        for m in TABLE_DEGREES:
            ops.append(["table", "--m", str(m), "--modulus", hex(moduli[m])])
            ops.append(["bounds", "--m", str(m)])
        ops.append(["gamma", "--m", "13"])
        return {"workload": workload, "ops": ops}
    if workload == "verify":
        ops = [["verify", "--m", "5"], ["verify", "--m", "7"]]
        for modulus in _fresh_moduli(rng, 9, VERIFY_M9_MODULI):
            ops.append(["verify", "--m", "9", "--modulus", hex(modulus), "--exhaustive"])
        return {"workload": workload, "ops": ops}
    if workload == "covering_radius":
        degrees = list(BFS_DEGREES)
        rng.shuffle(degrees)
        return {"workload": workload, "ops": [["covering-radius", "--m", str(m)] for m in degrees]}
    if workload == "queries":
        modulus = _fresh_moduli(rng, QUERY_M, 1)[0]
        return {
            "workload": workload,
            "m": QUERY_M,
            "modulus": modulus,
            "queries": _queries(rng, modulus, QUERIES_PER_PASS),
        }
    raise ValueError(f"unknown workload {workload!r}")


def make_probe_spec(seed: int, index: int) -> dict:
    """Inputs of one layer-probe round: fresh m = 13 moduli (the first one
    also carries the table probes), fresh m = 9 moduli for the oracle, and
    seeded lam / (class, b) arguments for the point probes."""
    rng = random.Random(f"bch3-bench:probe:{seed}:{index}")
    q = 1 << QUERY_M
    n_of = []
    for _ in range(PROBE_N_OF_CALLS):
        b = rng.randrange(q - 1)
        n_of.append([rng.randrange(2), b + (b >= 1)])
    return {
        "mode": "probe",
        "m13": _fresh_moduli(rng, QUERY_M, PROBE_M13_MODULI),
        "m9": _fresh_moduli(rng, 9, VERIFY_M9_MODULI),
        "point_lambdas": [rng.randrange(1, q) for _ in range(PROBE_POINT_LAMBDAS)],
        "n_of": n_of,
    }


def _queries(rng: random.Random, modulus: int, count: int) -> list[list]:
    """Equal thirds of N(A, B), curve traces and split counts (the three
    subsets in turn), shuffled.  Every query has lam != 0: (a, b) pairs are
    drawn as (a, lam) with lam != 0 and b is solved from
    lam = b + a^2 + a + 1; trace-class queries avoid b = 1."""
    q = 1 << (modulus.bit_length() - 1)
    out = []
    for k in range(count):
        kind = k % 3
        if kind == 0:
            a, lam = rng.randrange(q), rng.randrange(1, q)
            out.append(["nab", a, lam ^ gf_mul(a, a, modulus) ^ a ^ 1])
        else:
            cls, b = rng.randrange(2), rng.randrange(q - 1)
            b += b >= 1  # skip b = 1, where lam = 0
            if kind == 1:
                out.append(["traces", cls, b])
            else:
                out.append(["split", SUBSETS[(k // 3) % 3], cls, b])
    rng.shuffle(out)
    return out
