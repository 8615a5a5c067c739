"""One pass of a workload, run inside a fresh interpreter, and its checks.

A pass times its operations, then checks every output against the values
in expected.py.  An operation is one CLI invocation, run in-process through
bch3.cli.main with stdout captured, or one library query.  Every time is
taken raw and normalised to nominal machine speed (see speed.py).  Checks
run after the timed part, so they cost neither setup_s nor wall_s.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import time

from bch3 import cli, coset, curves
from bch3.gf2m import make_field

import expected
import inputs
import speed

# The speed kernels whose style matches each workload's hot loop.
SPEED_KERNELS = {
    "tables": ("python",),
    "queries": ("small",),
    "verify": ("small", "medium"),
    "covering_radius": ("large",),
}
QUERY_BLOCK = 150  # queries between two speed measurements


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and captured stdout of one cli.main call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def _arg(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def check_cli(argv: list[str], rc: int, text: str) -> list[str]:
    """Failure messages for one CLI report; empty when every check holds."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        report = json.loads(text)
    except ValueError:
        return ["stdout is not one JSON report"]
    command, m = argv[0], int(_arg(argv, "--m"))
    payload = report["payload"]
    q = 1 << m
    errors = []

    def want(cond, what):
        if not cond:
            errors.append(what)

    want(report["command"] == command and report["m"] == m, "envelope command/m")
    modulus = _arg(argv, "--modulus")
    if modulus is not None:
        want(report["modulus"] == f"0x{int(modulus, 16):x}", "envelope modulus")
    if command == "table":
        got = {int(k): v for k, v in payload["distribution"].items()}
        want(got == expected.TABLES[m], f"distribution m={m} differs from the published table")
        want(payload["q"] == q and payload["normalized_by"] == q // 2, "table q")
    elif command == "bounds":
        want(tuple(payload["refined_even"]) == expected.REFINED_EVEN[m], f"refined bound m={m}")
        want(tuple(payload["heuristic_even"]) == expected.HEURISTIC_EVEN[m], f"heuristic bound m={m}")
        lo, hi = payload["weil"]
        r_lo, r_hi = payload["refined_even"]
        want(lo <= r_lo and r_hi <= hi, f"refined bound m={m} not inside the genus bound")
    elif command == "gamma":
        hist = {expected.GAMMA_BASE + 2 * int(k): v for k, v in payload["histogram"].items()}
        want({k: v for k, v in hist.items() if v} == expected.TABLES[13], "gamma histogram")
        residual = {int(k): v for k, v in payload["residual_nonzero"].items()}
        want(residual == expected.GAMMA_RESIDUALS, f"gamma residuals {residual}")
        want(payload["missing_values"] == expected.GAMMA_MISSING, "gamma missing values")
    elif command == "verify":
        want(payload["mode"] == "exhaustive", "verify mode")
        want(payload["mismatches"] == [], f"verify m={m} mismatches")
        want(payload["checked"] == 2 * (q - 1), f"verify m={m} checked {payload['checked']}")
        if m in (5, 7):
            boundary = {int(k): v for k, v in payload["boundary"].items()}
            want(boundary == expected.BOUNDARY, f"boundary constants {boundary}")
    elif command == "covering-radius":
        want(payload["rho"] == expected.COVERING_RADIUS, f"rho m={m} is {payload['rho']}")
        reached = tuple(payload["reached_at_weight"])
        want(reached == expected.REACHED_AT_WEIGHT[m], f"reached_at_weight m={m} is {reached}")
    else:
        errors.append(f"no check for {command}")
    return errors


def _label(argv: list[str]) -> str:
    return " ".join(argv[:3])


def cli_pass(spec: dict, kinds: tuple[str, ...]) -> dict:
    ops = []
    for argv in spec["ops"]:
        raw, norm, (rc, text) = speed.timed(kinds, run_cli, argv)
        ops.append((argv, raw, norm, rc, text))
    rss = peak_rss_mb()
    op_s: dict[str, list[float]] = {}
    op_raw_s: dict[str, list[float]] = {}
    failures = []
    for argv, raw, norm, rc, text in ops:
        op_s.setdefault(_label(argv), []).append(norm)
        op_raw_s.setdefault(_label(argv), []).append(raw)
        failures += [f"{' '.join(argv)}: {e}" for e in check_cli(argv, rc, text)[:1]]
    return {
        "setup_s": 0.0,
        "setup_raw_s": 0.0,
        "wall_s": sum(op[2] for op in ops),
        "wall_raw_s": sum(op[1] for op in ops),
        "peak_rss_mb": rss,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "op_s": op_s,
        "op_raw_s": op_raw_s,
    }


class BatchedValues:
    """The m = 13 values from the batched path, built at set-up: every count
    n_i(lam) from n_counts_all and N(A, B) for both trace classes, whose
    histogram must equal distribution() and the published table."""

    def __init__(self, m: int, modulus: int):
        self.field = make_field(m, modulus)
        self.modulus = modulus
        q = self.field.q
        self.counts = curves.n_counts_all(self.field)
        n = self.counts
        num0 = 2 * q - 2 - 2 * (n[0] + n[1] + n[2] - n[3] - n[4] - n[5] + n[6])
        num1 = -6 * q - 2 + 2 * n.sum(axis=0)
        self.N = (num0 // 24, num1 // 24)
        self.errors = []
        merged: dict[int, int] = {}
        for num, values in zip((num0, num1), self.N):
            if (num[1:] % 24).any():
                self.errors.append("batched numerator off the lattice")
            for v in values[1:].tolist():
                merged[v] = merged.get(v, 0) + 1
        table = coset.distribution(m, modulus).normalized
        if merged != table or table != expected.TABLES[m]:
            self.errors.append("batched values differ from distribution() or the published table")
        self.split_bounds = {
            (s, cls): curves.split_interval(s, self.field, cls)
            for s in ("f1f2", "f3") for cls in (0, 1)
        }

    def check(self, query: list, result) -> list[str]:
        field, q = self.field, self.field.q
        kind = query[0]
        if kind == "nab":
            a, b = query[1], query[2]
            lam = b ^ inputs.gf_mul(a, a, self.modulus) ^ a ^ 1
            want = int(self.N[inputs.gf_trace(a, self.modulus)][lam])
            lo, hi = expected.REFINED_EVEN[field.m]
            ok = result == want and result % 2 == 0 and lo <= result <= hi
            return [] if ok else [f"N({a:#x}, {b:#x}) = {result}, batched {want}"]
        cls, b = query[-2], query[-1]
        lam = b ^ 1
        if kind == "traces":
            off = cls ^ 1
            offsets = (off, off, off, 0, 0, 0, off)
            col = self.counts[:, lam].tolist()
            want_n = tuple(c if o == 0 else q - 1 - c for c, o in zip(col, offsets))
            lhs = q + 1 - result.t_combined
            rhs = 24 * int(self.N[cls][lam]) + expected.BOUNDARY[cls]
            ok = result.n == want_n and lhs == rhs
            return [] if ok else [f"traces({cls}, {b:#x}) disagree with the batched counts"]
        subset = query[1]
        bounds = self.split_bounds.get((subset, cls))
        ok = 0 <= result <= (q - 2) // 2
        if bounds is not None:
            ok = ok and bounds[0] <= result <= bounds[1]
        return [] if ok else [f"split({subset}, {cls}, {b:#x}) = {result} outside its interval"]


def run_query(field, query: list):
    kind = query[0]
    if kind == "nab":
        return coset.N_of_general(field, query[1], query[2])
    params = curves.curve_params(field, query[-2], query[-1])
    if kind == "traces":
        return curves.curve_traces(params)
    return curves.split_count(query[1], params)


def _query_block(field, queries: list) -> tuple[list, list[float]]:
    results, latencies = [], []
    clock = time.perf_counter
    for query in queries:
        start = clock()
        try:
            result = run_query(field, query)
        except (ValueError, ArithmeticError, AssertionError) as exc:
            result = exc
        latencies.append(clock() - start)
        results.append(result)
    return results, latencies


def queries_pass(spec: dict, kinds: tuple[str, ...]) -> dict:
    setup_raw, setup, values = speed.timed(("python",), BatchedValues, spec["m"], spec["modulus"])
    queries = spec["queries"]
    results, raw_lat, norm_lat = [], [], []
    wall_raw = wall = 0.0
    for lo in range(0, len(queries), QUERY_BLOCK):
        raw, norm, (res, lat) = speed.timed(kinds, _query_block, values.field, queries[lo : lo + QUERY_BLOCK])
        results += res
        raw_lat += lat
        norm_lat += [t * norm / raw for t in lat]
        wall_raw += raw
        wall += norm
    rss = peak_rss_mb()
    failures = []
    for query, result in zip(queries, results):
        if isinstance(result, Exception):
            failures.append(f"{query}: {type(result).__name__}: {result}")
        else:
            failures += values.check(query, result)
    # Without sound batched values no query is verified, so every one fails.
    failed = len(results) if values.errors else len(failures)
    return {
        "setup_s": setup,
        "setup_raw_s": setup_raw,
        "wall_s": wall,
        "wall_raw_s": wall_raw,
        "peak_rss_mb": rss,
        "attempted": len(results),
        "failed": failed,
        "failures": (values.errors + failures)[:5],
        "op_s": {"query": norm_lat},
        "op_raw_s": {"query": raw_lat},
    }


def run_pass(spec: dict) -> dict:
    kinds = SPEED_KERNELS[spec["workload"]]
    if spec["workload"] == "queries":
        return queries_pass(spec, kinds)
    return cli_pass(spec, kinds)
