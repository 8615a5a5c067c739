"""The bch3 benchmark: one command per workload, run from the repo root.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0

Each pass is a fresh interpreter (perfbench/child.py) given the inputs that
inputs.py derives from the seed, so every lru_cache starts cold.  Passes
repeat until --seconds have gone by; each metric is the median over them.
--trace 0 prints the end-to-end metrics; --trace 1 alternates an untraced
pass, a traced pass (spans around public calls) and a round of layer
probes, and prints the per-layer metrics.  Human-readable lines (seed,
machine, sample counts, the metrics under their names in perfbench/README.md)
come first; the last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import inputs
from inputs import HEADLINE, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "op_ms_p50": "ms"}
COUNTED_CALLS = {
    "curves.point.calls": ("curves.n_count", "curves.g_count"),
    "coset.N_of.calls": ("coset.N_of",),
    "oracle.brute_N.calls": ("oracle.brute_N",),
}


def per_layer_unit(name: str) -> str:
    if name.endswith("bytes"):
        return "B"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "count"


def child_env(src: str) -> dict[str, str]:
    """One single-threaded process: no BCH3_JOBS, no BLAS/OpenMP pools."""
    env = {k: v for k, v in os.environ.items() if k != "BCH3_JOBS" and not k.startswith("PYTHON")}
    env["PYTHONPATH"] = src
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(spec: dict, env: dict, deadline: float) -> dict:
    """Run one spec in a fresh interpreter; raises if it fails or hangs."""
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py")],
        input=json.dumps(spec),
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(p / 100 * len(ordered)) - 1))]


def machine(root: str) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "commit": git_commit(root),
        "src_sha256": source_digest(os.path.join(root, "src")),
    }


def git_commit(root: str) -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            return next((ln.split()[0] for ln in fh if ln.rstrip().endswith(" " + ref)), None)
    except OSError:
        return None


def source_digest(src: str) -> str:
    """sha256 over the package sources, which names the code measured even
    where there is no git metadata."""
    paths = []
    for dirpath, dirnames, filenames in os.walk(os.path.join(src, "bch3")):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        paths += [os.path.join(dirpath, name) for name in filenames]
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(os.path.relpath(path, src).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def end_to_end(workload: str, passes: list[dict]) -> dict[str, float]:
    """The end-to-end metrics, printed raw and normalised, with sample
    counts, and under the workload's own names from README.md."""
    n = len(passes)
    label = HEADLINE[workload]

    def op_times(key: str) -> list[float]:
        return [t for p in passes for k, ts in p[key].items() if label in (None, k) for t in ts]

    def summary(key: str) -> dict[str, float]:
        return {
            "setup_s": statistics.median(p[f"setup{key}"] for p in passes),
            "wall_s": statistics.median(p[f"wall{key}"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "op_ms_p50": statistics.median(op_times(f"op{key}")) * 1e3,
        }

    metrics, raw = summary("_s"), summary("_raw_s")
    ops, ops_raw = op_times("op_s"), op_times("op_raw_s")
    print(f"end-to-end ({workload}, medians; normalised to nominal speed, raw alongside):")
    for name, unit in END_TO_END.items():
        count = f"n={len(ops)} x {label or 'query'}" if name == "op_ms_p50" else f"n={n} passes"
        print(f"  {name:<20} {metrics[name]:>12.6g} {unit:<4} raw {raw[name]:>12.6g}  {count}")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"  {'fail_ratio':<20} {failed / attempted:>12.6g}      {failed}/{attempted} operations")
    named = []
    if workload == "tables":
        named.append(("table13_ms_p50", "ms", 1e3 * statistics.median(ops), 1e3 * statistics.median(ops_raw)))
    if workload == "queries":
        wall, wall_raw = (sum(p[key] for p in passes) for key in ("wall_s", "wall_raw_s"))
        named += [
            ("queries_per_s", "1/s", len(ops) / wall, len(ops) / wall_raw),
            ("query_us_p50", "us", 1e6 * statistics.median(ops), 1e6 * statistics.median(ops_raw)),
            ("query_us_p99", "us", 1e6 * percentile(ops, 99), 1e6 * percentile(ops_raw, 99)),
        ]
    for name, unit, value, value_raw in named:
        print(f"  {name:<20} {value:>12.6g} {unit:<4} raw {value_raw:>12.6g}  n={len(ops)}")
    print("per operation (median ms, normalised / raw):")
    for k in sorted({k for p in passes for k in p["op_s"]}):
        ts = [t for p in passes for t in p["op_s"].get(k, [])]
        ts_raw = [t for p in passes for t in p["op_raw_s"].get(k, [])]
        print(f"  {k:<24} {1e3 * statistics.median(ts):>10.4f} / {1e3 * statistics.median(ts_raw):>10.4f}  n={len(ts)}")
    return metrics


def per_layer(plain: list[dict], traced: list[dict], probes: list[dict]) -> dict[str, float]:
    metrics = {name: statistics.median(p["metrics"][name] for p in probes) for name in probes[0]["metrics"]}
    for name, counted in COUNTED_CALLS.items():
        metrics[name] = statistics.median(sum(p["calls"].get(c, 0) for c in counted) for p in traced)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    print(f"per-layer (medians over {len(probes)} probe rounds, {len(traced)} traced passes):")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {per_layer_unit(name)}")
    print(f"tracing overhead: traced wall_s {traced_wall:.6f} s - untraced {plain_wall:.6f} s "
          f"= {metrics['trace.overhead_s']:+.6f} s ({len(traced)} + {len(plain)} passes)")
    print("span self time by module, median over traced passes (s):")
    for module in traced[0]["self_s"]:
        print(f"  {module:<36} {statistics.median(p['self_s'][module] for p in traced):>14.6g} s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "bch3", "cli.py")):
        sys.stderr.write(f"no bch3 sources under {src}; run from the repository root\n")
        return 2
    env = child_env(src)
    print(f"bch3 benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine " + json.dumps(machine(root)))

    start = time.monotonic()
    hard_deadline = start + args.seconds + CHILD_TIMEOUT_S
    plain, traced, probes = [], [], []
    index = 0
    while index == 0 or time.monotonic() - start < args.seconds:
        spec = inputs.make_spec(args.workload, args.seed, index)
        spec.update(src=src, mode="pass", traced=False)
        if not args.trace:
            plain.append(run_child(spec, env, hard_deadline))
        else:
            # Same inputs traced and untraced, in alternating order.
            for traced_now in (index % 2 == 1, index % 2 == 0):
                spec["traced"] = traced_now
                (traced if traced_now else plain).append(run_child(spec, env, hard_deadline))
            spec = inputs.make_probe_spec(args.seed, index)
            spec["src"] = src
            probes.append(run_child(spec, env, hard_deadline))
        index += 1

    results = plain + traced + probes
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for message in sorted({m for r in results for m in r["failures"]})[:20]:
        print("FAILED " + message)
    if args.trace:
        metrics = per_layer(plain, traced, probes)
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end(args.workload, plain)
        units = END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
