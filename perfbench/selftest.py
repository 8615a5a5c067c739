"""Self-test of the benchmark's checks: a perturbed expected value must turn
into a reported failure on every workload.

Usage, from the repository root: python3 perfbench/selftest.py
Exit status 0 when every check both passes on the true values and fails on
the perturbed ones.
"""

from __future__ import annotations

import copy
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import expected  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402


def small_spec(workload: str) -> dict:
    spec = inputs.make_spec(workload, 0, 0)
    if workload == "covering_radius":
        spec["ops"] = [["covering-radius", "--m", "4"], ["covering-radius", "--m", "5"]]
    if workload == "verify":
        spec["ops"] = spec["ops"][:2]
    if workload == "queries":
        spec["queries"] = spec["queries"][:60]
    return spec


def perturb_table9(e):
    e.TABLES[9][12] += 1


def perturb_bfs(e):
    e.REACHED_AT_WEIGHT[5] = (1, 31, 465, 4495, 13021, 14755)


def perturb_boundary(e):
    e.BOUNDARY[1] = 10


def perturb_table13(e):
    e.TABLES[13][290] += 1


# (workload, perturbation, how many of the spec's operations must fail)
CASES = [
    ("tables", perturb_table9, lambda spec: 1),
    ("covering_radius", perturb_bfs, lambda spec: 1),
    ("verify", perturb_boundary, lambda spec: 2),
    # A reference that disagrees with the published table verifies nothing.
    ("queries", perturb_table13, lambda spec: len(spec["queries"])),
    ("queries", perturb_boundary, lambda spec: sum(
        q[0] == "traces" and q[1] == 1 for q in spec["queries"])),
]


def main() -> int:
    problems = []
    saved = {name: copy.deepcopy(getattr(expected, name))
             for name in ("TABLES", "REACHED_AT_WEIGHT", "BOUNDARY")}
    for workload in sorted({case[0] for case in CASES}):
        result = workloads.run_pass(small_spec(workload))
        if result["failed"]:
            problems.append(f"{workload}: fails on the true values: {result['failures']}")
    for workload, perturb, want in CASES:
        spec = small_spec(workload)
        perturb(expected)
        try:
            result = workloads.run_pass(spec)
        finally:
            for name, value in saved.items():
                setattr(expected, name, copy.deepcopy(value))
        if result["failed"] != want(spec) or not want(spec):
            problems.append(f"{workload}/{perturb.__name__}: {result['failed']} failed, "
                            f"expected {want(spec)}")
        else:
            print(f"ok  {workload}/{perturb.__name__}: {result['failed']} of "
                  f"{result['attempted']} reported failed, e.g. {result['failures'][0]}")
    for problem in problems:
        print("FAIL " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
