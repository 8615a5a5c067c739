"""Fresh-interpreter worker: reads one spec as JSON on stdin, prints one
JSON result line.

Usage (from run.py): python3 perfbench/child.py < spec.json, with the
checkout's src/ on PYTHONPATH.  The first thing it does is time
`import bch3.cli`, which is the import share of setup_s (normalised with
the python speed kernel measured right after it).
"""

import json
import os
import sys
import time


def main() -> int:
    spec = json.loads(sys.stdin.read())
    start = time.perf_counter()
    import bch3.cli  # noqa: F401  (timed: the import share of setup_s)

    import_s = time.perf_counter() - start
    import bch3

    package_dir = os.path.dirname(os.path.abspath(bch3.__file__))
    if package_dir != os.path.join(spec["src"], "bch3"):
        sys.stderr.write(f"imported bch3 from {package_dir}, not from {spec['src']}\n")
        return 3

    if spec["mode"] == "probe":
        import probes

        metrics, failures, attempted = probes.run_probe(spec)
        result = {"metrics": metrics, "failures": failures, "failed": len(failures),
                  "attempted": attempted}
    else:
        import speed
        import workloads

        import_norm = import_s * speed.factor(("python",))
        tracer = None
        if spec["traced"]:
            import spans

            tracer = spans.Tracer()
            tracer.install()
        result = workloads.run_pass(spec)
        result["setup_s"] += import_norm
        result["setup_raw_s"] += import_s
        if tracer is not None:
            tracer.uninstall()
            result["self_s"] = tracer.self_seconds()
            result["calls"] = tracer.calls
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
