"""The repository's benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload army_round --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (untraced); ``--trace 1``
wraps the program's layer boundaries and prints the per-layer metrics
instead. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it carry the run's provenance (git sha, host, seed), the
operations attempted per kind, reference figures and, when tracing, the
self time of every traced span. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("army_round", "detect_weeks", "http_round")


def _parse(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_workload(name: str, seed: int, seconds: float, tracer):
    if name == "army_round":
        import army_round
        return army_round.run(seed, seconds, tracer)
    if name == "detect_weeks":
        import detect_weeks
        return detect_weeks.run(seed, seconds, tracer, ROOT)
    import http_round
    return http_round.run(seed, seconds, tracer)


def main(argv: list) -> int:
    args = _parse(argv)
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro  # noqa: F401  (the program under test)
    except ImportError as exc:
        print(f"perfbench: cannot import the program from "
              f"{os.path.join(ROOT, 'src')}: {exc}", file=sys.stderr)
        return 2

    from checks import CheckFailed
    from common import git_sha, host_fingerprint, out_dir, peak_rss_mb

    tracer = None
    if args.trace:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
        tracer.enabled = True

    print(json.dumps({"run": {"workload": args.workload, "seed": args.seed,
                              "seconds": args.seconds, "trace": args.trace,
                              "git_sha": git_sha(ROOT),
                              "host": host_fingerprint()}}))
    try:
        outcome = _run_workload(args.workload, args.seed, args.seconds,
                                tracer)
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        if tracer is not None:
            tracer.uninstall()

    attempted = sum(a for a, _f in outcome.ops.values())
    failed = sum(f for _a, f in outcome.ops.values())
    print(json.dumps({"ops": {kind: {"attempted": a, "failed": f}
                              for kind, (a, f) in
                              sorted(outcome.ops.items())}}))
    info = dict(outcome.info)
    info["setup_s_all"] = outcome.setup_s
    info["step_s_all"] = [s for s, _traced in outcome.steps]
    print(json.dumps({"info": info}))

    median = statistics.median
    if tracer is None:
        metrics = {
            "setup_s": (median(outcome.setup_s), "s"),
            "step_s": (median(outcome.untraced_steps()), "s"),
            "wire_bytes_per_user": (median(outcome.bytes_per_user), "B"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    else:
        from tracer import layer_metrics, self_time_table
        plain = median(outcome.untraced_steps())
        traced = median(outcome.traced_steps())
        overhead = 100.0 * (traced / plain - 1.0)
        print(f"tracing overhead: median traced step {traced:.4f} s vs "
              f"untraced {plain:.4f} s ({overhead:+.1f}%), "
              f"{len(outcome.traced_steps())} traced / "
              f"{len(outcome.untraced_steps())} untraced steps")
        for line in self_time_table(tracer):
            print(line)
        path = os.path.join(out_dir(ROOT),
                            f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
        tracer.write(path)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
        metrics = layer_metrics(tracer, overhead)

    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
