"""The obidet benchmark: one seeded workload, checked answers, metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  The workloads are straighten_deep and
certify_basis (see spec.json for their parameters and BENCHMARK.json for
why each exists).  The four embedded golden
certificates are replayed first, untimed.  Each workload then runs in its
own single-threaded child process.

--trace 0 runs rounds for about --seconds and prints the end-to-end
metrics: the median round time (wall_s), item times, failures, the median
set-up time over several process starts and peak RSS.  Times are scaled
to a reference host speed measured in the same process (calibrate.py);
the raw times are printed beside them.  --trace 1 runs the workload's
trace_rounds untraced and then the same rounds traced; it prints the
per-layer metrics and trace.overhead_s, and requires both runs to produce
the same outputs_sha256.  The last line of standard output is one JSON
object.  A wrong answer exits with code 1; a missing program, a crashed
worker or a bad argument exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True   # leave no compiled files in the checkout
from calibrate import scale  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not produce a result."""


def preflight_goldens():
    """Every golden case reproduces its embedded certificate (untimed)."""
    sys.path.insert(0, str(ROOT / "src"))
    from obidet.golden import GOLDEN_CASES
    from obidet.group_oracle import standard_points
    from obidet.polyring import eval_bideterminant

    for case in GOLDEN_CASES:
        computed = case.compute()
        if computed != case.expected() or computed.certificate() != case.certificate:
            return f"golden case {case.name!r} does not reproduce its certificate"
        s, t = case.inputs()
        for p in standard_points(case.n, 2, seed=1):
            if eval_bideterminant(s, t, p) != computed.evaluate(p):
                return f"golden case {case.name!r} fails at an exact point"
    return None


def worker(args, *extra) -> tuple[float, dict]:
    """Run one worker process; return its spawn time and its result."""
    cmd = [sys.executable, "-B", str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, *extra]
    spawned = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise BenchError(f"worker exited with code {proc.returncode}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten values beyond it, and its value.

    Below eleven values it is the maximum (percentile 100).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def end_to_end(args, spec: dict) -> tuple[dict, dict]:
    setups = []
    for _ in range(spec["run"]["setup_probes"]):
        spawned, probe = worker(args, "--setup-only")
        setups.append(probe["t_first"] - spawned)
    spawned, res = worker(args, "--seconds", str(args.seconds))
    if "wrong" in res:
        return res, {}
    setups.append(res["t_first"] - spawned)
    factor = scale(res["speed_samples"], spec["calibration"]["reference_s"])
    items_ms = [x * 1000 for x in res["item_s"]]
    pct, tail_ms = tail(items_ms)
    raw = {
        "wall_s": (statistics.median(res["round_s"]), "s", f"median of {res['rounds']} rounds"),
        "item_p50_ms": (statistics.median(items_ms), "ms", f"of {len(items_ms)} items"),
        "item_tail_ms": (tail_ms, "ms", f"p{pct:.1f} of {len(items_ms)} items"),
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} process starts"),
    }
    metrics = {}
    for name, (value, unit, note) in raw.items():
        metrics[name] = (value * factor, unit)
        print(f"{args.workload} {name} {value * factor:.6g} {unit} "
              f"({note}; raw {value:.6g} {unit})")
    failed = len(res["failures"])
    metrics["peak_rss_mb"] = (res["peak_rss_mb"], "MB")
    print(f"{args.workload} peak_rss_mb {res['peak_rss_mb']:.6g} MB (workload process)")
    print(f"{args.workload} fail_ratio {failed / res['attempted']:.6g} ratio "
          f"({failed} of {res['attempted']})")
    print(f"{args.workload} host_speed_factor {factor:.4g} "
          f"(times above are raw * factor; {len(res['speed_samples'])} probe samples)")
    return res, metrics


def per_layer(args, spec: dict, bench: dict) -> tuple[dict, dict]:
    rounds = str(spec["workloads"][args.workload][args.size]["trace_rounds"])
    _, plain = worker(args, "--rounds", rounds)
    if "wrong" in plain:
        return plain, {}
    _, traced = worker(args, "--rounds", rounds, "--trace")
    if "wrong" in traced:
        return traced, {}
    if traced["outputs_sha256"] != plain["outputs_sha256"]:
        traced["wrong"] = "traced and untraced runs produced different outputs"
        return traced, {}
    reference_s = spec["calibration"]["reference_s"]
    layers = traced["layers"]
    layers["trace.overhead_s"] = (
        statistics.median(traced["round_s"]) * scale(traced["speed_samples"], reference_s)
        - statistics.median(plain["round_s"]) * scale(plain["speed_samples"], reference_s))
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    metrics = {name: (layers[name], units[name]) for name in units}
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    return traced, metrics


def main() -> int:
    spec = json.loads((HERE / "spec.json").read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the self-test's corpus")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "obidet" / "__init__.py").is_file():
        print(f"error: no obidet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    wrong = preflight_goldens()
    result, metrics = {}, {}
    if wrong is None:
        try:
            if args.trace:
                result, metrics = per_layer(args, spec, bench)
            else:
                result, metrics = end_to_end(args, spec)
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        wrong = result.get("wrong")
    if wrong is not None:
        print(f"WRONG ANSWER: {wrong}")
        print(json.dumps({"correct": False, "attempted": max(1, result.get("attempted", 1)),
                          "failed": 0, "metrics": {}}))
        return 1

    for line in result["failures"]:
        print(f"failed {line}")
    print(f"{args.workload} outputs_sha256 {result['outputs_sha256']}")
    reported = {m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if name in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
