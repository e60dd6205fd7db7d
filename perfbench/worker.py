"""One workload in its own process; prints one JSON line of raw results.

    python3 -B perfbench/worker.py --workload NAME --seed N --size full
        (--seconds S | --rounds R | --setup-only) [--trace]

With --seconds, rounds run until the next one is not expected to end
within S seconds (at least one).  With --rounds, exactly R rounds run, so
a traced run repeats the work of an untraced one.  --setup-only stops at
the first timed operation.  Only the traced run installs the tracer.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import obidet  # noqa: E402,F401  (part of the measured set-up)
from obidet.gl_straighten import CapExceeded  # noqa: E402
import workloads  # noqa: E402
from calibrate import SpeedProbe  # noqa: E402


def _failure_kind(exc: Exception) -> str:
    if isinstance(exc, CapExceeded):
        return "cap"
    if isinstance(exc, workloads.Refused):
        return "refused"
    if isinstance(exc, RuntimeError) and "fuel exhausted" in str(exc):
        return "fuel"
    return "error"


def run(args) -> dict:
    spec = json.loads((HERE / "spec.json").read_text())
    params = spec["workloads"][args.workload][args.size]
    current = workloads.make_round(args.workload, args.seed, 0, params)
    first = time.perf_counter()
    if args.setup_only:
        return {"t_first": first}

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(spec["spans"], extra_modules=[workloads])
        tracer.install()
        first = time.perf_counter()

    digest = hashlib.sha256()
    item_s, round_s, failures = [], [], []
    attempted = 0
    index = 0
    with SpeedProbe(spec["calibration"]["every_s"]) as probe:
        while True:
            start, probe_before = time.perf_counter(), probe.spent
            current.prepare()
            for item in current.items:
                attempted += 1
                t0, probe_t0 = time.perf_counter(), probe.spent
                try:
                    out = item.compute()
                except Exception as exc:  # every exception is a counted failure
                    kind = _failure_kind(exc)
                    detail = traceback.format_exception_only(exc)[-1].strip()
                    failures.append(f"{kind}: {item.label} ({detail})")
                    certificate = f"FAILED {kind}"
                else:
                    try:
                        certificate = item.check(out)
                    except workloads.WrongAnswer as exc:
                        return {"t_first": first, "wrong": f"{item.label}: {exc}"}
                item_s.append(time.perf_counter() - t0 - (probe.spent - probe_t0))
                digest.update(certificate.encode() + b"\n\x00")
            round_s.append(time.perf_counter() - start - (probe.spent - probe_before))
            index += 1
            if args.rounds is not None:
                if index >= args.rounds:
                    break
            elif time.perf_counter() - first + sum(round_s) / len(round_s) > args.seconds:
                break
            current = workloads.make_round(args.workload, args.seed, index, params)

    result = {
        "t_first": first,
        "rounds": index,
        "round_s": round_s,
        "item_s": item_s,
        "attempted": attempted,
        "failures": failures,
        "outputs_sha256": digest.hexdigest(),
        "speed_samples": probe.samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    length = parser.add_mutually_exclusive_group(required=True)
    length.add_argument("--seconds", type=float)
    length.add_argument("--rounds", type=int)
    length.add_argument("--setup-only", action="store_true", dest="setup_only")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
