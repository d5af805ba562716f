#!/usr/bin/env python3
"""Layered benchmark for skeincalc (see perfbench/README.md).

    python3 perfbench/run.py --workload cover_sweep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seconds 35 [--trace 1]

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or the
per-layer split with ``--trace 1``).  The line before it records the machine,
the seed and what the gate does not cover: error_rate, operation counts and
latency_p90_ms where a run has at least ten samples beyond p90.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts(workload: str, seed: int) -> dict:
    import skeincalc

    facts = {"python": platform.python_version(), "cpu_count": os.cpu_count(),
             "cpu_model": _cpu_model(), "git_rev": _git_rev(),
             "seed": seed, "workload": workload}
    if hasattr(skeincalc, "BACKEND"):
        facts["backend"] = skeincalc.BACKEND
    return facts


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env["PYTHONIOENCODING"] = "utf-8"     # stdout is compared byte for byte
    env.pop("SKEINCALC_FORMAT", None)     # text unless --json is passed
    return env


def run_one(name: str, args) -> int:
    """Run one workload in this process: the record line, then the result."""
    from perfbench.metrics import END_TO_END, PER_LAYER
    from perfbench.workloads import WORKLOADS, Context

    units = PER_LAYER if args.trace else END_TO_END
    ctx = Context(str(ROOT), child_env(), args.seed, args.seconds)
    res = WORKLOADS[name](ctx, bool(args.trace))
    record = {**machine_facts(name, args.seed), "trace": args.trace,
              "seconds": args.seconds, **res.report(), "errors": res.errors,
              "metrics": res.metrics}
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                      "failed": res.failed,
                      "metrics": {m: {"value": v, "unit": units[m]}
                                  for m, v in res.metrics.items()}}))
    return 0


def run_all(names: list[str], args) -> int:
    """Run each workload in a fresh ``run.py`` process, so that no workload's
    children count in another's peak RSS, then print every metric by name."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        print(lines[-2])
        extra = {k: {"value": record[k], "unit": u} for k, u in
                 (("error_rate", "ratio"), ("latency_p90_ms", "ms"), ("operations", "count"))
                 if k in record}
        for metric, m in {**result["metrics"], **extra}.items():
            print(f"  {name:16} {metric:34} {m['value']:14.6g} {m['unit']}")
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"][name] = result["metrics"]
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "skeincalc" / "__init__.py").is_file():
        print(f"perfbench: no skeincalc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import skeincalc
    from perfbench.workloads import WORKLOADS

    if Path(skeincalc.__file__).resolve().parent != SRC / "skeincalc":
        print(f"perfbench: imported skeincalc from {skeincalc.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(list(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    return run_one(args.workload, args)


if __name__ == "__main__":
    sys.exit(main())
