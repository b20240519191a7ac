"""Run the benchmark: one workload, or all of them, each in a fresh process.

    python3 perfbench/run.py --workload serve-zipf --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py                      # every workload, seed 0
    python3 perfbench/run.py --save results/a     # also keep each result as JSON

Each workload runs in a child process started from this one with a pinned
environment: ``REPRO_TUNE_PROFILE=off``, every other ``REPRO_*`` variable
removed, and numeric-library thread pools capped at the core count.  A
host tuning profile under ``~/.cache/repro/`` or a stray knob in the shell
would otherwise change the program being measured.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  This file imports nothing from the
program, so it also runs where the program is missing, and then fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("render-scanpath", "serve-zipf", "serve-pool", "prune-finetune")
#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 170
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pinned_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_TUNE_PROFILE"] = "off"
    cores = str(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    for var in THREAD_VARS:
        env[var] = cores
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, seconds: float, trace: int) -> tuple[int, str]:
    trace_out = os.path.join(HERE, "out", f"{workload}-seed{seed}.trace.json")
    cmd = [
        sys.executable, "-m", "perfbench.child",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--trace-out", trace_out,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=pinned_env(), stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, text=True
        )
    except subprocess.TimeoutExpired as exc:
        sys.stderr.write(f"{workload}: no result within {CHILD_TIMEOUT_S} s\n")
        return 1, exc.stdout or ""
    return proc.returncode, proc.stdout


def last_json(stdout: str) -> dict | None:
    lines = [line for line in stdout.splitlines() if line.strip()]
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="directory to keep each result in, as JSON")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.stderr.write(f"the program is missing: no src/repro under {ROOT}\n")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        code, stdout = run_child(name, args.seed, args.seconds, args.trace)
        result = last_json(stdout)
        if code != 0 or result is None:
            sys.stdout.write(stdout)
            sys.stderr.write(f"{name}: failed (exit code {code})\n")
            return code or 1
        if len(names) == 1:
            sys.stdout.write(stdout)
        else:
            sys.stdout.write("".join(f"[{name}] {line}\n" for line in stdout.splitlines()[:-1]))
            for metric, m in result["metrics"].items():
                print(f"[{name}] {metric} = {m['value']:.6g} {m['unit']}")
            print(f"[{name}] attempted {result['attempted']}, failed {result['failed']}")
        if args.save:
            os.makedirs(args.save, exist_ok=True)
            path = os.path.join(args.save, f"{name}-seed{args.seed}-trace{args.trace}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"workload": name, "seed": args.seed, "trace": args.trace, **result}, fh)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = m
    if len(names) > 1:
        print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
