"""Pipeline benchmark for caseline: end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload encode-paper --seed 0 \\
        --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25

The workloads are described in ``perfbench/workloads.json``; the
metrics, their units and their bounds in ``BENCHMARK.json``.  Each
measurement runs in a fresh worker process (``worker.py``) that imports
caseline from ``src/``, so peak RSS and set-up time belong to that
workload alone.  With ``--trace 0`` the workload is set up in
``SETUP_RUNS`` fresh processes, one after another, and ``setup_s`` is
their median; the last one then measures.  With ``--trace 1`` one
process sets up and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it print every metric with its unit and the run facts.  Outside
a checkout (no ``src/caseline``) the script exits 2 without a result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_RUNS = 3
# A run must end within 180 s; the worker is stopped before that.
DEADLINE_S = 170.0


def fail(message: str, code: int = 1) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def worker_env() -> dict:
    """The worker's environment: caseline from this checkout, no
    bytecode written into the checkout, fixed string hashing.  The
    worker fixes its BLAS thread count itself."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


class Worker:
    """One worker process, stopped at the run's deadline."""

    def __init__(self, argv: list[str], deadline: float):
        self.started = monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *argv],
            stdout=subprocess.PIPE, text=True, env=worker_env(),
            cwd=ROOT)
        self.timer = threading.Timer(max(0.0, deadline - monotonic()),
                                     self.proc.kill)
        self.timer.start()

    def read_until(self, prefix: str) -> str | None:
        """Forward the worker's lines until one starts with prefix."""
        for line in self.proc.stdout:
            if line.startswith(prefix):
                return line[len(prefix):].strip()
            print(line, end="")
        return None

    def close(self) -> int:
        """Drain and reap the process; its exit code."""
        try:
            for line in self.proc.stdout:
                print(line, end="")
        finally:
            code = self.proc.wait()
            self.timer.cancel()
            self.proc.stdout.close()
        return code


def measure(args, workdir: Path) -> tuple[list[float], dict | None]:
    """Set-up times of every worker, and the measuring worker's result."""
    deadline = monotonic() + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    runs = 1 if args.trace else SETUP_RUNS
    setups, result = [], None
    for i in range(runs):
        last = i == runs - 1
        argv = base + ["--workdir", str(workdir / str(i))]
        if not last:
            argv.append("--setup-only")
        worker = Worker(argv, deadline)
        try:
            if worker.read_until("READY") is not None:
                setups.append(monotonic() - worker.started)
            if last:
                line = worker.read_until("RESULT ")
                result = json.loads(line) if line else None
        except BaseException:
            worker.proc.kill()
            raise
        finally:
            code = worker.close()
        if code != 0 or len(setups) != i + 1:
            return setups, None
    return setups, result


def report(manifest: dict, args, setups: list[float],
           result: dict) -> dict | None:
    """The result line, after printing every metric with its unit."""
    measured = dict(result["metrics"])
    measured["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    facts = {**result["facts"], "setup_runs": len(setups),
             "iterations": len(result["iteration_walls"])}
    print(f"facts {json.dumps(facts, sort_keys=True)}")
    print("setup_s of each run: " + " ".join(f"{s:.4f}" for s in setups))
    print("wall_s of each iteration: "
          + " ".join(f"{s:.4f}" for s in result["iteration_walls"]))
    for name, m in sorted(measured.items()):
        print(f"{args.workload:14} {name:24} {m['value']:.6g} {m['unit']}")
    for error in result["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    if args.trace:
        for key, (calls, total, self_s) in sorted(
                result.get("spans", {}).items()):
            print(f"span {key:58} calls {calls:10.1f} "
                  f"s {total:9.4f} self_s {self_s:9.4f}")
        layers = result.get("layers")
        if layers is None:
            return None
        for name, value in layers.items():
            print(f"layer {name:40} {value:.6g}")
        wanted, values = manifest["per_layer"], layers
    else:
        wanted = manifest["end_to_end"]
        values = {k: m["value"] for k, m in measured.items()}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"no value for {', '.join(missing)}")
        return None
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m["name"]: {"value": values[m["name"]],
                                    "unit": m["unit"]} for m in wanted}}


def run_all(args) -> int:
    """Every workload, each through this script in a fresh process."""
    summary = {}
    for name in json.loads((HERE / "workloads.json").read_text()):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return fail(f"{name} failed with exit code {proc.returncode}")
        summary[name] = json.loads(lines[-1])
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Stopping the benchmark stops its worker too (see measure()).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "caseline" / "__init__.py").is_file():
        return fail(f"no caseline sources under {ROOT / 'src'}", 2)
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in manifest["workloads"]]
    if args.workload == "all":
        return run_all(args)
    if args.workload not in names:
        return fail(f"unknown workload {args.workload!r}; "
                    f"choose from {', '.join(names)}", 2)
    workdir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups, result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may share it
            WORK_ROOT.rmdir()
    if result is None:
        return fail("the worker did not finish")
    line = report(manifest, args, setups, result)
    if line is None:
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
