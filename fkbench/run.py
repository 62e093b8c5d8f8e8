#!/usr/bin/env python3
"""fklab benchmark: per-command CLI time on three workloads, plus a layer trace.

Usage (from the repository root):

    python3 fkbench/run.py --workload quasicrystal --seed 0 --seconds 40 --trace 0
    python3 fkbench/run.py --workload circle --seed 3 --trace 1

Every CLI command runs in a fresh process (``child.py``), the way users run
it, with ``--threads 1``.  Each execution is checked (exit code, config hash,
the command's certificate, and at seed 0 the values in ``reference.json``).

``--trace 0`` cycles through the workload's commands until ``--seconds`` is
spent and reports the end-to-end metrics: median set-up time, the sum of
the per-command medians and the largest peak RSS; the per-command medians
and the failure rate are printed above the result line.  ``--trace 1`` runs
each command once untraced and once traced, and reports the per-layer
metrics.  Every run appends its record (metadata,
samples, per-command trace summaries) to ``fkbench/_runs/records.jsonl``;
spans and counters of traced commands go to ``fkbench/_runs/spans-*``.
The last line of standard output is one JSON object with the results.

``--write-reference`` (seed 0 only) stores the reference values instead of
comparing against them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from checks import certify, compare, reference_values
from workloads import WORKLOADS, config_text

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "_runs"
REFERENCE = BENCH / "reference.json"
CHILD_TIMEOUT_S = 60.0

END_TO_END_UNITS = {"setup_s": "s", "commands_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # the probe byte-compiles fklab once, as installing the package would, so
    # set-up time never includes compiling it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def probe_program() -> dict:
    """Import fklab once in a fresh process: warms the caches, reads versions."""
    code = (
        "import json, numpy, fklab.cli; from fklab._accel import USE_NUMBA; "
        "print(json.dumps({'numpy': numpy.__version__, 'use_numba': USE_NUMBA}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, timeout=120
    )
    if proc.returncode != 0:
        raise SystemExit(f"fkbench: cannot import fklab from {SRC}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"git_sha": None, "git_dirty": None}

    def git(*args):
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        ).stdout.strip()

    return {
        "git_sha": git("rev-parse", "HEAD") or None,
        "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
    }


def source_hash() -> str:
    """sha256 over the library sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted((SRC / "fklab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class Runner:
    """Executes and checks the commands of one workload at one seed."""

    def __init__(self, workload: str, seed: int, work: Path, reference: dict, write_reference: bool):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.config = work / "run.ini"
        raw = config_text(workload, seed).encode("utf-8")
        self.config.write_bytes(raw)
        self.config_hash = hashlib.sha256(raw).hexdigest()[:16]
        self.reference = reference if seed == 0 else None
        self.write_reference = write_reference
        self.env = child_env()
        self.attempted = 0
        self.failures: list = []

    def execute(self, command: str, spans: Path = None) -> dict:
        """One command in a fresh process; returns its timings, or None on failure."""
        self.attempted += 1
        out = self.work / f"out-{self.attempted}"
        result = self.work / "result.json"
        result.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH / "child.py"), str(result), str(self.config)]
        argv += [command, str(out), str(self.seed)] + ([str(spans)] if spans else [])
        spawn = time.monotonic()
        try:
            proc = subprocess.run(
                argv, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return self._fail(command, [f"timed out after {CHILD_TIMEOUT_S} s"], out)
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            return self._fail(command, [f"process exit code {proc.returncode}: {tail}"], out)
        rec = json.loads(result.read_text(encoding="utf-8"))
        if rec["exit_code"] != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            return self._fail(command, [f"fklab exit code {rec['exit_code']}: {tail}"], out)
        fails = certify(command, out, self.config_hash)
        if not fails and self.write_reference:
            self.reference.setdefault(self.workload, {})[command] = reference_values(command, out)
        elif not fails and self.reference is not None:
            fails = compare(reference_values(command, out), self.reference[self.workload][command])
        if fails:
            return self._fail(command, fails, out)
        shutil.rmtree(out, ignore_errors=True)
        rec["setup_s"] = rec.pop("ready_monotonic") - spawn
        return rec

    def _fail(self, command, messages, out):
        self.failures.append({"command": command, "messages": messages})
        for m in messages:
            print(f"FAILED {self.workload} {command}: {m}", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        return None


def measure(runner: Runner, commands, seconds: float):
    """Cycle through the commands, starting one only while it still fits in the run."""
    samples = {c: [] for c in commands}
    last = {}
    deadline = time.monotonic() + seconds
    i = 0
    while True:
        command = commands[i % len(commands)]
        if i >= len(commands) and time.monotonic() + last[command] > deadline:
            break
        began = time.monotonic()
        rec = runner.execute(command)
        last[command] = time.monotonic() - began
        if rec is not None:
            samples[command].append(rec)
        i += 1
    return samples


def sample_report(samples) -> dict:
    """Print per-command medians; return the end-to-end metrics (empty if a command never passed)."""
    for command, recs in samples.items():
        times = [r["command_s"] for r in recs]
        if times:
            name = command.replace("-", "_") + "_s"
            print(
                f"  {name:<16} {statistics.median(times):.4f} s  median of {len(times)}"
                f"  (min {min(times):.4f}, max {max(times):.4f})"
            )
    if not all(samples.values()):
        return {}
    runs = [r for recs in samples.values() for r in recs]
    medians = [statistics.median(r["command_s"] for r in recs) for recs in samples.values()]
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "commands_s": sum(medians),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
    }
    return {n: (v, END_TO_END_UNITS[n]) for n, v in metrics.items()}


PER_LAYER_UNITS = {
    "lagrangians.self_pct": "%",
    "lagrangians.calls": "count",
    "lagrangians.points_evaluated": "count",
    "lagrangians.points_per_call": "ratio",
    "environments.self_pct": "%",
    "environments.materializations": "count",
    "environments.points_materialized": "count",
    "environments.materialized_per_evaluated": "ratio",
    "exact.self_pct": "%",
    "exact.membership_tests": "count",
    "chain_opt.self_pct": "%",
    "chain_opt.solves": "count",
    "chain_opt.sweeps": "count",
    "chain_opt.polish_runs": "count",
    "chain_opt.ground_energy_calls": "count",
    "kernels.chain_dp_pct": "%",
    "kernels.chain_dp_cells": "count",
    "kernels.phi_dp_pct": "%",
    "kernels.phi_dp_cells": "count",
    "kernels.simplex_pct": "%",
    "kernels.simplex_pivots": "count",
    "mane.self_pct": "%",
    "mane.tables_built": "count",
    "mane.tables_distinct": "count",
    "holonomic_lp.self_pct": "%",
    "holonomic_lp.lp_vars": "count",
    "towers.self_pct": "%",
    "towers.floors": "count",
    "cli.self_pct": "%",
    "cli.bytes_written": "count",
    "trace.traced_s": "s",
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
    "trace.spans": "count",
}


def layer_metrics(totals: Counter, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics from trace values summed over the workload's commands.

    A ``_pct`` time is a share of the summed traced command time, so a layer a
    workload never calls reads 0 % rather than a constant 0 s.
    """
    evaluated = totals["lagrangians.points_evaluated"]
    metrics = {
        "lagrangians.points_per_call": evaluated / max(totals["lagrangians.calls"], 1),
        "environments.materialized_per_evaluated": totals["environments.points_for_potentials"]
        / max(evaluated, 1),
        "trace.traced_s": traced_s,
        "trace.overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
    }
    for name, unit in PER_LAYER_UNITS.items():
        if unit == "count":
            metrics[name] = totals[name]
        elif name not in metrics:
            metrics[name] = 100.0 * totals[name[: -len("pct")] + "s"] / traced_s
    return {name: metrics[name] for name in PER_LAYER_UNITS}


def trace(runner: Runner, commands, spans_dir: Path):
    """Each command once untraced and once traced; returns per-command rows and totals."""
    spans_dir.mkdir(parents=True, exist_ok=True)
    rows = {}
    totals = Counter()
    for command in commands:
        plain = runner.execute(command)
        traced = runner.execute(command, spans_dir / f"{command}.json.gz")
        if plain is None or traced is None:
            continue
        summary = traced["trace"]
        rows[command] = {
            "untraced_s": plain["command_s"],
            "traced_s": traced["command_s"],
            "overhead_s": traced["command_s"] - plain["command_s"],
            **summary,
        }
        totals.update(summary["values"])
    return rows, totals


def trace_report(rows, totals, commands) -> dict:
    """Print per-command layer shares; return the per-layer metrics (empty if a command failed)."""
    for command, row in rows.items():
        values, traced_s = row["values"], row["traced_s"]
        shares = {f"{k}.self": v for k, v in row["self_s"].items() if k != "_kernels"}
        shares.update({k[:-2]: v for k, v in values.items() if k.startswith("kernels.") and k.endswith("_s")})
        top = sorted(shares.items(), key=lambda kv: -kv[1])[:4]
        print(
            f"  {command:<14} untraced {row['untraced_s']:.3f} s  traced {traced_s:.3f} s"
            f"  overhead {row['overhead_s']:+.3f} s"
            f"  unattributed {100 * values['trace.unattributed_s'] / traced_s:.2f}%  top: "
            + "  ".join(f"{name} {100 * t / traced_s:.1f}%" for name, t in top)
        )
    if len(rows) < len(commands):
        return {}
    traced_s = sum(row["traced_s"] for row in rows.values())
    untraced_s = sum(row["untraced_s"] for row in rows.values())
    return {n: (v, PER_LAYER_UNITS[n]) for n, v in layer_metrics(totals, traced_s, untraced_s).items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "fklab" / "cli.py").is_file():
        print(f"fkbench: no fklab sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_reference and args.seed != 0:
        print("fkbench: --write-reference needs --seed 0", file=sys.stderr)
        return 2
    info = probe_program()
    reference = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
    commands = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = RUNS / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(args.workload, args.seed, work, reference, args.write_reference)
        meta = {
            **git_state(),
            "source_sha256": source_hash(),
            "python": platform.python_version(),
            "numpy": info["numpy"],
            "use_numba": info["use_numba"],
            "nproc": len(os.sched_getaffinity(0)),
            "workload": args.workload,
            "seed": args.seed,
            "config_hash": runner.config_hash,
            "trace": args.trace,
        }
        started = time.monotonic()
        if args.trace:
            rows, totals = trace(runner, commands, RUNS / f"spans-{args.workload}-seed{args.seed}")
        else:
            samples = measure(runner, commands, args.seconds)
        wall = time.monotonic() - started
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(runner.failures)
    attempted = runner.attempted
    print(f"fkbench {tag}: {attempted} command runs, {failed} failed, {wall:.1f} s")
    if meta["use_numba"]:
        print("WARNING: USE_NUMBA is True; the baseline is the numpy path, so this record is flagged")
    print("meta " + json.dumps(meta, sort_keys=True))
    record = {"meta": meta, "numba_flagged": meta["use_numba"], "failures": runner.failures}
    if args.trace:
        record["commands"] = rows
        metrics = trace_report(rows, totals, commands)
    else:
        record["samples"] = samples
        metrics = sample_report(samples)
    print(f"  {'failure_rate':<16} {failed / attempted:.4f} ratio  ({failed} of {attempted})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<16} {value if isinstance(value, int) else format(value, '.6g')} {unit}")
    record["metrics"] = {n: v for n, (v, _) in metrics.items()}
    with open(RUNS / "records.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    if args.write_reference:
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
