"""The end-to-end perf ledger: one command for every workload.

    python3 benchmarks/ledger/run.py [--workload W] [--seed N] [--trace 0|1]
                                     [--runs R] [--out FILE]
    python3 benchmarks/ledger/run.py compare A.jsonl B.jsonl
    python3 benchmarks/ledger/run.py baseline RUNS.jsonl

With ``--workload`` one run happens in this process and its last line
of output is the JSON result.  Without it, or with ``--runs`` above 1,
every run is a fresh child process (seeds N, N+1, ...), and ``--out``
appends one record per run for ``compare`` and ``baseline``.
``--trace 1`` runs the workload untraced, then traced, and reports the
per-layer metrics and the tracing overhead instead of the end-to-end
ones.  Metric names, units, directions and bounds, and the length of a
run, live in ``BENCHMARK.json`` at the repo root; ``--seconds`` is
accepted only with that length, so every run does the same work.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
RUN_SECONDS = SPEC["run_seconds"]
WORK = HERE / ".work"
TRACES = WORK / "traces"
EXTRA_PREFIX = "ledger-extra "


def cpu_ticks() -> List[int]:
    """Ticks the machine's CPUs spent in each state, from ``/proc/stat``:
    user, nice, system, idle, iowait, irq, softirq, steal."""
    with open("/proc/stat", "r", encoding="utf-8") as handle:
        return [int(value) for value in handle.readline().split()[1:9]]


def steal_pct(before: List[int], after: List[int]) -> float:
    """Share of CPU time between two :func:`cpu_ticks` readings that the
    hypervisor gave to other guests while this one wanted to run."""
    spent = [b - a for a, b in zip(before, after)]
    return 100.0 * spent[7] / max(1, sum(spent))


def run_one(workload: str, seed: int, trace: bool, seconds: float = RUN_SECONDS,
            **sizes: Any) -> Dict[str, Any]:
    """One run in this process; returns the result record.  *seconds* and
    *sizes* are passed to the workload (tests run it small)."""
    from workloads import WORKLOADS

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    run = WORKLOADS[workload]
    try:
        if not trace:
            ticks = cpu_ticks()
            outcomes = [run(seed, seconds, work, **sizes)]
            # Printed so that runs the host starved can be told apart.
            outcomes[0].extras["host_steal_pct"] = (steal_pct(ticks, cpu_ticks()), "%")
            metrics = {name: outcomes[0].metrics[name] for name in END_TO_END}
            samples = outcomes[0].samples
        else:
            from spans import layer_metrics

            (work / "plain").mkdir()
            (work / "traced").mkdir()
            sizes["setups"] = 1
            plain = run(seed, seconds, work / "plain", **sizes)
            traced = run(seed, seconds, work / "traced", trace=True, **sizes)
            outcomes = [plain, traced]
            metrics = {
                "ledger.gen_lateness_p99_ms": 0.0,  # closed loops have no schedule
                "ledger.client_queue_ms_mean": 0.0,
                **traced.loadgen,
                **layer_metrics(traced.traces, traced.windows, traced.timed_from),
            }
            base = plain.metrics["latency_p50_ms"]
            metrics["ledger.trace_overhead_pct"] = (
                100.0 * (traced.metrics["latency_p50_ms"] - base) / base)
            samples = {name: len(traced.windows) for name in metrics}
            metrics = {name: float(metrics[name]) for name in PER_LAYER}
            kept = TRACES / f"{workload}-seed{seed}"
            shutil.rmtree(kept, ignore_errors=True)
            kept.mkdir(parents=True)
            for path in (work / "traced").glob("*.spans.json"):
                shutil.copy(path, kept / path.name)
            print(f"spans kept in {kept}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems = [p for o in outcomes for p in o.problems]
    units = {name: spec["unit"] for name, spec in {**END_TO_END, **PER_LAYER}.items()}
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "correct": not problems,
        "problems": problems,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "samples": {name: samples.get(name, 0) for name in metrics},
        "extra": {name: {"value": value, "unit": unit}
                  for o in outcomes[:1] for name, (value, unit) in o.extras.items()},
    }


def print_record(record: Dict[str, Any]) -> None:
    """Human-readable lines, then the extras line, then the result JSON."""
    label = f"{record['workload']} seed={record['seed']}"
    for name, metric in record["metrics"].items():
        print(f"{label:<24} {name:<40} {metric['value']:>14.4f} "
              f"{metric['unit']:<6} n={record['samples'][name]}")
    for name, metric in record["extra"].items():
        print(f"{label:<24} {name:<40} {metric['value']:>14.4f} "
              f"{metric['unit']:<6} (not gated)")
    for problem in record["problems"]:
        print(f"{label:<24} CHECK FAILED: {problem}")
    print(f"{label:<24} attempted={record['attempted']} failed={record['failed']} "
          f"correct={record['correct']}")
    print(EXTRA_PREFIX + json.dumps(record["extra"]))
    print(json.dumps({key: record[key]
                      for key in ("correct", "attempted", "failed", "metrics")}),
          flush=True)


def run_children(workloads: List[str], seed: int, trace: bool, runs: int,
                 out: str) -> int:
    """Every (workload, run) in a fresh child; returns the exit code.

    A run whose checks failed still printed its result, and is recorded
    with ``correct: false`` so that ``compare`` can count it.
    """
    status = 0
    for workload in workloads:
        for run in range(runs):
            argv = [sys.executable, str(Path(__file__).resolve()),
                    "--workload", workload, "--seed", str(seed + run),
                    "--trace", str(int(trace))]
            child = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            lines = child.stdout.splitlines()
            printed = len(lines) >= 2 and lines[-2].startswith(EXTRA_PREFIX)
            print("\n".join(lines[:-2] if printed else lines), flush=True)
            if child.returncode != 0:
                print(f"{workload}: run failed (exit {child.returncode})", flush=True)
                status = 1
            if not printed:
                continue
            record = json.loads(lines[-1])
            record.update(workload=workload, seed=seed + run, trace=int(trace),
                          extra=json.loads(lines[-2][len(EXTRA_PREFIX):]))
            if out:
                with open(out, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(record) + "\n")
    return status


# -- compare and baseline --------------------------------------------------------
def load_records(path: str) -> List[Dict[str, Any]]:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def quartiles(values: List[float]) -> List[float]:
    """[q1, median, q3], as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def verdict(parent: Dict[int, float], change: Dict[int, float],
            better: str, bound: float) -> Dict[str, Any]:
    """Classify one metric on one workload by the paired-run rule.

    *parent* and *change* map seed -> value; runs with the same seed
    form a pair.  ``improved`` needs >= 10 pairs, wins in >= 9/10 of
    them and a median gap wider than the parent's quartile spread;
    ``worse`` is a median worse by more than *bound*; a parent spread
    wider than the bound leaves the rest ``unresolved`` unless every
    change run beats every parent run.
    """
    sign = 1.0 if better == "lower" else -1.0
    p_q, c_q = quartiles(list(parent.values())), quartiles(list(change.values()))
    gain = sign * (p_q[1] - c_q[1])
    pairs = sorted(set(parent) & set(change))
    wins = sum(1 for s in pairs if sign * (parent[s] - change[s]) > 0)
    spread = p_q[2] - p_q[0]
    every_run_better = all(sign * (p - c) > 0
                           for p in parent.values() for c in change.values())
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > spread:
        label = "improved"
    elif -gain > bound * abs(p_q[1]):
        label = "worse"
    elif spread > bound * abs(p_q[1]) and not every_run_better:
        label = "unresolved"
    else:
        label = "unchanged"
    return {"parent": p_q, "change": c_q, "pairs": len(pairs), "wins": wins,
            "verdict": label}


def failures(records: List[Dict[str, Any]]) -> Dict[str, int]:
    """Failed operations, and runs whose correctness checks failed."""
    return {"ops": sum(r["failed"] for r in records),
            "runs": sum(1 for r in records if not r["correct"])}


def compare(parent_path: str, change_path: str) -> int:
    """Print one row per (workload, end-to-end metric); 1 if any is worse
    or the change has more failures."""
    parent, change = load_records(parent_path), load_records(change_path)
    status = 0
    workloads = [w["name"] for w in SPEC["workloads"]]
    for workload in workloads:
        a = [r for r in parent if r["workload"] == workload and not r["trace"]]
        b = [r for r in change if r["workload"] == workload and not r["trace"]]
        if not a or not b:
            continue
        fa, fb = failures(a), failures(b)
        more_failures = fb["ops"] > fa["ops"] or fb["runs"] > fa["runs"]
        status |= more_failures
        print(f"{workload}: parent {len(a)} runs, change {len(b)} runs, "
              f"failed ops {fa['ops']} -> {fb['ops']}, "
              f"incorrect runs {fa['runs']} -> {fb['runs']}")
        for name, spec in END_TO_END.items():
            row = verdict({r["seed"]: r["metrics"][name]["value"] for r in a},
                          {r["seed"]: r["metrics"][name]["value"] for r in b},
                          spec["better"], spec["bound"])
            if row["verdict"] == "improved" and more_failures:
                row["verdict"] = "unresolved"  # a gain never counts with more failures
            status |= row["verdict"] == "worse"
            p, c = row["parent"], row["change"]
            print(f"  {name:<16} parent {p[1]:>11.4f} [{p[0]:.4f}, {p[2]:.4f}]  "
                  f"change {c[1]:>11.4f} [{c[0]:.4f}, {c[2]:.4f}] {spec['unit']:<3} "
                  f"bound {spec['bound']:.2f}  wins {row['wins']}/{row['pairs']}  "
                  f"{row['verdict']}")
    return int(status)


def baseline(records_path: str) -> int:
    """Write ``baseline.json``: per workload and metric, the median and
    quartiles of the recorded untraced runs."""
    records = [r for r in load_records(records_path) if not r["trace"]]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    document: Dict[str, Any] = {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": SPEC["run_seconds"],
        "workloads": {},
    }
    for workload in [w["name"] for w in SPEC["workloads"]]:
        runs = [r for r in records if r["workload"] == workload]
        if not runs:
            continue
        metrics: Dict[str, Any] = {}
        for source in ("metrics", "extra"):
            for name in runs[0][source]:
                values = [r[source][name]["value"] for r in runs]
                q1, median, q3 = quartiles(values)
                metrics[name] = {"median": median, "q1": q1, "q3": q3,
                                 "unit": runs[0][source][name]["unit"],
                                 "gated": source == "metrics"}
        document["workloads"][workload] = {
            "runs": len(runs), "seeds": [r["seed"] for r in runs], "metrics": metrics}
    (HERE / "baseline.json").write_text(json.dumps(document, indent=2) + "\n")
    return 0


def main(argv: List[str]) -> int:
    if argv[:1] == ["compare"] and len(argv) == 3:
        return compare(argv[1], argv[2])
    if argv[:1] == ["baseline"] and len(argv) == 2:
        return baseline(argv[1])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    # Accepted so callers may state the length; any other would make
    # runs incomparable, because the closed loops size their work by it.
    parser.add_argument("--seconds", type=float, choices=(float(RUN_SECONDS),),
                        default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                        default=0)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--out", default="")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"ledger: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.workload and args.runs == 1 and not args.out:
        sys.path.insert(0, str(ROOT / "src"))
        record = run_one(args.workload, args.seed, bool(args.trace))
        print_record(record)
        return 0 if record["correct"] else 1
    workloads = [args.workload] if args.workload else [w["name"] for w in SPEC["workloads"]]
    return run_children(workloads, args.seed, bool(args.trace), args.runs, args.out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
