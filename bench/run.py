"""The quadsym benchmark: one workload, timed end to end or traced per layer.

Usage (from the root of a checkout):

    python3 bench/run.py --workload catalog_verify --seed 1 --seconds 55 --trace 0

Every pass runs in a fresh interpreter (``bench/worker.py``), and each
group of it in a child forked from that interpreter once the program is
imported, so the import is paid as a command-line user pays it and no
group's time depends on the groups before it.  Rounds of passes repeat,
each on the next CPU in turn, until ``--seconds`` is used up (at least
``MIN_ROUNDS``).  Each
group's stdout is hashed and compared with ``bench/reference.json``; a
group fails on a non-zero exit, an exception, a check with ``ok: false`` or
different output bytes.

With ``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` each round is an untraced pass followed by a traced one,
and the metrics are the per-layer ones.  The last stdout line is the JSON
result; the lines before it are the readable report.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from math import gcd
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"
SPANS_DIR = ROOT / ".bench_out"

MIN_ROUNDS = 2
# setup_s is the median of at least this many fresh imports: one from every
# pass worker, one set-up-only worker per round, and more at the end if short.
SETUP_SAMPLES = 12
PASS_TIMEOUT_S = 150
# a run ends, with an error if it must, before this many seconds
RUN_DEADLINE_S = 170
TABLE_LIMIT = 1024  # groups up to this order build a full n x n table
# The pace loop's nominal time.  Its lower quartile over a run was 4.3 to
# 5 ms in quiet phases of the 2-core Xeon (2.0 GHz) VM the benchmark was
# built on.  It sets the scale only: the gated times read about as they
# would on that host when quiet.
PACE_REF_S = 0.005


class PassFailed(RuntimeError):
    pass


def run_worker(cfg: dict, timeout: float = PASS_TIMEOUT_S, cpu: int | None = None) -> dict:
    """Run one worker interpreter, on ``cpu`` if given, and return its parsed
    result line.

    The worker gets a process group of its own, so that on a timeout or an
    interrupt the group's forked children are killed with it; the call
    returns only once no process of the group is left.
    """
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), json.dumps(cfg)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
        preexec_fn=None if cpu is None else lambda: os.sched_setaffinity(0, {cpu}),
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"worker timed out after {timeout:.0f} s") from exc
    finally:
        stop_group(proc)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-3:]
        raise PassFailed(f"worker exited with {proc.returncode}: {' | '.join(tail)}")
    return json.loads(lines[-1])


def stop_group(proc: subprocess.Popen) -> None:
    """Kill what is left of the worker's process group and wait for it.

    Killed children of a killed worker are reaped by init, not here; the
    loop waits for that, but not for ever where init does not reap.
    """
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            break
        proc.poll()
        time.sleep(0.01)
    proc.wait()


def run_pass(
    seed: int, index: int, *, workload=None, jobs=None, trace=False, spans_path=None, timeout=PASS_TIMEOUT_S, cpu=None
) -> dict:
    cfg = {
        "workload": workload,
        "jobs": jobs,
        "seed": seed,
        "pass": index,
        "trace": trace,
        "spans_path": str(spans_path) if spans_path else None,
    }
    return run_worker(cfg, timeout, cpu)


def job_key(job: dict) -> str:
    return f"{job['path']} {job['spec']}"


def judge(result: dict, reference: dict) -> list[str]:
    """Why each failed group of a pass failed; empty when all passed."""
    failures = []
    for job in result["jobs"]:
        key = job_key(job)
        if job["error"] is not None or job["code"] != 0:
            failures.append(f"{key}: exit {job['code']}" + (f", {job['error']}" if job["error"] else ""))
        elif not job["ok"]:
            failures.append(f"{key}: a check reported ok: false")
        elif reference.get(key) != job["sha256"]:
            failures.append(f"{key}: output differs from the reference")
    return failures


def euler_phi(e: int) -> int:
    return sum(1 for a in range(1, e + 1) if gcd(a, e) == 1)


def input_bases(result: dict) -> dict:
    jobs = result["jobs"]
    return {
        "input.groups": len(jobs),
        "input.elements": sum(j["n"] for j in jobs),
        "input.classes": sum(j["m"] for j in jobs),
        "input.units": sum(euler_phi(j["e"]) for j in jobs),
        "input.table_cells": sum(j["n"] ** 2 for j in jobs if j["n"] <= TABLE_LIMIT),
    }


def tail_percentile(values: list[float]) -> str:
    """The highest whole percentile that leaves at least ten samples above it."""
    n = len(values)
    if n < 11:
        return f"no percentile leaves 10 of {n} samples beyond it"
    value = sorted(values)[n - 11]
    return f"p{100 * (n - 10) / n:.1f} {value:.4f} ({n} samples, 10 beyond it)"


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return "single sample"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4f} q3 {q3:.4f}"


def environment(workload: str, seed: int, numpy_version: str) -> dict:
    sources = sorted((ROOT / "src" / "quadsym").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources + sorted((ROOT / "src" / "quadsym" / "data").glob("*")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        if path.suffix == ".py":
            lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "workload": workload,
        "seed": seed,
    }


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    return "ratio" if name.endswith("_share") else "count"


def layer_values(traced: list[dict], untraced: list[dict]) -> tuple[dict, bool]:
    """Per-layer metrics, all from the fastest traced pass so that self
    times add up to it, and whether call counts repeated in every pass."""
    best = min(traced, key=lambda p: p["pass_s"])
    values = {}
    for name, calls in best["trace"]["calls"].items():
        values[f"{name}.s"] = best["trace"]["s"][name]
        values[f"{name}.self_s"] = best["trace"]["self_s"][name]
        values[f"{name}.calls"] = calls
    values.update(input_bases(best))
    # pass_s as end_to_end takes it, traced minus untraced
    values["trace.overhead_s"] = sum(fastest_by_group(traced).values()) - sum(fastest_by_group(untraced).values())
    values["trace.top_share"] = best["trace"]["top_s"] / best["pass_s"]
    values["trace.spans"] = best["trace"]["spans"]
    repeat = all(
        p["trace"]["calls"] == best["trace"]["calls"] and p["trace"]["spans"] == values["trace.spans"]
        for p in traced
    )
    return values, repeat


def fastest_by_group(passes: list[dict]) -> dict[str, float]:
    """Each group's fastest time over the passes."""
    best: dict[str, float] = {}
    for p in passes:
        for job in p["jobs"]:
            key = job_key(job)
            best[key] = min(best.get(key, job["s"]), job["s"])
    return best


def host_pace(untraced: list[dict]) -> tuple[float, list[float]]:
    """The lower quartile of the run's pace loops over PACE_REF_S, and the
    loop times.

    A median would count how often bursts hit the loop; the groups' fastest
    times escape the bursts, and so does the lower quartile.
    """
    loops = [t for p in untraced for t in p["pace_s"]]
    return statistics.quantiles(loops, n=4)[0] / PACE_REF_S, loops


def end_to_end(untraced: list[dict], setups: list[float]) -> tuple[dict, dict]:
    """The gated figures and a note on how each was taken.

    Every group runs in a child forked from the pass worker, so a group's
    time does not depend on the groups run before it.  Other tenants of the
    host slow a group by up to 2x, in bursts of seconds to minutes, and a
    median over one run's passes moves with them.  A group's fastest time in
    the run escapes the bursts, so pass_s is the sum over groups of each
    group's fastest time and slowest_group_s the largest of those.  setup_s
    is a median of imports.  A phase that lasts the whole run slows the pace
    loop as well, which every group's child times just before the group, so
    the three times are divided by the run's pace.
    """
    passes = [p["pass_s"] for p in untraced]
    best = fastest_by_group(untraced)
    slowest = max(best, key=best.get)
    groups = [j["s"] for p in untraced for j in p["jobs"]]
    rss = [p["rss_mb"] for p in untraced]
    pace, _ = host_pace(untraced)
    measured = {
        "setup_s": statistics.median(setups),
        "pass_s": sum(best.values()),
        "slowest_group_s": best[slowest],
    }
    values = {name: value / pace for name, value in measured.items()}
    values["peak_rss_mb"] = statistics.median(rss)
    notes = {
        "setup_s": f"median of {len(setups)} fresh imports of quadsym.cli, {measured['setup_s']:.4f} s / pace; "
        f"{quartiles(setups)}",
        "pass_s": f"sum of each group's fastest of {len(passes)} passes, {measured['pass_s']:.4f} s / pace; "
        f"whole passes: median {statistics.median(passes):.4f}, {quartiles(passes)}, {tail_percentile(passes)}",
        "slowest_group_s": f"{slowest}, its fastest of {len(passes)}, {measured['slowest_group_s']:.4f} s / pace; "
        f"all group times: {tail_percentile(groups)}",
        "peak_rss_mb": f"median over passes of the largest peak RSS of a group's process; {quartiles(rss)}",
    }
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds, so run_worker stops the worker it waits on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "quadsym" / "cli.py").is_file():
        print(f"error: no quadsym sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads(REFERENCE.read_text())["outputs"]
    trace = bool(args.trace)
    spans_path = None
    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"

    # Each round runs on the next CPU in turn.  Other tenants do not slow the
    # CPUs alike, and a group's fastest time should not hang on which one
    # the scheduler happened to pick.
    cpus = sorted(os.sched_getaffinity(0))
    untraced, traced, setups, failures = [], [], [], []
    attempted = 0
    start = time.perf_counter()
    rounds = 0

    def left() -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - start)

    try:
        while True:
            round_start = time.perf_counter()
            cpu = cpus[rounds % len(cpus)]
            batch = [run_pass(args.seed, 2 * rounds, workload=args.workload, timeout=left(), cpu=cpu)]
            untraced.append(batch[0])
            if trace:
                batch.append(
                    run_pass(
                        args.seed,
                        2 * rounds + 1,
                        workload=args.workload,
                        trace=True,
                        spans_path=spans_path,
                        timeout=left(),
                        cpu=cpu,
                    )
                )
                traced.append(batch[1])
            setups.append(run_worker({"setup_only": True}, left(), cpu)["setup_s"])
            for result in batch:
                attempted += len(result["jobs"])
                failures += judge(result, reference)
                setups.append(result["setup_s"])
            rounds += 1
            # stop when one more round would overrun --seconds by more than stopping now falls short
            elapsed = time.perf_counter() - start
            if rounds >= MIN_ROUNDS and elapsed + (time.perf_counter() - round_start) / 2 > args.seconds:
                break
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_worker({"setup_only": True}, left())["setup_s"])
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = environment(args.workload, args.seed, untraced[0]["numpy"])
    print("env " + json.dumps(env, separators=(",", ":")))
    print(
        f"{args.workload} seed {args.seed}: {len(untraced)} untraced and {len(traced)} traced passes "
        f"in {time.perf_counter() - start:.1f} s; {attempted} groups attempted, {len(failures)} failed"
    )
    for line in failures[:10]:
        print(f"  FAILED {line}")
    e2e, notes = end_to_end(untraced, setups)
    pace, loops = host_pace(untraced)
    print(f"  pace {pace:.4f}: lower quartile of {len(loops)} pace loops over {PACE_REF_S} s; {quartiles(loops)}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in e2e.items():
        print(f"  {name:<16} {value:12.4f} {units[name]:<5} {notes[name]}")
    print(f"  {'error_rate':<16} {len(failures) / attempted:12.4f} ratio ({len(failures)} of {attempted} groups failed)")

    if trace:
        values, repeat = layer_values(traced, untraced)
        values["pace.loop_s"] = statistics.median(loops)
        print(f"per-layer metrics (fastest of {len(traced)} traced passes; call counts repeat: {repeat})")
        for name in sorted(values):
            print(f"  {name:<40} {values[name]:14.6f} {layer_unit(name)}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}

    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
