"""Fast check of the benchmark harness on three small groups.

Usage: ``python3 bench/smoke.py`` (a few seconds; exit 0 when all holds).
It runs each code path once, ``verify`` and ``chartab`` through the
command line and ``chartab_lib`` through the library, first untraced with
seed 0 to take reference hashes, then traced with seed 1.  The traced pass
must match those hashes, must be flagged when one reference hash is
corrupted, and must record spans for every path.
"""
import sys

import run

JOBS = [["verify", "cyclic:5"], ["chartab", "sym:3"], ["chartab_lib", "q8"]]


def main() -> int:
    problems = []
    first = run.run_pass(0, 0, jobs=JOBS)
    reference = {run.job_key(j): j["sha256"] for j in first["jobs"]}
    problems += run.judge(first, reference)
    second = run.run_pass(1, 1, jobs=JOBS, trace=True)
    problems += [f"seed 1: {p}" for p in run.judge(second, reference)]

    corrupted = dict(reference, **{"chartab sym:3": "0" * 64})
    flagged = run.judge(second, corrupted)
    if flagged != ["chartab sym:3: output differs from the reference"]:
        problems.append(f"corrupted reference gave {flagged}")

    calls = second["trace"]["calls"]
    for layer, want in (("cli.main", 2), ("groups.verify_axioms", 1), ("chartab.character_table", 2)):
        if calls[layer] != want:
            problems.append(f"{layer} traced {calls[layer]} calls, want {want}")
    if second["trace"]["top_s"] > second["pass_s"]:
        problems.append("top-level spans exceed the pass time")

    for line in problems:
        print(f"FAILED {line}")
    print("smoke ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
