"""Write bench/reference.json: the sha256 of every group's stdout.

Usage: ``python3 bench/make_reference.py``.  Each workload runs once with
seed 0 and once with seed 7 (a different group order and a different
``--seed`` for the program); the file is written only if every group
passed its checks and both seeds gave identical bytes.
"""
import json
import sys

import run

SEEDS = (0, 7)


def main() -> int:
    outputs = {}
    for workload in run.WORKLOADS:
        hashes = []
        for seed in SEEDS:
            result = run.run_pass(seed, 0, workload=workload)
            bad = [run.job_key(j) for j in result["jobs"] if not j["ok"]]
            if bad:
                print(f"error: {workload} seed {seed}: checks failed for {bad}", file=sys.stderr)
                return 1
            hashes.append({run.job_key(j): j["sha256"] for j in result["jobs"]})
        if hashes[0] != hashes[1]:
            differ = sorted(k for k in hashes[0] if hashes[0][k] != hashes[1].get(k))
            print(f"error: {workload}: output depends on the seed for {differ}", file=sys.stderr)
            return 1
        outputs.update(hashes[0])
        print(f"{workload}: {len(hashes[0])} groups, seeds {SEEDS} byte-identical")
    doc = {"seeds_compared": list(SEEDS), "outputs": dict(sorted(outputs.items()))}
    run.REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {run.REFERENCE.relative_to(run.ROOT)} ({len(outputs)} outputs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
