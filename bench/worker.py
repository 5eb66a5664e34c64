"""One benchmark pass in a fresh interpreter.

Usage: ``python3 bench/worker.py '<json config>'``; ``bench/run.py`` builds
the config.  The first thing the worker does is import ``quadsym.cli`` from
the checkout's ``src`` and time it: that is the set-up every command-line
call pays.  With ``"setup_only"`` it stops there.  Otherwise it runs the
pass's groups in an order shuffled by the seed, each in a forked child,
through the command line's ``main`` or, for groups with more classes than
the command line accepts, through the same library pipeline that
``quadsym chartab`` runs.  The child first times the pace loop, then
times the group around that call only; the group's stdout is hashed
afterwards in the worker.  The result is one JSON line on stdout.
"""
import functools
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Groups past the command line's class cap go through the library with the
# cap raised to this; dihedral:12*sym:4 has 45 classes.
LIB_MAX_CLASSES = 64
# iterations of the pace loop, about 5 ms on a quiet host
PACE_LOOP_N = 60_000

WORKLOADS = {
    # None: the program's own default catalog (56 groups).
    "catalog_verify": None,
    "chartab_tables": [
        ("chartab", "sym:7"),
        ("chartab", "alt:7"),
        ("chartab_lib", "cyclic:11*sym:3"),
        ("chartab_lib", "dihedral:12*sym:4"),
    ],
}


def _import_program() -> float:
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import quadsym.cli  # noqa: F401

    elapsed = time.perf_counter() - start
    if not os.path.abspath(sys.modules["quadsym"].__file__).startswith(SRC + os.sep):
        raise SystemExit(f"quadsym was imported from outside {SRC}")
    return elapsed


def _run_cli(command: str, spec: str, seed: int) -> int:
    from quadsym import cli

    return cli.main([command, spec, "--json", "--seed", str(seed)])


def _run_chartab_lib(spec: str, seed: int) -> int:
    """``quadsym chartab --json`` for one group, with the class cap raised.

    Mirrors the command's pipeline and JSON fields; every call goes through
    the module attribute so a traced pass records it.
    """
    import json

    from quadsym import chartab, groups, groupspec, reciprocity

    G = groups.make_group(groupspec.parse_group_spec(spec), max_order=groups.DEFAULT_MAX_ORDER)
    S = groups.conjugacy_classes(G)
    split = reciprocity.real_complex_split(S)
    D = reciprocity.discriminant(G, S, split)
    T = chartab.character_table(G, S, split, seed=seed, max_classes=LIB_MAX_CLASSES)
    chartab.verify_orthogonality(G, S, T)
    det = chartab.det_identities(G, S, split, T, D)
    obj = {
        "label": G.label,
        "n": G.n,
        "m": T.m,
        "conductor": T.conductor,
        "prime": T.prime,
        "class_order": list(T.class_order),
        "degrees": list(T.degrees),
        "rows": [[list(z.coeffs) for z in row] for row in T.entries],
        "det_squared": det.det_squared,
        "ell": det.ell,
        "d": D.value.decimal(),
        "checks": [{"name": c.name, "ok": c.ok, "witness": c.witness} for c in det.checks],
    }
    print(json.dumps(obj, separators=(",", ":")))
    return 0 if det.ok else 1


RUNNERS = {
    "verify": functools.partial(_run_cli, "verify"),
    "chartab": functools.partial(_run_cli, "chartab"),
    "chartab_lib": _run_chartab_lib,
}


def _outcome(path: str, code, stdout: str, error) -> dict:
    """Exit code, checks and the sizes the input bases are made of."""
    import hashlib
    import json

    out = {
        "sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        "code": code,
        "error": error,
        "ok": False,
        "n": 0,
        "m": 0,
        "e": 0,
    }
    if code != 0 or error is not None:
        return out
    try:
        obj = json.loads(stdout)
    except ValueError:
        out["error"] = "stdout is not one JSON object"
        return out
    checks_ok = all(c["ok"] for c in obj["checks"])
    out["ok"] = checks_ok and obj.get("theorem_ok", True)
    out.update(n=obj["n"], m=obj["m"], e=obj["exponent" if path == "verify" else "conductor"])
    return out


def pace_loop() -> float:
    """The time of a fixed loop of pure-Python arithmetic.

    It never touches the program, so only the host moves it: ``run.py``
    divides a run's times by the loop's lower quartile in the run.
    """
    start = time.perf_counter()
    x = 0
    for i in range(PACE_LOOP_N):
        x += i * i % 7
    return time.perf_counter() - start


def _run_group(path: str, spec: str, seed: int, tracer) -> dict:
    """Time the pace loop, then run one group with its stdout and stderr
    captured; the raw result."""
    import contextlib
    import io
    import resource

    pace_s = pace_loop()
    out, err = io.StringIO(), io.StringIO()
    error = None
    if tracer is not None:
        tracer.group = spec
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = RUNNERS[path](spec, seed)
        except Exception as exc:  # one failing group must not stop the pass
            code = None
            error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    stderr = err.getvalue()
    if error is None and code != 0 and stderr:
        error = stderr.strip().splitlines()[-1]
    return {
        "s": seconds,
        "pace_s": pace_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "code": code,
        "stdout": out.getvalue(),
        "error": error,
        "spans": tracer.spans if tracer is not None else None,
    }


def _run_forked(path: str, spec: str, seed: int, tracer) -> dict:
    """``_run_group`` in a child forked from this interpreter.

    Every group then starts from the same state: the program imported and
    nothing run yet, as for a user who runs ``quadsym <command> <spec>``.
    Run in one process, a group's time depends on the groups before it (the
    allocator's state decides, for one, whether sl2:8's axiom check takes
    1 s or 2.9 s), so a shuffled order would measure the order.
    """
    import json

    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        status = 1
        try:
            raw = _run_group(path, spec, seed, tracer)
            with os.fdopen(write_fd, "w") as fh:
                json.dump(raw, fh, separators=(",", ":"))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        return {"s": 0.0, "pace_s": None, "rss_mb": 0.0, "code": None, "stdout": "", "spans": [],
                "error": f"group process ended with wait status {status}"}
    return json.loads(data)


def run_pass(cfg: dict) -> dict:
    import random

    import numpy

    from quadsym import cli

    jobs = cfg["jobs"]
    if jobs is None:
        jobs = WORKLOADS[cfg["workload"]]
    if jobs is None:
        jobs = [("verify", spec) for spec in cli.default_catalog()]
    jobs = [tuple(job) for job in jobs]
    random.Random(f"{cfg['seed']}:{cfg['pass']}").shuffle(jobs)
    seed = cfg["seed"]

    tracer = None
    if cfg["trace"]:
        import tracing

        tracer = tracing.Tracer()
        layers = tracing.install(tracer)

    results = []
    spans = []
    rss_mb = 0.0
    pace = []
    for path, spec in jobs:
        raw = _run_forked(path, spec, seed, tracer)
        rss_mb = max(rss_mb, raw["rss_mb"])
        if raw["pace_s"] is not None:
            pace.append(raw["pace_s"])
        if raw["spans"]:
            # parent indices are local to the group's list
            base = len(spans)
            spans += [(n, s, e, p + base if p >= 0 else p, g) for n, s, e, p, g in raw["spans"]]
        res = {"path": path, "spec": spec, "s": raw["s"]}
        res.update(_outcome(path, raw["code"], raw["stdout"], raw["error"]))
        results.append(res)

    trace = None
    if tracer is not None:
        trace = tracing.summarize(spans, layers)
        trace["spans"] = len(spans)
        if cfg.get("spans_path"):
            tracing.write_spans(spans, cfg["spans_path"])
    return {
        # the groups' own times; forking and waiting are left out
        "pass_s": sum(r["s"] for r in results),
        "rss_mb": rss_mb,
        "pace_s": pace,
        "numpy": numpy.__version__,
        "jobs": results,
        "trace": trace,
    }


def main() -> None:
    setup_s = _import_program()
    import json

    cfg = json.loads(sys.argv[1])
    result = {"setup_s": setup_s}
    if not cfg.get("setup_only"):
        result.update(run_pass(cfg))
    sys.stdout.write(json.dumps(result, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
