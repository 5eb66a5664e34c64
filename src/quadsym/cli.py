"""Command line front end.

Subcommands compute discriminants, quadratic symbols, conjugacy data and
character tables of finite groups named by a small spec language, and verify
the identities tying them together.  Output is line-oriented; ``--json``
switches every subcommand to one JSON object per line with a stable key
order, so identical invocations produce byte-identical output.

Exit codes: 0 success, 1 a verification check failed, 2 bad usage or an
unparsable spec, 3 a size cap was exceeded.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from importlib import resources

from . import chartab, ntheory, reciprocity
from .groups import (
    DEFAULT_MAX_ORDER,
    GroupError,
    GroupTable,
    OrderCapExceeded,
    conjugacy_classes,
    make_group,
    verify_axioms,
)
from .groupspec import GroupSpecError, parse_group_spec
from .ntheory import FactoredInt
from .reciprocity import (
    VerificationReport,
    real_complex_split,
    discriminant,
    quadratic_symbol,
    symbol_character,
    verify_group,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3


# the exit code of each error a command may raise, first match wins
_EXIT_CODES = (
    (GroupSpecError, EXIT_USAGE),
    (OrderCapExceeded, EXIT_CAP),
    (GroupError, EXIT_CHECK_FAILED),
    (chartab.CharTableError, EXIT_CHECK_FAILED),
    (ValueError, EXIT_USAGE),
    (OSError, EXIT_USAGE),
)
_ERRORS = tuple(kind for kind, _ in _EXIT_CODES)


def _exit_code(exc: Exception) -> int:
    return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


def _default_catalog_text() -> str:
    return resources.files("quadsym").joinpath("data/catalog.txt").read_text()


def default_catalog() -> list[str]:
    return load_catalog(_default_catalog_text())


def _numbered_catalog(text: str) -> list[tuple[int, str]]:
    """(line number, spec) for each line that is not blank or a comment."""
    lines = ((k, line.strip()) for k, line in enumerate(text.splitlines(), 1))
    return [(k, line) for k, line in lines if line and not line.startswith("#")]


def load_catalog(text: str) -> list[str]:
    return [spec for _, spec in _numbered_catalog(text)]


def _d_json(d: FactoredInt) -> dict:
    return {
        "d": d.decimal(),
        "d_factored": {"sign": d.sign, "factors": [[p, e] for p, e in d.factors]},
    }


def _checks_json(checks: tuple[reciprocity.CheckResult, ...]) -> list:
    return [{"name": c.name, "ok": c.ok, "witness": c.witness} for c in checks]


def _emit(args, obj: dict, human: str) -> None:
    if args.json:
        print(json.dumps(obj, separators=(",", ":")))
    else:
        print(human)


def _build(args) -> GroupTable:
    spec = parse_group_spec(args.spec)
    return make_group(spec, max_order=args.max_order)


def _report_json(rep: VerificationReport) -> dict:
    return {
        "label": rep.label,
        "n": rep.n,
        "m": rep.m,
        "r1": rep.r1,
        "r2": rep.r2,
        "exponent": rep.exponent,
        **_d_json(rep.d),
        "d_K": rep.d_K,
        "conductor": rep.conductor,
        "theorem_ok": rep.ok,
        "checks": _checks_json(rep.checks),
    }


def _report_human(rep: VerificationReport, elapsed: float) -> str:
    status = "ok" if rep.ok else "FAIL"
    head = (
        f"{rep.label:<40} n={rep.n:<5} m={rep.m:<3} r1={rep.r1:<3} r2={rep.r2:<3} "
        f"d={rep.d} d_K={rep.d_K} [{status}] ({elapsed * 1000:.0f} ms)"
    )
    lines = [head]
    for c in rep.checks:
        if not c.ok:
            lines.append(f"  FAILED {c.name}: {c.witness}")
    return "\n".join(lines)


def _cmd_disc(args) -> int:
    G = _build(args)
    S = conjugacy_classes(G)
    split = real_complex_split(S)
    D = discriminant(G, S, split)
    fd = ntheory.fundamental_discriminant(D.value)
    obj = {
        "label": G.label,
        "n": G.n,
        "m": S.m,
        "r1": split.r1,
        "r2": split.r2,
        **_d_json(D.value),
        "d_K": fd.d_K,
        "conductor": fd.conductor,
    }
    human = (
        f"{G.label}: n={G.n} m={S.m} r1={split.r1} r2={split.r2} "
        f"d={D.value} = {D.value.decimal()} d_K={fd.d_K} f={fd.conductor}"
    )
    _emit(args, obj, human)
    return EXIT_OK


def _cmd_classes(args) -> int:
    G = _build(args)
    S = conjugacy_classes(G)
    split = real_complex_split(S)
    obj = {
        "label": G.label,
        "n": G.n,
        "m": S.m,
        "r1": split.r1,
        "r2": split.r2,
        "classes": [
            {
                "index": j,
                "size": c.size,
                "rep_order": c.rep_order,
                "centralizer": c.centralizer_order,
                "rep": G.element_repr(c.rep),
                "real": S.inverse_class[j] == j,
            }
            for j, c in enumerate(S.classes)
        ],
    }
    human = [f"{G.label}: n={G.n} m={S.m} r1={split.r1} r2={split.r2}"]
    for j, c in enumerate(S.classes):
        tag = "real" if S.inverse_class[j] == j else f"pair<->{S.inverse_class[j]}"
        human.append(
            f"  class {j}: size={c.size} rep_order={c.rep_order} "
            f"centralizer={c.centralizer_order} {tag} rep={G.element_repr(c.rep)}"
        )
    _emit(args, obj, "\n".join(human))
    return EXIT_OK


def _cmd_symbol(args) -> int:
    G = _build(args)
    S = conjugacy_classes(G)
    if args.table:
        sym = symbol_character(G, S)
        obj = {"label": G.label, "n": G.n, "values": list(sym.values)}
        human = f"{G.label}: " + " ".join(f"{v:+d}" if v else "0" for v in sym.values)
        _emit(args, obj, human)
    else:
        v = quadratic_symbol(G, S, args.a)
        obj = {"label": G.label, "n": G.n, "a": args.a, "value": v}
        _emit(args, obj, f"({args.a} / {G.label}) = {v}")
    return EXIT_OK


def _cmd_chartab(args) -> int:
    G = _build(args)
    S = conjugacy_classes(G)
    split = real_complex_split(S)
    D = discriminant(G, S, split)
    T = chartab.character_table(G, S, split, seed=args.seed)
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
        "checks": _checks_json(det.checks),
    }
    human = [
        f"{G.label}: m={T.m} conductor={T.conductor} prime={T.prime} degrees={list(T.degrees)}",
        f"columns (class indices): {list(T.class_order)}",
        chartab.export_table(T).rstrip("\n"),
        f"det^2 = {det.det_squared} = {det.ell}^2 * ({D.value.decimal()})",
    ]
    for c in det.checks:
        mark = "ok" if c.ok else f"FAILED ({c.witness})"
        human.append(f"  {c.name}: {mark}")
    _emit(args, obj, "\n".join(human))
    return EXIT_OK if det.ok else EXIT_CHECK_FAILED


def _verify_one(label: str, args) -> tuple[Optional[VerificationReport], int]:
    start = time.perf_counter()
    spec = parse_group_spec(label)
    G = make_group(spec, max_order=args.max_order)
    verify_axioms(G, seed=args.seed)
    rep = verify_group(G)
    elapsed = time.perf_counter() - start
    if args.json:
        print(json.dumps(_report_json(rep), separators=(",", ":")))
    else:
        print(_report_human(rep, elapsed))
    return rep, EXIT_OK if rep.ok else EXIT_CHECK_FAILED


def _cmd_verify(args) -> int:
    if args.spec is not None:
        _, code = _verify_one(args.spec, args)
        return code
    if args.catalog is not None:
        with open(args.catalog) as fh:
            text = fh.read()
    else:
        text = _default_catalog_text()
    specs = _numbered_catalog(text)
    worst = EXIT_OK
    failed = 0
    for lineno, label in specs:
        try:
            _, code = _verify_one(label, args)
        except _ERRORS as exc:
            print(f"error: line {lineno}: {label}: {exc}", file=sys.stderr)
            code = _exit_code(exc)
        if code != EXIT_OK:
            failed += 1
            worst = max(worst, code)
    if not args.json:
        print(f"{len(specs)} groups, {len(specs) - failed} ok, {failed} failed")
    return worst


def _cmd_kronecker(args) -> int:
    if not ntheory.is_discriminant(args.d):
        print(f"error: {args.d} is not a discriminant (nonzero, 0 or 1 mod 4)", file=sys.stderr)
        return EXIT_USAGE
    v = ntheory.kronecker(args.d, args.a)
    _emit(args, {"d": args.d, "a": args.a, "value": v}, f"({args.d} / {args.a}) = {v}")
    return EXIT_OK


def _cmd_jacobi(args) -> int:
    if args.n <= 0 or args.n % 2 == 0:
        print(f"error: jacobi needs odd positive n, got {args.n}", file=sys.stderr)
        return EXIT_USAGE
    v = ntheory.jacobi(args.a, args.n)
    _emit(args, {"a": args.a, "n": args.n, "value": v}, f"({args.a} / {args.n}) = {v}")
    return EXIT_OK


def _cmd_sl2_formula(args) -> int:
    d, d_K = reciprocity.sl2_formula_check(args.r)
    fd = ntheory.fundamental_discriminant(d)
    q = 2**args.r
    obj = {
        "r": args.r,
        "q": q,
        **_d_json(d),
        "d_K": d_K,
        "conductor": ntheory.int_to_decimal(fd.conductor),
        "is_square": ntheory.is_perfect_square(d),
    }
    human = (
        f"r={args.r} q={q}: d = {d} = {d.decimal()}\n"
        f"d_K = {d_K}, square: {ntheory.is_perfect_square(d)}"
    )
    _emit(args, obj, human)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadsym",
        description="quadratic symbols, discriminants and character tables of finite groups",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="one JSON object per line")
    common.add_argument(
        "--max-order",
        type=int,
        default=DEFAULT_MAX_ORDER,
        metavar="N",
        help=f"refuse groups larger than N (default {DEFAULT_MAX_ORDER})",
    )
    common.add_argument(
        "--seed", type=int, default=0, metavar="S", help="seed for randomized internals"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("disc", parents=[common], help="discriminant of a group")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_disc)

    p = sub.add_parser("classes", parents=[common], help="conjugacy class data")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("symbol", parents=[common], help="quadratic symbol values")
    p.add_argument("spec")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--a", type=int, help="evaluate at one integer")
    g.add_argument("--table", action="store_true", help="tabulate over 0..n-1")
    p.set_defaults(func=_cmd_symbol)

    p = sub.add_parser("chartab", parents=[common], help="exact character table")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_chartab)

    p = sub.add_parser("verify", parents=[common], help="verify the symbol identities")
    p.add_argument("spec", nargs="?", default=None)
    p.add_argument("--catalog", metavar="FILE", help="verify every spec listed in FILE")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("kronecker", parents=[common], help="Kronecker symbol (d/a)")
    p.add_argument("d", type=int)
    p.add_argument("a", type=int)
    p.set_defaults(func=_cmd_kronecker)

    p = sub.add_parser("jacobi", parents=[common], help="Jacobi symbol (a/n)")
    p.add_argument("a", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_jacobi)

    p = sub.add_parser(
        "sl2-formula",
        parents=[common],
        help="closed-form discriminant for unimodular 2x2 matrices over GF(2^r)",
    )
    p.add_argument("r", type=int)
    p.set_defaults(func=_cmd_sl2_formula)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(400_000)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
