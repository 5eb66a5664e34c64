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

import json
import sys
import time
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

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


def _report_json(rep: VerificationReport, checks: bool = True) -> dict:
    """The fields of ``verify --json``; without the exponent and the checks,
    those of ``disc --json``."""
    obj = {"label": rep.label, "n": rep.n, "m": rep.m, "r1": rep.r1, "r2": rep.r2}
    if checks:
        obj["exponent"] = rep.exponent
    obj.update(_d_json(rep.d), d_K=rep.d_K, conductor=rep.conductor)
    if checks:
        obj.update(theorem_ok=rep.ok, checks=_checks_json(rep.checks))
    return obj


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
    rep = VerificationReport(
        G.label, G.n, S.m, split.r1, split.r2, G.exponent, D.value, fd.d_K, fd.conductor, ()
    )
    human = (
        f"{G.label}: n={G.n} m={S.m} r1={split.r1} r2={split.r2} "
        f"d={D.value} = {D.value.decimal()} d_K={fd.d_K} f={fd.conductor}"
    )
    _emit(args, _report_json(rep, checks=False), human)
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
    det = chartab.det_identities(G, S, split, T, D)
    obj = {
        "label": G.label,
        "n": G.n,
        "m": T.m,
        "conductor": T.conductor,
        "prime": T.prime,
        "class_order": list(T.class_order),
        "degrees": list(T.degrees),
        "rows": T.coeffs.tolist(),  # the entries' coefficients, as the same ints
        "det_squared": det.det_squared,
        "ell": det.ell,
        "d": D.value.decimal(),
        "checks": _checks_json(det.checks),
    }
    human = [] if args.json else [  # the text, export_table's included, only when printed
        f"{G.label}: m={T.m} conductor={T.conductor} prime={T.prime} degrees={list(T.degrees)}",
        f"columns (class indices): {list(T.class_order)}",
        chartab.export_table(T).rstrip("\n"),
        f"det^2 = {det.det_squared} = {det.ell}^2 * ({D.value.decimal()})",
        *(f"  {c.name}: {'ok' if c.ok else f'FAILED ({c.witness})'}" for c in det.checks),
    ]
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
    if args.spec is not None and args.catalog is not None:
        print(
            f"error: verify takes a spec or --catalog, not both "
            f"(got {args.spec!r} and --catalog {args.catalog!r})",
            file=sys.stderr,
        )
        return EXIT_USAGE
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


class _Arg(NamedTuple):
    """An option when ``name`` starts with "--", else a positional."""

    name: str
    kind: Optional[Callable] = str  # int or str; None for a switch, False unless given
    metavar: Optional[str] = None
    help: Optional[str] = None
    default: object = None
    nargs: Optional[str] = None  # "?" for a positional that may be left out

    @property
    def dest(self) -> str:
        return self.name.lstrip("-").replace("-", "_")


class _Command(NamedTuple):
    func: Callable
    help: str
    args: tuple[_Arg, ...]
    one_of: bool = False  # exactly one of the options in ``args`` is required


_COMMON = (
    _Arg("--json", None, help="one JSON object per line"),
    _Arg(
        "--max-order",
        int,
        "N",
        f"refuse groups larger than N (default {DEFAULT_MAX_ORDER})",
        DEFAULT_MAX_ORDER,
    ),
    _Arg("--seed", int, "S", "seed for randomized internals", 0),
)
_SPEC = _Arg("spec")

# The command line grammar, read by both _parse_table and build_parser; every
# command takes _COMMON first.
_COMMANDS = {
    "disc": _Command(_cmd_disc, "discriminant of a group", (_SPEC,)),
    "classes": _Command(_cmd_classes, "conjugacy class data", (_SPEC,)),
    "symbol": _Command(
        _cmd_symbol,
        "quadratic symbol values",
        (
            _SPEC,
            _Arg("--a", int, help="evaluate at one integer"),
            _Arg("--table", None, help="tabulate over 0..n-1"),
        ),
        one_of=True,
    ),
    "chartab": _Command(_cmd_chartab, "exact character table", (_SPEC,)),
    "verify": _Command(
        _cmd_verify,
        "verify the symbol identities",
        (
            _Arg("spec", nargs="?"),
            _Arg("--catalog", str, "FILE", "verify every spec listed in FILE"),
        ),
    ),
    "kronecker": _Command(
        _cmd_kronecker, "Kronecker symbol (d/a)", (_Arg("d", int), _Arg("a", int))
    ),
    "jacobi": _Command(_cmd_jacobi, "Jacobi symbol (a/n)", (_Arg("a", int), _Arg("n", int))),
    "sl2-formula": _Command(
        _cmd_sl2_formula,
        "closed-form discriminant for unimodular 2x2 matrices over GF(2^r)",
        (_Arg("r", int),),
    ),
}


def _parse_table(argv: list[str]) -> Optional[SimpleNamespace]:
    """The namespace ``build_parser().parse_args(argv)`` gives, for a command
    line in canonical form, else None.

    Canonical: the command first, options by their exact names and each at
    most once, no value or positional starting with "-", every int valid,
    the right number of positionals.  Everything else, help included, is
    left to argparse.
    """
    cmd = _COMMANDS.get(argv[0]) if argv else None
    if cmd is None:
        return None
    args = _COMMON + cmd.args
    options = {arg.name: arg for arg in args if arg.name.startswith("-")}
    positionals = [arg for arg in args if arg.name not in options]
    values = {arg.dest: False if arg.kind is None else arg.default for arg in args}
    given, rest, tokens = set(), [], iter(argv[1:])
    try:
        for token in tokens:
            if not token.startswith("-"):
                rest.append(token)
                continue
            arg = options.get(token)
            if arg is None or token in given:
                return None
            given.add(token)
            if arg.kind is None:
                values[arg.dest] = True
                continue
            value = next(tokens, "-")
            if value.startswith("-"):
                return None
            values[arg.dest] = arg.kind(value)
        if cmd.one_of and len(given & {arg.name for arg in cmd.args}) != 1:
            return None
        if not sum(arg.nargs is None for arg in positionals) <= len(rest) <= len(positionals):
            return None
        for arg, token in zip(positionals, rest):
            values[arg.dest] = arg.kind(token)
    except ValueError:
        return None
    return SimpleNamespace(command=argv[0], **values, func=cmd.func)


def _add_argument(parser, arg: _Arg) -> None:
    if arg.kind is None:
        parser.add_argument(arg.name, action="store_true", help=arg.help)
    else:
        parser.add_argument(
            arg.name,
            type=arg.kind,
            metavar=arg.metavar,
            help=arg.help,
            default=arg.default,
            nargs=arg.nargs,
        )


def build_parser():
    """The argparse tree of ``_COMMANDS``: help, usage errors and every
    command line that ``_parse_table`` declines."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="quadsym",
        description="quadratic symbols, discriminants and character tables of finite groups",
    )
    common = argparse.ArgumentParser(add_help=False)
    for arg in _COMMON:
        _add_argument(common, arg)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=cmd.help)
        group = p.add_mutually_exclusive_group(required=True) if cmd.one_of else p
        for arg in cmd.args:
            _add_argument(group if arg.name.startswith("-") else p, arg)
        p.set_defaults(func=cmd.func)
    return parser


def _parse_argparse(argv: list[str]):
    """``build_parser().parse_args(argv)``, except that a common option given
    before the command is a usage error that names it."""
    parser = build_parser()
    common = {arg.name: arg for arg in _COMMON}
    first = argv[0].split("=", 1)[0] if argv else None
    if first in common and not {"-h", "--help"} & set(argv):
        cmd = next((token for token in argv if token in _COMMANDS), "COMMAND")
        metavar = common[first].metavar
        example = f"{first} {metavar}" if metavar else first
        parser.error(f"{first} goes after the command, as in: quadsym {cmd} ... {example}")
    return parser.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(400_000)
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_table(argv)
    if args is None:
        try:
            args = _parse_argparse(argv)
        except SystemExit as exc:
            return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.max_order < 1:
        print(f"error: --max-order must be at least 1, got {args.max_order}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
