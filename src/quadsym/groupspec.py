"""A tiny textual language naming finite groups.

Grammar::

    spec   := atom ("*" atom)*
    atom   := NAME ":" INT ("," INT)*      -- parametric family
            | "q8"                         -- the quaternion group, no args
            | "perm" ":" "[" gens "]"      -- permutation generators
    gens   := gen ("," gen)*
    gen    := cycle+                       -- cycles compose left to right
    cycle  := "(" INT+ ")"                 -- points are 1-based, at most 1024

``*`` is the direct product and associates to the left.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union


class GroupSpecError(ValueError):
    """Parse or validation failure, with the offending position."""

    def __init__(self, message: str, position: int, expected: str | None = None):
        detail = f"{message} at position {position}"
        if expected is not None:
            detail += f" (expected {expected})"
        super().__init__(detail)
        self.position = position
        self.expected = expected


@dataclass(frozen=True)
class FamilySpec:
    family: str
    args: tuple[int, ...]


@dataclass(frozen=True)
class PermSpec:
    """Generators as cycle lists; each generator is a tuple of cycles."""

    generators: tuple[tuple[tuple[int, ...], ...], ...]


@dataclass(frozen=True)
class ProductSpec:
    left: "GroupSpec"
    right: "GroupSpec"


GroupSpec = Union[FamilySpec, PermSpec, ProductSpec]

# largest permutation point, refused here before any tuple of points is built
MAX_POINT = 1024

# family name -> (min args, max args or None for unbounded)
_FAMILIES = {
    "cyclic": (1, 1),
    "abelian": (1, None),
    "dihedral": (1, 1),
    "sym": (1, 1),
    "alt": (1, 1),
    "q8": (0, 0),
    "sl2": (1, 1),
}


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.peek() != ch:
            raise GroupSpecError(f"unexpected {self.peek()!r}", self.pos, expected=repr(ch))
        self.pos += 1

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalnum():
            self.pos += 1
        if self.pos == start:
            raise GroupSpecError(f"unexpected {self.peek()!r}", start, expected="a family name")
        return self.text[start:self.pos]

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise GroupSpecError(f"unexpected {self.peek()!r}", start, expected="an integer")
        return int(self.text[start:self.pos])


def _parse_cycle(sc: _Scanner) -> tuple[int, ...]:
    sc.expect("(")
    points = []
    while True:
        sc.skip_ws()
        if sc.peek() == ")":
            sc.pos += 1
            break
        at = sc.pos
        p = sc.integer()
        if p < 1:
            raise GroupSpecError("points are 1-based", at)
        if p > MAX_POINT:
            raise GroupSpecError(f"point {p} is above the limit {MAX_POINT}", at)
        if p in points:
            raise GroupSpecError(f"point {p} repeated in cycle", at)
        points.append(p)
    if not points:
        raise GroupSpecError("empty cycle", sc.pos - 1)
    return tuple(points)


def _parse_perm_atom(sc: _Scanner) -> PermSpec:
    sc.expect(":")
    sc.expect("[")
    gens = []
    while True:
        cycles = []
        sc.skip_ws()
        while sc.peek() == "(":
            cycles.append(_parse_cycle(sc))
            sc.skip_ws()
        if not cycles:
            raise GroupSpecError(f"unexpected {sc.peek()!r}", sc.pos, expected="a cycle")
        gens.append(tuple(cycles))
        sc.skip_ws()
        if sc.peek() == ",":
            sc.pos += 1
            continue
        sc.expect("]")
        break
    return PermSpec(tuple(gens))


def _parse_atom(sc: _Scanner) -> GroupSpec:
    at = sc.pos
    name = sc.name().lower()
    if name == "perm":
        return _parse_perm_atom(sc)
    if name not in _FAMILIES:
        raise GroupSpecError(f"unknown family {name!r}", at)
    lo, hi = _FAMILIES[name]
    args: list[int] = []
    if hi != 0:
        sc.expect(":")
        args.append(sc.integer())
        while True:
            sc.skip_ws()
            if sc.peek() == "," and (hi is None or len(args) < hi):
                sc.pos += 1
                args.append(sc.integer())
            else:
                break
    if len(args) < lo:
        raise GroupSpecError(f"{name} needs at least {lo} argument(s)", sc.pos)
    spec = FamilySpec(name, tuple(args))
    _validate_family(spec, at)
    return spec


def _validate_family(spec: FamilySpec, at: int) -> None:
    name, args = spec.family, spec.args
    if name in ("cyclic", "dihedral") and args[0] < 1:
        raise GroupSpecError(f"{name} needs a positive order, got {args[0]}", at)
    if name == "abelian" and any(a < 1 for a in args):
        raise GroupSpecError("abelian factors must be positive", at)
    if name in ("sym", "alt"):
        if not 1 <= args[0] <= 7:
            raise GroupSpecError(f"{name} supports 1..7 points, got {args[0]}", at)
    if name == "sl2" and args[0] not in (4, 8, 16):
        raise GroupSpecError(f"sl2 supports q in 4, 8, 16, got {args[0]}", at)


def parse_group_spec(text: str) -> GroupSpec:
    sc = _Scanner(text)
    spec = _parse_atom(sc)
    while True:
        sc.skip_ws()
        if sc.peek() == "*":
            sc.pos += 1
            spec = ProductSpec(spec, _parse_atom(sc))
        else:
            break
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise GroupSpecError(f"trailing input {sc.text[sc.pos:]!r}", sc.pos)
    return spec


def format_group_spec(spec: GroupSpec) -> str:
    """Canonical text for a spec; parsing it back gives an equal spec."""
    if isinstance(spec, FamilySpec):
        if not spec.args:
            return spec.family
        return f"{spec.family}:{','.join(str(a) for a in spec.args)}"
    if isinstance(spec, PermSpec):
        gens = ",".join(
            "".join("(" + " ".join(str(p) for p in cyc) + ")" for cyc in gen)
            for gen in spec.generators
        )
        return f"perm:[{gens}]"
    if isinstance(spec, ProductSpec):
        return f"{format_group_spec(spec.left)}*{format_group_spec(spec.right)}"
    raise TypeError(f"not a group spec: {spec!r}")
