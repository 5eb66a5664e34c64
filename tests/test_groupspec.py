import pytest

from quadsym.groupspec import (
    MAX_POINT,
    FamilySpec,
    GroupSpecError,
    PermSpec,
    ProductSpec,
    format_group_spec,
    parse_group_spec,
)


def test_family_atoms():
    assert parse_group_spec("cyclic:12") == FamilySpec("cyclic", (12,))
    assert parse_group_spec("abelian:2,4,8") == FamilySpec("abelian", (2, 4, 8))
    assert parse_group_spec("q8") == FamilySpec("q8", ())
    assert parse_group_spec("sl2:8") == FamilySpec("sl2", (8,))
    assert parse_group_spec(" sym : 5 ") == FamilySpec("sym", (5,))
    assert parse_group_spec("SYM:3") == FamilySpec("sym", (3,))


def test_perm_atom():
    spec = parse_group_spec("perm:[(1 2 3 4 5 6 7),(2 3 5)(4 7 6)]")
    assert spec == PermSpec(
        (((1, 2, 3, 4, 5, 6, 7),), ((2, 3, 5), (4, 7, 6)))
    )


def test_product_left_associative():
    spec = parse_group_spec("cyclic:2*cyclic:3*cyclic:5")
    assert isinstance(spec, ProductSpec)
    assert spec.right == FamilySpec("cyclic", (5,))
    assert isinstance(spec.left, ProductSpec)
    assert spec.left.left == FamilySpec("cyclic", (2,))


def test_round_trip_through_format():
    texts = [
        "cyclic:7",
        "abelian:2,2,2",
        "q8",
        "dihedral:6",
        "sl2:16",
        "perm:[(1 2 3 4 5 6 7),(2 3 5)(4 7 6)]",
        "perm:[(1 2)(2 3)]",
        "cyclic:3*dihedral:4",
        "cyclic:2*cyclic:3*cyclic:5",
    ]
    for text in texts:
        spec = parse_group_spec(text)
        assert format_group_spec(spec) == text
        assert parse_group_spec(format_group_spec(spec)) == spec


def test_errors_carry_positions():
    with pytest.raises(GroupSpecError) as exc:
        parse_group_spec("nosuch:3")
    assert exc.value.position == 0

    with pytest.raises(GroupSpecError) as exc:
        parse_group_spec("cyclic:")
    assert exc.value.expected == "an integer"

    with pytest.raises(GroupSpecError) as exc:
        parse_group_spec("cyclic:3*")
    assert exc.value.position == 9

    with pytest.raises(GroupSpecError):
        parse_group_spec("")

    with pytest.raises(GroupSpecError):
        parse_group_spec("cyclic:3 junk")

    with pytest.raises(GroupSpecError):
        parse_group_spec("q8:2")


def test_validation_errors():
    with pytest.raises(GroupSpecError):
        parse_group_spec("cyclic:0")
    with pytest.raises(GroupSpecError):
        parse_group_spec("abelian:2,0")
    with pytest.raises(GroupSpecError):
        parse_group_spec("sym:8")
    with pytest.raises(GroupSpecError):
        parse_group_spec("alt:0")
    with pytest.raises(GroupSpecError):
        parse_group_spec("sl2:7")


def test_perm_errors():
    with pytest.raises(GroupSpecError):
        parse_group_spec("perm:[]")
    with pytest.raises(GroupSpecError):
        parse_group_spec("perm:[()]")
    with pytest.raises(GroupSpecError):
        parse_group_spec("perm:[(1 1 2)]")
    with pytest.raises(GroupSpecError):
        parse_group_spec("perm:[(0 1)]")
    with pytest.raises(GroupSpecError):
        parse_group_spec("perm:[(1 2]")


def test_perm_points_are_capped_before_allocation():
    # a point this large would make the identity a 10^8-entry tuple
    with pytest.raises(GroupSpecError) as exc:
        parse_group_spec("perm:[(1 100000000)]")
    assert exc.value.position == 9
    with pytest.raises(GroupSpecError):
        parse_group_spec(f"perm:[(1 2),(3 {MAX_POINT + 1})]")
    assert parse_group_spec(f"perm:[(1 {MAX_POINT})]") == PermSpec((((1, MAX_POINT),),))
