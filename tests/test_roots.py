"""Root systems, gradings, index formulas, symmetric-space survey."""

import pytest
from hypothesis import given, strategies as st

from unitons.errors import InvalidType, UnrecognizedSubsystem
from unitons import roots
from oracles import (
    big_cell_fiber_dim,
    canonical_reduce,
    exponents_from_marks,
    free_function_count,
    grading,
    max_uniton_for_space,
    morse_index,
    odd_canonical_reduce,
    signature,
)
from unitons.roots import (
    build_root_system,
    group_max_uniton,
    height_of,
    marks_from_exponents,
    symmetric_space_survey,
)

ALL_SYSTEMS = (
    [("A", l) for l in range(1, 8)]
    + [("B", l) for l in range(2, 8)]
    + [("C", l) for l in range(2, 8)]
    + [("D", l) for l in range(3, 8)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def test_closure_counts_and_highest_roots():
    rs = build_root_system("A", 3)
    assert len(rs.positive_roots) == 6
    assert rs.highest_root == (1, 1, 1)
    rs = build_root_system("G", 2)
    assert len(rs.positive_roots) == 6
    assert rs.highest_root == (3, 2)
    assert len(build_root_system("A", 1).positive_roots) == 1


def test_invalid_types_rejected():
    for t, l in (("D", 2), ("E", 5), ("F", 3), ("G", 3), ("H", 2), ("A", 0)):
        with pytest.raises(InvalidType):
            build_root_system(t, l)


def test_group_max_uniton_table():
    # the nine-row table of per-group uniton bounds
    assert [group_max_uniton(build_root_system("A", n - 1)) for n in range(2, 9)] == [
        n - 1 for n in range(2, 9)
    ]
    for n in range(2, 8):
        assert group_max_uniton(build_root_system("B", n)) == 2 * n - 1
        assert group_max_uniton(build_root_system("C", n)) == 2 * n - 1
    for n in range(3, 8):
        assert group_max_uniton(build_root_system("D", n)) == 2 * n - 3
    assert group_max_uniton(build_root_system("G", 2)) == 5
    assert group_max_uniton(build_root_system("F", 4)) == 11
    assert group_max_uniton(build_root_system("E", 6)) == 11
    assert group_max_uniton(build_root_system("E", 7)) == 17
    assert group_max_uniton(build_root_system("E", 8)) == 29


def test_height_of_examples():
    assert height_of(build_root_system("A", 3), (1, 1, 1)) == 3
    assert height_of(build_root_system("E", 8), (1,) * 8) == 29
    assert height_of(build_root_system("A", 3), (0, 0, 0)) == 0


@pytest.mark.parametrize("t,l", ALL_SYSTEMS)
def test_all_marks_one_equals_group_bound(t, l):
    rs = build_root_system(t, l)
    assert height_of(rs, (1,) * l) == group_max_uniton(rs)


def test_grading_examples():
    rs = build_root_system("A", 3)
    dims = grading(rs, (1, 1, 1))
    assert dims == {0: 3, 1: 3, -1: 3, 2: 2, -2: 2, 3: 1, -3: 1}
    rs2 = build_root_system("A", 2)
    dims2 = grading(rs2, (1, 0))
    assert dims2[1] == 2 and dims2[0] == 4
    assert grading(rs2, (0, 0)) == {0: 2 + 2 * 3}


@pytest.mark.parametrize("t,l", ALL_SYSTEMS)
def test_grading_symmetric_and_complete(t, l):
    rs = build_root_system(t, l)
    marks = tuple(1 if i % 2 == 0 else 0 for i in range(l))
    dims = grading(rs, marks)
    assert all(dims[i] == dims[-i] for i in dims)
    assert sum(dims.values()) == l + 2 * len(rs.positive_roots)


def test_morse_index_examples():
    rs = build_root_system("A", 3)
    assert morse_index(rs, (1, 1, 1)) == 4
    assert morse_index(rs, (0, 0, 0)) == 0
    # height-1 canonical elements are index zero
    for t, l in ALL_SYSTEMS:
        rs = build_root_system(t, l)
        for i in range(l):
            marks = tuple(1 if j == i else 0 for j in range(l))
            if height_of(rs, marks) == 1:
                assert morse_index(rs, marks) == 0


def test_big_cell_fiber_dim_examples():
    rs = build_root_system("A", 3)
    assert big_cell_fiber_dim(rs, (1, 1, 1)) == 10
    assert big_cell_fiber_dim(rs, (0, 0, 0)) == 0
    marks = (1, 0, 0)  # height 1
    assert big_cell_fiber_dim(rs, marks) == grading(rs, marks)[1]


def test_free_function_count_examples():
    assert free_function_count(build_root_system("A", 3), (1, 1, 1)) == 6
    assert free_function_count(build_root_system("A", 2), (1, 1)) == 3


@pytest.mark.parametrize("t,l", ALL_SYSTEMS[:12])
def test_fiber_minus_positive_dims_is_morse_index(t, l):
    rs = build_root_system(t, l)
    for marks in [(1,) * l, tuple(i % 2 for i in range(l)), (2,) + (0,) * (l - 1)]:
        dims = grading(rs, marks)
        positive_total = sum(v for k, v in dims.items() if k > 0)
        assert big_cell_fiber_dim(rs, marks) - positive_total == morse_index(rs, marks)


def test_canonical_reduce():
    rs = build_root_system("A", 3)
    assert canonical_reduce(rs, (3, 0, 2)) == (1, 0, 1)
    assert canonical_reduce(rs, (1, 0, 1)) == (1, 0, 1)
    assert canonical_reduce(rs, (0, 0, 0)) == (0, 0, 0)
    assert odd_canonical_reduce(rs, (3, 2, 1)) == (1, 0, 1)
    assert odd_canonical_reduce(rs, (2, 4, 6)) == (0, 0, 0)


@given(st.lists(st.integers(0, 5), min_size=3, max_size=3))
def test_reductions_idempotent_and_parity(marks):
    rs = build_root_system("A", 3)
    c = canonical_reduce(rs, marks)
    assert canonical_reduce(rs, c) == c
    o = odd_canonical_reduce(rs, marks)
    assert all((a - b) % 2 == 0 for a, b in zip(o, marks))


def test_exponent_bridge():
    assert marks_from_exponents((3, 2, 1, 0)) == (1, 1, 1)
    assert marks_from_exponents((2, 2, 0)) == (0, 2)
    assert marks_from_exponents((0,)) == ()  # U_1 has no flag steps
    assert exponents_from_marks(()) == (0,)
    assert exponents_from_marks((1, 1, 1)) == (3, 2, 1, 0)
    with pytest.raises(InvalidType):
        marks_from_exponents((1, 2, 0))
    with pytest.raises(InvalidType):
        marks_from_exponents((2, 1))
    with pytest.raises(InvalidType):
        marks_from_exponents(())


# -- survey -------------------------------------------------------------------

def test_survey_zero_marks_recovers_whole_group():
    for t, l in (("A", 3), ("B", 2), ("D", 4), ("F", 4)):
        rs = build_root_system(t, l)
        rec = symmetric_space_survey(rs)[0]
        assert rec.marks == (0,) * l
        assert rec.components == (f"{t}{l}",)
        assert rec.center_dim == 0 and rec.height == 0
    # zero marks keep every simple root, so each system's own simple roots
    # must name the system; C2 and D3 read as their isomorphic B2 and A3
    for t, l in ALL_SYSTEMS + [("A", 8), ("B", 8), ("C", 8), ("D", 8)]:
        rs = build_root_system(t, l)
        simples = [tuple(int(i == j) for j in range(l)) for i in range(l)]
        expected = {"C2": "B2", "D3": "A3"}.get(f"{t}{l}", f"{t}{l}")
        assert roots._classify_component(rs, simples) == expected


def test_survey_exceptional_types_match_cartans_list():
    # inner symmetric subalgebras of the exceptional algebras (Cartan's list)
    expected = {
        ("G", 2): {(("G2",), 0), (("A1", "A1"), 0)},
        ("F", 4): {(("F4",), 0), (("B4",), 0), (("A1", "C3"), 0)},
        ("E", 6): {(("E6",), 0), (("A1", "A5"), 0), (("D5",), 1)},
        ("E", 7): {(("E7",), 0), (("A7",), 0), (("A1", "D6"), 0), (("E6",), 1)},
        ("E", 8): {(("E8",), 0), (("D8",), 0), (("A1", "E7"), 0)},
    }
    for (t, l), signatures in expected.items():
        recs = symmetric_space_survey(build_root_system(t, l))
        assert {signature(r) for r in recs} == signatures, (t, l)


def test_survey_complex_grassmannians():
    recs = symmetric_space_survey(build_root_system("A", 4))
    assert max_uniton_for_space(recs, ("A1", "A2"), 1) == 4  # Gr_2(C^5)
    assert max_uniton_for_space(recs, ("A3",), 1) == 2  # Gr_1(C^5)
    recs = symmetric_space_survey(build_root_system("A", 3))
    assert max_uniton_for_space(recs, ("A1", "A1"), 1) == 3  # Gr_2(C^4)
    assert max_uniton_for_space(recs, ("A2",), 1) == 2  # Gr_1(C^4)


def test_survey_symplectic_spaces():
    recs = symmetric_space_survey(build_root_system("C", 2))
    assert max_uniton_for_space(recs, ("A1",), 1) == 3  # Sp_2/U_2
    assert max_uniton_for_space(recs, ("A1", "A1"), 0) == 2  # Gr_1(H^2) = S^4
    recs = symmetric_space_survey(build_root_system("C", 3))
    assert max_uniton_for_space(recs, ("A2",), 1) == 5  # Sp_3/U_3
    assert max_uniton_for_space(recs, ("A1", "B2"), 0) == 4  # Gr_1(H^3), C_2 = B2 label


def test_survey_orthogonal_spaces():
    recs = symmetric_space_survey(build_root_system("B", 2))
    assert max_uniton_for_space(recs, ("A1",), 1) == 3  # Gr_2(R^5), the 3-quadric
    assert max_uniton_for_space(recs, ("A1", "A1"), 0) == 2  # Gr_1(R^5) = S^4
    recs = symmetric_space_survey(build_root_system("D", 4))
    assert max_uniton_for_space(recs, ("A3",), 1) == 4  # SO_8/U_4 and Gr_2(R^8)
    recs = symmetric_space_survey(build_root_system("B", 3))
    assert max_uniton_for_space(recs, ("B2",), 1) == 4  # Gr_2(R^7): SO_2 x SO_5
    assert max_uniton_for_space(recs, ("A1", "A1", "A1"), 0) == 5  # Gr_3(R^7)
    assert max_uniton_for_space(recs, ("A3",), 0) == 2  # Gr_1(R^7) = S^6, SO_6 = D_3


def test_survey_names_recorded():
    recs = symmetric_space_survey(build_root_system("A", 4))
    names = {n for r in recs for n in r.names}
    assert "Gr_2(C^5)" in names and "Gr_1(C^5)" in names
    recs = symmetric_space_survey(build_root_system("D", 4))
    names = {n for r in recs for n in r.names}
    assert "SO_8/U_4" in names and "Gr_2(R^8)" in names
    recs = symmetric_space_survey(build_root_system("C", 2))
    names = {n for r in recs for n in r.names}
    assert "Sp_2/U_2" in names and "Gr_1(H^2)" in names


def test_survey_heights_bounded_by_group():
    for t, l in (("A", 4), ("B", 3), ("C", 3), ("D", 4), ("G", 2)):
        rs = build_root_system(t, l)
        bound = group_max_uniton(rs)
        for rec in symmetric_space_survey(rs):
            assert rec.height <= bound


def test_unknown_signature_raises():
    recs = symmetric_space_survey(build_root_system("A", 2))
    with pytest.raises(UnrecognizedSubsystem):
        max_uniton_for_space(recs, ("E6",), 0)
