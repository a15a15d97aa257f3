import pytest

from invpoly import (
    CoeffSeq,
    HSequence,
    PairSet,
    a_expansion,
    a_from_b,
    b_expansion,
    degree_of,
    enumerate_Ih,
    fiber_expansion,
    is_constant,
)
from invpoly import expansions
from invpoly.errors import (
    BelowValidityFloorError,
    InadmissibleSetError,
    InputError,
    RouteDisagreementError,
)

H2 = HSequence((), 2)
H3 = HSequence((), 3)
S_QUAD = PairSet([(1, 3), (2, 3), (2, 4)])
S_FIVE = PairSet([(3, 4), (3, 5), (3, 6), (4, 6), (5, 6)])
S_POSET = PairSet([(1, 3), (2, 3), (2, 4), (3, 4)])


class TestCoeffSeq:
    def test_indexing(self):
        c = CoeffSeq((3, 6), 7)
        assert c[7] == 3 and c[8] == 6
        assert list(c.indices()) == [7, 8]
        with pytest.raises(IndexError):
            c[6]

    def test_json_uses_true_indices(self):
        assert CoeffSeq((3, 6), 7).to_json() == {"7": 3, "8": 6}


class TestFiberExpansion:
    def test_linear_example(self):
        res = fiber_expansion(H3, S_FIVE)
        assert res.coeffs.to_json() == {"5": 3}
        assert res.validity_floor == 6
        assert [res.poly(n) for n in (6, 7, 8)] == [3, 6, 9]

    def test_quadratic_example(self):
        res = fiber_expansion(H2, S_QUAD)
        assert res.coeffs.to_json() == {"2": 1, "3": 1}
        assert res.validity_floor == 4

    def test_count_at_floor_enforced(self):
        res = fiber_expansion(H2, S_QUAD)
        assert res.count_at(4) == 2
        with pytest.raises(BelowValidityFloorError):
            res.count_at(3)

    def test_empty_set_is_constant_one(self):
        res = fiber_expansion(H2, PairSet())
        assert res.poly(5) == 1

    def test_rejects_inadmissible(self):
        with pytest.raises(InadmissibleSetError):
            fiber_expansion(H2, PairSet([(1, 2), (2, 3)]))


class TestBExpansion:
    def test_window_example(self):
        res = b_expansion(H3, S_FIVE)
        assert res.coeffs == CoeffSeq((0, 0, 0, 0, 3, 6), 3)
        assert res.validity_floor == 8
        assert res.poly.to_monomial().to_json() == {"num": [-15, 3], "den": [1, 1]}

    def test_agrees_with_fiber_as_polynomial(self):
        for S in (S_QUAD, S_POSET):
            assert (
                b_expansion(H2, S).poly.to_monomial()
                == fiber_expansion(H2, S).poly.to_monomial()
            )


class TestAExpansion:
    def test_window_example(self):
        res = a_expansion(H2, S_QUAD)
        assert res.coeffs == CoeffSeq((0, 2, 1), 0)
        assert res.validity_floor == 4

    def test_agrees_with_oracle(self):
        res = a_expansion(H2, S_POSET)
        for n in range(res.validity_floor, 9):
            assert res.count_at(n) == len(enumerate_Ih(H2, S_POSET, n))


class TestConversion:
    def test_known_conversions(self):
        got = a_from_b(CoeffSeq((0, 0, 0, 0, 3, 6), 3), 5, 8)
        assert got == CoeffSeq((6, 3, 0, 0, 0, 0), 0)
        got = a_from_b(CoeffSeq((1, 1, 0), 2), 2, 4)
        assert got == CoeffSeq((0, 2, 1), 0)

    def test_shape_validation(self):
        with pytest.raises(InputError):
            a_from_b(CoeffSeq((1, 1), 2), 2, 4)
        with pytest.raises(InputError):
            a_from_b(CoeffSeq((1, -1, 0), 2), 2, 4)


class TestDegreeAndConstancy:
    def test_degree_matches_monomial_degree(self):
        for h, S in ((H2, S_QUAD), (H2, S_POSET), (H3, S_FIVE)):
            mono = b_expansion(h, S).poly.to_monomial()
            assert degree_of(h, S) == mono.degree()

    def test_poset_example_degree(self):
        assert degree_of(H2, S_POSET) == 2

    def test_constant_family(self):
        h = HSequence((2, 4, 4, 5), 1)
        assert is_constant(h, PairSet([(2, 3)]))
        assert degree_of(h, PairSet([(2, 3)])) == 0

    def test_non_constant(self):
        assert not is_constant(H2, S_QUAD)
        h = HSequence((3, 4, 6, 7, 7), 2)
        assert not is_constant(h, PairSet([(2, 4), (3, 4), (3, 5), (3, 6)]))

    def test_empty_set(self):
        assert is_constant(H2, PairSet())
        assert degree_of(H2, PairSet()) == 0

    def test_criteria_disagreement_raises(self, monkeypatch):
        # every element below h(m): the poset criterion says constant, the
        # scan does not
        def star(h, S, n):
            return (0,) * (n - 1) + ((1 << (n - 1)) - 1,)

        monkeypatch.setattr(expansions, "position_order", star)
        with pytest.raises(RouteDisagreementError):
            is_constant(H2, S_QUAD)
