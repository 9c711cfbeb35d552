import pytest

from quadstab import EquationSpec, equation_terms, parse_equation


def test_validation():
    with pytest.raises(ValueError):
        EquationSpec("fe3", n=2)
    with pytest.raises(ValueError):
        EquationSpec("fe3")
    with pytest.raises(ValueError):
        EquationSpec("fe3_0", a=1)
    with pytest.raises(ValueError):
        EquationSpec("fe3_0", a=-1)
    with pytest.raises(ValueError):
        EquationSpec("fe9")
    with pytest.raises(ValueError, match="capped"):
        EquationSpec("fe3", n=65)  # refused before its 2,145-term list exists
    assert len(EquationSpec("fe3", n=64).terms()) == 64 * 65 // 2
    EquationSpec("fe3_0", a=0)  # a = 0 is allowed: |a| != 1


def test_arity():
    assert EquationSpec("fe1").arity == 2
    assert EquationSpec("fe2").arity == 3
    assert EquationSpec("fe3", n=5).arity == 5
    assert EquationSpec("fe3_0", a=3).arity == 2


def test_fe1_terms():
    terms = EquationSpec("fe1").terms()
    assert sorted(terms) == sorted([(1, (1, 1)), (1, (1, -1)), (-2, (1, 0)), (-2, (0, 1))])
    # coefficient sum 1 + 1 - 2 - 2 = -2
    assert sum(c for c, _ in terms) == -2


def test_fe2_is_fe3_at_three():
    fe2 = sorted(EquationSpec("fe2").terms())
    fe3 = sorted(EquationSpec("fe3", n=3).terms())
    assert fe2 == fe3


def test_fe3_term_structure():
    n = 4
    terms = EquationSpec("fe3", n=n).terms()
    pair_terms = [t for t in terms if t[0] == n]
    single_terms = [t for t in terms if t[0] == -1]
    assert len(pair_terms) == n * (n - 1) // 2
    assert len(single_terms) == n
    for _, w in single_terms:
        assert sorted(w) == sorted([1 - n] + [1] * (n - 1))
    assert sum(c for c, _ in terms) == n * (n * (n - 1) // 2) - n


def test_fe3_0_terms():
    a = 3
    terms = EquationSpec("fe3_0", a=a).terms()
    assert (1, (a, 1)) in terms
    assert (a - 1, (1, -1)) in terms
    assert (-(a + 1), (1, 1)) in terms
    assert (-(a * a - 1), (1, 0)) in terms


def test_parse_equation():
    assert parse_equation("fe1") == EquationSpec("fe1")
    assert parse_equation("fe3:4") == EquationSpec("fe3", n=4)
    assert parse_equation("fe3") == EquationSpec("fe3", n=3)
    assert parse_equation("fe3_0:2") == EquationSpec("fe3_0", a=2)
    with pytest.raises(ValueError):
        parse_equation("fe1:7")
    with pytest.raises(ValueError):
        parse_equation("nope")


def test_equation_terms_raw():
    terms, arity = equation_terms([(1, (2,)), (-8, (1,))])
    assert arity == 1
    assert terms == ((1, (2,)), (-8, (1,)))
    with pytest.raises(ValueError):
        equation_terms([(1, (1, 0)), (2, (1,))])
    with pytest.raises(ValueError):
        equation_terms([])
