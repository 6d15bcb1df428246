import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from substochastic.l1 import Bracket, PosSeq, SignedSeq, axpy, leq, mass, pair_psi


def seq(entries, tail=0.0):
    return PosSeq(dict(entries), tail)


entries_st = st.dictionaries(
    st.integers(min_value=0, max_value=40),
    st.floats(min_value=1e-9, max_value=1e3, allow_nan=False),
    max_size=8,
)


class TestBracket:
    def test_orders_endpoints(self):
        with pytest.raises(ValueError):
            Bracket(1.0, 0.0)
        with pytest.raises(ValueError):
            Bracket(float("nan"), 0.0)

    def test_arithmetic(self):
        a = Bracket(1.0, 2.0)
        b = Bracket(0.5, 0.75)
        assert (a + b).lo == 1.5 and (a + b).hi == 2.75
        assert (a - b).lo == 0.25 and (a - b).hi == 1.5
        assert a.contains(1.5) and not a.contains(2.5)
        assert a.overlaps(Bracket(1.9, 3.0)) and not a.overlaps(Bracket(2.1, 3.0))


class TestFromArray:
    def test_nonzero_entries_at_offset(self):
        u = PosSeq.from_array(np.array([0.0, 0.5, 0.0, 2.0]), offset=3)
        assert u.entries == {4: 0.5, 6: 2.0} and u.tail_bound == 0.0

    def test_negative_entry_raises(self):
        with pytest.raises(ValueError):
            PosSeq.from_array(np.array([1.0, -1e-3]))


class TestMass:
    def test_zero_element(self):
        assert mass(PosSeq.zero()) == Bracket(0.0, 0.0)

    def test_unit_basis(self):
        assert mass(PosSeq.basis(0)) == Bracket(1.0, 1.0)

    def test_direct_summation_with_tail(self):
        b = mass(seq({0: 0.3, 5: 0.7}, tail=0.01))
        assert b.lo == pytest.approx(1.0, abs=1e-15)
        assert b.hi == pytest.approx(1.01, abs=1e-15)

    def test_flush_threshold(self):
        u = seq({0: 1.0, 1: 1e-305})
        assert u.support == (0,)
        assert u.tail_bound == pytest.approx(1e-305)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            seq({0: -1.0})
        with pytest.raises(ValueError):
            seq({-1: 1.0})
        with pytest.raises(ValueError):
            PosSeq({}, -0.5)


class TestPairPsi:
    def test_cancellation(self):
        u = SignedSeq(PosSeq.basis(0), PosSeq.basis(0))
        assert pair_psi(u) == Bracket(0.0, 0.0)

    def test_direct_sum(self):
        u = SignedSeq(PosSeq.basis(1, 2.0), PosSeq.basis(2))
        assert pair_psi(u) == Bracket(1.0, 1.0)

    def test_interval_subtraction(self):
        u = SignedSeq(PosSeq.basis(0), PosSeq({}, 0.1))
        b = pair_psi(u)
        assert b.lo == pytest.approx(0.9) and b.hi == pytest.approx(1.0)


class TestLeq:
    def test_true(self):
        assert leq(PosSeq.basis(0), seq({0: 1.0, 1: 1.0})) is True

    def test_false(self):
        assert leq(seq({0: 1.0, 1: 1.0}), PosSeq.basis(0)) is False

    def test_unknown_with_tail(self):
        assert leq(seq({0: 0.5}, tail=0.1), PosSeq.basis(0)) is None


class TestAxpy:
    def test_accumulates(self):
        assert axpy(1.0, PosSeq.basis(0), PosSeq.basis(0)).entries == {0: 2.0}

    def test_alpha_zero_is_identity(self):
        v = seq({3: 2.0})
        assert axpy(0.0, PosSeq.basis(0), v) is v

    def test_linear_tail_propagation(self):
        out = axpy(0.5, seq({0: 1.0}, tail=0.2), seq({1: 1.0}))
        assert out.entries == {0: 0.5, 1: 1.0}
        assert out.tail_bound == pytest.approx(0.1)

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            axpy(-1.0, PosSeq.basis(0), PosSeq.basis(0))


@given(entries_st, entries_st)
def test_additivity_on_cone(eu, ev):
    u, v = seq(eu), seq(ev)
    s = axpy(1.0, u, v)
    lhs = mass(s).lo
    rhs = mass(u).lo + mass(v).lo
    assert lhs == pytest.approx(rhs, rel=1e-14, abs=1e-300)


@given(entries_st, entries_st)
def test_monotonicity_of_mass(eu, ev):
    u, v = seq(eu), seq(ev)
    w = axpy(1.0, u, v)  # u <= w by construction
    if leq(u, w) is True:
        assert mass(u).hi <= mass(w).hi + 1e-14 * max(1.0, mass(w).hi)


@given(entries_st, entries_st)
def test_canonical_split_disjoint_and_contracting(eu, ev):
    p, m = seq(eu), seq(ev)
    s = SignedSeq(p, m)
    assert not (set(s.plus.entries) & set(s.minus.entries))
    before = mass(p).lo + mass(m).lo
    after = mass(s.plus).lo + mass(s.minus).lo
    assert after <= before + 1e-12 * max(1.0, before)
    # the represented element is unchanged
    for k in set(p.entries) | set(m.entries):
        assert s.get(k) == pytest.approx(p.get(k) - m.get(k), rel=1e-12, abs=1e-12)


@given(entries_st, st.floats(min_value=0.0, max_value=10.0))
def test_axpy_scales_mass(eu, alpha):
    u = seq(eu)
    out = axpy(alpha, u, PosSeq.zero())
    assert mass(out).lo == pytest.approx(alpha * mass(u).lo, rel=1e-12, abs=1e-12)
