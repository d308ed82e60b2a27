"""Per-cell economy: costs, uptake, and the constraint pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eincasm.physics import (
    PhysicsParams,
    constrain,
    reservoir_pressure,
    squash_outputs,
    uptake,
)


def params(**kw):
    return PhysicsParams(**kw)


class TestPointOperations:
    def test_uptake(self):
        p = params(gamma=0.1, m_min=1e-6)
        assert uptake(0.0, 5.0, p) == 0.0
        assert uptake(2.0, 0.0, p) == 0.0  # no cell present
        assert uptake(2.0, 1.0, p) == pytest.approx(0.2, rel=1e-12)

    def test_growth_cost(self):
        # constrain spends beta * dM of nutrient on growth, none on shrinking
        p = params(beta=2.0)
        _, _, _, n = constrain(1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.3, p)
        assert float(n) == pytest.approx(1.0 - 0.6, rel=1e-12)
        for dm in (0.0, -0.5):
            _, _, _, n = constrain(1.0, 0.0, 1.0, 0.0, 0.0, 0.0, dm, p)
            assert float(n) == 1.0 + p.beta * -dm  # the conversion credit alone

    def test_movement_cost(self):
        # constrain spends alpha * |dR| of mass; the clamps do not bind here
        p = params(alpha=0.5, kappa=10.0, delta_r_max=2.0)
        _, m, _, _ = constrain(2.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, p)
        assert float(m) == 2.0
        _, m, _, _ = constrain(2.0, 1.0, 0.0, 0.0, 0.0, -0.4, 0.0, p)
        assert float(m) == pytest.approx(2.0 - 0.2, rel=1e-12)
        for x in np.random.default_rng(0).uniform(0.0, 1.0, size=20):
            dr_up, m_up, _, _ = constrain(2.0, 1.0, 0.0, 0.0, 0.0, x, 0.0, p)
            dr_down, m_down, _, _ = constrain(2.0, 1.0, 0.0, 0.0, 0.0, -x, 0.0, p)
            assert float(dr_up) == x and float(dr_down) == -x
            assert float(m_up) == float(m_down)

    def test_reservoir_pressure(self):
        p = params(v_min=1e-3)
        assert reservoir_pressure(2.0, 0.0, p) == 0.0
        assert reservoir_pressure(2.0, 0.5, p) == pytest.approx(0.25, rel=1e-12)
        assert reservoir_pressure(0.0, 0.5, p) == pytest.approx(500.0, rel=1e-12)

    def test_convert_mass(self):
        # constrain credits beta * |dM| of nutrient for mass converted away
        p = params(beta=2.0)
        _, m, _, n = constrain(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, -0.3, p)
        assert float(m) == pytest.approx(1.0 - 0.3, rel=1e-12)
        assert float(n) == pytest.approx(0.6, rel=1e-12)
        for dm in (0.0, 0.1):
            _, _, _, n = constrain(1.0, 0.0, 1.0, 0.0, 0.0, 0.0, dm, p)
            assert float(n) == 1.0 - p.beta * dm  # the growth debit alone

    def test_squash_respects_caps(self):
        p = params(delta_r_max=0.5, delta_m_max=0.25)
        dr, dm = squash_outputs(np.array([-50.0, 0.0, 50.0]), np.array([-50.0, 0.0, 50.0]), p)
        assert np.abs(dr).max() <= 0.5 and np.abs(dm).max() <= 0.25
        assert dr[1] == 0.0 and dm[1] == 0.0

    def test_param_validation(self):
        with pytest.raises(ValueError):
            params(beta=0.0)
        with pytest.raises(ValueError):
            params(alpha=-0.1)
        with pytest.raises(ValueError):
            params(delta_r_max=0.0)

    @pytest.mark.parametrize("m_min", [0.0, -1e-4])
    def test_m_min_must_be_positive(self, m_min):
        """At m_min 0 every empty cell counts as alive and takes up food."""
        with pytest.raises(ValueError, match="m_min"):
            params(m_min=m_min)


class TestConstrainPipeline:
    def test_zero_proposal_is_identity(self):
        p = params()
        dr, m, r, n = constrain(1.0, 0.5, 0.7, 0.0, 0.0, 0.0, 0.0, p)
        assert (float(dr), float(m), float(r), float(n)) == (0.0, 1.0, 0.5, 0.7)

    def test_growth_clamped_by_nutrient(self):
        p = params(beta=1.0)
        _, m, r, n = constrain(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, p)
        assert float(m) == 1.0 and float(n) == 0.0

    def test_spec_hand_trace(self):
        # M=1, N=1, beta=1, alpha=0.5, kappa=10, dM=0.5, dR=1:
        # growth -> M=1.5, N=0.5; reservoir: pay 0.5, R 0 -> 1, M -> 1.0
        p = params(alpha=0.5, beta=1.0, kappa=10.0, delta_r_max=2.0, delta_m_max=2.0)
        dr, m, r, n = constrain(1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.5, p)
        assert float(m) + p.alpha * float(dr) - 1.0 == pytest.approx(0.5, abs=1e-12)  # grown before paying
        assert float(n) == pytest.approx(0.5, abs=1e-12)
        assert float(dr) == pytest.approx(1.0, abs=1e-12)
        assert float(r) == pytest.approx(1.0, abs=1e-12)
        assert float(m) == pytest.approx(1.0, abs=1e-12)

    def test_conversion_credits_nutrient(self):
        p = params(beta=2.0)
        _, m, r, n = constrain(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, -0.3, p)
        assert float(m) == pytest.approx(0.7, abs=1e-12)
        assert float(n) == pytest.approx(0.6, abs=1e-12)

    def test_grow_then_convert_round_trip_is_free(self):
        p = params(beta=1.7)
        _, m1, r1, n1 = constrain(1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.4, p)
        _, m2, r2, n2 = constrain(m1, r1, n1, 0.0, 0.0, 0.0, -0.4, p)
        assert float(n2) + p.beta * float(m2) == pytest.approx(1.0 + p.beta * 1.0, rel=1e-12)

    def test_poison_decays_mass(self):
        p = params(poison_rate=0.2)
        _, m, r, n = constrain(1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, p)
        assert float(m) == pytest.approx(0.6, abs=1e-12)

    def test_death_converts_residual_mass(self):
        p = params(m_min=1e-2, beta=2.0)
        _, m, r, n = constrain(5e-3, 1e-2, 0.1, 0.0, 0.0, 0.0, 0.0, p)
        assert float(m) == 0.0 and float(r) == 0.0
        assert float(n) == pytest.approx(0.1 + 2.0 * 5e-3, abs=1e-12)

    def test_reservoir_capacity_respected_after_payment(self):
        # the clamp must account for the mass the payment burns
        p = params(alpha=0.5, beta=1.0, kappa=1.0, delta_r_max=5.0)
        _, m, r, n = constrain(1.0, 0.0, 0.0, 0.0, 0.0, 5.0, 0.0, p)
        assert float(r) <= p.kappa * float(m) + 1e-12

    def test_elementwise_arrays(self):
        p = params()
        m = np.array([1.0, 0.5, 2.0])
        _, m2, r2, n2 = constrain(
            m, np.zeros(3), np.ones(3), np.zeros(3), np.zeros(3), np.zeros(3), np.array([0.2, 0.1, 0.4]), p
        )
        assert m2.shape == (3,)
        for i in range(3):
            _, ms, rs, ns = constrain(m[i], 0.0, 1.0, 0.0, 0.0, 0.0, [0.2, 0.1, 0.4][i], p)
            assert float(ms) == m2[i] and float(ns) == n2[i]


#: Cells per drawn state array; with the example counts below each test
#: checks at least as many states as the loops it replaced (2000, 1000, 500).
N_CELLS = 20


def values(draw, lo, hi):
    """N_CELLS floats in [lo, hi], each drawn on its own (no fill value)."""
    return draw(hnp.arrays(np.float64, N_CELLS, elements=st.floats(lo, hi), fill=st.nothing()))


@st.composite
def valid_states(draw, p):
    """Arrays of cells: M in [0, 3] (some cells empty), R in [0, kappa * M],
    N in [0, 3]."""
    alive = draw(hnp.arrays(bool, N_CELLS, fill=st.nothing()))
    m = values(draw, 0.0, 3.0) * alive
    r = values(draw, 0.0, 1.0) * (p.kappa * m)
    n = values(draw, 0.0, 3.0)
    return m, r, n


P_FUZZ = params(alpha=0.3, beta=1.5, kappa=2.0, poison_rate=0.4)
P_LEDGER = params(alpha=0.25, beta=2.0, kappa=3.0)
P_GROWTH = params(beta=2.0)


class TestFuzzedInvariants:
    @settings(max_examples=100, deadline=None)
    @given(state=valid_states(P_FUZZ), data=st.data())
    def test_nonnegativity_and_capacity_under_fuzzing(self, state, data):
        p = P_FUZZ
        m, r, n = state
        f, pz = values(data.draw, 0.0, 2.0), values(data.draw, 0.0, 2.0)
        dr, dm = squash_outputs(values(data.draw, -20.0, 20.0), values(data.draw, -20.0, 20.0), p)
        _, m2, r2, n2 = constrain(m, r, n, f, pz, dr, dm, p)
        assert (m2 >= 0).all() and (r2 >= 0).all() and (n2 >= 0).all()
        assert (r2 <= p.kappa * m2 + 1e-9).all()

    @settings(max_examples=50, deadline=None)
    @given(state=valid_states(P_LEDGER), data=st.data())
    def test_energy_ledger_exact(self, state, data):
        # dE = gamma*F*[M >= m_min] - beta*min(M, poison_rate*P) - beta*alpha*|dR_applied|,
        # without food and poison and with both
        p = P_LEDGER
        m, r, n = state
        dr, dm = squash_outputs(values(data.draw, -20.0, 20.0), values(data.draw, -20.0, 20.0), p)
        fed = values(data.draw, 1e-3, 2.0), values(data.draw, 1e-3, 2.0)
        for f, pz in ((np.zeros(N_CELLS), np.zeros(N_CELLS)), fed):
            dr_applied, m2, r2, n2 = constrain(m, r, n, f, pz, dr, dm, p)
            e_before = n + p.beta * m
            e_after = n2 + p.beta * m2
            uptake_gain = p.gamma * f * (m >= p.m_min)
            poison_loss = np.minimum(m, p.poison_rate * pz)
            expected = uptake_gain - p.beta * poison_loss - p.beta * p.alpha * np.abs(dr_applied)
            assert e_after - e_before == pytest.approx(expected, rel=1e-9, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(state=valid_states(P_FUZZ), data=st.data())
    def test_inputs_are_left_unchanged(self, state, data):
        """constrain writes to none of its arguments, whole arrays or one
        cell's 0-d arrays, and returns no view of them."""
        p = P_FUZZ
        m, r, n = state
        f, pz = values(data.draw, 0.0, 2.0), values(data.draw, 0.0, 2.0)
        dr, dm = squash_outputs(values(data.draw, -20.0, 20.0), values(data.draw, -20.0, 20.0), p)
        cells = [(m, r, n, f, pz, dr, dm)] + [tuple(np.array(a[i]) for a in (m, r, n, f, pz, dr, dm)) for i in range(3)]
        for args in cells:
            before = [a.copy() for a in args]
            out = constrain(*args, p)
            for a, b in zip(args, before):
                np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))
            assert not any(np.shares_memory(o, a) for o in out for a in args)

    @settings(max_examples=25, deadline=None)
    @given(state=valid_states(P_GROWTH), data=st.data())
    def test_growth_never_exceeds_budget(self, state, data):
        p = P_GROWTH
        m, r, n = state
        dm = values(data.draw, 0.0, p.delta_m_max)
        _, m2, _, _ = constrain(m, r, n, 0.0, 0.0, 0.0, dm, p)
        assert (m2 - m <= n / p.beta + 1e-12).all()
