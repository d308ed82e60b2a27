"""The per-cell economy: costs, uptake, pressure forcing, and the
constraint pipeline that turns desired changes into paid-for ones.

Every operation here is a pure elementwise function of a single cell's
state — no cross-cell reads — so cells may be processed in any order or
all at once as arrays. The functional forms:

* pressure forcing  rho = dR_applied / max(v, v_min), later capped to
  +-rho_cap before injection into the fluid;
* movement cost     alpha * |dR|, paid in cell mass;
* growth cost       beta * max(dM, 0), paid in nutrient;
* uptake            gamma * F while the cell has at least m_min mass
  (food is never depleted by uptake; only scheduled perturbations touch
  statics);
* mass-to-nutrient conversion is lossless at the growth exchange rate
  beta, so a grow-then-convert round trip moves no energy.

The energy ledger E = N + beta * M obeys, per constrain call,
dE = uptake - beta * poison_loss - beta * movement_mass_spent, exactly up
to float rounding. Cell death (M dropping below m_min) converts the
residual mass to nutrient at rate beta and zeroes the reservoir, which
keeps the ledger exact and leaves the nutrient in place for the flow.
constrain returns the new state and the paid reservoir change, the one
term the step reads; every other term follows from inputs and outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PhysicsParams:
    """Economy constants and clamps.

    alpha, beta, gamma are the movement, growth, and uptake rates; kappa
    bounds the reservoir per unit mass. delta_r_max/delta_m_max cap the
    squashed per-step proposals, rho_cap bounds the fluid forcing, and
    m_min is the smallest mass at which a cell still acts. m_min must be
    positive: at 0 every empty cell counts as alive and takes up food.
    """

    alpha: float = 0.2
    beta: float = 1.0
    gamma: float = 0.1
    kappa: float = 4.0
    v_min: float = 1e-3
    rho_cap: float = 0.1
    delta_r_max: float = 0.5
    delta_m_max: float = 0.5
    poison_rate: float = 0.2
    m_min: float = 1e-4

    def __post_init__(self):
        if not all(value >= 0 for value in (self.alpha, self.gamma, self.kappa, self.poison_rate)):
            raise ValueError("alpha, gamma, kappa, poison_rate must be nonnegative")
        if not self.v_min > 0:  # an empty reservoir's pressure would be 0/0
            raise ValueError(f"v_min must be positive, got {self.v_min}")
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if not all(cap > 0 for cap in (self.delta_r_max, self.delta_m_max, self.rho_cap)):
            raise ValueError("caps must be positive")
        if not self.m_min > 0:
            raise ValueError(f"m_min must be positive, got {self.m_min}")


def squash_outputs(raw_dr, raw_dm, p: PhysicsParams):
    """Bound raw CPPN outputs: delta = cap * tanh(raw)."""
    return p.delta_r_max * np.tanh(raw_dr), p.delta_m_max * np.tanh(raw_dm)


def uptake(food, mass, p: PhysicsParams):
    """Nutrient gained this step: gamma * F where the cell is alive, else 0."""
    return np.where(np.asarray(mass) >= p.m_min, p.gamma * np.asarray(food), 0.0)


def reservoir_pressure(v, delta_r_applied, p: PhysicsParams):
    """Fluid density source from a reservoir change: dR / max(v, v_min).

    The sign convention is "added to local fluid density": growth of the
    reservoir injects density (outward push), contraction withdraws it.
    Callers cap the result to +-rho_cap before handing it to the fluid.
    """
    return np.asarray(delta_r_applied, dtype=np.float64) / np.maximum(np.asarray(v, dtype=np.float64), p.v_min)


def constrain(mass, reservoir, nutrient, food, poison, dr_desired, dm_desired, p: PhysicsParams):
    """Run the fixed constraint pipeline on one cell or elementwise arrays.

    Stage order (normative; outcomes depend on it when budgets bind):
      1. uptake        N += gamma * F if M >= m_min
      2. poison        M -= min(M, poison_rate * P)
      3. conversion    dM < 0: remove up to M, credit beta per unit to N
      4. growth        dM > 0: apply up to N / beta, debit beta per unit
      5. reservoir     dR clamped so the mass budget alpha*|dR| <= M holds
                       and R stays in [0, kappa * M_after_payment]; the
                       mass cost is then paid and R updated
      6. spill + death residual R above kappa * M is released freely (no
                       pressure, no cost); if M < m_min the cell dies: its
                       mass converts to nutrient at rate beta, R drops to 0

    Returns ``(delta_r, new_mass, new_reservoir, new_nutrient)``, scalars
    or arrays matching the input. delta_r is the *paid* reservoir change
    from stage 5 — the quantity that drives pressure forcing — not the net
    change after spill or death. Everything clamps; nothing raises.
    """
    m = np.asarray(mass, dtype=np.float64)
    r = np.asarray(reservoir, dtype=np.float64)
    n = np.asarray(nutrient, dtype=np.float64)
    f = np.asarray(food, dtype=np.float64)
    pz = np.asarray(poison, dtype=np.float64)
    dr_des = np.asarray(dr_desired, dtype=np.float64)
    dm_des = np.asarray(dm_desired, dtype=np.float64)

    # the first write to each of n, m and r rebinds it, so the caller's arrays stay as they are
    n = n + uptake(f, m, p)

    poison_loss = np.minimum(m, p.poison_rate * pz)
    m = m - poison_loss

    removed = np.minimum(np.maximum(-dm_des, 0.0), m)
    m -= removed
    n += p.beta * removed

    grown = np.minimum(np.maximum(dm_des, 0.0), n / p.beta)
    m += grown
    n -= p.beta * grown

    # Reservoir clamp. Upper bound accounts for the mass that paying for
    # the change will burn: R + dR <= kappa * (M - alpha*dR) for dR > 0.
    budget = m / p.alpha if p.alpha > 0 else np.full_like(m, np.inf)
    hi = np.minimum(budget, np.maximum(p.kappa * m - r, 0.0) / (1.0 + p.kappa * p.alpha))
    lo = -np.minimum(r, budget)
    dr_applied = dr_des.clip(lo, hi)
    m -= p.alpha * np.abs(dr_applied)
    m = np.maximum(m, 0.0)  # exact-budget payments can leave -1e-17 dust
    r = r + dr_applied

    # Free spill: stages 2-4 may have shrunk M after R was sized for it.
    r = np.minimum(r, p.kappa * m)
    r = np.maximum(r, 0.0)

    dead = m < p.m_min
    n += np.where(dead, p.beta * m, 0.0)
    n = np.maximum(n, 0.0)
    m = np.where(dead, 0.0, m)
    r = np.where(dead, 0.0, r)
    return dr_applied, m, r, n
