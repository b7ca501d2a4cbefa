"""Block-coordinate ascent for the secrecy-throughput design problem.

Each outer iteration cycles four blocks: the two auxiliary-variable blocks
(the per-slot fixed points of the current schedule, already solved by the
closed-form evaluation that scored it), the transmit-power block (a concave
surrogate obtained by linearizing the two rate terms that enter the objective
through their difference), and the slot-duration block (a plain LP). The
power block decomposes per UAV and is solved to KKT stationarity with
closed-form per-slot solutions: a UAV over its energy budget bisects its
multiplier from a closed-form bracket until the bracket's ends are adjacent
floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import check_count, check_real
from .errors import InfeasibleStartError, NumericalError
from .rates import (LOG2E, _check_aux, _check_schedule, _check_tau, _lane_stack, _log_slope,
                    _snr_coefficient, per_slot_secrecy, secrecy_throughput_closed_form)
from .scenario import PowerSchedule, Scenario

#: KKT residual the power block must reach (and is audited against)
POWER_KKT_TOL = 1e-8
#: relative objective decrease beyond which an iteration is flagged non-monotone
MONOTONE_TOL = 1e-8
#: largest constraint violation a starting point may carry
FEASIBILITY_TOL = 1e-9
#: relative fixed-aux objective gain below which the SCA re-anchoring stops
SCA_INNER_TOL = 1e-7
#: cap on the SCA re-anchored solves per power block
SCA_MAX_INNER = 200

# ---------------------------------------------------------------------------
# auxiliary-variable blocks

def solve_aux_block_min(schedule: PowerSchedule, tau, scenario: Scenario):
    """Auxiliary minimizers for the rate terms entering the objective with + sign.

    Returns (bob_total, eve_an), each length N: rows of the aux array that
    ``secrecy_throughput_closed_form`` returns. Slots with zero duration are
    still solved; the later blocks may re-activate them.
    """
    aux = secrecy_throughput_closed_form(scenario, [schedule], tau)[0][1]
    return aux[0], aux[3]


def solve_aux_block_max(schedule: PowerSchedule, tau, scenario: Scenario):
    """Auxiliary values for the negatively-signed rate terms.

    These maximize the objective over their block, which reduces to minimizing
    each negated rate term, i.e. the same per-slot fixed points. Returns
    (bob_an, eve_total), rows of the closed form's aux array.
    """
    aux = secrecy_throughput_closed_form(scenario, [schedule], tau)[0][1]
    return aux[1], aux[2]


# ---------------------------------------------------------------------------
# fixed-aux objective

def throughput_at_aux(scenario: Scenario, schedule: PowerSchedule, tau, aux) -> float:
    """Objective value with the (4, N) aux array held fixed."""
    tau = _check_tau(scenario, tau)
    return float(np.dot(tau, per_slot_secrecy(scenario, schedule, aux))
                 / scenario.budgets.t_period_s)


# ---------------------------------------------------------------------------
# power block

def _slot_powers(beta_b, beta_e, gamma_b, gamma_e, lam, p_max):
    """Per-slot maximizers of the surrogate given the energy multiplier.

    Solves, elementwise over (slot, UAV) grids,
        max  log2(1 + beta_b*u) - gamma_e*u - lam*u + log2(1 + beta_e*a) - gamma_b*a
        s.t. 0 <= a <= u <= p_max.
    The unconstrained pair has closed forms; when they cross (a would exceed
    u), the coupling binds and the common value solves a quadratic.
    """
    with np.errstate(divide="ignore", over="ignore"):
        u_hat = LOG2E / (gamma_e + lam) - 1.0 / beta_b
        a_hat = LOG2E / gamma_b - 1.0 / beta_e
    u = np.clip(u_hat, 0.0, p_max)
    a = np.clip(a_hat, 0.0, p_max)

    coupled = a > u
    if np.any(coupled):
        kappa = gamma_b + gamma_e + lam
        c2 = kappa * beta_b * beta_e
        c1 = kappa * (beta_b + beta_e) - 2.0 * beta_b * beta_e * LOG2E
        c0 = kappa - LOG2E * (beta_b + beta_e)
        disc = np.maximum(c1 * c1 - 4.0 * c2 * c0, 0.0)
        denom = c1 + np.sqrt(disc)
        with np.errstate(divide="ignore", invalid="ignore"):
            # c0 < 0 guarantees one positive root; this form avoids cancellation
            s = np.where(c0 < 0.0, -2.0 * c0 / denom, 0.0)
        s = np.where(kappa <= 0.0, p_max, s)  # no linear cost at all: slope stays positive
        s = np.clip(np.nan_to_num(s, nan=0.0, posinf=p_max), 0.0, p_max)
        u = np.where(coupled, s, u)
        a = np.where(coupled, s, a)
    return u, a


def _power_rows(beta_b, beta_e, gamma_b, gamma_e, tau, p_max, e_max):
    """Energy-constrained surrogate maximization, one independent column per UAV.

    A UAV over its budget at zero multiplier bisects the multiplier on
    [0, LOG2E * max_n(beta_b + beta_e)], where every slot's u is 0 (u_hat < 0,
    and the coupled quadratic has c0 >= 0), until the bracket's ends are
    adjacent floats, and takes the feasible end.
    """
    lam = np.zeros(beta_b.shape[1])
    u, a = _slot_powers(beta_b, beta_e, gamma_b, gamma_e, lam, p_max)
    over = tau @ u > e_max
    if not over.any():
        return u, a, lam

    # a UAV within budget has the closed bracket [0, 0]
    lo, hi = lam, np.where(over, LOG2E * (beta_b + beta_e).max(axis=0), 0.0)
    mid = 0.5 * (lo + hi)
    while np.any((lo < mid) & (mid < hi)):
        over = tau @ _slot_powers(beta_b, beta_e, gamma_b, gamma_e, mid, p_max)[0] > e_max
        lo = np.where(over, mid, lo)
        hi = np.where(over, hi, mid)
        mid = 0.5 * (lo + hi)
    u, a = _slot_powers(beta_b, beta_e, gamma_b, gamma_e, hi, p_max)
    return u, a, hi


def _power_kkt_residual(beta_b, beta_e, gamma_b, gamma_e, tau, p_max, e_max,
                        u, a, lam):
    """Max projected-gradient/feasibility residual over the slots with airtime."""
    active = tau > 0.0
    if not active.any():
        return 0.0
    gu = _log_slope(beta_b, u) - gamma_e - lam
    ga = _log_slope(beta_e, a) - gamma_b
    # unit-step projection; the feasible interval of u is [a, p_max], of a is [0, u]
    r_u = np.abs(u - np.clip(u + gu, a, p_max))
    r_a = np.abs(a - np.clip(a + ga, 0.0, u))
    r_proj = max(float(r_u[active].max()), float(r_a[active].max()))
    energy = tau @ u
    r_energy = float(np.maximum(energy - e_max, 0.0).max())
    r_comp = float((lam * np.maximum(e_max - energy, 0.0)).max())
    return max(r_proj, r_energy, r_comp)


def solve_power_subproblem(aux, tau_prev, schedule_prev: PowerSchedule,
                           scenario: Scenario) -> PowerSchedule:
    """Maximize the linearized power surrogate under power and energy budgets.

    The surrogate keeps the scheduled user's total-power term and the
    eavesdropper's noise term exact (concave) and linearizes the other two at
    ``schedule_prev``. The problem separates across UAVs, with closed-form
    slot solutions at a given energy multiplier. A UAV within its energy
    budget at zero multiplier keeps it; any other bisects its multiplier from
    a closed-form bracket until the bracket's ends are adjacent floats.
    Slots with zero duration keep their previous powers verbatim. Raises
    NumericalError if the KKT residual audit exceeds ``POWER_KKT_TOL``.
    """
    p_u, p_a, tau = _check_schedule(scenario, schedule_prev, tau_prev)
    b = scenario.budgets

    # per-term coefficients and the anchor's slopes, (4, N, L) in TERMS order;
    # the exact terms keep their coefficient (beta), the linearized ones their
    # slope (gamma), each as an (N, L) grid
    p, n, q = _lane_stack(scenario, p_u, p_a)
    coef = _snr_coefficient(n, q, _check_aux(aux, scenario), scenario.noise_w)
    slope = _log_slope(coef, p)
    beta_b, gamma_b, gamma_e, beta_e = coef[0], slope[1], slope[2], coef[3]

    u, a, lam = _power_rows(beta_b, beta_e, gamma_b, gamma_e, tau, b.p_max_w, b.e_max_j)

    residual = _power_kkt_residual(beta_b, beta_e, gamma_b, gamma_e, tau,
                                   b.p_max_w, b.e_max_j, u, a, lam)
    if residual > POWER_KKT_TOL:
        raise NumericalError("power block failed its KKT audit",
                             {"residual": residual, "tol": POWER_KKT_TOL})

    idle = tau == 0.0
    u[idle], a[idle] = p_u[idle], p_a[idle]
    return PowerSchedule(u, a)


# ---------------------------------------------------------------------------
# duration block

def solve_duration_lp(aux, schedule: PowerSchedule, scenario: Scenario) -> np.ndarray:
    """Optimal slot durations at fixed powers and a fixed (4, N) aux array.

    Maximizes the duration-weighted per-slot secrecy rates subject to the
    per-slot cap, the total transmission time, and each UAV's energy budget.
    The result is a vertex: the box vertex when no budget row binds, otherwise
    the LP solved with a simplex method. HiGHS's tolerances are absolute, so
    it is posed in budget units: x = tau / tau_max in [0, 1], each row over
    its bound, and the objective over its largest magnitude.
    """
    b = scenario.budgets
    coeff = per_slot_secrecy(scenario, schedule, aux) / b.t_period_s
    # The box 0 <= tau <= tau_max holds the feasible set, so its maximizer is the only LP
    # optimum when no coefficient is 0 or nan and the audit's energy and time rows read 0.
    box = np.where(coeff > 0.0, b.tau_max_s, 0.0)
    if np.all(np.abs(coeff) > 0.0):
        audit = audit_feasibility(scenario, schedule, box)
        if audit["energy"] == 0.0 and audit["time_total"] == 0.0:
            return box

    # imported here, not at the top: scipy.optimize costs about 0.4 s and 40 MB
    # to load, and only an LP whose box vertex breaks a budget row uses it
    from scipy.optimize import linprog

    a_ub = np.vstack([schedule.p_u.T * (b.tau_max_s / b.e_max_j),  # one row per UAV
                      np.full((1, scenario.n_slots), b.tau_max_s / b.t_total_s)])
    peak = float(np.abs(coeff).max()) or 1.0  # all rates 0: every point is optimal
    res = linprog(-coeff / peak, A_ub=a_ub, b_ub=np.ones(scenario.n_uavs + 1),
                  bounds=(0.0, 1.0), method="highs-ds")
    if not res.success:
        raise NumericalError(f"duration LP failed: {res.message}",
                             {"status": res.status})
    return np.clip(res.x, 0.0, 1.0) * b.tau_max_s


# ---------------------------------------------------------------------------
# feasibility audit and the outer loop

def audit_feasibility(scenario: Scenario, schedule: PowerSchedule, tau) -> dict:
    """Budget-violation magnitudes (all zero for a feasible point); the power
    box holds for every ``PowerSchedule``, and tau >= 0 for every ``tau``."""
    p_u, _, tau = _check_schedule(scenario, schedule, tau)
    b = scenario.budgets
    return {
        "power_cap": float(max(0.0, (p_u - b.p_max_w).max())),
        "energy": float(max(0.0, (tau @ p_u - b.e_max_j).max())),
        "tau_cap": float(max(0.0, (tau - b.tau_max_s).max())),
        "time_total": float(max(0.0, tau.sum() - b.t_total_s)),
    }


def _ascends(before: float, after: float) -> bool:
    """False when ``after`` fell below ``before`` by more than MONOTONE_TOL relative."""
    return after >= before - MONOTONE_TOL * (1.0 + abs(before))


@dataclass
class IterationRecord:
    """One evaluated point: the start of a run or the state after an iteration.

    ``aux`` is the (4, N) array of the point's fixed points in ``TERMS`` order.
    """

    objective: float
    objective_clipped: float
    schedule: PowerSchedule
    tau: np.ndarray
    aux: np.ndarray
    diagnostics: dict = field(default_factory=dict)


@dataclass
class SolutionTrace:
    """Outcome of a block-coordinate run: the start, then one record per iteration."""

    initial: IterationRecord
    iterations: list[IterationRecord]
    converged: bool

    @property
    def objectives(self) -> list[float]:
        return [it.objective for it in self.iterations]

    @property
    def final(self) -> IterationRecord:
        return self.iterations[-1]

    def is_monotone(self) -> bool:
        """True when no step decreased the objective beyond MONOTONE_TOL relative."""
        values = [self.initial.objective] + self.objectives
        return all(_ascends(a, b) for a, b in zip(values, values[1:]))


def _evaluate(scenario: Scenario, schedule: PowerSchedule, tau,
              previous: IterationRecord | None = None,
              power_inner_iters: int = 0) -> IterationRecord:
    """Audit, score and record one point; ``previous`` is the point it improves
    on. The audit checks the point's inputs, one schedule and its durations,
    so a start is checked and audited before the closed form scores it."""
    max_violation = max(audit_feasibility(scenario, schedule, tau).values())
    if previous is None and max_violation > FEASIBILITY_TOL:
        raise InfeasibleStartError(f"initial point infeasible by {max_violation:.3e}")
    objective, aux, per_slot = secrecy_throughput_closed_form(scenario, schedule, tau)
    tau = np.array(tau, dtype=float)
    tau.flags.writeable = False  # read-only like the schedule it is scored with
    clipped = float(np.dot(tau, np.maximum(per_slot, 0.0)) / scenario.budgets.t_period_s)
    non_monotone = previous is not None and not _ascends(previous.objective, objective)
    return IterationRecord(
        objective=objective,
        objective_clipped=clipped,
        schedule=schedule,
        tau=tau,
        aux=aux,
        diagnostics={
            "max_violation": max_violation,
            "non_monotone": non_monotone,
            "power_inner_iters": power_inner_iters,
        },
    )


def _power_sca_step(prev: IterationRecord,
                    scenario: Scenario) -> tuple[PowerSchedule, int]:
    """Successive convex approximation on the power block at ``prev``'s aux values.

    Repeatedly maximizes the linearized surrogate, re-anchoring at each new
    schedule, until the fixed-aux objective stalls. Every re-anchored solve
    can only increase that objective (tangency plus global upper bound), so
    this converges the difference-of-concave power problem instead of taking
    a single tangent step, which would crawl when the noise powers sit in the
    steep region of the eavesdropper's rate. The first value compared is
    ``prev.objective``: at its own fixed points the fixed-aux objective is
    the closed form that scored the record.
    """
    schedule, value = prev.schedule, prev.objective
    inner = 0
    for inner in range(1, SCA_MAX_INNER + 1):
        schedule = solve_power_subproblem(prev.aux, prev.tau, schedule, scenario)
        new_value = throughput_at_aux(scenario, schedule, prev.tau, prev.aux)
        if new_value - value <= SCA_INNER_TOL * (1.0 + abs(value)):
            break
        value = new_value
    return schedule, inner


def run_bcd(scenario: Scenario, init_schedule: PowerSchedule, init_tau,
            epsilon: float = 1e-3, max_iter: int = 50) -> SolutionTrace:
    """Block-coordinate ascent from a feasible starting point.

    Stops once the fractional objective gain (denominator floored at 1e-12)
    drops below a finite ``epsilon`` > 0, or after ``max_iter`` >= 1 iterations.
    A start infeasible beyond ``FEASIBILITY_TOL`` raises ``InfeasibleStartError``.
    Every iterate is audited for feasibility; an objective decrease beyond
    ``MONOTONE_TOL`` relative is flagged in the iteration diagnostics rather
    than raised. Such a dip is not a rounding effect: the power step ascends
    a surrogate that holds two rate terms at the previous aux values and is
    not a lower bound of the closed form, so the re-scored objective can
    fall. None has been seen at the default 5 x 3 antennas, but with equal
    user and eavesdropper antenna counts 7 to 10 of 10 default topologies
    dip, and the stopping rule takes the drop for convergence.
    """
    max_iter = check_count("max_iter", max_iter)
    epsilon = check_real("epsilon", epsilon, positive=True)
    eps_floor = 1e-12
    initial = _evaluate(scenario, init_schedule, init_tau)

    # the aux blocks' exact solution is the fixed points of the current
    # schedule, which the closed form that scored it has already returned
    prev = initial
    iterations: list[IterationRecord] = []
    converged = False
    for _ in range(max_iter):
        schedule, inner_iters = _power_sca_step(prev, scenario)
        tau = solve_duration_lp(prev.aux, schedule, scenario)
        rec = _evaluate(scenario, schedule, tau, prev, inner_iters)
        iterations.append(rec)
        if (rec.objective - prev.objective) / max(prev.objective, eps_floor) < epsilon:
            converged = True
            break
        prev = rec

    return SolutionTrace(initial=initial, iterations=iterations, converged=converged)
