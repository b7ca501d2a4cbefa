"""Optimizer blocks: gradients, power/duration subproblems, outer loop."""

import itertools
import math

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import linprog

from swarmsec.errors import NumericalError
from swarmsec.optimizer import (IterationRecord, SolutionTrace, _power_rows,
                                _slot_powers, audit_feasibility, run_bcd,
                                solve_aux_block_max, solve_aux_block_min,
                                solve_duration_lp, solve_power_subproblem,
                                throughput_at_aux)
from swarmsec.rates import (LOG2E, _lane_stack, _log_slope, _snr_coefficient,
                            per_slot_secrecy, rate_term, rate_term_gradient,
                            secrecy_throughput_closed_form, solve_fixed_point)
from swarmsec.scenario import Budgets, PowerSchedule, Scenario

from conftest import (default_budgets, feasible_schedule, make_slot, positions,
                      small_scenario)


def _aux_from(schedule, tau, scenario):
    bob_total, eve_an = solve_aux_block_min(schedule, tau, scenario)
    bob_an, eve_total = solve_aux_block_max(schedule, tau, scenario)
    return np.stack([bob_total, bob_an, eve_total, eve_an])


def rate_term_tangent(p, n_antennas, losses, aux, noise, anchor_p):
    """First-order expansion of ``rate_term`` around ``anchor_p``.

    The term is concave in the powers, so the tangent is a global upper bound,
    exact at the anchor.
    """
    base = rate_term(anchor_p, n_antennas, losses, aux, noise)
    grad = rate_term_gradient(anchor_p, n_antennas, losses, aux, noise)
    return base + np.sum(grad * (np.asarray(p) - anchor_p), axis=-1)


def sca_surrogate_value(scenario, schedule, tau, aux, anchor):
    """Value of the concave power-block surrogate at ``schedule``.

    The two rate terms that would make the fixed-aux objective a difference
    of concave functions (bob_an and eve_total) are replaced by tangents at
    the anchor schedule: a concave global lower bound, exact at the anchor.
    """
    nb, ne, noise = scenario.bob_antennas, scenario.eve_antennas, scenario.noise_w
    qb, qe = scenario.loss_bob, scenario.loss_eve
    bob_total, bob_an, eve_total, eve_an = aux
    per_slot = (rate_term(schedule.p_u, nb, qb, bob_total, noise)
                - rate_term_tangent(schedule.p_a, nb, qb, bob_an, noise, anchor.p_a)
                - rate_term_tangent(schedule.p_u, ne, qe, eve_total, noise, anchor.p_u)
                + rate_term(schedule.p_a, ne, qe, eve_an, noise))
    return float(np.dot(tau, per_slot) / scenario.budgets.t_period_s)


# ---------------------------------------------------------------------------
# gradient and tangent

def test_gradient_matches_centered_differences():
    rng = np.random.default_rng(41)
    for _ in range(30):
        size = int(rng.integers(1, 6))
        losses = 10.0 ** rng.uniform(7.0, 10.0, size)
        p = 10.0 ** rng.uniform(-3.0, 0.0, size)
        n = int(rng.integers(1, 5))
        t = rng.uniform(0.0, 3.0)
        noise = 1e-13
        grad = rate_term_gradient(p, n, losses, t, noise)
        for i in range(size):
            h = 1e-6 * max(p[i], 1e-3)
            up, down = p.copy(), p.copy()
            up[i] += h
            down[i] -= h
            fd = (rate_term(up, n, losses, t, noise)
                  - rate_term(down, n, losses, t, noise)) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-6)


def test_tangent_dominates_with_equality_at_anchor():
    rng = np.random.default_rng(43)
    for _ in range(40):
        size = int(rng.integers(1, 5))
        losses = 10.0 ** rng.uniform(7.0, 10.0, size)
        anchor = 10.0 ** rng.uniform(-3.0, 0.0, size)
        p = 10.0 ** rng.uniform(-3.0, 0.0, size)
        n = int(rng.integers(1, 5))
        t = rng.uniform(0.0, 2.0)
        noise = 1e-13
        exact = rate_term(p, n, losses, t, noise)
        tangent = rate_term_tangent(p, n, losses, t, noise, anchor)
        assert tangent >= exact - 1e-12
        at_anchor = rate_term_tangent(anchor, n, losses, t, noise, anchor)
        assert at_anchor == pytest.approx(rate_term(anchor, n, losses, t, noise),
                                          rel=1e-14)


def test_tangent_at_origin_anchor_is_linear_form():
    losses = np.array([1e8, 3e8])
    p = np.array([0.4, 0.7])
    n, t, noise = 3, 0.5, 1e-13
    zero = np.zeros(2)
    expected = (rate_term(zero, n, losses, t, noise)
                + float(np.dot(rate_term_gradient(zero, n, losses, t, noise), p)))
    assert rate_term_tangent(p, n, losses, t, noise, zero) == pytest.approx(
        expected, rel=1e-14)
    # slope at the origin reduces to log2(e) * n / (losses * noise * e^t)
    slope = rate_term_gradient(zero, n, losses, t, noise)
    manual = LOG2E * n / (losses * noise * math.exp(t))
    assert np.allclose(slope, manual, rtol=1e-14)


# ---------------------------------------------------------------------------
# surrogate dominance (fixed-aux objective vs its concave lower bound)

def test_surrogate_lower_bounds_objective():
    scenario = small_scenario()
    anchor = feasible_schedule(scenario, p_u_frac=0.5, p_a_frac=0.2)
    tau = np.array([4.0, 6.0])
    aux = _aux_from(anchor, tau, scenario)
    exact_at_anchor = throughput_at_aux(scenario, anchor, tau, aux)
    surr_at_anchor = sca_surrogate_value(scenario, anchor, tau, aux, anchor)
    assert surr_at_anchor == pytest.approx(exact_at_anchor, abs=1e-12)

    rng = np.random.default_rng(47)
    for _ in range(20):
        u = rng.uniform(0.0, 1.0, (scenario.n_slots, scenario.n_uavs))
        a = rng.uniform(0.0, 1.0, u.shape) * u
        other = PowerSchedule(u, a)
        exact = throughput_at_aux(scenario, other, tau, aux)
        surr = sca_surrogate_value(scenario, other, tau, aux, anchor)
        assert exact >= surr - 1e-12


# ---------------------------------------------------------------------------
# power subproblem

def _far_eve_scenario(p_max_w, e_max_j):
    # eavesdropper 10000 km out: its rate terms are numerically negligible
    slot = make_slot((0.0, 0.0), [(10.0, 0.0, 120.0)], (1.0e7, 0.0))
    budgets = Budgets(p_max_w=p_max_w, e_max_j=e_max_j, t_total_s=10.0,
                      tau_max_s=8.0, t_period_s=210.0)
    return Scenario(env=small_scenario().env, **positions([slot]), bob_antennas=2,
                    eve_antennas=2, noise_w=1e-13, budgets=budgets)


def test_power_no_eavesdropper_energy_bound():
    scenario = _far_eve_scenario(p_max_w=1.0, e_max_j=2.0)
    tau = np.array([4.0])
    anchor = PowerSchedule(np.array([[0.4]]), np.array([[0.3]]))
    aux = _aux_from(anchor, tau, scenario)
    out = solve_power_subproblem(aux, tau, anchor, scenario)
    assert out.p_u[0, 0] == pytest.approx(2.0 / 4.0, abs=1e-6)  # E / tau
    assert out.p_a[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_power_no_eavesdropper_cap_bound():
    scenario = _far_eve_scenario(p_max_w=1.0, e_max_j=8.0)
    tau = np.array([4.0])
    anchor = PowerSchedule(np.array([[0.4]]), np.array([[0.3]]))
    aux = _aux_from(anchor, tau, scenario)
    out = solve_power_subproblem(aux, tau, anchor, scenario)
    assert out.p_u[0, 0] == pytest.approx(1.0, abs=1e-12)  # P_max
    assert out.p_a[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_power_improves_surrogate_over_anchor():
    rng = np.random.default_rng(53)
    for seed in range(5):
        scenario = small_scenario(n_uavs=2, n_slots=3, rng_seed=seed,
                                  budgets=default_budgets(e_max_j=6.0))
        tau = rng.uniform(1.0, 6.0, 3)
        u = rng.uniform(0.05, 0.5, (3, 2))
        anchor = PowerSchedule(u, rng.uniform(0.0, 1.0, (3, 2)) * u)
        # keep the anchor inside the energy budget
        scale = min(1.0, 6.0 / float((tau @ anchor.p_u).max()) * 0.9)
        anchor = PowerSchedule(anchor.p_u * scale, anchor.p_a * scale)
        aux = _aux_from(anchor, tau, scenario)
        out = solve_power_subproblem(aux, tau, anchor, scenario)
        before = sca_surrogate_value(scenario, anchor, tau, aux, anchor)
        after = sca_surrogate_value(scenario, out, tau, aux, anchor)
        assert after >= before - 1e-10
        assert max(audit_feasibility(scenario, out, tau).values()) <= 1e-9


def test_power_matches_grid_oracle_single_uav():
    # L = 1, N = 2: exhaustive 0.05 W grid over (u1, a1, u2, a2)
    step = 0.05
    for seed in (0, 1, 2):
        budgets = Budgets(p_max_w=1.0, e_max_j=5.0, t_total_s=12.0,
                          tau_max_s=8.0, t_period_s=210.0)
        scenario = small_scenario(n_uavs=1, n_slots=2, rng_seed=seed,
                                  budgets=budgets, eve_distance_m=60.0)
        tau = np.array([3.0, 4.0])
        anchor = PowerSchedule(np.full((2, 1), 0.3), np.full((2, 1), 0.1))
        aux = _aux_from(anchor, tau, scenario)
        out = solve_power_subproblem(aux, tau, anchor, scenario)

        # independent vectorized surrogate over the grid (constants dropped)
        nb, ne, noise = scenario.bob_antennas, scenario.eve_antennas, scenario.noise_w
        qb, qe = scenario.loss_bob[:, 0], scenario.loss_eve[:, 0]
        bob_total, bob_an, eve_total, eve_an = aux
        beta_b = nb / (qb * noise * np.exp(bob_total))
        beta_e = ne / (qe * noise * np.exp(eve_an))
        cb = nb / (noise * np.exp(bob_an) * qb)
        ce = ne / (noise * np.exp(eve_total) * qe)
        gamma_b = LOG2E * cb / (1.0 + cb * anchor.p_a[:, 0])
        gamma_e = LOG2E * ce / (1.0 + ce * anchor.p_u[:, 0])

        grid = np.arange(0.0, 1.0 + step / 2, step)
        u1, a1, u2, a2 = np.meshgrid(grid, grid, grid, grid, indexing="ij")
        feas = (a1 <= u1) & (a2 <= u2) & (tau[0] * u1 + tau[1] * u2 <= 5.0 + 1e-12)
        val = (tau[0] * (np.log1p(beta_b[0] * u1) * LOG2E - gamma_e[0] * u1
                         + np.log1p(beta_e[0] * a1) * LOG2E - gamma_b[0] * a1)
               + tau[1] * (np.log1p(beta_b[1] * u2) * LOG2E - gamma_e[1] * u2
                           + np.log1p(beta_e[1] * a2) * LOG2E - gamma_b[1] * a2))
        val = np.where(feas, val, -np.inf)
        best = np.unravel_index(np.argmax(val), val.shape)
        grid_point = np.array([grid[best[0]], grid[best[1]],
                               grid[best[2]], grid[best[3]]])
        solver_point = np.array([out.p_u[0, 0], out.p_a[0, 0],
                                 out.p_u[1, 0], out.p_a[1, 0]])
        assert np.max(np.abs(solver_point - grid_point)) <= step + 1e-9


def _power_rows_doubling(beta_b, beta_e, gamma_b, gamma_e, tau, p_max, e_max):
    """Reference energy-multiplier search: a doubling bracket, then 120 fixed
    bisection steps, each over-budget UAV masked in explicitly."""
    n_uavs = beta_b.shape[1]

    def used(lam):
        u, _ = _slot_powers(beta_b, beta_e, gamma_b, gamma_e, lam, p_max)
        return tau @ u

    lam = np.zeros(n_uavs)
    need = used(lam) > e_max
    if np.any(need):
        hi = np.ones(n_uavs)
        for _ in range(200):
            over = need & (used(hi) > e_max)
            if not over.any():
                break
            hi[over] *= 2.0
        else:
            raise NumericalError("failed to bracket the energy multiplier",
                                 {"hi": float(hi.max())})
        lo = np.zeros(n_uavs)
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            over = used(np.where(need, mid, 0.0)) > e_max
            lo = np.where(need & over, mid, lo)
            hi = np.where(need & ~over, mid, hi)
        lam = np.where(need, hi, 0.0)

    u, a = _slot_powers(beta_b, beta_e, gamma_b, gamma_e, lam, p_max)
    return u, a, lam


def _power_grids(seed):
    """The power block's (beta_b, beta_e, gamma_b, gamma_e) grids and a
    duration vector with an idle slot, on a seeded 4-slot, 3-UAV instance."""
    rng = np.random.default_rng(seed)
    scenario = small_scenario(n_uavs=3, n_slots=4, rng_seed=seed,
                              eve_distance_m=float(rng.uniform(40.0, 200.0)))
    u = rng.uniform(0.05, 1.0, (4, 3))
    anchor = PowerSchedule(u, rng.uniform(0.0, 1.0, (4, 3)) * u)
    tau = rng.uniform(0.5, 6.0, 4)
    tau[int(rng.integers(4))] = 0.0
    aux = _aux_from(anchor, tau, scenario)
    p, n, q = _lane_stack(scenario, anchor)
    coef = _snr_coefficient(n, q, aux, scenario.noise_w)
    slope = _log_slope(coef, p)
    return coef[0], coef[3], slope[1], slope[2], tau


def test_power_rows_match_doubling_search_bit_for_bit():
    # each UAV's energy at zero multiplier sets budgets under which none, all
    # or some of the three UAVs bind
    for seed in range(12):
        beta_b, beta_e, gamma_b, gamma_e, tau = _power_grids(seed)
        free = tau @ _slot_powers(beta_b, beta_e, gamma_b, gamma_e, 0.0, 1.0)[0]
        for e_max, binding in ((1.5 * free.max(), {0}), (0.5 * free.min(), {3}),
                               (0.5 * (free.min() + free.max()), {1, 2})):
            got = _power_rows(beta_b, beta_e, gamma_b, gamma_e, tau, 1.0, e_max)
            want = _power_rows_doubling(beta_b, beta_e, gamma_b, gamma_e, tau, 1.0, e_max)
            for g, w in zip(got, want):
                assert np.array_equal(g, w), (seed, e_max)
            assert int(np.count_nonzero(got[2])) in binding


def test_power_rows_return_crossings():
    # what both multiplier searches guarantee, whatever float each stops on:
    # every returned multiplier is a crossing, within budget at lambda and
    # over it at the float below lambda, or lambda = 0. The bit-for-bit test
    # above also needs each UAV's energy to be monotone in lambda at float
    # resolution, which the model does not promise
    for seed in range(12):
        beta_b, beta_e, gamma_b, gamma_e, tau = _power_grids(seed)

        def energy(lam):
            return tau @ _slot_powers(beta_b, beta_e, gamma_b, gamma_e, lam, 1.0)[0]

        free = energy(np.zeros(3))
        for e_max in (1.5 * free.max(), 0.5 * free.min(), 0.5 * (free.min() + free.max())):
            for search in (_power_rows, _power_rows_doubling):
                lam = search(beta_b, beta_e, gamma_b, gamma_e, tau, 1.0, e_max)[2]
                assert np.all(energy(lam) <= e_max), (seed, e_max, search.__name__)
                crossing = (energy(np.nextafter(lam, 0.0)) > e_max) | (lam == 0.0)
                assert np.all(crossing), (seed, e_max, search.__name__)


def test_power_multiplier_bound_zeroes_every_slot():
    # the bisection's upper end: at LOG2E * max_n(beta_b + beta_e) no slot
    # transmits, so the bracket starts with a feasible end
    for seed in range(12):
        beta_b, beta_e, gamma_b, gamma_e, _ = _power_grids(seed)
        bound = LOG2E * (beta_b + beta_e).max(axis=0)
        for p_max in (0.1, 1.0, 100.0):
            u, a = _slot_powers(beta_b, beta_e, gamma_b, gamma_e, bound, p_max)
            assert np.all(u == 0.0) and np.all(a == 0.0)


def test_power_idle_slot_keeps_previous_values():
    scenario = small_scenario(n_uavs=2, n_slots=2)
    tau = np.array([5.0, 0.0])
    anchor = PowerSchedule(np.array([[0.3, 0.2], [0.7, 0.4]]),
                           np.array([[0.1, 0.0], [0.6, 0.2]]))
    aux = _aux_from(anchor, tau, scenario)
    out = solve_power_subproblem(aux, tau, anchor, scenario)
    assert np.array_equal(out.p_u[1], anchor.p_u[1])
    assert np.array_equal(out.p_a[1], anchor.p_a[1])


# ---------------------------------------------------------------------------
# duration LP

def _lp_vertex_oracle(coeff, p_u, e_max, t_total, tau_max):
    """Brute-force vertex enumeration of the duration polytope (3 slots)."""
    n = 3
    rows = [np.eye(n)[i] for i in range(n)]          # tau_i <= tau_max
    rows += [-np.eye(n)[i] for i in range(n)]        # -tau_i <= 0
    rows += [p_u[:, l] for l in range(p_u.shape[1])]  # energy rows
    rows += [np.ones(n)]                             # total time
    rhs = [tau_max] * n + [0.0] * n + [e_max] * p_u.shape[1] + [t_total]
    a = np.array(rows)
    b = np.array(rhs)

    best = -np.inf
    for idx in itertools.combinations(range(len(rows)), n):
        sub = a[list(idx)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, b[list(idx)])
        if np.all(a @ x <= b + 1e-9):
            best = max(best, float(coeff @ x))
    return best


def test_duration_lp_matches_vertex_enumeration():
    rng = np.random.default_rng(59)
    for seed in range(12):
        budgets = Budgets(p_max_w=1.0, e_max_j=float(rng.uniform(2.0, 8.0)),
                          t_total_s=12.0, tau_max_s=8.0, t_period_s=210.0)
        scenario = small_scenario(n_uavs=2, n_slots=3, rng_seed=seed,
                                  budgets=budgets,
                                  eve_distance_m=float(rng.uniform(40.0, 200.0)))
        u = rng.uniform(0.1, 1.0, (3, 2))
        schedule = PowerSchedule(u, rng.uniform(0.0, 1.0, (3, 2)) * u)
        aux = _aux_from(schedule, np.ones(3), scenario)
        tau = solve_duration_lp(aux, schedule, scenario)

        coeff = per_slot_secrecy(scenario, schedule, aux) / budgets.t_period_s
        lp_value = float(coeff @ tau)
        oracle = _lp_vertex_oracle(coeff, schedule.p_u, budgets.e_max_j,
                                   budgets.t_total_s, budgets.tau_max_s)
        assert lp_value == pytest.approx(oracle, abs=1e-9)
        assert np.all(tau >= -1e-12) and np.all(tau <= budgets.tau_max_s + 1e-9)
        assert np.all(tau @ schedule.p_u <= budgets.e_max_j + 1e-9)
        assert tau.sum() <= budgets.t_total_s + 1e-9


def _highs_durations(coeff, schedule, budgets):
    """The duration LP through HiGHS directly, as ``solve_duration_lp`` poses it."""
    n = len(coeff)
    res = linprog(
        -coeff, A_ub=np.vstack([schedule.p_u.T, np.ones((1, n))]),
        b_ub=np.concatenate([np.full(schedule.p_u.shape[1], budgets.e_max_j),
                             [budgets.t_total_s]]),
        bounds=[(0.0, budgets.tau_max_s)] * n, method="highs-ds")
    assert res.success
    return np.clip(res.x, 0.0, budgets.tau_max_s)


@pytest.fixture
def linprog_calls(monkeypatch):
    """Record the calls ``solve_duration_lp`` makes to HiGHS."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs["method"])
        return linprog(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", spy)
    return calls


def test_duration_lp_at_slack_budgets_is_the_box_vertex_of_highs(linprog_calls):
    # 3 slots of at most 8 s at <= 1 W use at most 24 J and 24 s: no budget
    # row can bind, so the box vertex is returned without calling HiGHS
    rng = np.random.default_rng(71)
    budgets = default_budgets()
    signs = set()
    for _ in range(12):
        slots = []
        for n in range(3):
            bob = rng.uniform(0.0, 1000.0, 2)
            offsets = [(rng.uniform(-40, 40), rng.uniform(-40, 40), rng.uniform(100, 200))
                       for _ in range(2)]
            # an eavesdropper on top of the user, with more antennas, wins the slot
            slots.append(make_slot(bob, offsets, bob + (0.0 if n == 1 else 400.0)))
        scenario = Scenario(env=small_scenario().env, **positions(slots), bob_antennas=2,
                            eve_antennas=3, noise_w=1e-13, budgets=budgets)
        u = rng.uniform(0.1, 1.0, (3, 2))
        schedule = PowerSchedule(u, rng.uniform(0.0, 1.0, (3, 2)) * u)
        aux = _aux_from(schedule, np.ones(3), scenario)
        tau = solve_duration_lp(aux, schedule, scenario)
        assert linprog_calls == []

        coeff = per_slot_secrecy(scenario, schedule, aux) / budgets.t_period_s
        signs.update(np.sign(coeff))
        assert tau.tobytes() == _highs_durations(coeff, schedule, budgets).tobytes()
        oracle = _lp_vertex_oracle(coeff, schedule.p_u, budgets.e_max_j,
                                   budgets.t_total_s, budgets.tau_max_s)
        assert float(coeff @ tau) == pytest.approx(oracle, abs=1e-12)
    assert signs == {-1.0, 1.0}


@pytest.mark.parametrize("case", ["zero coefficient", "energy row", "time row"])
def test_duration_lp_calls_highs_unless_the_box_vertex_is_the_unique_optimum(
        case, linprog_calls):
    budgets = {"zero coefficient": default_budgets(),
               "energy row": default_budgets(e_max_j=5.0),
               "time row": default_budgets(t_total_s=12.0)}[case]
    scenario = small_scenario(n_uavs=2, n_slots=3, budgets=budgets)
    schedule = feasible_schedule(scenario, p_u_frac=0.7, p_a_frac=0.1)
    if case == "zero coefficient":  # a silent slot has a secrecy rate of exactly 0
        schedule = PowerSchedule(schedule.p_u * [[1], [0], [1]],
                                 schedule.p_a * [[1], [0], [1]])
    aux = _aux_from(schedule, np.ones(3), scenario)
    coeff = per_slot_secrecy(scenario, schedule, aux) / budgets.t_period_s
    box = np.where(coeff > 0.0, budgets.tau_max_s, 0.0)
    assert {"zero coefficient": coeff[1] == 0.0 and np.all(coeff[[0, 2]] > 0.0),
            "energy row": np.any(box @ schedule.p_u > budgets.e_max_j),
            "time row": box.sum() > budgets.t_total_s}[case]

    tau = solve_duration_lp(aux, schedule, scenario)
    assert linprog_calls == ["highs-ds"]
    assert tau.tobytes() == _highs_durations(coeff, schedule, budgets).tobytes()
    oracle = _lp_vertex_oracle(coeff, schedule.p_u, budgets.e_max_j,
                               budgets.t_total_s, budgets.tau_max_s)
    assert float(coeff @ tau) == pytest.approx(oracle, abs=1e-12)


def test_duration_lp_single_slot_formula():
    slot = make_slot((0.0, 0.0), [(5.0, 0.0, 120.0), (-8.0, 3.0, 150.0)],
                     (100.0, 0.0))
    budgets = Budgets(p_max_w=1.0, e_max_j=5.0, t_total_s=10.0, tau_max_s=8.0,
                      t_period_s=210.0)
    scenario = Scenario(env=small_scenario().env, **positions([slot]), bob_antennas=3,
                        eve_antennas=2, noise_w=1e-13, budgets=budgets)
    schedule = PowerSchedule(np.array([[0.9, 0.6]]), np.array([[0.2, 0.1]]))
    aux = _aux_from(schedule, np.ones(1), scenario)
    assert per_slot_secrecy(scenario, schedule, aux)[0] > 0.0
    tau = solve_duration_lp(aux, schedule, scenario)
    expected = min(8.0, 10.0, 5.0 / 0.9)
    assert tau[0] == pytest.approx(expected, abs=1e-9)


def test_duration_lp_nonpositive_rates_give_zero():
    # eavesdropper colocated with the user but with more antennas: every
    # per-slot secrecy rate is strictly negative, so no slot is worth airtime
    slots = [make_slot((50.0 * n, 0.0), [(4.0, 2.0, 110.0)], (50.0 * n, 0.0))
             for n in range(2)]
    budgets = default_budgets()
    scenario = Scenario(env=small_scenario().env, **positions(slots), bob_antennas=1,
                        eve_antennas=3, noise_w=1e-13, budgets=budgets)
    schedule = PowerSchedule(np.full((2, 1), 0.5), np.full((2, 1), 0.1))
    aux = _aux_from(schedule, np.ones(2), scenario)
    assert np.all(per_slot_secrecy(scenario, schedule, aux) < 0.0)
    tau = solve_duration_lp(aux, schedule, scenario)
    assert np.allclose(tau, 0.0, atol=1e-12)


def test_duration_lp_vertex_activity():
    # with every coefficient positive some budget must be active at the optimum
    rng = np.random.default_rng(61)
    for seed in range(6):
        budgets = Budgets(p_max_w=1.0, e_max_j=float(rng.uniform(3.0, 20.0)),
                          t_total_s=12.0, tau_max_s=8.0, t_period_s=210.0)
        scenario = small_scenario(n_uavs=2, n_slots=3, rng_seed=100 + seed,
                                  budgets=budgets)
        schedule = feasible_schedule(scenario, p_u_frac=0.7, p_a_frac=0.1)
        aux = _aux_from(schedule, np.ones(3), scenario)
        coeff = per_slot_secrecy(scenario, schedule, aux)
        if np.any(coeff <= 0.0):
            continue
        tau = solve_duration_lp(aux, schedule, scenario)
        time_active = tau.sum() >= budgets.t_total_s - 1e-9
        cap_active = np.any(tau >= budgets.tau_max_s - 1e-9)
        energy_active = np.any(tau @ schedule.p_u >= budgets.e_max_j - 1e-9)
        assert time_active or cap_active or energy_active


# ---------------------------------------------------------------------------
# aux blocks

def test_aux_blocks_match_direct_fixed_points(scenario_2slot):
    schedule = feasible_schedule(scenario_2slot)
    tau = np.ones(2)
    bob_total, eve_an = solve_aux_block_min(schedule, tau, scenario_2slot)
    bob_an, eve_total = solve_aux_block_max(schedule, tau, scenario_2slot)
    for n in range(2):
        assert bob_total[n] == solve_fixed_point(
            schedule.p_u[n], scenario_2slot.bob_antennas,
            scenario_2slot.loss_bob[n], scenario_2slot.noise_w)
        assert eve_an[n] == solve_fixed_point(
            schedule.p_a[n], scenario_2slot.eve_antennas,
            scenario_2slot.loss_eve[n], scenario_2slot.noise_w)
        assert bob_an[n] == solve_fixed_point(
            schedule.p_a[n], scenario_2slot.bob_antennas,
            scenario_2slot.loss_bob[n], scenario_2slot.noise_w)
        assert eve_total[n] == solve_fixed_point(
            schedule.p_u[n], scenario_2slot.eve_antennas,
            scenario_2slot.loss_eve[n], scenario_2slot.noise_w)


def test_aux_blocks_symmetric_receivers_coincide():
    # eavesdropper sitting on the user with equal antennas sees equal losses,
    # so the per-slot fixed points must coincide exactly
    slots = [make_slot((100.0 * n, 50.0), [(6.0, -3.0, 130.0), (0.0, 9.0, 170.0)],
                       (100.0 * n, 50.0)) for n in range(2)]
    scenario = Scenario(env=small_scenario().env, **positions(slots), bob_antennas=2,
                        eve_antennas=2, noise_w=1e-13, budgets=default_budgets())
    schedule = feasible_schedule(scenario, p_u_frac=0.4, p_a_frac=0.15)
    bob_total, eve_an = solve_aux_block_min(schedule, np.ones(2), scenario)
    bob_an, eve_total = solve_aux_block_max(schedule, np.ones(2), scenario)
    assert np.array_equal(bob_total, eve_total)
    assert np.array_equal(bob_an, eve_an)


# ---------------------------------------------------------------------------
# feasibility audit

def test_audit_feasibility_flags_each_violation():
    scenario = small_scenario(budgets=default_budgets(p_max_w=1.0, e_max_j=5.0,
                                                      t_total_s=10.0, tau_max_s=8.0))
    good = feasible_schedule(scenario, p_u_frac=0.5, p_a_frac=0.1)
    tau = np.ones(2)
    assert max(audit_feasibility(scenario, good, tau).values()) == 0.0

    shape = good.p_u.shape
    neg_an = PowerSchedule(good.p_u, np.full(shape, -0.01))
    assert audit_feasibility(scenario, neg_an, tau)["an_nonneg"] == pytest.approx(0.01)

    an_over = PowerSchedule(np.full(shape, 0.2), np.full(shape, 0.3))
    assert audit_feasibility(scenario, an_over, tau)["an_le_total"] == pytest.approx(0.1)

    hot = PowerSchedule(np.full(shape, 1.4), np.full(shape, 0.0))
    audit = audit_feasibility(scenario, hot, tau)
    assert audit["power_cap"] == pytest.approx(0.4)
    assert audit["energy"] == 0.0  # 2.8 J over two unit slots stays under 5 J

    assert audit_feasibility(scenario, good, np.array([-0.5, 1.0]))["tau_nonneg"] == 0.5
    assert audit_feasibility(scenario, good, np.array([9.0, 1.0]))["tau_cap"] == 1.0
    assert audit_feasibility(scenario, good, np.array([7.0, 7.0]))["time_total"] == 4.0

    big_tau = np.array([8.0, 8.0])
    energy = audit_feasibility(scenario, good, big_tau)["energy"]
    assert energy == pytest.approx(max(0.0, 0.5 * 16.0 - 5.0))


# ---------------------------------------------------------------------------
# outer loop

def _bcd_setup(seed=0, **budget_kw):
    scenario = small_scenario(rng_seed=seed, budgets=default_budgets(**budget_kw))
    schedule = feasible_schedule(scenario, p_u_frac=0.5, p_a_frac=0.05)
    tau = np.ones(scenario.n_slots)
    return scenario, schedule, tau


def test_bcd_huge_epsilon_stops_after_one_iteration():
    # from a converged point the first-pass gain is far below a huge epsilon,
    # so the stopping rule must fire after exactly one recorded iteration
    scenario, schedule, tau = _bcd_setup()
    warm = run_bcd(scenario, schedule, tau, epsilon=1e-3, max_iter=50).final
    trace = run_bcd(scenario, warm.schedule, warm.tau, epsilon=10.0, max_iter=50)
    assert len(trace.iterations) == 1
    assert trace.converged


def test_bcd_rejects_infeasible_start():
    scenario, schedule, tau = _bcd_setup()
    hot = PowerSchedule(schedule.p_u + 2.0, schedule.p_a)
    with pytest.raises(ValueError):
        run_bcd(scenario, hot, tau)


def test_bcd_rejects_bad_stopping_rules():
    # the config's bcd_max_iter and bcd_epsilon rules: no empty trace, no
    # boolean or fractional count, and a tolerance that is finite and positive
    scenario, schedule, tau = _bcd_setup()
    for max_iter in (0, -2, True, 1.5):
        with pytest.raises(ValueError):
            run_bcd(scenario, schedule, tau, max_iter=max_iter)
    for epsilon in (float("nan"), 0.0, -1.0, float("inf"), True):
        with pytest.raises(ValueError):
            run_bcd(scenario, schedule, tau, epsilon=epsilon)


def test_bcd_solves_each_iterations_fixed_points_once(monkeypatch):
    # the aux blocks reuse the closed form's fixed points: 4N lanes for the
    # starting point plus 4N per iteration's closed-form evaluation
    from swarmsec import optimizer, rates

    lanes = []
    solve = rates.solve_fixed_point

    def counting(p, n_antennas, losses, noise):
        lanes.append(int(np.prod(np.shape(p)[:-1])))
        return solve(p, n_antennas, losses, noise)

    monkeypatch.setattr(rates, "solve_fixed_point", counting)
    monkeypatch.setattr(optimizer, "solve_fixed_point", counting)
    scenario, schedule, tau = _bcd_setup(seed=1)
    trace = run_bcd(scenario, schedule, tau, epsilon=1e-4, max_iter=8)
    assert sum(lanes) == 4 * scenario.n_slots * (len(trace.iterations) + 1)
    assert len(lanes) == len(trace.iterations) + 1


def test_bcd_monotone_feasible_and_consistent():
    # asymmetric receivers (more legitimate antennas than eavesdropper ones)
    # give the smooth ascent regime: monotone trace, few iterations
    scenario = small_scenario(n_uavs=4, bob_antennas=3, eve_antennas=2,
                              rng_seed=2,
                              budgets=default_budgets(e_max_j=6.0, t_total_s=12.0))
    schedule = feasible_schedule(scenario, p_u_frac=0.5, p_a_frac=0.05)
    trace = run_bcd(scenario, schedule, np.ones(scenario.n_slots),
                    epsilon=1e-3, max_iter=30)
    assert trace.converged
    assert trace.is_monotone()
    final = trace.final
    assert final.objective >= trace.initial.objective - 1e-10
    assert final.diagnostics["max_violation"] <= 1e-9
    assert final.diagnostics["power_inner_iters"] >= 1
    # the recorded objective is the closed form at the recorded point
    value, _, per_slot = secrecy_throughput_closed_form(scenario, final.schedule,
                                                        final.tau)
    assert value == final.objective
    clip = float(np.dot(final.tau, np.maximum(per_slot, 0.0)) / 210.0)
    assert clip == final.objective_clipped
    assert final.objective_clipped >= final.objective


def test_sca_step_starts_from_the_recorded_objective(monkeypatch):
    # the power step compares its first solve against prev.objective; at a
    # record's own fixed points the fixed-aux objective is that same number
    from swarmsec import optimizer

    binding = []

    def recording(*args):
        u, a, lam = _power_rows(*args)
        binding.append(bool(np.any(lam > 0.0)))
        return u, a, lam

    monkeypatch.setattr(optimizer, "_power_rows", recording)
    for bob_antennas, eve_antennas in ((3, 2), (4, 1)):
        scenario = small_scenario(n_uavs=4, bob_antennas=bob_antennas,
                                  eve_antennas=eve_antennas, rng_seed=2,
                                  budgets=default_budgets(e_max_j=1.0, t_total_s=12.0))
        schedule = feasible_schedule(scenario, p_u_frac=0.2, p_a_frac=0.05)
        trace = run_bcd(scenario, schedule, np.ones(scenario.n_slots), max_iter=30)
        for rec in [trace.initial] + trace.iterations:
            assert throughput_at_aux(scenario, rec.schedule, rec.tau, rec.aux) == rec.objective
    assert any(binding)  # the energy budget binds


def test_bcd_flags_dip_instead_of_failing():
    # nearly symmetric receivers (equal antenna counts, eavesdropper path loss
    # close to the legitimate one) can make a re-evaluated step dip; the dip
    # must land in the diagnostics flag, never an exception, and the flag must
    # agree exactly with the trace-level monotonicity predicate
    scenario, schedule, tau = _bcd_setup(seed=2, e_max_j=6.0, t_total_s=12.0)
    trace = run_bcd(scenario, schedule, tau, epsilon=1e-3, max_iter=30)
    assert trace.converged
    flagged = any(r.diagnostics["non_monotone"] for r in trace.iterations)
    assert flagged != trace.is_monotone()
    for rec in trace.iterations:
        assert rec.diagnostics["max_violation"] <= 1e-9


def test_bcd_objectives_property_and_trace_shape():
    scenario, schedule, tau = _bcd_setup(seed=3)
    trace = run_bcd(scenario, schedule, tau, epsilon=1e-4, max_iter=8)
    assert trace.objectives == [it.objective for it in trace.iterations]
    assert 1 <= len(trace.iterations) <= 8
    for rec in trace.iterations:
        assert rec.schedule.p_u.shape == (scenario.n_slots, scenario.n_uavs)
        assert rec.tau.shape == (scenario.n_slots,)
        assert not rec.diagnostics["non_monotone"]
    # a recorded point cannot be changed behind the trace's back
    with pytest.raises(ValueError):
        trace.final.schedule.p_u[0, 0] = 0.0
    with pytest.raises(ValueError):
        trace.final.tau[0] = 99.0
    with pytest.raises(ValueError):
        trace.initial.tau[0] = 99.0


def test_solution_trace_monotone_tolerance():
    def rec(val):
        return IterationRecord(objective=val, objective_clipped=val,
                               schedule=None, tau=None, aux=None)

    up = SolutionTrace(rec(1.0), [rec(1.1), rec(1.2)], True)
    assert up.is_monotone()
    dip = SolutionTrace(rec(1.0), [rec(1.1), rec(1.1 - 1e-9)], True)
    assert dip.is_monotone()
    drop = SolutionTrace(rec(1.0), [rec(1.1), rec(0.9)], True)
    assert not drop.is_monotone()
