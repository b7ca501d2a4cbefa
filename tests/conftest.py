"""Shared builders: small deterministic scenarios with hand-placed nodes, and
the quadratic-form log-det and tridiagonal-reduction oracles of the Monte
Carlo estimators."""

import numpy as np
import pytest

from swarmsec.channel import environment_preset
from swarmsec.rates import LOG2E
from swarmsec.scenario import Budgets, PowerSchedule, Scenario


def make_slot(bob_xy, uav_offsets, eve_xy):
    """One slot from plain coordinate tuples; uav_offsets are (dx, dy, z) from bob.

    Returns (uav_xyz, bob_xy, eve_xy): L (x, y, z) points and two (x, y) points.
    """
    bx, by = float(bob_xy[0]), float(bob_xy[1])
    uavs = [(bx + dx, by + dy, z) for dx, dy, z in uav_offsets]
    return uavs, (bx, by), (float(eve_xy[0]), float(eve_xy[1]))


def positions(slots):
    """The ``Scenario`` position arrays of a sequence of ``make_slot`` slots."""
    uav, bob, eve = zip(*slots)
    return dict(uav_xyz=np.array(uav), bob_xy=np.array(bob), eve_xy=np.array(eve))


def logdet2_quadratic(h, p, noise):
    """log2 det(I + H diag(p) H^H / noise) for a batch of channels h: (M, Nq, L),
    by forming the matrix and one ``slogdet`` per draw."""
    nq = h.shape[1]
    a = np.einsum("mil,l,mkl->mik", h, p / noise, h.conj(), optimize=True)
    idx = np.arange(nq)
    a[:, idx, idx] += 1.0
    _, logabs = np.linalg.slogdet(a)
    return logabs * LOG2E


def _re_dot(u, z):
    """Re(u^H z) per draw for (m, M) arrays with the draws on the last axis."""
    return np.einsum("im,im->m", u.real, z.real) + np.einsum("im,im->m", u.imag, z.imag)


def tridiagonal_gram_reference(h):
    """Householder tridiagonal form of H H^H for a batch of channels h: (M, n, L),
    as (diag (n, M), squared off-diagonal moduli (n - 1, M)), by n - 1
    reflections: the last one, which has no tail to zero, is applied too
    (with tau = 0, it changes nothing)."""
    n = h.shape[1]
    g = np.empty((n, n, h.shape[0]), dtype=complex)
    for i in range(n):
        g[i:, i] = np.einsum("mjl,ml->jm", h[:, i:], h[:, i].conj())
        np.conjugate(g[i + 1:, i], out=g[i, i + 1:])
    off2 = np.empty((n - 1, h.shape[0]))
    for k in range(n - 1):
        x, rest = g[k + 1:, k], g[k + 1:, k + 1:]
        head2, tail2 = _re_dot(x[:1], x[:1]), _re_dot(x[1:], x[1:])
        off2[k] = head2 + tail2
        alpha, head = np.sqrt(off2[k]), np.sqrt(head2)
        tau = np.divide(1.0, alpha * (alpha + head), out=np.zeros_like(alpha),
                        where=tail2 > 0.0)
        v = x.copy()
        v[0] += np.divide(x[0], head, out=np.ones_like(x[0]), where=head > 0.0) * alpha
        q = np.einsum("ijm,jm->im", rest, v)
        q *= tau
        q -= (0.5 * tau * _re_dot(v, q)) * v
        q_conj, v_conj = q.conj(), v.conj()
        for j in range(n - k - 1):
            rest[:, j] -= v * q_conj[j]
            rest[:, j] -= q * v_conj[j]
    idx = np.arange(n)
    return g.real[idx, idx], off2


def default_budgets(p_max_w=1.0, e_max_j=300.0, t_total_s=100.0, tau_max_s=8.0,
                    t_period_s=210.0):
    return Budgets(p_max_w=p_max_w, e_max_j=e_max_j, t_total_s=t_total_s,
                   tau_max_s=tau_max_s, t_period_s=t_period_s)


def small_scenario(n_uavs=3, n_slots=2, bob_antennas=2, eve_antennas=2,
                   noise_w=1e-13, budgets=None, env_name="suburban",
                   eve_distance_m=100.0, rng_seed=0):
    """Deterministic multi-slot scenario: swarm hovers near each user, eve on a ring.

    Node placement uses a seeded generator so different seeds give different
    geometries while the same seed always rebuilds the same instance.
    """
    rng = np.random.default_rng(rng_seed)
    env = environment_preset(env_name)
    slots = []
    for n in range(n_slots):
        bob_xy = rng.uniform(0.0, 1000.0, size=2)
        offsets = [(rng.uniform(-40, 40), rng.uniform(-40, 40), rng.uniform(100, 200))
                   for _ in range(n_uavs)]
        theta = rng.uniform(0.0, 2.0 * np.pi)
        eve_xy = (bob_xy[0] + eve_distance_m * np.cos(theta),
                  bob_xy[1] + eve_distance_m * np.sin(theta))
        slots.append(make_slot(bob_xy, offsets, eve_xy))
    return Scenario(env=env, **positions(slots), bob_antennas=bob_antennas,
                    eve_antennas=eve_antennas, noise_w=noise_w,
                    budgets=budgets or default_budgets())


def feasible_schedule(scenario, p_u_frac=0.5, p_a_frac=0.2):
    """Uniform feasible schedule at fractions of the power cap."""
    shape = (scenario.n_slots, scenario.n_uavs)
    p_max = scenario.budgets.p_max_w
    return PowerSchedule(np.full(shape, p_u_frac * p_max),
                         np.full(shape, p_a_frac * p_max))


@pytest.fixture
def scenario_2slot():
    return small_scenario()
