"""Benchmark scheme: fixed power split with null-space artificial noise.

The swarm spends a fixed fraction of its pooled power budget on the
confidential signal, spread uniformly over the scheduled user's channel row
space, and the rest on artificial noise spread uniformly over the channel's
null space, so the user hears no noise at all. Requires instantaneous channel
knowledge toward the user and more swarm members than user antennas. The
split is computed per draw with Householder reflections in plain numpy, and
each log-det is one pivot pass on the lower triangle of a Gram: no SVD,
eigensolver, QR factorization or tridiagonal reduction runs.
"""

from __future__ import annotations

import numpy as np

from ..channel import check_count, fill_small_scale
from ..rates import (RateEstimate, _check_tau, _gram, _logdet2_pivots, _reflector,
                     _std_error, _weighted_estimate)
from ..scenario import Scenario


def baseline_null_space(scenario: Scenario, tau, samples: int,
                        rng: np.random.Generator) -> RateEstimate:
    """Monte Carlo throughput of the null-space artificial-noise benchmark.

    Per fading draw, signal power ``phi * L * p_max`` is split equally over
    the user channel's row space (its N_B right-singular directions) and
    noise power ``(1 - phi) * L * p_max`` equally over its null space, at the
    scheme's fixed split phi = N_B / (N_B + N_E). Negative per-slot secrecy
    rates are clipped to zero before duration weighting.

    Each slot draws the stacked channel [H_b; H_e] into one array with the
    draws last and scores it with ``_null_space_rates``.
    """
    tau = _check_tau(scenario, tau)
    samples = check_count("samples", samples, minimum=2)
    n_uavs, nb, ne = scenario.n_uavs, scenario.bob_antennas, scenario.eve_antennas
    if n_uavs <= nb:
        raise ValueError("null-space noise needs more swarm members than user antennas")
    phi = nb / (nb + ne)
    pooled = n_uavs * scenario.budgets.p_max_w
    c_sig = phi * pooled / nb
    c_an = (1.0 - phi) * pooled / (n_uavs - nb)

    means, std_errors = np.empty(scenario.n_slots), np.empty(scenario.n_slots)
    # the stacked channel [H_b; H_e] with the draws last, and h, one matrix per draw
    g = np.empty((nb + ne, n_uavs, samples), dtype=complex)
    h = g.transpose(2, 0, 1)
    for n, stream in enumerate(rng.spawn(scenario.n_slots)):
        # the user's rows, then the eavesdropper's, drawn in that order
        fill_small_scale(stream, h[:, :nb], scenario.loss_bob[n])
        fill_small_scale(stream, h[:, nb:], scenario.loss_eve[n])
        r_bob, r_eve = _null_space_rates(g, nb, c_sig, c_an, scenario.noise_w)
        vals = r_bob - r_eve
        means[n], std_errors[n] = vals.mean(), _std_error(vals)
    return _weighted_estimate(scenario, tau, np.maximum(means, 0.0), std_errors)


def _null_space_rates(g: np.ndarray, nb: int, c_sig: float, c_an: float,
                      noise: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-draw rates (r_bob, r_eve) of the null-space scheme for the stacked
    channel g = [H_b; H_e], (N_B + N_E, L, M) with the draws last, at power
    c_sig on each of the N_B user row-space directions and c_an on each of
    the L - N_B null-space ones. Works in place: g is overwritten.

    The user's rate is log2 det(I + (c_sig / noise) H_b H_b^H), taken from
    H_b's Gram before the split. N_B Householder reflections from the right
    then make the user's rows lower triangular,
    [H_b; H_e] Q = [T_bb, 0; T_eb, T_ee] with Q unitary, so the user's row
    space is spanned by Q's first N_B columns: H_e P H_e^H = T_eb T_eb^H
    carries the signal and H_e (I - P) H_e^H = T_ee T_ee^H the noise. With
    G_eb and G_ee those two Grams, the eavesdropper's rate is the log-det of
    I + (c_sig G_eb + c_an G_ee) / noise minus that of I + c_an G_ee / noise.
    Each reflection updates one row at a time, every row operation over all
    M draws at once. Each log-det is taken at one power level, so it is one
    pivot pass (``_logdet2_pivots``) on a Gram's lower triangle; at
    c_sig = 0 the eavesdropper's two Grams are equal and its rate is 0.
    """
    h = g.transpose(2, 0, 1)
    r_bob = _logdet2_pivots(_gram(h[:, :nb]), c_sig / noise)
    for i in range(nb):
        # row i's tail x goes to (beta, 0, ...) under I - tau conj(v) v^T, v as
        # ``_reflector`` builds it from x. Only the rows below i are updated,
        # row -= tau (row . conj(v)) v: the rows above it are zero past
        # column i, and no user row is read after its own reflection
        tau, v, _ = _reflector(g[i, i:])
        v_conj = v.conj()
        for row in g[i + 1:, i:]:
            row -= (tau * (row * v_conj).sum(axis=0)) * v
    eve = h[:, nb:]
    total, an = _gram(eve[..., :nb]), _gram(eve[..., nb:])
    for i in range(an.shape[0]):
        # c_sig G_eb + c_an G_ee and c_an G_ee, column by column on and
        # below the diagonal
        an[i:, i] *= c_an
        total[i:, i] *= c_sig
        total[i:, i] += an[i:, i]
    return r_bob, _logdet2_pivots(total, 1.0 / noise) - _logdet2_pivots(an, 1.0 / noise)
