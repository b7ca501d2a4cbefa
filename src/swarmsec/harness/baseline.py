"""Benchmark scheme: fixed power split with null-space artificial noise.

The swarm spends a fixed fraction of its pooled power budget on the
confidential signal, spread uniformly over the scheduled user's channel row
space, and the rest on artificial noise spread uniformly over the channel's
null space, so the user hears no noise at all. Requires instantaneous channel
knowledge toward the user and more swarm members than user antennas.
"""

from __future__ import annotations

import numpy as np

from ..channel import sample_small_scale
from ..rates import LOG2E, RateEstimate, _check_tau, _weighted_estimate
from ..scenario import Scenario, check_count


def baseline_power_split(bob_antennas: int, eve_antennas: int) -> float:
    """Signal fraction of the pooled power budget: N_B / (N_B + N_E)."""
    if bob_antennas < 1 or eve_antennas < 1:
        raise ValueError("antenna counts must be positive")
    return bob_antennas / (bob_antennas + eve_antennas)


def baseline_null_space(scenario: Scenario, tau, samples: int,
                        rng: np.random.Generator,
                        signal_fraction: float | None = None) -> RateEstimate:
    """Monte Carlo throughput of the null-space artificial-noise benchmark.

    Per fading draw, signal power ``phi * L * p_max`` is split equally over
    the user channel's row space (its N_B right-singular directions) and
    noise power ``(1 - phi) * L * p_max`` equally over its null space.
    Negative per-slot secrecy rates are clipped to zero before duration
    weighting.
    """
    tau = _check_tau(scenario, tau)
    samples = check_count("samples", samples, minimum=2)
    n_uavs, nb, ne = scenario.n_uavs, scenario.bob_antennas, scenario.eve_antennas
    if n_uavs <= nb:
        raise ValueError("null-space noise needs more swarm members than user antennas")
    phi = baseline_power_split(nb, ne) if signal_fraction is None else float(signal_fraction)
    if not 0.0 <= phi <= 1.0:
        raise ValueError(f"signal fraction must lie in [0, 1], got {phi}")

    pooled = n_uavs * scenario.budgets.p_max_w
    c_sig = phi * pooled / nb
    c_an = (1.0 - phi) * pooled / (n_uavs - nb)
    noise = scenario.noise_w
    eye_b, eye_e = np.eye(nb), np.eye(ne)
    streams = rng.spawn(scenario.n_slots)

    diffs = np.empty(scenario.n_slots)
    variances = np.empty(scenario.n_slots)
    for n in range(scenario.n_slots):
        stream = streams[n]
        h_bob = sample_small_scale(stream, nb, n_uavs, samples)
        h_bob /= np.sqrt(scenario.loss_bob[n])
        h_eve = sample_small_scale(stream, ne, n_uavs, samples)
        h_eve /= np.sqrt(scenario.loss_eve[n])

        # reduced QR of H_b^H: Q is an orthonormal basis of the user's row
        # space and H_b H_b^H = R^H R
        q, r = np.linalg.qr(h_bob.conj().swapaxes(-1, -2))
        # the user hears no noise, so its rate is that of c_sig * R^H R
        r_bob = _logdet2_cholesky(eye_b + (c_sig / noise) * _gram(r.conj().swapaxes(-1, -2)))
        # the eavesdropper hears the signal through the user's row space and
        # the noise through its null space: with A = H_e H_b^H (H_b H_b^H)^-1
        # H_b H_e^H the row-space part of H_e H_e^H, the noise covariance is
        # c_an (H_e H_e^H - A) and the signal's c_sig A. A is formed from Q
        # (A = H_e Q Q^H H_e^H), not from the inverse Gram matrix, whose error
        # grows with the square of H_b's condition number
        a = _gram(h_eve @ q)
        an = eye_e + (c_an / noise) * (_gram(h_eve) - a)
        r_eve = _logdet2_cholesky(an + (c_sig / noise) * a) - _logdet2_cholesky(an)

        vals = r_bob - r_eve
        diffs[n] = float(vals.mean())
        variances[n] = float(vals.var(ddof=1) / samples)
    return _weighted_estimate(scenario, tau, np.maximum(diffs, 0.0), variances)


def _gram(h: np.ndarray) -> np.ndarray:
    """H H^H per draw for a batch of matrices (M, ., L)."""
    return h @ h.conj().swapaxes(-1, -2)


def _logdet2_cholesky(k: np.ndarray) -> np.ndarray:
    """log2 det K per draw for a batch of Hermitian positive definite K: (M, n, n)."""
    diag = np.diagonal(np.linalg.cholesky(k), axis1=-2, axis2=-1).real
    return 2.0 * LOG2E * np.sum(np.log(diag), axis=-1)
