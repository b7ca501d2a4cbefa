"""Benchmark scheme: fixed power split with null-space artificial noise.

The swarm spends a fixed fraction of its pooled power budget on the
confidential signal, spread uniformly over the scheduled user's channel row
space, and the rest on artificial noise spread uniformly over the channel's
null space, so the user hears no noise at all. Requires instantaneous channel
knowledge toward the user and more swarm members than user antennas.
"""

from __future__ import annotations

import math

import numpy as np

from ..channel import sample_small_scale
from ..rates import RateEstimate, _check_tau, _logdet2_quadratic, _rate_draws
from ..scenario import Scenario


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
    the user channel's right-singular directions and noise power
    ``(1 - phi) * L * p_max`` equally over its null space. Negative per-slot
    secrecy rates are clipped to zero before duration weighting.
    """
    tau = _check_tau(scenario, tau)
    if samples < 2:
        raise ValueError("need at least two samples")
    n_uavs, nb, ne = scenario.n_uavs, scenario.bob_antennas, scenario.eve_antennas
    if n_uavs <= nb:
        raise ValueError("null-space noise needs more swarm members than user antennas")
    phi = baseline_power_split(nb, ne) if signal_fraction is None else float(signal_fraction)
    if not 0.0 <= phi <= 1.0:
        raise ValueError(f"signal fraction must lie in [0, 1], got {phi}")

    pooled = n_uavs * scenario.budgets.p_max_w
    c_sig = phi * pooled / nb
    c_an = (1.0 - phi) * pooled / (n_uavs - nb)
    # powers per right-singular direction of the user channel: the signal on
    # its nb row-space directions, the noise on the rest (its null space)
    row_space = np.arange(n_uavs) < nb
    p_sig = np.where(row_space, c_sig, 0.0)
    p_an = np.where(row_space, 0.0, c_an)
    noise = scenario.noise_w
    streams = rng.spawn(scenario.n_slots)

    diffs = np.empty(scenario.n_slots)
    variances = np.empty(scenario.n_slots)
    for n in range(scenario.n_slots):
        stream = streams[n]
        h_bob = sample_small_scale(stream, nb, n_uavs, samples) / np.sqrt(scenario.loss_bob[n])
        h_eve = sample_small_scale(stream, ne, n_uavs, samples) / np.sqrt(scenario.loss_eve[n])

        # the user hears no noise, so its rate is that of c_sig * H_b H_b^H;
        # the eavesdropper's channel, rotated into the user's right-singular
        # basis (one SVD per draw), sees both powers as diagonal
        _, _, vh = np.linalg.svd(h_bob, full_matrices=True)
        r_bob = _logdet2_quadratic(h_bob, np.full(n_uavs, c_sig), noise)
        h_rot = np.einsum("mel,mrl->mer", h_eve, vh.conj(), optimize=True)
        r_eve = _rate_draws(h_rot, p_sig, p_an, noise)

        vals = r_bob - r_eve
        diffs[n] = float(vals.mean())
        variances[n] = float(vals.var(ddof=1) / samples)

    period = scenario.budgets.t_period_s
    mean = float(np.dot(tau, np.maximum(diffs, 0.0)) / period)
    stderr = float(math.sqrt(np.dot(tau ** 2, variances)) / period)
    return RateEstimate(mean=mean, std_error=stderr, samples=samples)
