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
from ..rates import RateEstimate, _check_tau, _logdet2, _weighted_estimate
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
    p_bob, p_an = np.full(nb, c_sig), np.full(n_uavs, c_an)
    p_eve = np.concatenate([p_bob, p_an])  # over the columns of [H_e Q, H_e (I - Q Q^H)]
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
        # space, which the user hears the signal through and no noise
        q = np.linalg.qr(h_bob.conj().swapaxes(-1, -2))[0]
        r_bob = _logdet2(h_bob, p_bob, noise)
        # the eavesdropper hears the signal through the row space, H_e Q, and
        # the noise through the null space, H_e (I - Q Q^H): the projection
        # itself, not H_e H_e^H minus its row-space part, so the noise term
        # keeps its accuracy where the null space is thin
        h_row = h_eve @ q
        h_null = h_eve - h_row @ q.conj().swapaxes(-1, -2)
        r_eve = (_logdet2(np.concatenate([h_row, h_null], axis=-1), p_eve, noise)
                 - _logdet2(h_null, p_an, noise))

        vals = r_bob - r_eve
        diffs[n] = float(vals.mean())
        variances[n] = float(vals.var(ddof=1) / samples)
    return _weighted_estimate(scenario, tau, np.maximum(diffs, 0.0), variances)

