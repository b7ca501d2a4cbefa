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
    phi = baseline_power_split(nb, ne) if signal_fraction is None else signal_fraction
    if (isinstance(phi, bool) or not isinstance(phi, (int, float, np.integer, np.floating))
            or not 0.0 <= phi <= 1.0):
        raise ValueError(f"signal fraction must be a number in [0, 1], got {phi!r}")
    phi = float(phi)

    pooled = n_uavs * scenario.budgets.p_max_w
    c_sig = phi * pooled / nb
    c_an = (1.0 - phi) * pooled / (n_uavs - nb)
    noise = scenario.noise_w
    # powers over the columns of T below: the user's row space, then the null space
    p = np.repeat([c_sig, c_an], [nb, min(n_uavs - nb, ne)])

    diffs = np.empty(scenario.n_slots)
    variances = np.empty(scenario.n_slots)
    for n, stream in enumerate(rng.spawn(scenario.n_slots)):
        # the user's rows, then the eavesdropper's, drawn in that order
        h = np.concatenate([sample_small_scale(stream, nb, n_uavs, samples),
                            sample_small_scale(stream, ne, n_uavs, samples)], axis=1)
        h[:, :nb] /= np.sqrt(scenario.loss_bob[n])
        h[:, nb:] /= np.sqrt(scenario.loss_eve[n])

        # [H_b; H_e] = T Q^T, T = R^T lower trapezoidal, Q^T's rows orthonormal
        # and never formed: H_b H_b^H = T_bb T_bb^H, and with P the projection
        # onto the user's row space, H_e P H_e^H = T_eb T_eb^H carries the
        # signal and H_e (I - P) H_e^H = T_ee T_ee^H the noise
        t = np.linalg.qr(h.swapaxes(-1, -2), mode="r").swapaxes(-1, -2)
        r_bob = _logdet2(t[:, :nb, :nb], p[:nb], noise)
        r_eve = _logdet2(t[:, nb:], p, noise) - _logdet2(t[:, nb:, nb:], p[nb:], noise)

        vals = r_bob - r_eve
        diffs[n] = float(vals.mean())
        variances[n] = float(vals.var(ddof=1) / samples)
    return _weighted_estimate(scenario, tau, np.maximum(diffs, 0.0), variances)
