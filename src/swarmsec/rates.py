"""Secrecy-throughput evaluation: closed form via a log-domain fixed point, and
Monte Carlo reference estimators over the small-scale fading.

The closed form rests on a deterministic equivalent of the ergodic log-det
rate: each of the four receiver/power combinations contributes a ``rate_term``
evaluated at the minimizer of a scalar auxiliary variable, and that minimizer
is the unique root of a monotone fixed-point residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import draw_blocks, sample_small_scale
from .errors import NumericalError
from .scenario import PowerSchedule, Scenario, check_count

LOG2E = math.log2(math.e)

#: residual magnitude the fixed-point solver must reach (and is verified against)
FIXED_POINT_TOL = 1e-12


#: row order of every four-term lane stack and of the (4, N) aux array:
#: (receiver, power matrix). ``bob_total`` is the scheduled user's term under
#: total power, ``bob_an`` under the artificial-noise power alone, and likewise
#: ``eve_total`` / ``eve_an`` for the eavesdropper.
TERMS = ("bob_total", "bob_an", "eve_total", "eve_an")


@dataclass(frozen=True)
class RateEstimate:
    """Monte Carlo estimate: sample mean and standard error.

    ``mean`` and ``std_error`` are floats for one power row, and arrays over
    the leading axes of a stack of rows (see ``ergodic_rate_mc``).
    """

    mean: float
    std_error: float


def _check_term_inputs(p, losses, noise) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(p, dtype=float)
    losses = np.asarray(losses, dtype=float)
    if p.shape != losses.shape or p.ndim < 1:
        raise ValueError("powers and losses must be arrays of equal shape (..., L)")
    if not np.all(np.isfinite(p)) or np.any(p < 0.0):
        raise ValueError("powers must be nonnegative and finite")
    if not np.all(np.isfinite(losses)) or np.any(losses <= 0.0):
        raise ValueError("losses must be positive and finite")
    if not (np.isfinite(noise) and noise > 0.0):
        raise ValueError(f"noise power must be positive, got {noise}")
    return p, losses


def _check_aux(aux, scenario: Scenario | None = None) -> np.ndarray:
    """Aux values as floats, nonnegative and finite; with a scenario, also the
    (4, N) array of one value per rate term (rows in ``TERMS`` order) and slot."""
    aux = np.asarray(aux, dtype=float)
    if scenario is not None and aux.shape != (len(TERMS), scenario.n_slots):
        raise ValueError(f"aux must have shape ({len(TERMS)}, {scenario.n_slots}), "
                         f"got {aux.shape}")
    if not (np.all(np.isfinite(aux)) and np.all(aux >= 0.0)):
        raise ValueError(f"aux must be nonnegative and finite, got {aux}")
    return aux


def _col(v) -> np.ndarray:
    """Per-lane value (scalar or over the leading lane axes) against the (..., L) axis."""
    return np.asarray(v, dtype=float)[..., None]


def _out(v):
    """A lone lane as a float, a batch as an array."""
    return float(v) if np.ndim(v) == 0 else v


def _snr_coefficient(n_antennas, losses, aux, noise: float) -> np.ndarray:
    """Per-transmitter SNR per watt of a rate term, n / (noise * e^aux * loss)."""
    return _col(n_antennas) / (losses * noise * _col(np.exp(aux)))


def _log_slope(coef, p) -> np.ndarray:
    """Slope of log2(1 + coef * p) in p."""
    return LOG2E * coef / (1.0 + coef * p)


def rate_term(p, n_antennas, losses, aux, noise: float):
    """Deterministic-equivalent rate term at auxiliary value ``aux`` (bits/s/Hz).

    Sum of per-transmitter log terms with the SNR damped by e^aux, plus the
    convex penalty n_antennas*log2(e)*(aux - 1 + e^-aux). Minimizing over
    aux >= 0 approximates the ergodic MIMO log-det rate. ``p`` and ``losses``
    are (..., L) lane stacks; ``n_antennas`` and ``aux`` broadcast over the
    leading lane axes. A single lane of shape (L,) gives a float.
    """
    p, losses = _check_term_inputs(p, losses, noise)
    aux = _check_aux(aux)
    n = np.asarray(n_antennas, dtype=float)
    snr = _snr_coefficient(n, losses, aux, noise) * p
    logsum = np.sum(np.log1p(snr), axis=-1) * LOG2E
    return _out(logsum + n * LOG2E * (aux - 1.0 + np.exp(-aux)))


def rate_term_gradient(p, n_antennas, losses, aux, noise: float) -> np.ndarray:
    """Gradient of ``rate_term`` in the powers, elementwise (bits/s/Hz per W).

    Batched like ``rate_term``.
    """
    p, losses = _check_term_inputs(p, losses, noise)
    return _log_slope(_snr_coefficient(n_antennas, losses, _check_aux(aux), noise), p)


def _residual(x, n, aux, noise):
    """Fixed-point residual and its slope in aux, per lane; ``n`` is a column."""
    damp = np.exp(-aux)
    sx = x * damp[..., None]
    den = noise + n * sx
    value = np.sum(sx / den, axis=-1) - 1.0 + damp
    slope = -np.sum(noise * sx / (den * den), axis=-1) - damp
    return value, slope


def fixed_point_residual(p, n_antennas, losses, aux, noise: float):
    """Stationarity residual of ``rate_term`` in aux; positive left of the root.

    Strictly decreasing in aux, nonnegative at aux = 0, with a unique root at
    the minimizer. Equals the relative residual of the equivalent fixed-point
    equation in w = e^aux. Batched like ``rate_term``.
    """
    p, losses = _check_term_inputs(p, losses, noise)
    value, _ = _residual(p / losses, _col(n_antennas), np.asarray(aux, dtype=float), noise)
    return _out(value)


def solve_fixed_point(p, n_antennas, losses, noise: float):
    """Minimizing auxiliary value for ``rate_term``, per lane: root of the residual.

    In w = e^aux the residual times w is concave, nonnegative at w = 1 and
    negative beyond w = 1 + sum(p/losses)/noise. Each lane starts at that
    upper end and takes Newton steps in w, which descend monotonically onto
    the root; a step that leaves the lane's bracket bisects it instead. Each
    lane stops on its own test, so it gives the same bits alone or in any
    batch. Guarantees |residual| <= 1e-12 per lane (raises NumericalError
    naming the worst lane otherwise); all-zero lanes return exactly 0.
    Batched like ``rate_term``.
    """
    p, losses = _check_term_inputs(p, losses, noise)
    x, n = p / losses, _col(n_antennas)
    hi = np.log1p(np.sum(x, axis=-1) / noise)
    lo = np.zeros_like(hi)
    t = hi.copy()
    value = np.zeros_like(hi)
    active = np.ones(hi.shape, dtype=bool)
    for _ in range(100):
        fresh, slope = _residual(x, n, t, noise)
        value = np.where(active, fresh, value)
        active &= np.abs(value) > 0.1 * FIXED_POINT_TOL
        if not active.any():
            break
        lo = np.where(active & (value > 0.0), t, lo)
        hi = np.where(active & (value <= 0.0), t, hi)
        # Newton on F(w) = w * residual: dF/dw = residual + slope, and
        # w - F/F' = w * (1 - residual/(residual + slope)), taken in aux = log w
        with np.errstate(divide="ignore", invalid="ignore"):
            step = t + np.log1p(-value / (value + slope))
        step = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
        active &= step != t  # the bracket has closed to rounding
        t = np.where(active, step, t)

    score = np.where(active, np.inf, np.abs(value))
    if np.any(score > FIXED_POINT_TOL):
        flat = int(np.argmax(score))
        worst = tuple(int(i) for i in np.unravel_index(flat, score.shape))
        raise NumericalError(f"fixed point not certified at lane {worst}",
                             {"lane": worst, "aux": float(t[worst]),
                              "residual": float(value[worst])})
    return _out(np.maximum(t, 0.0))


def _re_dot(u: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Re(u^H z) per draw for (m, M) arrays with the draws on the last axis."""
    return np.einsum("im,im->m", u.real, z.real) + np.einsum("im,im->m", u.imag, z.imag)


def _tridiagonal_gram(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Householder tridiagonal form T of H H^H for a batch of channels h: (M, n, L).

    Works with the draws on the last axis: the Gram is an (n, n, M) array and
    each reflection is a few whole-array operations. Returns T's real
    diagonal, (n, M), and the squared moduli of its off-diagonal, (n - 1, M),
    which is all a log-det of I + s T needs.
    """
    n = h.shape[1]
    g = np.empty((n, n, h.shape[0]), dtype=complex)
    for i in range(n):
        # column i on and below the diagonal, mirrored above it
        g[i:, i] = np.einsum("mjl,ml->jm", h[:, i:], h[:, i].conj())
        np.conjugate(g[i + 1:, i], out=g[i, i + 1:])
    off2 = np.empty((n - 1, h.shape[0]))
    for k in range(n - 2):
        # column k below the diagonal, x, becomes (beta, 0, ...) with |beta| = |x|
        # under the reflection I - tau v v^H, v = x + e^{i arg x0} |x| e1; where
        # x has no tail to zero, tau = 0 leaves the trailing block as it is
        x, rest = g[k + 1:, k], g[k + 1:, k + 1:]
        head2, tail2 = _re_dot(x[:1], x[:1]), _re_dot(x[1:], x[1:])
        off2[k] = head2 + tail2
        alpha, head = np.sqrt(off2[k]), np.sqrt(head2)
        tau = np.divide(1.0, alpha * (alpha + head), out=np.zeros_like(alpha),
                        where=tail2 > 0.0)
        v = x.copy()
        v[0] += np.divide(x[0], head, out=np.ones_like(x[0]), where=head > 0.0) * alpha
        # rest <- (I - tau v v^H) rest (I - tau v v^H) = rest - v q^H - q v^H,
        # with q = w - (tau/2)(v^H w) v, w = tau rest v, and v^H w real
        q = np.einsum("ijm,jm->im", rest, v)
        q *= tau
        q -= (0.5 * tau * _re_dot(v, q)) * v
        q_conj, v_conj = q.conj(), v.conj()
        for j in range(n - k - 1):
            rest[:, j] -= v * q_conj[j]
            rest[:, j] -= q * v_conj[j]
    if n > 1:
        # the last column below the diagonal is one entry, with no tail to zero:
        # its reflection would have tau = 0 on every draw
        off2[n - 2] = _re_dot(g[n - 1:, n - 2], g[n - 1:, n - 2])
    idx = np.arange(n)
    return g.real[idx, idx], off2


def _logdet2_tridiagonal(diag: np.ndarray, off2: np.ndarray, c: float,
                         noise: float) -> np.ndarray:
    """log2 det(I + c T / noise) per draw, T as ``_tridiagonal_gram`` gives it.

    The LDL^T pivots of I + s T, s = c / noise, are d_k = 1 + e_k with
    e_0 = s a_0 and e_k = s a_k - s^2 |b_{k-1}|^2 / d_{k-1}; the log-det is
    the sum of log2 d_k, each taken through log1p so that small s keeps its
    relative accuracy.
    """
    s = c / noise
    e = s * diag[0]
    total = np.log1p(e)
    for a, b2 in zip(diag[1:], off2):
        e = s * a - s * s * b2 / (1.0 + e)
        total += np.log1p(e)
    return total * LOG2E


def _reduce(h: np.ndarray, profile: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_tridiagonal_gram`` of H diag(sqrt(profile)), columns of zero profile
    dropped, taken block by block of draws (``draw_blocks``), each block
    scaled on its own; every draw's reduction depends on that draw only.

    A single block is reduced straight into its own result: result arrays
    allocated beside it cost the null-space baseline (2000 draws, one block)
    about 1000 more page faults per call.
    """
    on = profile > 0.0
    scale = None if np.all(profile == 1.0) else np.sqrt(profile[on])

    def reduced(g):
        if scale is not None:
            g = g[..., on]
            g *= scale
        return _tridiagonal_gram(g)

    blocks = draw_blocks(len(h))
    if len(blocks) == 1:
        return reduced(h)
    m, n = h.shape[:2]
    diag, off2 = np.empty((n, m)), np.empty((n - 1, m))
    for block in blocks:
        diag[:, block], off2[:, block] = reduced(h[block])
    return diag, off2


def _logdet2(h: np.ndarray, p: np.ndarray, noise: float,
             reductions: dict | None = None) -> np.ndarray:
    """log2 det(I + H diag(p) H^H / noise) per draw for a batch of channels h: (M, n, L).

    With c = max(p), this is log2 det(I + (c / noise) T), T the tridiagonal
    form of the Gram of H diag(sqrt(p / c)) (columns of zero power dropped).
    ``reductions`` caches, per power profile p / c, one reduction and the
    log-det at each level c already scored, and belongs to this one ``h`` and
    ``noise``: equal powers at any level share profile 1, which reduces H
    itself, and a repeated power row runs no second pivot recurrence. A
    reduction runs block by block of draws (``_reduce``), a pivot recurrence
    over all draws at once. The returned array may be the cached one, so it
    must not be written to. An all-zero p gives exactly 0.
    """
    c = p.max()
    if c == 0.0:
        return np.zeros(h.shape[0])
    profile = p / c
    reductions = {} if reductions is None else reductions
    key = profile.tobytes()
    if key not in reductions:
        reductions[key] = (_reduce(h, profile), {})
    reduction, levels = reductions[key]
    if c not in levels:
        levels[c] = _logdet2_tridiagonal(*reduction, c, noise)
    return levels[c]


def _check_mc_powers(losses, p_num, p_den, noise) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One receiver's (L,) losses and two equal-shape (..., L) power stacks."""
    losses = np.asarray(losses, dtype=float)
    p_num, p_den = np.asarray(p_num, dtype=float), np.asarray(p_den, dtype=float)
    if losses.ndim != 1 or p_num.shape != p_den.shape or p_den.shape[-1:] != losses.shape:
        raise ValueError("p_num and p_den must be (..., L) stacks of equal shape "
                         "over the (L,) losses")
    _check_term_inputs(p_den, np.broadcast_to(losses, p_den.shape), noise)
    if np.any(p_num < 0.0) or not np.all(np.isfinite(p_num)):
        raise ValueError("p_num must be nonnegative and finite")
    return losses, p_num, p_den


def ergodic_rate_mc(losses, p_num, p_den, noise: float, n_antennas: int,
                    samples: int, rng: np.random.Generator) -> RateEstimate:
    """Monte Carlo ergodic rate of a receiver treating ``p_den`` power as interference.

    Per fading draw the rate is
    log2 det(I + H P_num H^H (H P_den H^H + noise I)^-1), the log-det of
    P_num + P_den against the noise floor minus that of P_den. The powers are
    (..., L) stacks of rows, and every row is evaluated on the same
    ``samples`` draws of H: one row of shape (L,) gives float estimates, a
    stack arrays over its leading axes. Each log-det is ``_logdet2``'s pivot
    recurrence on a tridiagonal form, reduced once per call and power
    profile, so equal-power rows at any level share one reduction, and run
    once per call and power row, so rows that share ``p_den`` share its
    log-det. Each row gives the same bits alone or in any stack.
    """
    n_antennas = check_count("n_antennas", n_antennas)
    samples = check_count("samples", samples)
    losses, p_num, p_den = _check_mc_powers(losses, p_num, p_den, noise)
    h = sample_small_scale(rng, n_antennas, losses.size, samples, losses)
    reductions = {}
    mean, stderr = [], []
    for total, den in zip((p_num + p_den).reshape(-1, losses.size),
                          p_den.reshape(-1, losses.size)):
        vals = _logdet2(h, total, noise, reductions) - _logdet2(h, den, noise, reductions)
        mean.append(vals.mean())
        stderr.append(vals.std(ddof=1) / math.sqrt(samples) if samples > 1 else 0.0)
    shape = p_den.shape[:-1]
    return RateEstimate(mean=_out(np.reshape(mean, shape)),
                        std_error=_out(np.reshape(stderr, shape)))


def _check_tau(scenario: Scenario, tau) -> np.ndarray:
    tau = np.asarray(tau, dtype=float)
    if tau.shape != (scenario.n_slots,):
        raise ValueError(f"tau must have one entry per slot, got shape {tau.shape}")
    if np.any(tau < 0.0) or not np.all(np.isfinite(tau)):
        raise ValueError("durations must be nonnegative and finite")
    return tau


def _check_pair(scenario: Scenario, schedule: PowerSchedule, tau) -> np.ndarray:
    if schedule.p_u.shape != (scenario.n_slots, scenario.n_uavs):
        raise ValueError(f"schedule shape {schedule.p_u.shape} does not match the scenario "
                         f"({scenario.n_slots} slots, {scenario.n_uavs} UAVs)")
    return _check_tau(scenario, tau)


def _lane_stack(scenario: Scenario, schedule: PowerSchedule):
    """Powers and losses as (4, N, L) stacks and antenna counts as a (4, 1)
    column, one row per rate term in ``TERMS`` order."""
    p_u, p_a = schedule.p_u, schedule.p_a
    nb, ne = scenario.bob_antennas, scenario.eve_antennas
    p = np.stack([p_u, p_a, p_u, p_a])
    q = np.stack([scenario.loss_bob, scenario.loss_bob, scenario.loss_eve, scenario.loss_eve])
    return p, np.array([[nb], [nb], [ne], [ne]]), q


def _secrecy_rate(terms) -> np.ndarray:
    """Per-slot secrecy rate from a (4, N) stack of rate terms in ``TERMS`` order.

    The scheduled user's rate with artificial noise as interference, minus
    the eavesdropper's: (bob_total - bob_an) - (eve_total - eve_an).
    """
    return terms[0] - terms[1] - terms[2] + terms[3]


def per_slot_secrecy(scenario: Scenario, schedule: PowerSchedule, aux) -> np.ndarray:
    """Per-slot secrecy rates evaluated at a fixed (4, N) aux array."""
    aux = _check_aux(aux, scenario)
    p, n, q = _lane_stack(scenario, schedule)
    return _secrecy_rate(rate_term(p, n, q, aux, scenario.noise_w))


def secrecy_throughput_closed_form(scenario: Scenario, schedule: PowerSchedule,
                                   tau) -> tuple[float, np.ndarray, np.ndarray]:
    """Closed-form average secrecy throughput in bits/s/Hz.

    Solves the 4N fixed points as one batch, forms the per-slot secrecy rate
    (scheduled user's rate minus the eavesdropper's), and averages weighted by
    slot durations over the scheduling period. Returns the throughput, the
    auxiliary minimizers as a (4, N) array in ``TERMS`` order (they depend on
    the schedule only), and the per-slot secrecy rates before weighting.
    """
    tau = _check_pair(scenario, schedule, tau)
    p, n, q = _lane_stack(scenario, schedule)
    aux = solve_fixed_point(p, n, q, scenario.noise_w)
    per_slot = per_slot_secrecy(scenario, schedule, aux)
    value = float(np.dot(tau, per_slot) / scenario.budgets.t_period_s)
    return value, aux, per_slot


def secrecy_throughput_mc(scenario: Scenario, schedules, tau, samples: int,
                          rng: np.random.Generator):
    """Monte Carlo average secrecy throughput over independent per-slot fading.

    Per slot the scheduled user's ergodic rate (artificial noise as
    interference) minus the eavesdropper's is estimated from ``samples``
    draws. Standard errors propagate through the weighted sum. ``schedules``
    is one ``PowerSchedule``, which gives one estimate, or a sequence of them,
    which gives a list: each slot's fading is drawn once per receiver and
    every schedule is evaluated on those draws (common random numbers), with
    the same bits as that schedule alone.
    """
    single = isinstance(schedules, PowerSchedule)
    schedules = [schedules] if single else list(schedules)
    if not schedules:
        raise ValueError("at least one schedule is needed")
    for schedule in schedules:
        tau = _check_pair(scenario, schedule, tau)
    p_u = np.stack([s.p_u for s in schedules])
    p_a = np.stack([s.p_a for s in schedules])
    p_s = np.maximum(p_u - p_a, 0.0)
    nb, ne = scenario.bob_antennas, scenario.eve_antennas
    noise = scenario.noise_w
    streams = rng.spawn(2 * scenario.n_slots)

    diffs = np.empty((len(schedules), scenario.n_slots))
    variances = np.empty_like(diffs)
    for i in range(scenario.n_slots):
        bob = ergodic_rate_mc(scenario.loss_bob[i], p_s[:, i], p_a[:, i], noise, nb,
                              samples, streams[2 * i])
        eve = ergodic_rate_mc(scenario.loss_eve[i], p_s[:, i], p_a[:, i], noise, ne,
                              samples, streams[2 * i + 1])
        diffs[:, i] = bob.mean - eve.mean
        variances[:, i] = bob.std_error ** 2 + eve.std_error ** 2
    estimates = [_weighted_estimate(scenario, tau, d, v)
                 for d, v in zip(diffs, variances)]
    return estimates[0] if single else estimates


def _weighted_estimate(scenario: Scenario, tau, diffs, variances) -> RateEstimate:
    """Per-slot estimates averaged over the period, weighted by the slot durations;
    the per-slot variances propagate to the standard error."""
    period = scenario.budgets.t_period_s
    return RateEstimate(mean=float(np.dot(tau, diffs) / period),
                        std_error=float(math.sqrt(np.dot(tau ** 2, variances)) / period))
