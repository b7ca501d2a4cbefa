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

from .channel import check_array, check_count, check_real, draw_blocks, fill_small_scale
from .errors import NumericalError
from .scenario import PowerSchedule, Scenario

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
    """(..., L) powers and losses of equal shape, and the noise power."""
    p, losses = check_array("powers", p), check_array("losses", losses, positive=True)
    if p.shape != losses.shape or p.ndim < 1:
        raise ValueError("powers and losses must be arrays of equal shape (..., L)")
    check_real("noise", noise, positive=True)
    return p, losses


def _check_aux(aux, scenario: Scenario | None = None) -> np.ndarray:
    """Aux values as floats, nonnegative and finite; with a scenario, also the
    (4, N) array of one value per rate term (rows in ``TERMS`` order) and slot."""
    return check_array("aux", aux, shape=None if scenario is None
                       else (len(TERMS), scenario.n_slots))


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
    return _rate_term(p, n_antennas, losses, _check_aux(aux), noise)


def _rate_term(p, n_antennas, losses, aux, noise: float):
    """``rate_term`` on inputs already checked: float (..., L) powers and
    losses and float aux values, as ``_check_term_inputs`` and
    ``solve_fixed_point`` return them."""
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
    value, _ = _residual(p / losses, _col(n_antennas), _check_aux(aux), noise)
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


def _reflector(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Householder reflection I - tau v v^H per draw for (m, M) vectors x with
    the draws on the last axis: it takes x to (beta, 0, ...) with |beta| = |x|,
    v = x + e^{i arg x0} |x| e1. Where x has no tail to zero, tau = 0 leaves
    everything as it is. Returns (tau, v, |x|^2).
    """
    head2, tail2 = _re_dot(x[:1], x[:1]), _re_dot(x[1:], x[1:])
    norm2 = head2 + tail2
    alpha, head = np.sqrt(norm2), np.sqrt(head2)
    tau = np.divide(1.0, alpha * (alpha + head), out=np.zeros_like(alpha),
                    where=tail2 > 0.0)
    v = x.copy()
    v[0] += np.divide(x[0], head, out=np.ones_like(x[0]), where=head > 0.0) * alpha
    return tau, v, norm2


def _gram(h: np.ndarray) -> np.ndarray:
    """Lower triangle of the Gram H H^H for a batch of channels h: (M, n, L),
    as an (n, n, M) array with the draws last, one column per ``einsum``. The
    entries above the diagonal are left unset, so only the lower triangle may
    be read.
    """
    n = h.shape[1]
    g = np.empty((n, n, h.shape[0]), dtype=complex)
    for i in range(n):
        g[i:, i] = np.einsum("mjl,ml->jm", h[:, i:], h[:, i].conj())
    return g


def _logdet2_pivots(g: np.ndarray, s: float) -> np.ndarray:
    """log2 det(I + s G) per draw from the lower triangle of a Gram G, an
    (n, n, M) array with the draws last as ``_gram`` gives it; G's strict
    lower triangle is overwritten, and nothing above the diagonal is read.

    One pivot pass (LDL^H, no pivoting): the pivots of I + s G are
    d_k = 1 + e_k, e_k = s times the k-th diagonal entry of G's Schur
    complement after k steps, and each step takes column k's outer product,
    scaled by s / d_k, off the rest. As in ``_logdet2_tridiagonal``, the
    log-det is the sum of log2 d_k, each taken through log1p, and a Schur
    diagonal that rounds below 0 is taken as 0; s = 0 gives exactly 0.
    """
    n = g.shape[0]
    diag = g.real[np.arange(n), np.arange(n)]
    e = s * diag[0]
    total = np.log1p(e)
    for k in range(n - 1):
        col = g[k + 1:, k]
        r = s / (1.0 + e)
        diag[k + 1:] -= r * (col.real ** 2 + col.imag ** 2)
        for j in range(k + 1, n - 1):
            g[j + 1:, j] -= (r * col[j - k - 1].conj()) * col[j - k:]
        e = s * diag[k + 1]
        total += np.log1p(np.maximum(e, 0.0, out=e))
    return total * LOG2E


def _tridiagonal_gram(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Householder tridiagonal form T of H H^H for a batch of channels h: (M, n, L).

    Works with the draws on the last axis: the Gram is an (n, n, M) array and
    each reflection is a few whole-array operations. Returns T's real
    diagonal, (n, M), and the squared moduli of its off-diagonal, (n - 1, M),
    which is all a log-det of I + s T needs.
    """
    n = h.shape[1]
    g = _gram(h)
    for i in range(n - 1):
        # mirror column i below the diagonal above it
        np.conjugate(g[i + 1:, i], out=g[i, i + 1:])
    off2 = np.empty((n - 1, h.shape[0]))
    for k in range(n - 2):
        # column k below the diagonal goes to (beta, 0, ...), |beta|^2 = off2[k]
        tau, v, off2[k] = _reflector(g[k + 1:, k])
        rest = g[k + 1:, k + 1:]
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
    relative accuracy. T is positive semidefinite, so e_k >= 0; one that rounds
    below 0 (T of lower rank than its size, at a large s) is taken as 0.
    """
    s = c / noise
    e = s * diag[0]
    total = np.log1p(e)
    for a, b2 in zip(diag[1:], off2):
        e = s * a - s * s * b2 / (1.0 + e)
        total += np.log1p(np.maximum(e, 0.0, out=e))
    return total * LOG2E


def _reduce(h: np.ndarray, profile: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_tridiagonal_gram`` of H diag(sqrt(profile)), columns of zero profile
    dropped, taken block by block of draws (``draw_blocks``), each block
    scaled on its own; every draw's reduction depends on that draw only.
    """
    on = profile > 0.0
    scale = None if np.all(profile == 1.0) else np.sqrt(profile[on])
    m, n = h.shape[:2]
    diag, off2 = np.empty((n, m)), np.empty((n - 1, m))
    for block in draw_blocks(m):
        g = h[block]
        if scale is not None:
            g = g[..., on]
            g *= scale
        diag[:, block], off2[:, block] = _tridiagonal_gram(g)
    return diag, off2


def ergodic_rate_mc(losses, p_num, p_den, noise: float, n_antennas: int,
                    samples: int, rng: np.random.Generator) -> RateEstimate:
    """Monte Carlo ergodic rate of a receiver treating ``p_den`` power as interference.

    Per fading draw the rate is
    log2 det(I + H P_num H^H (H P_den H^H + noise I)^-1), the log-det of
    P_num + P_den against the noise floor minus that of P_den. The powers are
    (..., L) stacks of rows, and every row is evaluated on the same
    ``samples`` draws of H: one row of shape (L,) gives float estimates, a
    stack arrays over its leading axes. Each distinct power row p (by its
    bytes) of the stack's P_num + P_den and P_den rows is scored once: with
    c = max(p), its log-det is the pivot recurrence
    (``_logdet2_tridiagonal``) at level c on the tridiagonal form of the Gram
    of H diag(sqrt(p / c)) (``_reduce``), reduced once per power profile
    p / c, so equal-power rows at any level share one reduction; an all-zero
    row's log-det is exactly 0. Each row's rate is then the difference of two
    of those log-dets, and gives the same bits alone or in any stack.
    ``samples`` is at least 2, as a standard error needs two draws.
    """
    n_antennas = check_count("n_antennas", n_antennas)
    samples = check_count("samples", samples, minimum=2)
    p_num, p_den = check_array("p_num", p_num), check_array("p_den", p_den)
    losses = np.asarray(losses, dtype=float)  # its values are checked as h is drawn
    if losses.ndim != 1 or p_num.shape != p_den.shape or p_den.shape[-1:] != losses.shape:
        raise ValueError("p_num and p_den must be (..., L) stacks of equal shape "
                         "over the (L,) losses")
    check_real("noise", noise, positive=True)
    h = fill_small_scale(rng, np.empty((samples, n_antennas, losses.size), dtype=complex),
                         losses)
    totals = (p_num + p_den).reshape(-1, losses.size)
    dens = p_den.reshape(-1, losses.size)
    reductions, logdets = {}, {}
    for p in np.concatenate([totals, dens]):
        key, c = p.tobytes(), p.max()
        if key in logdets:
            continue
        if c == 0.0:
            logdets[key] = np.zeros(samples)
            continue
        profile = p / c
        profile_key = profile.tobytes()
        if profile_key not in reductions:
            reductions[profile_key] = _reduce(h, profile)
        logdets[key] = _logdet2_tridiagonal(*reductions[profile_key], c, noise)
    mean, stderr = [], []
    for total, den in zip(totals, dens):
        vals = logdets[total.tobytes()] - logdets[den.tobytes()]
        mean.append(vals.mean())
        stderr.append(_std_error(vals))
    shape = p_den.shape[:-1]
    return RateEstimate(mean=_out(np.reshape(mean, shape)),
                        std_error=_out(np.reshape(stderr, shape)))


def _check_tau(scenario: Scenario, tau) -> np.ndarray:
    """Slot durations: one nonnegative finite float per slot."""
    return check_array("tau", tau, shape=(scenario.n_slots,))


def _check_schedule(scenario: Scenario, schedule, tau=None):
    """Exactly one ``PowerSchedule`` of the scenario's (N, L) shape: its ``p_u``
    and ``p_a``, and the durations, if given, checked against the scenario."""
    if not isinstance(schedule, PowerSchedule):
        raise ValueError(f"schedule must be a PowerSchedule, got {type(schedule).__name__}")
    if schedule.p_u.shape != (scenario.n_slots, scenario.n_uavs):
        raise ValueError(f"schedule shape {schedule.p_u.shape} does not match the "
                         f"scenario ({scenario.n_slots} slots, {scenario.n_uavs} UAVs)")
    return schedule.p_u, schedule.p_a, None if tau is None else _check_tau(scenario, tau)


def _check_schedules(scenario: Scenario, schedules, tau=None):
    """``_check_schedule`` for one ``PowerSchedule`` or a nonempty list or tuple
    of them, with the powers as (S, N, L) stacks, S = 1 for one schedule."""
    listed = [schedules] if isinstance(schedules, PowerSchedule) else schedules
    if not isinstance(listed, (list, tuple)) or not listed:
        raise ValueError(f"schedules must be a PowerSchedule or a nonempty list or tuple "
                         f"of them, got {type(schedules).__name__}")
    powers = np.array([_check_schedule(scenario, s)[:2] for s in listed])
    return powers[:, 0], powers[:, 1], None if tau is None else _check_tau(scenario, tau)


def _lane_stack(scenario: Scenario, p_u, p_a):
    """Powers and losses as (..., 4, N, L) stacks for (..., N, L) powers, and
    antenna counts as a (4, 1) column, one row per rate term in ``TERMS``
    order."""
    nb, ne = scenario.bob_antennas, scenario.eve_antennas
    p = np.stack([p_u, p_a, p_u, p_a], axis=-3)
    q = np.empty(p.shape)
    q[..., :2, :, :], q[..., 2:, :, :] = scenario.loss_bob, scenario.loss_eve
    return p, np.array([[nb], [nb], [ne], [ne]]), q


def _secrecy_rate(terms) -> np.ndarray:
    """Per-slot secrecy rate from a (..., 4, N) stack of rate terms in ``TERMS``
    order.

    The scheduled user's rate with artificial noise as interference, minus
    the eavesdropper's: (bob_total - bob_an) - (eve_total - eve_an).
    """
    return terms[..., 0, :] - terms[..., 1, :] - terms[..., 2, :] + terms[..., 3, :]


def per_slot_secrecy(scenario: Scenario, schedule: PowerSchedule, aux) -> np.ndarray:
    """Per-slot secrecy rates evaluated at a fixed (4, N) aux array."""
    p_u, p_a, _ = _check_schedule(scenario, schedule)
    aux = _check_aux(aux, scenario)
    p, n, q = _lane_stack(scenario, p_u, p_a)
    return _secrecy_rate(_rate_term(p, n, q, aux, scenario.noise_w))


def secrecy_throughput_closed_form(scenario: Scenario, schedules, tau):
    """Closed-form average secrecy throughput in bits/s/Hz.

    Solves the 4N fixed points of a schedule as one batch, forms the per-slot
    secrecy rate (scheduled user's rate minus the eavesdropper's), and
    averages weighted by slot durations over the scheduling period. For one
    ``PowerSchedule`` it returns a tuple: the throughput, the auxiliary
    minimizers as a (4, N) array in ``TERMS`` order (they depend on the
    schedule only), and the per-slot secrecy rates before weighting. For a
    list or tuple of schedules it returns a list of those tuples. Either way
    the S schedules (S = 1 for one) are stacked into one (S, 4, N, L) lane
    stack scored by one ``solve_fixed_point`` and one rate-term evaluation,
    and each tuple has the same bits as that schedule alone. The stack is
    checked once, by ``solve_fixed_point``.
    """
    p_u, p_a, tau = _check_schedules(scenario, schedules, tau)
    p, n, q = _lane_stack(scenario, p_u, p_a)
    aux = solve_fixed_point(p, n, q, scenario.noise_w)
    per_slot = _secrecy_rate(_rate_term(p, n, q, aux, scenario.noise_w))
    period = scenario.budgets.t_period_s
    results = [(float(np.dot(tau, slots) / period), a, slots)
               for a, slots in zip(aux, per_slot)]
    return results[0] if isinstance(schedules, PowerSchedule) else results


def secrecy_throughput_mc(scenario: Scenario, schedules, tau, samples: int,
                          rng: np.random.Generator):
    """Monte Carlo average secrecy throughput over independent per-slot fading.

    Per slot the scheduled user's ergodic rate (artificial noise as
    interference) minus the eavesdropper's is estimated from ``samples``
    draws. Standard errors propagate through the weighted sum. ``schedules``
    is one ``PowerSchedule``, which gives one estimate, or a list or tuple of
    them, which gives a list; either is scored as one (S, N, L) stack: each
    slot's fading is drawn once per receiver and every schedule is evaluated
    on those draws (common random numbers), with the same bits as alone.
    """
    p_u, p_a, tau = _check_schedules(scenario, schedules, tau)
    p_s = p_u - p_a
    nb, ne = scenario.bob_antennas, scenario.eve_antennas
    noise = scenario.noise_w
    streams = rng.spawn(2 * scenario.n_slots)

    means = np.empty(p_u.shape[:2])
    std_errors = np.empty_like(means)
    for i in range(scenario.n_slots):
        bob = ergodic_rate_mc(scenario.loss_bob[i], p_s[:, i], p_a[:, i], noise, nb,
                              samples, streams[2 * i])
        eve = ergodic_rate_mc(scenario.loss_eve[i], p_s[:, i], p_a[:, i], noise, ne,
                              samples, streams[2 * i + 1])
        means[:, i] = bob.mean - eve.mean
        std_errors[:, i] = np.hypot(bob.std_error, eve.std_error)
    estimates = [_weighted_estimate(scenario, tau, m, e) for m, e in zip(means, std_errors)]
    return estimates[0] if isinstance(schedules, PowerSchedule) else estimates


def _std_error(vals: np.ndarray) -> float:
    """Standard error of the mean of two or more per-draw values. A spread
    below 1e-140 may have underflowed in its squares: it is taken again on the
    values scaled by a power of two (exact) to put their largest in [0.5, 1)."""
    std = vals.std(ddof=1)
    if std < 1e-140:
        k = -math.frexp(float(np.max(np.abs(vals))))[1]
        std = math.ldexp(np.ldexp(vals, k).std(ddof=1), -k)
    return std / math.sqrt(vals.size)


def _weighted_estimate(scenario: Scenario, tau, means, std_errors) -> RateEstimate:
    """Per-slot estimates averaged over the period, weighted by the slot
    durations; the per-slot standard errors combine as a root sum of squares,
    which ``math.hypot`` takes without underflow or overflow."""
    period = scenario.budgets.t_period_s
    return RateEstimate(mean=float(np.dot(tau, means) / period),
                        std_error=math.hypot(*(tau * std_errors)) / period)
