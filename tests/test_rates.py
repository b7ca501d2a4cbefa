"""Rate terms, fixed points, and closed-form vs Monte Carlo throughput."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import exp1

from swarmsec import channel, rates
from swarmsec.channel import sample_small_scale, substream
from swarmsec.errors import NumericalError
from swarmsec.harness.baseline import baseline_null_space
from swarmsec.optimizer import (solve_duration_lp, solve_power_subproblem,
                                throughput_at_aux)
from swarmsec.rates import (FIXED_POINT_TOL, LOG2E, _logdet2_tridiagonal,
                            _tridiagonal_gram, ergodic_rate_mc,
                            fixed_point_residual, per_slot_secrecy, rate_term,
                            secrecy_throughput_closed_form, secrecy_throughput_mc,
                            solve_fixed_point)
from swarmsec.scenario import PowerSchedule

from conftest import (feasible_schedule, logdet2_quadratic, small_scenario,
                      tridiagonal_gram_reference)


# ---------------------------------------------------------------------------
# rate_term

def test_rate_term_matches_inline_formula():
    p = np.array([1.0, 0.3])
    losses = np.array([4.0, 2.5])
    n, noise, t = 2, 0.5, 0.3
    expected = sum(math.log1p(n * pi / (qi * noise * math.exp(t))) * LOG2E
                   for pi, qi in zip(p, losses))
    expected += n * LOG2E * (t - 1.0 + math.exp(-t))
    assert rate_term(p, n, losses, t, noise) == pytest.approx(expected, rel=1e-14)


def test_rate_term_zero_power_is_penalty_only():
    # no signal: only the convex penalty term remains, zero at t = 0
    assert rate_term([0.0], 3, [1.0], 0.0, 1e-12) == 0.0
    t = 0.7
    assert rate_term([0.0, 0.0], 2, [1.0, 2.0], t, 1e-12) == pytest.approx(
        2 * LOG2E * (t - 1.0 + math.exp(-t)), rel=1e-14)


def test_rate_term_input_validation():
    with pytest.raises(ValueError):
        rate_term([-0.1], 2, [1.0], 0.0, 1.0)
    with pytest.raises(ValueError):
        rate_term([0.1], 2, [0.0], 0.0, 1.0)
    with pytest.raises(ValueError):
        rate_term([0.1], 2, [1.0], -0.1, 1.0)
    with pytest.raises(ValueError):
        rate_term([0.1], 2, [1.0], 0.0, 0.0)
    with pytest.raises(ValueError):
        rate_term([0.1, 0.2], 2, [1.0], 0.0, 1.0)


# ---------------------------------------------------------------------------
# fixed point

def test_fixed_point_analytic_single_transmitter():
    # one transmitter, one antenna, p/(q*noise) = 3: the substitution w = e^t
    # turns the stationarity condition into w^2 - w - 3 = 0
    w_expected = (1.0 + math.sqrt(13.0)) / 2.0
    t = solve_fixed_point([3.0], 1, [1.0], 1.0)
    assert t == pytest.approx(math.log(w_expected), abs=1e-13)
    assert abs(fixed_point_residual([3.0], 1, [1.0], t, 1.0)) <= FIXED_POINT_TOL


def test_fixed_point_zero_power_returns_zero():
    assert solve_fixed_point([0.0, 0.0], 2, [1.0, 1.0], 1e-12) == 0.0


def test_fixed_point_residual_property_loop():
    rng = np.random.default_rng(17)
    for _ in range(300):
        size = rng.integers(1, 9)
        n = int(rng.integers(1, 7))
        losses = 10.0 ** rng.uniform(6.0, 11.0, size)
        p = 10.0 ** rng.uniform(-4.0, 0.5, size)
        noise = 10.0 ** rng.uniform(-14.0, -10.0)
        t = solve_fixed_point(p, n, losses, noise)
        assert t >= 0.0
        assert abs(fixed_point_residual(p, n, losses, t, noise)) <= FIXED_POINT_TOL


# L transmitters with powers in [0, 1e2] W (some exactly 0) and losses
# 10**[3, 16], as (powers, log10 losses)
_EXTREME_LANE = st.integers(1, 11).flatmap(lambda size: st.tuples(
    st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e2)), min_size=size, max_size=size),
    st.lists(st.floats(3.0, 16.0), min_size=size, max_size=size)))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_EXTREME_LANE, st.integers(1, 8), st.floats(-16.0, -8.0))
def test_fixed_point_certified_at_extreme_inputs(lane, n, log_noise):
    p, log_losses = lane
    losses, noise = 10.0 ** np.array(log_losses), 10.0 ** log_noise
    t = solve_fixed_point(p, n, losses, noise)
    assert t >= 0.0
    assert abs(fixed_point_residual(p, n, losses, t, noise)) <= FIXED_POINT_TOL


def test_fixed_point_minimizes_rate_term():
    # five-point probe around the root: the term is convex in the aux variable
    rng = np.random.default_rng(23)
    for _ in range(50):
        size = int(rng.integers(1, 6))
        losses = 10.0 ** rng.uniform(7.0, 10.0, size)
        p = 10.0 ** rng.uniform(-3.0, 0.0, size)
        n = int(rng.integers(1, 5))
        noise = 1e-13
        t = solve_fixed_point(p, n, losses, noise)
        best = rate_term(p, n, losses, t, noise)
        for dt in (-1e-2, -1e-3, 1e-3, 1e-2):
            probe = t + dt
            if probe < 0.0:
                continue
            assert rate_term(p, n, losses, probe, noise) >= best - 1e-12


def test_fixed_point_residual_strictly_decreasing():
    p, losses, n, noise = [0.5, 0.2], [2.0, 3.0], 2, 0.1
    ts = np.linspace(0.0, 5.0, 40)
    vals = [fixed_point_residual(p, n, losses, t, noise) for t in ts]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[0] >= 0.0


def test_fixed_point_high_snr_asymptote():
    # equal-power swarm, more transmitters than antennas: w -> (L - N) * snr
    snr = 1e8
    size, n = 6, 2
    t = solve_fixed_point(np.full(size, snr), n, np.ones(size), 1.0)
    assert math.exp(t) == pytest.approx((size - n) * snr, rel=1e-6)


def _acceptance_instances(count=1000, width=8):
    """The acceptance-2 instance distribution, zero-padded to one lane width."""
    rng = np.random.default_rng(2)
    p, losses, n = np.zeros((count, width)), np.ones((count, width)), np.empty(count)
    sizes = []
    for k in range(count):
        size = int(rng.integers(1, 9))
        n[k] = int(rng.integers(1, 6))
        losses[k, :size] = 10.0 ** rng.uniform(7.0, 10.0, size)
        p[k, :size] = 10.0 ** rng.uniform(-3.0, 0.0, size)
        sizes.append(size)
    return p, losses, n, sizes


def test_fixed_point_batch_equals_lanes_alone():
    # zero-power padding leaves each fixed point unchanged, so the padded lanes
    # are the acceptance-2 instances; every lane of the batch must carry the
    # same bits as that lane solved on its own
    p, losses, n, sizes = _acceptance_instances()
    batch = solve_fixed_point(p, n, losses, 1e-13)
    assert batch.shape == (len(sizes),)
    for k, size in enumerate(sizes):
        assert batch[k] == solve_fixed_point(p[k], int(n[k]), losses[k], 1e-13)
        assert abs(fixed_point_residual(p[k, :size], int(n[k]), losses[k, :size],
                                        batch[k], 1e-13)) <= FIXED_POINT_TOL
    residual = fixed_point_residual(p, n, losses, batch, 1e-13)
    assert np.max(np.abs(residual)) <= FIXED_POINT_TOL


def test_fixed_point_batch_zero_lanes_exactly_zero():
    p = np.array([[[0.0, 0.0, 0.0], [0.5, 0.1, 0.0]],
                  [[0.2, 0.3, 0.9], [0.0, 0.0, 0.0]]])
    losses = np.full(p.shape, 1e8)
    t = solve_fixed_point(p, np.array([[2], [3]]), losses, 1e-13)
    assert t.shape == (2, 2)
    assert t[0, 0] == 0.0 and t[1, 1] == 0.0
    assert t[0, 1] > 0.0 and t[1, 0] > 0.0
    assert t[0, 1] == solve_fixed_point(p[0, 1], 2, losses[0, 1], 1e-13)


def test_fixed_point_failure_names_the_worst_lane(monkeypatch):
    # with a zero tolerance no lane can be certified; the error must point at
    # the lane whose residual is largest
    from swarmsec import channel, rates

    p, losses, n, _ = _acceptance_instances(count=20)
    monkeypatch.setattr(rates, "FIXED_POINT_TOL", 0.0)
    with pytest.raises(NumericalError) as exc:
        solve_fixed_point(p.reshape(4, 5, -1), n.reshape(4, 5), losses.reshape(4, 5, -1),
                          1e-13)
    lane = exc.value.diagnostics["lane"]
    assert len(lane) == 2 and str(lane) in str(exc.value)
    worst = abs(fixed_point_residual(p.reshape(4, 5, -1)[lane], n.reshape(4, 5)[lane],
                                     losses.reshape(4, 5, -1)[lane],
                                     exc.value.diagnostics["aux"], 1e-13))
    assert worst == abs(exc.value.diagnostics["residual"]) > 0.0


def test_rate_term_batch_matches_lanes():
    p, losses, n, sizes = _acceptance_instances(count=50)
    aux = solve_fixed_point(p, n, losses, 1e-13)
    batch = rate_term(p, n, losses, aux, 1e-13)
    for k in range(len(sizes)):
        assert batch[k] == rate_term(p[k], int(n[k]), losses[k], aux[k], 1e-13)


# ---------------------------------------------------------------------------
# Monte Carlo estimators

def test_mc_single_antenna_exponential_integral_oracle():
    # one transmitter, one antenna: the ergodic rate has the exact closed form
    # log2(e) * exp(1/snr) * E1(1/snr) over the unit-exponential channel gain,
    # and the fixed point solves x*w^-2 + w^-1 - 1 = 0, i.e. w = (1+sqrt(1+4x))/2
    rng = substream(5, "e1")
    for snr in (1.0, 10.0):
        exact = LOG2E * math.exp(1.0 / snr) * exp1(1.0 / snr)
        est = ergodic_rate_mc([1.0], [snr], [0.0], 1.0, 1, 300_000, rng)
        assert abs(est.mean - exact) <= 4.0 * est.std_error

        w = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * snr))
        t = solve_fixed_point([snr], 1, [1.0], 1.0)
        assert math.exp(t) == pytest.approx(w, rel=1e-12)
        approx = rate_term([snr], 1, [1.0], t, 1.0)
        analytic = LOG2E * (math.log1p(snr / w) + math.log(w) - 1.0 + 1.0 / w)
        assert approx == pytest.approx(analytic, rel=1e-12)
        # the deterministic equivalent is asymptotic in the array sizes; this
        # single-transmitter single-antenna point is its worst case (3-7% low,
        # the absolute gap tending to log2(e)*(1 - euler_gamma) at high snr)
        assert approx < exact
        assert exact - approx <= 0.08 * exact


def test_mc_scale_invariance_exact():
    # doubling noise and every power leaves each per-draw rate bit-identical
    losses = np.array([2.0, 5.0, 1.0])
    p_num = np.array([0.4, 0.0, 0.2])
    p_den = np.array([0.1, 0.3, 0.0])
    a = ergodic_rate_mc(losses, p_num, p_den, 1e-13, 3, 500, substream(1, "s"))
    b = ergodic_rate_mc(losses, 2 * p_num, 2 * p_den, 2e-13, 3, 500, substream(1, "s"))
    assert a.mean == b.mean
    assert a.std_error == b.std_error


def test_mc_zero_numerator_is_exactly_zero():
    est = ergodic_rate_mc([1.0, 2.0], [0.0, 0.0], [0.5, 0.1], 1e-13, 2, 200,
                          substream(2, "z"))
    assert est.mean == 0.0
    assert est.std_error == 0.0


def test_mc_stderr_shrinks_with_samples():
    small = ergodic_rate_mc([1.0], [5.0], [0.0], 1.0, 1, 2_000, substream(3, "v"))
    large = ergodic_rate_mc([1.0], [5.0], [0.0], 1.0, 1, 32_000, substream(3, "v"))
    assert large.std_error < small.std_error
    assert large.std_error == pytest.approx(small.std_error / 4.0, rel=0.2)


def test_mc_input_validation():
    with pytest.raises(ValueError):
        ergodic_rate_mc([1.0], [1.0], [1.0], 1.0, 1, 0, substream(0, "n"))
    with pytest.raises(ValueError):
        ergodic_rate_mc([1.0], [-1.0], [1.0], 1.0, 1, 10, substream(0, "n"))
    # power stacks of one shape over one receiver's (L,) losses
    for losses, p_num, p_den in (([1.0, 2.0], [[1.0, 1.0]], [1.0, 1.0]),
                                 ([1.0, 2.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]),
                                 ([[1.0, 2.0]], [1.0, 1.0], [1.0, 1.0]),
                                 ([1.0, 2.0], [[1.0, 1.0]], [[1.0, -1.0]])):
        with pytest.raises(ValueError):
            ergodic_rate_mc(losses, p_num, p_den, 1.0, 1, 10, substream(0, "n"))
    # a sample count is an integer: 2.5 would draw 2 samples and divide by sqrt(2.5)
    scenario = small_scenario()
    schedule = feasible_schedule(scenario)
    for samples in (2.5, True):
        with pytest.raises(ValueError):
            ergodic_rate_mc([1.0], [1.0], [1.0], 1.0, 1, samples, substream(0, "n"))
        # and so is an antenna count
        with pytest.raises(ValueError):
            ergodic_rate_mc([1.0], [1.0], [1.0], 1.0, samples, 10, substream(0, "n"))
        with pytest.raises(ValueError):
            secrecy_throughput_mc(scenario, schedule, np.ones(2), samples,
                                  substream(0, "n"))


def _mixed_power_rows(n_tx):
    """A (2, 4, L) stack of (p_num, p_den) rows: each of the two log-dets of a
    row has uniform or non-uniform powers, zero powers included."""
    ramp = 0.125 * np.arange(1, n_tx + 1)  # dyadic: ramp + ramp[::-1] is exactly flat
    flat = np.full(n_tx, 0.25)
    zero = np.zeros(n_tx)
    pairs = [(flat, 0.5 * flat), (ramp, flat), (ramp[::-1], ramp), (ramp, ramp),
             (zero, flat), (zero, ramp), (flat, zero), (ramp, zero)]
    p_num, p_den = (np.array(col).reshape(2, 4, n_tx) for col in zip(*pairs))
    return p_num, p_den


def test_mc_batch_equals_rows_alone():
    # every row of a stack gets the bits it gets alone, whether its log-dets
    # share one tridiagonal reduction with other rows or take their own
    for n_antennas, n_tx in ((3, 4), (5, 3), (1, 1)):
        losses = np.linspace(2.0, 6.0, n_tx) * 1e10
        p_num, p_den = _mixed_power_rows(n_tx)
        batch = ergodic_rate_mc(losses, p_num, p_den, 1e-13, n_antennas, 400,
                                substream(8, "batch"))
        assert batch.mean.shape == batch.std_error.shape == (2, 4)
        for idx in np.ndindex(2, 4):
            alone = ergodic_rate_mc(losses, p_num[idx], p_den[idx], 1e-13, n_antennas,
                                    400, substream(8, "batch"))
            assert isinstance(alone.mean, float) and isinstance(alone.std_error, float)
            assert batch.mean[idx] == alone.mean
            assert batch.std_error[idx] == alone.std_error


def test_mc_tridiagonal_log_dets_match_quadratic_log_dets():
    # every log-det is read off the tridiagonal form of the Gram of
    # H diag(sqrt(p / max p)); the quadratic-form log-dets on the same draws
    # are its oracle, for equal and unequal powers with silent transmitters,
    # also where the Gram is singular (more antennas than transmitters)
    for n_antennas, n_tx in ((5, 7), (3, 7), (5, 3)):
        losses = np.linspace(1.0, 9.0, n_tx) * 1e10
        flat, ramp = np.ones(n_tx), np.linspace(0.1, 1.0, n_tx)
        gaps = ramp * (np.arange(n_tx) % 2)  # every other transmitter silent
        rows = [(0.3 * flat, 0.05 * flat), (1e-3 * flat, flat), (2.0 * flat, 0.0 * flat),
                (0.3 * ramp, 0.05 * ramp[::-1]), (1e-3 * gaps, ramp),
                (2.0 * gaps, 0.0 * flat), (ramp, gaps)]
        p_num, p_den = (np.array(col) for col in zip(*rows))
        est = ergodic_rate_mc(losses, p_num, p_den, 1e-13, n_antennas, 2000,
                              substream(n_tx, "eig"))
        h = sample_small_scale(substream(n_tx, "eig"), n_antennas, n_tx, 2000)
        h = h / np.sqrt(losses)
        for k, (num, den) in enumerate(rows):
            vals = (logdet2_quadratic(h, num + den, 1e-13)
                    - logdet2_quadratic(h, den, 1e-13))
            assert est.mean[k] == pytest.approx(vals.mean(), rel=1e-12)
            assert est.std_error[k] == pytest.approx(vals.std(ddof=1) / math.sqrt(2000),
                                                     rel=1e-8)


def _eigvalsh_logdet2(h, s):
    """log2 det(I + s H H^H) per draw and the eigenvalues of H H^H, by one
    eigensolve per draw: the oracle of the tridiagonal pivot recurrence."""
    lam = np.linalg.eigvalsh(h @ h.conj().swapaxes(-1, -2))
    return np.sum(np.log1p(lam * s), axis=-1) * LOG2E, lam


def _oracle_channels():
    """(channels, rank deficient) pairs: full-rank Grams of 1 to 7 antennas,
    a singular one (5 antennas, 3 transmitters), a nearly singular one, and
    one whose antennas 0 and 2 hear nothing (exact zeros to reflect)."""
    cases = []
    for n_antennas, n_tx in ((1, 1), (2, 7), (3, 7), (5, 7), (7, 7), (5, 3)):
        h = sample_small_scale(substream(10 * n_antennas + n_tx, "oracle"),
                               n_antennas, n_tx, 500)
        cases.append((h / np.sqrt(np.linspace(1.0, 4.0, n_tx)), n_antennas > n_tx))
    h = sample_small_scale(substream(57, "oracle"), 5, 7, 500)
    h[:, -1] = h[:, 0] + 1e-6 * h[:, -1]  # last antenna nearly repeats the first
    cases.append((h, True))
    h = sample_small_scale(substream(47, "oracle"), 4, 7, 500)
    h[:, [0, 2]] = 0.0
    cases.append((h, True))
    return cases


def test_tridiagonal_log_dets_match_gram_eigenvalues():
    # per draw, the pivot recurrence on the tridiagonal form against the
    # eigenvalues of H H^H on the same draws, at rel 1e-12 over c/noise from
    # 1e-6 to 1e6. Where H H^H is (nearly) singular, both forms start from a
    # Gram whose eigenvalues rounding moves by about eps*||G||, and a log-det
    # moves by s*eps*||G||/(1 + s*lam) per eigenvalue; n times that
    # first-order floor is added there, and only there
    eps = np.finfo(float).eps
    for h, deficient in _oracle_channels():
        n_antennas = h.shape[1]
        diag, off2 = _tridiagonal_gram(h)
        assert diag.shape == (n_antennas, 500) and off2.shape == (n_antennas - 1, 500)
        for s in 10.0 ** np.arange(-6, 7):
            ref, lam = _eigvalsh_logdet2(h, s)
            floor = np.zeros_like(ref)
            if deficient:
                floor = (n_antennas * eps * LOG2E * lam[:, -1]
                         * np.sum(s / (1.0 + s * np.maximum(lam, 0.0)), axis=-1))
            for c, noise in ((s, 1.0), (s * 1e-13, 1e-13)):
                got = _logdet2_tridiagonal(diag, off2, c, noise)
                assert np.all(np.abs(got - ref) <= 1e-12 * ref + floor)
        assert np.all(_logdet2_tridiagonal(diag, off2, 0.0, 1e-13) == 0.0)


def test_tridiagonal_gram_matches_reference_bit_for_bit():
    # the reduction stops before the last column, whose reflection has no
    # tail to zero and changes nothing: the same bits as applying it, for one
    # and two antennas, singular and nearly singular Grams, and exact zeros
    for h, _ in _oracle_channels():
        got, want = _tridiagonal_gram(h), tridiagonal_gram_reference(h)
        for g, w in zip(got, want):
            assert g.shape == w.shape and np.array_equal(g, w)


def test_mc_one_pivot_recurrence_per_power_row(monkeypatch):
    # validate's shape: seven uniform rows at seven signal levels over one
    # shared artificial-noise row run 7 + 1 recurrences, not 7 + 7
    calls = []
    recurrence = rates._logdet2_tridiagonal

    def counted(*args):
        calls.append(args[2])
        return recurrence(*args)

    monkeypatch.setattr(rates, "_logdet2_tridiagonal", counted)
    losses = np.linspace(2.0, 6.0, 7) * 1e10
    p_num = np.repeat(10.0 ** np.arange(-3.0, 0.5, 0.5)[:, None], 7, axis=1)
    p_den = np.full((7, 7), 0.01)
    est = ergodic_rate_mc(losses, p_num, p_den, 1e-13, 5, 200, substream(3, "count"))
    assert len(calls) == 8 and len(set(calls)) == 8
    assert np.all(np.isfinite(est.mean)) and np.all(est.mean > 0.0)


def test_mc_uniform_rows_call_no_per_draw_solver(monkeypatch):
    # every Monte Carlo log-det, at equal, unequal or zero powers, is read off
    # a tridiagonal form, and the null-space baseline takes one QR per draw
    # and nothing else: an eigensolver, SVD or factorization per draw must not
    # come back unnoticed
    def refuse(*args, **kwargs):
        raise AssertionError("per-draw LAPACK call")

    solvers = ("eig", "eigh", "eigvals", "eigvalsh", "svd", "slogdet", "det", "cholesky")
    for name in solvers:
        monkeypatch.setattr(np.linalg, name, refuse)
    scenario = small_scenario(n_uavs=4)
    est = baseline_null_space(scenario, np.ones(2), 200, substream(0, "guard"))
    assert math.isfinite(est.mean) and est.std_error > 0.0

    monkeypatch.setattr(np.linalg, "qr", refuse)
    losses = np.linspace(2.0, 6.0, 7) * 1e10
    levels = 10.0 ** np.arange(-3.0, 1.0)
    p_num = np.concatenate([np.repeat(levels[:, None], 7, axis=1),
                            levels[:, None] * np.linspace(0.0, 1.0, 7)])
    for n_antennas in (1, 2, 5, 9):
        est = ergodic_rate_mc(losses, p_num, 0.5 * p_num[::-1], 1e-13, n_antennas, 200,
                              substream(n_antennas, "guard"))
        assert np.all(np.isfinite(est.mean)) and np.all(est.mean > 0.0)
        zero = ergodic_rate_mc(losses, np.zeros(7), np.zeros(7), 1e-13, n_antennas, 200,
                               substream(n_antennas, "guard"))
        assert zero.mean == 0.0 and zero.std_error == 0.0
    # the guard is live: each patched solver raises
    for name in solvers + ("qr",):
        with pytest.raises(AssertionError, match="LAPACK"):
            getattr(np.linalg, name)(np.eye(2))


def _in_blocks(monkeypatch, blocks, run):
    """``run()`` at each draw block size, in the order given."""
    results = []
    for block in blocks:
        monkeypatch.setattr(channel, "DRAW_BLOCK", block)
        results.append(run())
    return results


def test_mc_draw_blocks_match_one_pass_bit_for_bit(monkeypatch):
    # a block of all 200 draws is the single-pass oracle; blocks of 7 end in a
    # block of 4 and blocks of 64 in one of 8. Each draw's reduction depends on
    # that draw only, so uniform rows, mixed profiles and a zero-power column
    # give the same bits in any blocks
    samples, n_tx = 200, 7
    losses = np.linspace(2.0, 6.0, n_tx) * 1e10
    levels = 10.0 ** np.arange(-3.0, 0.5, 0.5)[:, None]
    ramp = np.linspace(0.1, 1.0, n_tx)
    silent = np.where(np.arange(n_tx) == 2, 0.0, ramp)
    stacks = [(np.repeat(levels, n_tx, axis=1), np.full((7, n_tx), 0.01)),
              _mixed_power_rows(n_tx),
              (levels * silent, 0.5 * levels[::-1] * silent[::-1])]
    for n_antennas in (1, 5):
        for p_num, p_den in stacks:
            want, *got = _in_blocks(monkeypatch, (samples, 7, 64), lambda: ergodic_rate_mc(
                losses, p_num, p_den, 1e-13, n_antennas, samples, substream(4, "blocks")))
            for est in got:
                assert np.array_equal(est.mean, want.mean)
                assert np.array_equal(est.std_error, want.std_error)


def test_baseline_draw_blocks_match_one_pass_bit_for_bit(monkeypatch):
    # the baseline's QR takes a whole slot at once; its log-dets run in blocks
    scenario = small_scenario(n_uavs=5, bob_antennas=2, eve_antennas=3)
    want, *got = _in_blocks(monkeypatch, (200, 7, 64), lambda: baseline_null_space(
        scenario, np.ones(2), 200, substream(5, "blocks")))
    assert all(est == want for est in got)


def test_mc_memory_is_the_channel_plus_cached_reductions():
    # a call holds the (M, n, L) channel array, the (diag, off2) arrays of its
    # one power profile and its log-det levels; every per-draw temporary,
    # the scaled channel of a non-uniform profile too, is one draw block.
    # The whole-array passes peaked at 2.4 channel arrays
    samples, n_antennas, n_tx = 40_000, 5, 7
    losses = np.linspace(2.0, 6.0, n_tx) * 1e10
    levels = 10.0 ** np.arange(-3.0, 0.5, 0.5)[:, None]
    uniform = (np.repeat(levels, n_tx, axis=1), np.full((7, n_tx), 0.01))
    # rows at power-of-two levels share their profile exactly
    one_profile = (2.0 ** np.arange(-9.0, -2.0)[:, None] * np.linspace(0.1, 1.0, n_tx),
                   np.zeros((7, n_tx)))
    for p_num, p_den in (uniform, one_profile):
        tracemalloc.start()
        try:
            ergodic_rate_mc(losses, p_num, p_den, 1e-13, n_antennas, samples,
                            substream(0, "memory"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * samples * n_antennas * n_tx * np.dtype(complex).itemsize


def test_throughput_mc_schedule_sequence_equals_each_alone():
    scenario = small_scenario(n_uavs=3, n_slots=2)
    rng = np.random.default_rng(4)
    p_u = rng.uniform(0.2, 1.0, (2, 3))
    schedules = [feasible_schedule(scenario),
                 PowerSchedule(p_u, p_u * rng.uniform(0.0, 1.0, (2, 3))),
                 feasible_schedule(scenario, p_u_frac=0.9, p_a_frac=0.9)]
    tau = np.array([2.0, 5.0])
    batch = secrecy_throughput_mc(scenario, schedules, tau, 300, substream(6, "seq"))
    assert isinstance(batch, list) and len(batch) == 3
    for schedule, est in zip(schedules, batch):
        alone = secrecy_throughput_mc(scenario, schedule, tau, 300, substream(6, "seq"))
        assert isinstance(alone.mean, float)
        assert est == alone
    assert batch[2].mean == 0.0  # p_u == p_a: no signal power
    with pytest.raises(ValueError):
        secrecy_throughput_mc(scenario, [], tau, 300, substream(6, "seq"))


# ---------------------------------------------------------------------------
# throughput

def test_throughput_all_noise_is_exactly_zero():
    # p_u == p_a makes every slot's user and eavesdropper terms cancel pairwise
    scenario = small_scenario()
    shape = (scenario.n_slots, scenario.n_uavs)
    schedule = PowerSchedule(np.full(shape, 0.3), np.full(shape, 0.3))
    value, aux, per_slot = secrecy_throughput_closed_form(scenario, schedule,
                                                          np.ones(scenario.n_slots))
    assert value == 0.0
    assert np.all(per_slot == 0.0)
    assert aux.shape == (4, scenario.n_slots)
    bob_total, bob_an, eve_total, eve_an = aux
    assert np.array_equal(bob_total, bob_an)
    assert np.array_equal(eve_total, eve_an)


def test_throughput_duration_weighting():
    scenario = small_scenario()
    schedule = feasible_schedule(scenario)
    tau = np.array([3.0, 7.0])
    value, _, per_slot = secrecy_throughput_closed_form(scenario, schedule, tau)
    assert value == pytest.approx(np.dot(tau, per_slot) / 210.0, rel=1e-14)
    doubled, _, _ = secrecy_throughput_closed_form(scenario, schedule, 2 * tau)
    assert doubled == pytest.approx(2 * value, rel=1e-12)


def test_throughput_closed_form_tracks_monte_carlo():
    scenario = small_scenario(n_uavs=4, n_slots=2, bob_antennas=3, eve_antennas=2)
    schedule = feasible_schedule(scenario, p_u_frac=0.8, p_a_frac=0.25)
    tau = np.array([5.0, 3.0])
    closed, _, _ = secrecy_throughput_closed_form(scenario, schedule, tau)
    mc = secrecy_throughput_mc(scenario, schedule, tau, 40_000, substream(4, "mc"))
    assert abs(closed - mc.mean) <= 0.05 * max(mc.mean, 0.01) + 2.0 * mc.std_error
    assert abs(closed - mc.mean) / max(mc.mean, 1e-9) < 0.02


def test_throughput_shape_validation():
    scenario = small_scenario()
    schedule = feasible_schedule(scenario)
    with pytest.raises(ValueError):
        secrecy_throughput_closed_form(scenario, schedule, np.ones(5))
    # schedules are (N, L) = (2, 3); (3, 2) is the transposed layout
    for shape in ((2, 2), (3, 2)):
        bad = PowerSchedule(np.full(shape, 0.1), np.full(shape, 0.0))
        with pytest.raises(ValueError):
            secrecy_throughput_closed_form(scenario, bad, np.ones(2))


def test_power_schedule_holds_read_only_copies():
    p_u, p_a = np.full((2, 3), 0.5), np.full((2, 3), 0.1)
    schedule = PowerSchedule(p_u, p_a)
    assert p_u.flags.writeable and p_a.flags.writeable
    p_u[0, 0] = 0.9
    assert schedule.p_u[0, 0] == 0.5
    with pytest.raises(ValueError):
        schedule.p_a[0, 0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        schedule.p_u = p_u
    # one 2-D shape for both arrays, finite values
    for bad in ((np.ones(3), np.ones(3)), (np.ones((2, 3)), np.ones((3, 2))),
                (np.ones((1, 2, 3)), np.ones((1, 2, 3))),
                (np.ones((2, 3)), np.full((2, 3), np.nan))):
        with pytest.raises(ValueError):
            PowerSchedule(*bad)


def test_aux_variables_validation():
    # every consumer of the (4, N) aux array rejects a negative or non-finite
    # value and any other shape: (4, 1) rows that would broadcast over all N
    # slots, 3-D arrays, three rows, a single row
    scenario = small_scenario(n_slots=10)
    schedule = feasible_schedule(scenario)
    tau = np.ones(scenario.n_slots)
    _, aux, _ = secrecy_throughput_closed_form(scenario, schedule, tau)
    negative = aux.copy()
    negative[0, 3] = -0.1
    non_finite = aux.copy()
    non_finite[2, 5] = np.inf
    bad = [negative, non_finite, np.zeros((4, 1)), np.zeros((4, 1, 1)),
           aux[:, :, None], aux[:3], aux[0]]
    uses = [lambda a: per_slot_secrecy(scenario, schedule, a),
            lambda a: throughput_at_aux(scenario, schedule, tau, a),
            lambda a: solve_duration_lp(a, schedule, scenario),
            lambda a: solve_power_subproblem(a, tau, schedule, scenario)]
    for use in uses:
        use(aux)
        for a in bad:
            with pytest.raises(ValueError):
                use(a)


# ---------------------------------------------------------------------------
# curvature, used by the optimizer's surrogate argument

def test_rate_term_convex_in_aux():
    rng = np.random.default_rng(31)
    for _ in range(30):
        size = int(rng.integers(1, 5))
        losses = 10.0 ** rng.uniform(7.0, 10.0, size)
        p = 10.0 ** rng.uniform(-3.0, 0.0, size)
        n = int(rng.integers(1, 5))
        t = rng.uniform(0.05, 3.0)
        h = 1e-4
        f = [rate_term(p, n, losses, t + k * h, 1e-13) for k in (-1, 0, 1)]
        assert f[0] + f[2] - 2 * f[1] >= -1e-12


def test_rate_term_concave_in_powers():
    rng = np.random.default_rng(37)
    for _ in range(30):
        size = int(rng.integers(1, 5))
        losses = 10.0 ** rng.uniform(7.0, 10.0, size)
        p = 10.0 ** rng.uniform(-2.0, 0.0, size)
        d = rng.uniform(0.1, 1.0, size)
        n = int(rng.integers(1, 5))
        t = rng.uniform(0.0, 2.0)
        h = 1e-4 * float(np.min(p / d))  # keep p - h*d nonnegative
        f = [rate_term(p + k * h * d, n, losses, t, 1e-13) for k in (-1, 0, 1)]
        assert f[0] + f[2] - 2 * f[1] <= 1e-12
