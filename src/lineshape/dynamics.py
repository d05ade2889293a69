"""Integrated pulse-window dynamics: the ODE oracle of the closed forms.

:func:`integrate_dynamics` integrates the coupled amplitude equations of
the rectangular pi-pulse of :mod:`lineshape.pulse` and returns a
:class:`PulseTrajectory` (samples, modes and stepper counts; the flags
are the caller's own).  Only ``lineshape verify`` and pulse runs with
``trajectory: true`` call it, so no other run imports (or, without a
bytecode cache, compiles) this module.  Through the pulse window it steps
an atom under the drive D and N modes that it feeds (and, with
back-reaction, that pull on it),

    b_g' = -i conj(D(t)) b_e,  b_e' = -i D(t) b_g - sum_k w_k e^{i delta_k t} y_k,
    y_k' = e^{-i delta_k t} b_e.

Dormand and Prince's order-8 pair with its 5th/3rd-order error estimate
and 7th-order dense output (Hairer, Norsett & Wanner, *Solving ODEs I*,
Sec. II.4-II.6); error norm (RMS over all 2 + N components), step control
and first step are scipy's ``solve_ivp(method="DOP853")`` on the full
right-hand side, so the steps, ``nfev`` and samples are the same.  A step
takes the drive at all 16 stage times and the phasors e^{-i delta_k t_s} at
the 13 it steps with (all 16 with back-reaction, whose Gram matrix takes
the dense stages too) in one call each; the mode stages are those phasors
times the stage's b_e, so each mode sum is one small matrix product, and
only the atom's two components run through the stages in turn.  Dense
output is evaluated once per integration: a step that covers samples runs
the atom's dense stages 13-15 and keeps its start, h, atom state and 16
atom stages, and after the last step one vectorised pass evaluates every
sample.  Without back-reaction a stage skips the pull (x - 0j is x, bit
for bit).  The tableau (C, A with B = A[12] and dense stages 13-15, E5/E3,
D) is copied from scipy/integrate/_ivp/dop853_coefficients.py (SciPy,
BSD-3-Clause, Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy
Developers) as the shortest decimals of the same doubles.

With the field retained, the t >= 0 phase is a discrete level coupled to a
discretised continuum with the drive off: a linear system with constant
coefficients, propagated exactly from its eigenvalues (the roots of a
secular equation) and closed-form eigenvectors, in elementwise numpy.
The package needs numpy alone.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigurationError, DomainError, _check_real, _check_scalar
from .representations import GaugeRepresentation, coupling_pair
from .spectra import _CELL, _table, _write_text, numerator

if TYPE_CHECKING:  # an annotation only
    from .pulse import PulseConfig

__all__ = ["PulseTrajectory", "integrate_dynamics"]

C = np.array([0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
    0.7777777777777778])
A = np.zeros((16, 16))
A[np.tril_indices(16, -1)] = [0.05260015195876773, 0.0197250569845379,
    0.0591751709536137, 0.02958758547680685, 0, 0.08876275643042054, 0.2413651341592667,
    0, -0.8845494793282861, 0.924834003261792, 0.037037037037037035, 0, 0,
    0.17082860872947386, 0.12546768756682242, 0.037109375, 0, 0, 0.17025221101954405,
    0.06021653898045596, -0.017578125, 0.03709200011850479, 0, 0, 0.17038392571223998,
    0.10726203044637328, -0.015319437748624402, 0.008273789163814023,
    0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726,
    27.59209969944671, 20.154067550477894, -43.48988418106996, 0.47766253643826434, 0,
    0, -2.4881146199716677, -0.590290826836843, 21.230051448181193, 15.279233632882423,
    -33.28821096898486, -0.020331201708508627, -0.9371424300859873, 0, 0,
    5.186372428844064, 1.0914373489967295, -8.149787010746927, -18.52006565999696,
    22.739487099350505, 2.4936055526796523, -3.0467644718982196, 2.273310147516538, 0,
    0, -10.53449546673725, -2.0008720582248625, -17.9589318631188, 27.94888452941996,
    -2.8589982771350235, -8.87285693353063, 12.360567175794303, 0.6433927460157636,
    0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
    0.04471061572777259, 0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483,
    -0.2462390374708025, -0.12419142326381637, 0.15329179827876568, 0.00820105229563469,
    0.007567897660545699, -0.008298, 0.03183464816350214, 0, 0, 0, 0,
    0.028300909672366776, 0.053541988307438566, -0.05492374857139099, 0, 0,
    -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456,
    0.1413124436746325, -0.42889630158379194, 0, 0, 0, 0, -4.697621415361164,
    7.683421196062599, 4.06898981839711, 0.3567271874552811, 0, 0, 0,
    -0.0013990241651590145, 2.9475147891527724, -9.15095847217987]
E5 = np.array([0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
    0.08192320648511571, -0.022355307863886294, 0])
D = np.array([-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917,
    2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
    0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
    -4.436036387594894, 10.427508642579134, 0, 0, 0, 0, 242.28349177525817,
    165.20045171727028, -374.5467547226902, -22.113666853125306, 7.733432668472264,
    -30.674084731089398, -9.332130526430229, 15.697238121770845, -31.139403219565178,
    -9.35292435884448, 35.81684148639408, 19.985053242002433, 0, 0, 0, 0,
    -387.0373087493518, -189.17813819516758, 527.8081592054236, -11.57390253995963,
    6.8812326946963, -1.0006050966910838, 0.7777137798053443, -2.778205752353508,
    -60.19669523126412, 84.32040550667716, 11.99229113618279, -25.69393346270375, 0, 0,
    0, 0, -154.18974869023643, -231.5293791760455, 357.6391179106141, 93.40532418362432,
    -37.45832313645163, 104.0996495089623, 29.8402934266605, -43.53345659001114,
    96.32455395918828, -39.17726167561544, -149.72683625798564]).reshape(4, 16)
B = A[12, :12]
E3 = np.append(B, 0.0)
E3[[0, 8, 11]] -= [0.2440944881889764, 0.7338466882816118, 0.022058823529411766]

# Step control; the error estimate is of order 7.
SAFETY, MIN_FACTOR, MAX_FACTOR, _EXPONENT = 0.9, 0.2, 10.0, -1.0 / 8.0
_EPS = np.finfo(float).eps
_MAX_STEPS = 100_000  # the NMAX default of Hairer's DOP853 code
# Each stage row's nonzero (j, a_sj); the rows taking stages 0-12 to a step's
# increment and its E5 and E3 estimates; and those taking all 16 to the dense
# coefficients c_i (the increment, h f minus it, twice it minus h (f + f_new),
# then D): y(t + x h) = y + h sum_i c_i x (1 - x) x ... (i + 1 factors).
# _ROWS and _STEP_ROWS are stored complex with the same bits: CPython already
# multiplies a float by a complex as a complex with zero imaginary part, so
# this only skips the failed float dispatch per term and the cast per product.
_ROWS = [[(j, complex(a)) for j, a in enumerate(A[s, :s]) if a] for s in range(16)]
_STEP_ROWS = np.array([A[12, :13], E5, E3], complex)
_DENSE = np.array([A[12], np.eye(16)[0] - A[12], 2 * A[12] - np.eye(16)[[0, 12]].sum(0), *D])
# The 82 nonzero a_sj as (s, j) row by row, and each stage's (k, j) with k
# the place of a_sj there: the modes' feed h a_sj G_sj is formed only there.
_NONZERO = np.nonzero(np.tril(A, -1))
_FEED = [[(k, j) for k, (r, j) in enumerate(zip(*(i.tolist() for i in _NONZERO)))
          if r == s] for s in range(16)]


def _phasor(theta) -> np.ndarray:
    """exp(1j theta) within 2 eps, from t = tan(theta/2): numpy vectorises
    tan, not sin, cos or complex exp.  cos = (1 - t^2)/(1 + t^2), sin = 2t/
    (1 + t^2); no double is near enough to an odd multiple of pi for t*t to
    overflow."""
    t = np.tan(np.multiply(theta, 0.5))
    tt = np.multiply(t, t)
    u = np.add(tt, 1.0)
    out = np.empty(t.shape, complex)
    np.divide(np.subtract(1.0, tt, out=tt), u, out=out.real)
    np.divide(np.multiply(t, 2.0, out=t), u, out=out.imag)
    return out


@np.errstate(all="ignore")  # every non-finite value raises below
def _dop853(drive, delta, weights, t0: float, t1: float, y0: np.ndarray,
            t_eval: np.ndarray, rtol: float, atol: float):
    """Integrate the system above from t0 to t1 > t0, y0 = (b_g, b_e, y_k).

    ``drive`` maps an array of times to D there; ``weights`` None drops
    the back-reaction.  A step passes when its error estimate over ``atol +
    rtol * max(|y_old|, |y_new|)`` has an RMS over components below 1.
    Returns the atom at ``t_eval``, shape (2, len(t_eval)), the modes at
    t1, and the counts ``nfev`` (full right-hand sides that scipy would
    call), ``accepted_steps`` and ``rejected_steps``.  Never loops: raises
    ``ConfigurationError`` on a non-finite error estimate, on a rejected
    step whose tolerance is below 100 eps |y|, on a rejected step whose
    stage times t + c h round (by half an ulp of t) by more than rtol h, on
    a step below 10 eps max(|t0|, |t1|, t1 - t0), or after _MAX_STEPS.
    Shrinking h cannot pass such a step: once the stage times are that far
    off, the error estimate measures their rounding, not the truncation.
    """
    n, minus_delta = y0.size, -np.asarray(delta, dtype=float)
    sample_times = t_eval.tolist()
    min_step = 10.0 * _EPS * max(abs(t0), abs(t1), t1 - t0)

    def derivative(t, y):  # the full right-hand side, for the first step
        [d], phase = drive(np.array([t])).tolist(), _phasor(minus_delta * t)
        pull = 0j if weights is None else np.vdot(phase, weights * y[2:])
        return np.array([-1j * d.conjugate() * y[1], -1j * d * y[0] - pull,
                         *(phase * y[1])])

    t, y, size_y = t0, y0, np.abs(y0)
    f = derivative(t, y)
    scale = atol + size_y * rtol
    d0, d1 = (np.linalg.norm(v / scale) / n ** 0.5 for v in (y, f))
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t1 - t0)
    d2 = np.linalg.norm((derivative(t + h0, y + h0 * f) - f) / scale) / n ** 0.5 / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** (1.0 / 8.0))
    h_abs = min(100 * h0, h1, t1 - t0)
    stats = {"nfev": 2, "accepted_steps": 0, "rejected_steps": 0}
    f, sample = f[:2].tolist(), 0
    K = np.empty((13, n), complex)  # stages 0-12 of every component
    phased = 13 if weights is None else 16
    dense, dense_k = [], []  # per sampled step: (t, h, b_g, b_e, samples), stages

    def fail(reason):
        return ConfigurationError(f"DOP853 failed at t = {float(t)!r}: {reason}")

    def stages(first, last):  # the atom's; appends to k_g, k_e and b_e
        for s in range(first, last):
            row, sum_g, sum_e = _ROWS[s], 0j, 0j
            for j, a in row:
                sum_g += a * k_g[j]
                sum_e += a * k_e[j]
            g_s, e_s = y_g + h * sum_g, y_e + h * sum_e
            k_g.append(-1j * conj_drives[s] * e_s)
            if weights is None:
                k_e.append(-1j * drives[s] * g_s)
            else:  # the modes' pull, see the step below
                pull = v[s] + sum([feed[k] * b_e[j] for k, j in _FEED[s]])
                k_e.append(-1j * drives[s] * g_s - pull)
            b_e.append(e_s)
        return g_s, e_s

    for _ in range(_MAX_STEPS):
        if t >= t1:
            return _dense_output(dense, dense_k, t_eval), y[2:], stats
        h_abs = max(h_abs, min_step)
        growth = MAX_FACTOR  # 1 once a step was rejected
        y_g, y_e = complex(y[0]), complex(y[1])
        while True:
            if h_abs < min_step:
                raise fail(f"step size fell below {min_step:.3g}")
            t_new = min(t + h_abs, t1)
            h = h_abs = t_new - t
            times = t + C * h
            times[12] = t_new
            drives = drive(times)
            drives, conj_drives = drives.tolist(), np.conj(drives).tolist()
            # Stages 13-15 take the phasors only through the Gram matrix.
            phase = _phasor(np.multiply.outer(times[:phased], minus_delta))
            if weights is not None:
                # The modes pull on stage s by v_s + sum_j (h A G)_sj b_e,j; G and v
                # from one matrix product (numpy's matrix-vector BLAS runs threaded).
                gram = (phase.conj() * weights) @ np.column_stack((phase.T, y[2:]))
                v = gram[:, 16].tolist()
                feed = (h * A[_NONZERO] * gram[_NONZERO]).tolist()
            k_g, k_e, b_e = [f[0]], [f[1]], [y_e]
            atom_new = stages(1, 13)
            stats["nfev"] += 12
            K[:, 0], K[:, 1] = k_g, k_e  # the modes' stages are phase * b_e
            np.multiply(phase[:13], np.array(b_e)[:, None], out=K[:, 2:])
            rows = _STEP_ROWS @ K
            y_new = y + h * rows[0]
            y_new[0], y_new[1] = atom_new  # the stage 12 f_new is taken at
            size_new = np.abs(y_new)
            size = np.maximum(size_y, size_new)
            scale = atol + size * rtol
            ratio = (rows[1:] / scale).view(float)
            err5, err3 = ratio[0] @ ratio[0], ratio[1] @ ratio[1]
            error = (0.0 if err5 == 0 and err3 == 0 else
                     h * err5 / math.sqrt((err5 + 0.01 * err3) * n))
            if not math.isfinite(error):
                raise fail("the error estimate is not finite")
            if error < 1.0:
                h_abs *= (min(growth, SAFETY * error ** _EXPONENT) if error
                          else growth)
                stats["accepted_steps"] += 1
                break
            if np.any(scale < 100.0 * _EPS * size):
                raise fail("rtol and atol ask for less than rounding")
            if 0.5 * math.ulp(max(abs(t), abs(t_new))) > rtol * h:
                raise fail("the stage times t + c h round by more than rtol h")
            h_abs *= max(MIN_FACTOR, SAFETY * error ** _EXPONENT)
            growth = 1.0
            stats["rejected_steps"] += 1

        end = bisect.bisect_right(sample_times, t_new)
        if end > sample:  # the dense coefficients need stages 13-15
            stages(13, 16)
            stats["nfev"] += 3
            dense.append((t, h, y_g, y_e, end - sample))
            dense_k += k_g, k_e
            sample = end
        t, y, f, size_y = t_new, y_new, (k_g[12], k_e[12]), size_new
    raise fail(f"no end after {_MAX_STEPS} steps")


def _dense_output(dense, dense_k, t_eval):
    """The atom at ``t_eval`` (inside [t0, t1]) in one pass over every
    sampled step: its record (t, h, b_g, b_e, number of samples) in
    ``dense``, its 16 stages of b_g and of b_e in ``dense_k``, and _DENSE's
    polynomial (see above)."""
    starts, h, y_g, y_e, counts = (np.array(c) for c in zip(*dense))
    step = np.repeat(np.arange(len(dense)), counts)
    coeffs = (np.array(dense_k) @ _DENSE.T).reshape(len(dense), 2, 7)
    coeffs *= h[:, None, None]
    x = (t_eval - starts[step]) / h[step]
    factors = np.where(np.arange(7) % 2, 1.0 - x[:, None], x[:, None])
    z = np.einsum("ij,ikj->ki", np.cumprod(factors, axis=1), coeffs[step])
    return z + np.array([y_g, y_e])[:, step]


# -- the pulse window ---------------------------------------------------------

# integrate_dynamics: samples per phase, DOP853 tolerances for the pulse
# window, and the post-pulse horizon in units of 1/Gamma.
_SAMPLES, _RTOL, _ATOL, _HORIZON = 401, 1e-11, 1e-13, 8.0


@dataclass
class PulseTrajectory:
    """Pulse-window samples, long-time modes, and the stepper's ``ode_stats``."""

    times: np.ndarray
    b_g: np.ndarray
    b_e: np.ndarray
    mode_grid: np.ndarray
    beta_pulse_end: np.ndarray
    beta_final: np.ndarray
    post_times: np.ndarray | None = None
    post_b_e: np.ndarray | None = None
    ode_stats: dict | None = None

    def to_csv(self, path) -> None:
        """Dump the atomic amplitudes: t,re_bg0,im_bg0,re_be0,im_be0, one
        row per sample, made by :func:`lineshape.spectra._table`."""
        columns = [self.times, self.b_g.real, self.b_g.imag,
                   self.b_e.real, self.b_e.imag]
        _write_text(path, "t,re_bg0,im_bg0,re_be0,im_be0\n"
                    + _table(columns, ",".join([_CELL] * 5) + "\n"))


def _mode_weights(mode_grid: np.ndarray, rep, omega_0: float,
                  gamma: float) -> np.ndarray:
    """|G_j|^2 for discretized modes: (Gamma/2pi) numerator(w_j) |dw_j|.

    The grid may run either way but must be strictly monotonic: the exact
    post-pulse propagation brackets one eigenvalue between each pair of
    neighbouring mode frequencies, so they must be distinct.
    """
    _check_real(mode_grid, "mode grid with field back-reaction", "positive")
    steps = np.diff(mode_grid)
    if mode_grid.size < 2 or not (np.all(steps > 0.0) or np.all(steps < 0.0)):
        raise DomainError(
            "field back-reaction needs at least two distinct mode "
            "frequencies in increasing or decreasing order"
        )
    dw = np.abs(np.gradient(mode_grid))
    num = np.asarray(numerator(rep, mode_grid, omega_0))
    return gamma / (2.0 * math.pi) * num * dw


def _secular_roots(delta: np.ndarray, weights: np.ndarray):
    """Real roots nu of nu = sum_k w_k / (nu - delta_k), all w_k > 0.

    With the delta_k distinct there is exactly one root below the smallest,
    one above the largest and one in each gap between neighbours: the
    right side falls from +inf to -inf across each gap while nu rises.
    Each root is sought as an offset s from its nearer pole, nu =
    delta[pole] + s, so that nu - delta_k = (delta[pole] - delta_k) + s
    keeps full relative accuracy even next to a pole.  Each step moves s
    to the root of the model a - b/s that matches the value and slope of
    the secular function at s (exact when that pole dominates); a step
    that leaves the bracket of the root bisects it instead.  Past the
    ends, |nu| <= max|delta_k| + sqrt(sum w_k) bounds the search.

    Returns the roots nu_j and the matrix nu_j - delta_k.
    """
    order = np.argsort(delta)
    d = delta[order]

    def secular(pole, gap, s):  # gap = delta[pole, None] - delta
        inverse = 1.0 / (gap + s[:, None])
        ratio = weights * inverse
        value = delta[pole] + s - ratio.sum(axis=1)
        return value, 1.0 + (ratio * inverse).sum(axis=1)

    # Which half of each gap holds its root decides the nearer pole.
    half = 0.5 * np.diff(d)
    left = secular(order[:-1], delta[order[:-1], None] - delta, half)[0] >= 0.0
    pole = np.concatenate(([order[0]], np.where(left, order[:-1], order[1:]),
                           [order[-1]]))
    gap = delta[pole, None] - delta
    reach = math.sqrt(weights.sum())
    lo = np.concatenate(([-(abs(d[0]) + reach)], np.where(left, 0.0, -half),
                         [0.0]))
    hi = np.concatenate(([0.0], np.where(left, half, 0.0),
                         [abs(d[-1]) + reach]))
    s = 0.5 * (lo + hi)
    for _ in range(100):
        value, slope = secular(pole, gap, s)
        step = s * value / (value + slope * s)
        # The model converges superlinearly: after a step this small the
        # remaining error is far below rounding.
        if np.all(np.abs(step) <= 1e-9 * np.abs(s)):
            s = s - step
            return delta[pole] + s, gap + s[:, None]
        below = value < 0.0
        lo = np.where(below, s, lo)
        hi = np.where(below, hi, s)
        s = s - step
        inside = (s >= lo) & (s <= hi) & (s != 0.0)
        s = np.where(inside, s, 0.5 * (lo + hi))
    raise ConfigurationError("secular equation of the mode continuum did "
                             "not converge")


def _expm1_over(eps):
    """(exp(i eps) - 1) / eps = i e^{i eps/2} sin(eps/2)/(eps/2) for a real
    array ``eps``, both factors from the one tan(eps/4) of :func:`_phasor`.
    sin(x)/x rounds to 1 for |x| <= 1e-8, and is taken as 1 there."""
    half = np.multiply(eps, 0.5)
    phase = _phasor(half)
    sinc = np.divide(phase.imag, half, out=np.ones_like(half), where=abs(half) > 1e-8)
    return 1j * sinc * phase


def _field_free_decay(b_e0: complex, beta0: np.ndarray, delta: np.ndarray,
                      weights: np.ndarray, times: np.ndarray):
    """Exact t >= 0 evolution of the atom coupled to its discretised modes.

    With the drive off the equations are b_e' = -sum_k w_k z_k and
    z_k' = i delta_k z_k + b_e in the rotating frame z_k = y_k e^{i
    delta_k t}.  Scaled to u_k = sqrt(w_k) z_k the generator is a
    skew-Hermitian arrowhead matrix with eigenvalues i nu_j
    (:func:`_secular_roots`) and eigenvectors (1, -i sqrt(w_k) / (nu_j -
    delta_k)), so

        b_e(t) = sum_j a_j e^{i nu_j t},
        a_j = (b_e0 + i sum_k w_k y_k(0) / (nu_j - delta_k))
              / (1 + sum_k w_k / (nu_j - delta_k)^2),

    and integrating y_k' = e^{-i delta_k t} b_e gives the mode amplitudes
    at the last time through :func:`_expm1_over`, stable at nu_j = delta_k.
    No step divides by sqrt(w_k).  Returns b_e at ``times`` and y_k at
    ``times[-1]``.
    """
    nu, detune = _secular_roots(delta, weights)
    ratio = weights / detune
    amp = (b_e0 + 1j * (ratio * beta0).sum(axis=1)) / (
        1.0 + (ratio / detune).sum(axis=1)
    )

    b_e = np.empty(len(times), dtype=complex)
    block = 64  # keeps the samples x roots temporaries small
    for i in range(0, len(times), block):
        phases = _phasor(np.multiply.outer(times[i:i + block], nu))
        b_e[i:i + block] = (phases * amp).sum(axis=1)
    horizon = times[-1]
    beta = beta0 - 1j * horizon * (
        amp[:, None] * _expm1_over(detune * horizon)
    ).sum(axis=0)
    return b_e, beta


def integrate_dynamics(
    config: PulseConfig,
    rep: GaugeRepresentation,
    omega_0: float,
    gamma: float,
    mode_grid=(),
    *,
    rwa: bool = True,
    include_field_during_pulse: bool = False,
) -> PulseTrajectory:
    """Integrate the coupled amplitude equations through the pulse window.

    Default behaviour matches the closed forms: the field does not react
    back on the atom during the pulse, and for t >= 0 the excited state
    follows the exponential-decay ansatz, so each reduced mode amplitude
    picks up the analytic Lorentzian tail.  With
    ``include_field_during_pulse`` the discretized modes are retained in
    the atom equations during the pulse, and afterwards the drive-free
    decay into them over [0, 8/Gamma] is propagated exactly from the
    eigen-decomposition of the atom-plus-modes system, a beyond-closed-form
    check.  The mode grid must then be strictly monotonic, in either
    direction.

    The drive is the rectangular pi-pulse of ``config`` on [-pi/Omega, 0],
    so the t >= 0 continuation starts where it ends.  ``gamma`` and
    ``omega_0`` must be finite and positive, the mode grid a finite 1-d
    array and each flag a bool.  The ODE settings are fixed: each phase is
    sampled at 401 times, and the in-package DOP853 pair (Hairer, Norsett &
    Wanner, Sec. II.4-II.6) steps the pulse window with ``rtol`` 1e-11 and
    ``atol`` 1e-13, as in scipy's ``solve_ivp``: each step's error estimate
    over ``atol + rtol * |y|`` has an RMS over atom and modes below 1.
    :func:`_dop853` steps this one system (its nfev and step counts go to
    ``ode_stats``); the modes are kept at the pulse's end only.  The
    post-pulse phase is exact to rounding.

    Modes enter only through their detunings unless back-reaction is on.
    """
    _check_scalar(gamma, "gamma")
    _check_scalar(omega_0, "omega_0")
    for name, flag in (("rwa", rwa),
                       ("include_field_during_pulse", include_field_during_pulse)):
        if not isinstance(flag, bool):
            raise DomainError(f"{name} must be True or False, got {flag!r}")
    if np.ndim(mode_grid) != 1:
        raise DomainError("mode grid must be a finite 1-d array")
    try:
        mode_grid = _check_real(mode_grid, "mode grid")
    except DomainError as exc:  # every fault of the grid names the one rule
        raise DomainError(f"mode grid must be a finite 1-d array ({exc})") from None
    delta_modes = omega_0 - mode_grid
    u_plus, u_minus = coupling_pair(rep, config.omega_l, omega_0)
    nmodes = len(mode_grid)
    back_reaction = include_field_during_pulse and nmodes > 0
    weights = (_mode_weights(mode_grid, rep, omega_0, gamma)
               if back_reaction else None)

    # The drive D(t) of the atom; without the RWA it keeps the u_plus path.
    half_rabi, i_delta_l = 0.5 * config.rabi, 1j * (omega_0 - config.omega_l)
    i_sum_l = 1j * (omega_0 + config.omega_l)

    def drive(t):
        down = half_rabi * u_minus * np.exp(i_delta_l * t)
        return down if rwa else down + half_rabi * u_plus * np.exp(i_sum_l * t)

    y0 = np.zeros(2 + nmodes, dtype=complex)
    y0[0] = 1.0
    start = -config.duration
    t_eval = np.linspace(start, 0.0, _SAMPLES)
    atom, beta_end, ode_stats = _dop853(drive, delta_modes, weights, start, 0.0,
                                        y0, t_eval, _RTOL, _ATOL)
    post_times = post_b_e = None
    if back_reaction:
        post_times = np.linspace(0.0, _HORIZON / gamma, _SAMPLES)
        post_b_e, beta_final = _field_free_decay(atom[1, -1], beta_end, delta_modes,
                                                 weights, post_times)
    else:
        # Exponential-decay continuation for t >= 0, integrated analytically.
        beta_final = beta_end + 1.0 / (1j * delta_modes + 0.5 * gamma)

    return PulseTrajectory(
        times=t_eval, b_g=atom[0], b_e=atom[1], mode_grid=mode_grid,
        beta_pulse_end=beta_end, beta_final=beta_final, post_times=post_times,
        post_b_e=post_b_e, ode_stats=ode_stats)
