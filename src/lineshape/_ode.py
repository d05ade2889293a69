"""Adaptive DOP853 stepping for the pulse-window ODE oracle.

Dormand and Prince's Runge-Kutta pair of order 8 with its combined
5th/3rd-order error estimate and 7th-order dense output (Hairer, Norsett
& Wanner, *Solving Ordinary Differential Equations I*, Sec. II.4-II.6).
Error norm, step control and first step are those of scipy's
``solve_ivp(method="DOP853")``, so on the same problem the steps, ``nfev``
and samples are the same.  The tableau (C stage times, A stage rows with
B = A[12] and dense-output stages 13-15, E5/E3 error weights, D dense
output) is copied from scipy/integrate/_ivp/dop853_coefficients.py (SciPy,
BSD-3-Clause, Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy
Developers) as the shortest decimals of the same doubles.
"""

import math

import numpy as np

from .errors import ConfigurationError

C = np.array([0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
    0.7777777777777778])
A = np.zeros((16, 16))
A[np.tril_indices(16, -1)] = [0.05260015195876773, 0.0197250569845379,
    0.0591751709536137, 0.02958758547680685, 0, 0.08876275643042054,
    0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792,
    0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242,
    0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125,
    0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
    -0.015319437748624402, 0.008273789163814023, 0.6241109587160757, 0, 0,
    -3.3608926294469414, -0.868219346841726, 27.59209969944671,
    20.154067550477894, -43.48988418106996, 0.47766253643826434, 0, 0,
    -2.4881146199716677, -0.590290826836843, 21.230051448181193,
    15.279233632882423, -33.28821096898486, -0.020331201708508627,
    -0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295,
    -8.149787010746927, -18.52006565999696, 22.739487099350505,
    2.4936055526796523, -3.0467644718982196, 2.273310147516538, 0, 0,
    -10.53449546673725, -2.0008720582248625, -17.9589318631188,
    27.94888452941996, -2.8589982771350235, -8.87285693353063,
    12.360567175794303, 0.6433927460157636, 0.054293734116568765, 0, 0, 0, 0,
    4.450312892752409, 1.8915178993145003, -5.801203960010585,
    0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
    0.04471061572777259, 0.056167502283047954, 0, 0, 0, 0, 0,
    0.25350021021662483, -0.2462390374708025, -0.12419142326381637,
    0.15329179827876568, 0.00820105229563469, 0.007567897660545699, -0.008298,
    0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776,
    0.053541988307438566, -0.05492374857139099, 0, 0, -0.00010834732869724932,
    0.0003825710908356584, -0.00034046500868740456, 0.1413124436746325,
    -0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599,
    4.06898981839711, 0.3567271874552811, 0, 0, 0, -0.0013990241651590145,
    2.9475147891527724, -9.15095847217987]
E5 = np.array([0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0])
D = np.array([-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777,
    -3.0689499459498917, 2.38466765651207, 2.117034582445028,
    -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
    -0.08899033645133331, 18.148505520854727, -9.194632392478356,
    -4.436036387594894, 10.427508642579134, 0, 0, 0, 0, 242.28349177525817,
    165.20045171727028, -374.5467547226902, -22.113666853125306,
    7.733432668472264, -30.674084731089398, -9.332130526430229,
    15.697238121770845, -31.139403219565178, -9.35292435884448,
    35.81684148639408, 19.985053242002433, 0, 0, 0, 0, -387.0373087493518,
    -189.17813819516758, 527.8081592054236, -11.57390253995963,
    6.8812326946963, -1.0006050966910838, 0.7777137798053443,
    -2.778205752353508, -60.19669523126412, 84.32040550667716,
    11.99229113618279, -25.69393346270375, 0, 0, 0, 0, -154.18974869023643,
    -231.5293791760455, 357.6391179106141, 93.40532418362432,
    -37.45832313645163, 104.0996495089623, 29.8402934266605,
    -43.53345659001114, 96.32455395918828, -39.17726167561544,
    -149.72683625798564]).reshape(4, 16)
B = A[12, :12]
E3 = np.append(B, 0.0)
E3[[0, 8, 11]] -= [0.2440944881889764, 0.7338466882816118, 0.022058823529411766]

# Step control; the error estimate is of order 7.
SAFETY, MIN_FACTOR, MAX_FACTOR, _EXPONENT = 0.9, 0.2, 10.0, -1.0 / 8.0
_EPS = np.finfo(float).eps
_MAX_STEPS = 100_000  # the NMAX default of Hairer's DOP853 code


@np.errstate(all="ignore")  # every non-finite value raises below
def _dop853(rhs, t0: float, t1: float, y0: np.ndarray, t_eval: np.ndarray,
            rtol: float, atol: float):
    """Integrate y' = rhs(t, y) from t0 to t1 > t0; sample at ``t_eval``.

    A step passes when its error estimate over ``atol + rtol *
    max(|y_old|, |y_new|)`` has an RMS over components below 1.  Returns
    the samples, shape (len(y0), len(t_eval)), and the ``rhs`` call count.
    Never loops: raises ``ConfigurationError`` on a non-finite error
    estimate, on a rejected step whose tolerance is below 100 eps |y|, on
    a step below 10 eps max(|t0|, |t1|, t1 - t0), or after _MAX_STEPS.
    """
    n, dtype = y0.size, y0.dtype
    stages = [(float(C[s]), A[s, :s]) for s in range(1, 16)]
    K, out = np.empty((16, n), dtype), np.empty((n, len(t_eval)), dtype)
    min_step = 10.0 * _EPS * max(abs(t0), abs(t1), t1 - t0)

    t, y = t0, y0
    f = rhs(t, y)
    scale = atol + np.abs(y) * rtol
    d0, d1 = (np.linalg.norm(v / scale) / n ** 0.5 for v in (y, f))
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t1 - t0)
    d2 = np.linalg.norm((rhs(t + h0, y + h0 * f) - f) / scale) / n ** 0.5 / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** (1.0 / 8.0))
    h_abs = min(100 * h0, h1, t1 - t0)
    nfev, sample = 2, 0

    def fail(reason):
        return ConfigurationError(f"DOP853 failed at t = {float(t)!r}: {reason}")

    for _ in range(_MAX_STEPS):
        if t >= t1:
            return out, nfev
        h_abs = max(h_abs, min_step)
        growth = MAX_FACTOR  # 1 once a step was rejected
        while True:
            if h_abs < min_step:
                raise fail(f"step size fell below {min_step:.3g}")
            t_new = min(t + h_abs, t1)
            h = h_abs = t_new - t
            K[0] = f
            for s, (c, a) in enumerate(stages[:11], start=1):
                K[s] = rhs(t + c * h, y + np.dot(K[:s].T, a) * h)
            y_new = y + h * np.dot(K[:12].T, B)
            K[12] = f_new = rhs(t_new, y_new)
            nfev += 12
            size = np.maximum(np.abs(y), np.abs(y_new))
            scale = atol + size * rtol
            err5 = np.linalg.norm(np.dot(K[:13].T, E5) / scale) ** 2
            err3 = np.linalg.norm(np.dot(K[:13].T, E3) / scale) ** 2
            error = (0.0 if err5 == 0 and err3 == 0 else
                     h * err5 / math.sqrt((err5 + 0.01 * err3) * n))
            if not math.isfinite(error):
                raise fail("the error estimate is not finite")
            if error < 1.0:
                h_abs *= (min(growth, SAFETY * error ** _EXPONENT) if error
                          else growth)
                break
            if np.any(scale < 100.0 * _EPS * size):
                raise fail("rtol and atol ask for less than rounding")
            h_abs *= max(MIN_FACTOR, SAFETY * error ** _EXPONENT)
            growth = 1.0

        end = int(np.searchsorted(t_eval, t_new, side="right"))
        if end > sample:
            for s, (c, a) in enumerate(stages[12:], start=13):
                K[s] = rhs(t + c * h, y + np.dot(K[:s].T, a) * h)
            nfev += 3
            step = y_new - y
            poly = [step, h * f - step, 2 * step - h * (f_new + f),
                    *(h * np.dot(D, K))]
            x = ((t_eval[sample:end] - t) / h)[:, None]
            z = np.zeros((end - sample, n), dtype=dtype)
            for i, coeff in enumerate(reversed(poly)):
                z += coeff
                z *= x if i % 2 == 0 else 1 - x
            out[:, sample:end] = (z + y).T
            sample = end
        t, y, f = t_new, y_new, f_new
    raise fail(f"no end after {_MAX_STEPS} steps")
