"""The explicit Runge-Kutta pair DOP853 of Dormand and Prince, sampled at
given times, for one system or a batch of systems stepped in lockstep.

DOP853 is the 8th-order method with 5th- and 3rd-order error estimators and
a 7th-order continuous extension of Hairer, Norsett & Wanner, *Solving
Ordinary Differential Equations I: Nonstiff Problems*, 2nd ed., Sec. II.10.
The tables below are transcribed from Hairer's Fortran code DOP853; they
hold the same values as SciPy's DOP853 coefficient table
(`integrate/_ivp/dop853_coefficients.py` in the SciPy sources).

`solve_ivp` follows SciPy's `DOP853` solver driven by its `solve_ivp(...,
t_eval=...)`: the same initial step, step control and error norm, and the
interpolant built only for steps that hold a sample, with the same
floating-point operations in the same order (the real tables are cast to
complex once, as np.dot would cast them on each call), so its samples and
evaluation counts are identical to SciPy's.  It integrates a complex state
forward from t=0 with scalar tolerances, optionally until a predicate of
the state holds, and nothing else.

One core, `_integrate`, steps a batch of B rows in lockstep; one system
is the batch of one.  An iteration makes one step attempt for every row
still integrating: the stages, error estimates and interpolants of all
rows come from the same numpy calls, while each row keeps its own t, step
size, accept/reject decision, stop test, samples, evaluation count and
failure.  A row equals its run alone bit for bit, as each batched call
does per row exactly the one-row arithmetic (np.dot of a stage vector with
the stages of all rows is one BLAS gemv, np.vecdot one BLAS dot per row)
and the step-size control runs per row on scalars.  Finished rows stay in
the arrays with a zero step, so an iteration costs about the same for any
B.

The step factor SAFETY * err ** ERROR_EXPONENT, the squared error norms
and the initial step use numpy's scalar power, the C library's pow, as
SciPy does: numpy's array power may be a vectorized pow (AVX-512) that
differs from it in the last bit for some arguments, and one such bit
moves every later step away from SciPy's.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7

C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
    1.0,
    0.1,
    0.2,
    0.777777777777777777777777777778,
])


def _table(rows, shape):
    """Dense array from {row: {column: value}}; absent entries are 0."""
    out = np.zeros(shape)
    for i, row in rows.items():
        for j, value in row.items():
            out[i, j] = value
    return out


#: stage coefficients a_ij; rows 0-11 the method, row 12 the weights b_j,
#: rows 13-15 the three extra stages of the continuous extension
A = _table({
    1: {0: 5.26001519587677318785587544488e-2},
    2: {0: 1.97250569845378994544595329183e-2,
        1: 5.91751709536136983633785987549e-2},
    3: {0: 2.95875854768068491816892993775e-2,
        2: 8.87627564304205475450678981324e-2},
    4: {0: 2.41365134159266685502369798665e-1,
        2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1},
    5: {0: 3.7037037037037037037037037037e-2,
        3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1},
    6: {0: 3.7109375e-2,
        3: 1.70252211019544039314978060272e-1,
        4: 6.02165389804559606850219397283e-2,
        5: -1.7578125e-2},
    7: {0: 3.70920001185047927108779319836e-2,
        3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1,
        5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3},
    8: {0: 6.24110958716075717114429577812e-1,
        3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1,
        5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1,
        7: -4.34898841810699588477366255144e1},
    9: {0: 4.77662536438264365890433908527e-1,
        3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1,
        5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1,
        7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2},
    10: {0: -9.3714243008598732571704021658e-1,
         3: 5.18637242884406370830023853209,
         4: 1.09143734899672957818500254654,
         5: -8.14978701074692612513997267357,
         6: -1.85200656599969598641566180701e1,
         7: 2.27394870993505042818970056734e1,
         8: 2.49360555267965238987089396762,
         9: -3.0467644718982195003823669022},
    11: {0: 2.27331014751653820792359768449,
         3: -1.05344954667372501984066689879e1,
         4: -2.00087205822486249909675718444,
         5: -1.79589318631187989172765950534e1,
         6: 2.79488845294199600508499808837e1,
         7: -2.85899827713502369474065508674,
         8: -8.87285693353062954433549289258,
         9: 1.23605671757943030647266201528e1,
         10: 6.43392746015763530355970484046e-1},
    12: {0: 5.42937341165687622380535766363e-2,
         5: 4.45031289275240888144113950566,
         6: 1.89151789931450038304281599044,
         7: -5.8012039600105847814672114227,
         8: 3.1116436695781989440891606237e-1,
         9: -1.52160949662516078556178806805e-1,
         10: 2.01365400804030348374776537501e-1,
         11: 4.47106157277725905176885569043e-2},
    13: {0: 5.61675022830479523392909219681e-2,
         6: 2.53500210216624811088794765333e-1,
         7: -2.46239037470802489917441475441e-1,
         8: -1.24191423263816360469010140626e-1,
         9: 1.5329179827876569731206322685e-1,
         10: 8.20105229563468988491666602057e-3,
         11: 7.56789766054569976138603589584e-3,
         12: -8.298e-3},
    14: {0: 3.18346481635021405060768473261e-2,
         5: 2.83009096723667755288322961402e-2,
         6: 5.35419883074385676223797384372e-2,
         7: -5.49237485713909884646569340306e-2,
         10: -1.08347328697249322858509316994e-4,
         11: 3.82571090835658412954920192323e-4,
         12: -3.40465008687404560802977114492e-4,
         13: 1.41312443674632500278074618366e-1},
    15: {0: -4.28896301583791923408573538692e-1,
         5: -4.69762141536116384314449447206,
         6: 7.68342119606259904184240953878,
         7: 4.06898981839711007970213554331,
         8: 3.56727187455281109270669543021e-1,
         12: -1.39902416515901462129418009734e-3,
         13: 2.9475147891527723389556272149,
         14: -9.15095847217987001081870187138},
}, (N_STAGES_EXTENDED, N_STAGES_EXTENDED))

B = A[N_STAGES, :N_STAGES]

#: 3rd-order error estimator: b_j minus the weights bhh_j of the 3rd-order
#: embedded formula, with a zero for the last stage f(t + h, y_new)
E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B.copy()
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

#: 5th-order error estimator
E5 = np.array([
    0.1312004499419488073250102996e-1,
    0.0,
    0.0,
    0.0,
    0.0,
    -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290,
    0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1,
    0.0,
])

#: coefficients of the 4 highest interpolant terms over the 16 stages (the
#: first 3 terms follow from the step's end points and slopes)
D = _table({
    0: {0: -0.84289382761090128651353491142e+1,
        5: 0.56671495351937776962531783590,
        6: -0.30689499459498916912797304727e+1,
        7: 0.23846676565120698287728149680e+1,
        8: 0.21170345824450282767155149946e+1,
        9: -0.87139158377797299206789907490,
        10: 0.22404374302607882758541771650e+1,
        11: 0.63157877876946881815570249290,
        12: -0.88990336451333310820698117400e-1,
        13: 0.18148505520854727256656404962e+2,
        14: -0.91946323924783554000451984436e+1,
        15: -0.44360363875948939664310572000e+1},
    1: {0: 0.10427508642579134603413151009e+2,
        5: 0.24228349177525818288430175319e+3,
        6: 0.16520045171727028198505394887e+3,
        7: -0.37454675472269020279518312152e+3,
        8: -0.22113666853125306036270938578e+2,
        9: 0.77334326684722638389603898808e+1,
        10: -0.30674084731089398182061213626e+2,
        11: -0.93321305264302278729567221706e+1,
        12: 0.15697238121770843886131091075e+2,
        13: -0.31139403219565177677282850411e+2,
        14: -0.93529243588444783865713862664e+1,
        15: 0.35816841486394083752465898540e+2},
    2: {0: 0.19985053242002433820987653617e+2,
        5: -0.38703730874935176555105901742e+3,
        6: -0.18917813819516756882830838328e+3,
        7: 0.52780815920542364900561016686e+3,
        8: -0.11573902539959630126141871134e+2,
        9: 0.68812326946963000169666922661e+1,
        10: -0.10006050966910838403183860980e+1,
        11: 0.77771377980534432092869265740,
        12: -0.27782057523535084065932004339e+1,
        13: -0.60196695231264120758267380846e+2,
        14: 0.84320405506677161018159903784e+2,
        15: 0.11992291136182789328035130030e+2},
    3: {0: -0.25693933462703749003312586129e+2,
        5: -0.15418974869023643374053993627e+3,
        6: -0.23152937917604549567536039109e+3,
        7: 0.35763911791061412378285349910e+3,
        8: 0.93405324183624310003907691704e+2,
        9: -0.37458323136451633156875139351e+2,
        10: 0.10409964950896230045147246184e+3,
        11: 0.29840293426660503123344363579e+2,
        12: -0.43533456590011143754432175058e+2,
        13: 0.96324553959188282948394950600e+2,
        14: -0.39177261675615439165231486172e+2,
        15: -0.14972683625798562581422125276e+3},
}, (INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED))

SAFETY = 0.9
MIN_FACTOR = 0.2   # largest decrease of the step size
MAX_FACTOR = 10    # largest increase of the step size
#: -1 / (error estimator order + 1)
ERROR_EXPONENT = -1 / 8

TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
REACHED_END = ("The solver successfully reached the end of the integration "
               "interval.")
STOPPED = "A termination event occurred."


@dataclass
class Solution:
    """Samples y[:, k] at t[k] for the sample times reached."""

    t: np.ndarray
    y: np.ndarray  # shape (state size, len(t))
    success: bool
    message: str
    nfev: int
    accepted: int  # accepted steps
    rejected: int  # rejected step attempts


class Solutions(list):
    """The Solution of each row of a batch, in row order."""

    @property
    def nfev(self) -> int:
        """Evaluations of fun, summed over the rows."""
        return sum(s.nfev for s in self)


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _squared_norms(x):
    """sum |x|^2 along the last axis, as np.linalg.norm sums it: the BLAS
    dot product of the real parts plus that of the imaginary parts."""
    return np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag)


def _initial_step(fun, y0, f0, t_bound, rtol, atol):
    """Hairer's starting step size (Solving ODEs I, Sec. II.4) from t=0,
    per row."""
    scale = atol + np.abs(y0) * rtol
    d0 = [_rms(row) for row in y0 / scale]
    d1 = [_rms(row) for row in f0 / scale]
    h0 = np.array([min(1e-6 if a < 1e-5 or b < 1e-5 else 0.01 * a / b,
                       t_bound) for a, b in zip(d0, d1)])
    f1 = fun(h0, y0 + h0[:, None] * f0)
    d2 = [_rms(row) / h for row, h in zip((f1 - f0) / scale, h0)]
    return np.array([
        min(100 * h, max(1e-6, h * 1e-3) if b <= 1e-15 and c <= 1e-15
            else (0.01 / max(b, c)) ** (1 / 8), t_bound)
        for h, b, c in zip(h0, d1, d2)])


def _stage_rows(stages):
    """(s, a_s) for each stage s, with a_s = A[s, :s] cast to complex once
    here: np.dot would cast it on every call, to the same values."""
    return tuple((s, A[s, :s].astype(complex)) for s in stages)


_METHOD_STAGES = _stage_rows(range(1, N_STAGES))
_EXTRA_STAGES = _stage_rows(range(N_STAGES + 1, N_STAGES_EXTENDED))
_B = B.astype(complex)
_E3 = E3.astype(complex)
_E5 = E5.astype(complex)
_D = D.astype(complex)
_C = C[:, None]


def _step_size(err, h_abs, rejected):
    """SciPy's step-size control for one row: whether the step of size
    h_abs with error norm err is accepted, and the next step size.
    rejected tells whether the step was already rejected once."""
    if err < 1:
        factor = (MAX_FACTOR if err == 0
                  else min(MAX_FACTOR, SAFETY * err ** ERROR_EXPONENT))
        if rejected:
            factor = min(1, factor)
        return True, h_abs * factor
    return False, h_abs * max(MIN_FACTOR, SAFETY * err ** ERROR_EXPONENT)


def _integrate(fun, y0, t_bound, rtol, atol, t_eval, stop):
    """Step the rows of y0, shape (B, n), in lockstep (see the module
    docstring) and return a Solution per row.  The per-row state is kept
    in Python lists; a row that is done (failed, stopped or at t_bound)
    takes zero steps from then on."""
    rows, n = y0.shape
    y = y0
    f = np.asarray(fun(np.zeros(rows), y), dtype=complex)
    h_abs = _initial_step(fun, y, f, t_bound, rtol, atol).tolist()
    K = np.empty((N_STAGES_EXTENDED, rows, n), dtype=complex)
    flat = K.reshape(N_STAGES_EXTENDED, rows * n)
    prefix = [flat[:s] for s in range(N_STAGES_EXTENDED + 1)]  # K[:s]
    # np.dot writes each stage's increment, and the error estimates, into
    # these; dy and err are their (B, n) views
    dy_flat = np.empty(rows * n, dtype=complex)
    dy = dy_flat.reshape(rows, n)
    err_flat = np.empty((2, rows * n), dtype=complex)
    err = err_flat.reshape(2, rows, n)
    y_stage = np.empty((rows, n), dtype=complex)
    T = np.empty((N_STAGES_EXTENDED, rows))  # stage times
    grid = t_eval.tolist()
    t = [0.0] * rows
    live = list(range(rows))
    rejected = [False] * rows  # in the current step
    tries = [0] * rows
    accepted = [0] * rows
    interpolants = [0] * rows
    sampled = [0] * rows
    ts = [[] for _ in range(rows)]
    ys = [[] for _ in range(rows)]
    messages = [REACHED_END] * rows
    while live:
        t_new = list(t)
        h = [0.0] * rows
        for b in list(live):
            min_step = 10 * abs(math.nextafter(t[b], math.inf) - t[b])
            if not rejected[b]:
                h_abs[b] = max(h_abs[b], min_step)
            # SciPy tests h_abs < min_step, which a NaN step size (from a
            # zero or non-finite tolerance) never fails: it steps forever
            if not h_abs[b] >= min_step:
                messages[b] = TOO_SMALL_STEP
                live.remove(b)
                continue
            t_new[b] = min(t[b] + h_abs[b], t_bound)
            h[b] = t_new[b] - t[b]
            tries[b] += 1
        if not live:
            break
        # complex, as numpy casts a real factor of a complex array anyway
        h_rows = np.array(h, dtype=complex)
        hcol = h_rows[:, None]
        np.multiply(_C, h_rows.real, out=T)
        T += t

        K[0] = f
        for s, a in _METHOD_STAGES:
            # y + np.dot(a, K[:s]) * h, as SciPy computes it
            np.dot(a, prefix[s], out=dy_flat)
            np.multiply(dy, hcol, out=dy)
            K[s] = fun(T[s], np.add(y, dy, out=y_stage))
        np.dot(_B, prefix[N_STAGES], out=dy_flat)
        y_new = y + hcol * dy
        f_new = np.asarray(fun(T[N_STAGES], y_new), dtype=complex)
        K[N_STAGES] = f_new

        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        np.dot(_E5, prefix[N_STAGES + 1], out=err_flat[0])
        np.dot(_E3, prefix[N_STAGES + 1], out=err_flat[1])
        err5, err3 = np.sqrt(_squared_norms(err / scale))
        accept = []
        for b in live:
            e5, e3 = err5[b] ** 2, err3[b] ** 2
            h_b = abs(h[b])
            norm = (0.0 if e5 == 0 and e3 == 0
                    else h_b * e5 / math.sqrt((e5 + 0.01 * e3) * n))
            ok, h_abs[b] = _step_size(norm, h_b, rejected[b])
            rejected[b] = not ok
            if ok:
                accept.append(b)
        if not accept:
            continue

        sample = []
        for b in accept:
            accepted[b] += 1
            reached = bisect.bisect_right(grid, t_new[b])
            if reached > sampled[b]:
                sample.append((b, reached))
        if sample:
            for s, a in _EXTRA_STAGES:
                np.dot(a, prefix[s], out=dy_flat)
                np.multiply(dy, hcol, out=dy)
                K[s] = fun(T[s], np.add(y, dy, out=y_stage))
            F = _dense_terms(y, y_new, f, f_new, hcol, flat)
            for b, reached in sample:
                interpolants[b] += 1
                times = t_eval[sampled[b]:reached]
                ts[b].append(times)
                ys[b].append(_interpolate(F[:, b], y[b], t[b], h[b], times))
                sampled[b] = reached

        if len(accept) == rows:
            y, f = y_new, f_new
        else:
            keep = np.ones((rows, 1), dtype=bool)
            keep[accept] = False
            y = np.where(keep, y, y_new)
            f = np.where(keep, f, f_new)
        stopped = stop(y) if stop is not None else None
        for b in accept:
            t[b] = t_new[b]
            if stopped is not None and stopped[b]:
                messages[b] = STOPPED
                live.remove(b)
            elif not t[b] < t_bound:
                live.remove(b)

    return [Solution(t=np.hstack(ts[b]) if ts[b] else np.empty(0),
                     y=(np.hstack(ys[b]) if ys[b]
                        else np.empty((n, 0), complex)),
                     success=messages[b] != TOO_SMALL_STEP,
                     message=messages[b],
                     nfev=(2 + N_STAGES * tries[b]
                           + len(_EXTRA_STAGES) * interpolants[b]),
                     accepted=accepted[b],
                     rejected=tries[b] - accepted[b])
            for b in range(rows)]


def _dense_terms(y_old, y, f_old, f, hcol, flat):
    """The 7 coefficient vectors of each row's continuous extension, shape
    (7, B, n), from the stages in flat (all 16 filled)."""
    rows, n = y.shape
    F = np.empty((INTERPOLATOR_POWER, rows, n), dtype=complex)
    delta_y = y - y_old
    F[0] = delta_y
    F[1] = hcol * f_old - delta_y
    F[2] = 2 * delta_y - hcol * (f + f_old)
    F[3:] = hcol * np.dot(_D, flat).reshape(INTERPOLATOR_POWER - 3, rows, n)
    return F


def _interpolate(F, y_old, t_old, h, times):
    """The 7th-order continuous extension with coefficients F over the step
    [t_old, t_old + h] at times, shape (state size, len(times))."""
    x = ((times - t_old) / h)[:, None]
    out = np.zeros((len(x), len(y_old)), dtype=y_old.dtype)
    for i, term in enumerate(reversed(F)):
        out += term
        if i % 2 == 0:
            out *= x
        else:
            out *= 1 - x
    out += y_old
    return out.T


def solve_ivp(fun, t_span, y0, *, rtol, atol, t_eval, stop=None):
    """Integrate y' = fun(t, y) from t_span[0] = 0 to t_span[1] and return
    the state at the ascending times t_eval, which lie within t_span.

    y0 of shape (n,) is one system: fun(t, y) takes a float t and y of
    shape (n,), stop(y) returns a bool, and the result is a Solution.
    y0 of shape (B, n) is a batch of B systems stepped in lockstep:
    fun(t, y) takes t of shape (B,) and y of shape (B, n) and returns the
    derivative of each row, stop(y) returns a bool per row, and the result
    is a Solution per row.  Each row takes the steps, samples, evaluation
    count and end of its run alone, bit for bit.  The stage states passed
    to fun share one buffer, so fun must not keep y.

    With a predicate stop, the integration of a row ends successfully
    after the first accepted step whose end state y satisfies stop(y); its
    solution then holds the samples up to that step's end.  The steps
    before it are those of a run without stop.

    On failure (a step size below 10 ulp of t, or NaN) the solution holds
    the samples reached so far and success is False.
    """
    t, t_bound = map(float, t_span)
    if t != 0.0 or not t_bound > 0.0:
        raise ValueError("integration runs forward from t=0")
    t_eval = np.asarray(t_eval)
    if (t_eval.ndim != 1 or np.any(t_eval < 0.0) or np.any(t_eval > t_bound)
            or np.any(np.diff(t_eval) <= 0)):
        raise ValueError("t_eval must be ascending times within t_span")
    if not atol >= 0:
        raise ValueError("atol must be non-negative")
    rtol = max(rtol, 100 * np.finfo(float).eps)
    y0 = np.asarray(y0, dtype=complex)
    if y0.ndim == 2:
        fun_rows, stop_rows = fun, stop
    else:
        def fun_rows(t, y):
            return np.asarray(fun(float(t[0]), y[0]))[None]

        def stop_rows(y):
            return [stop(y[0])]
    # overflow and NaN end in a NaN error norm, which the step control
    # reports as TOO_SMALL_STEP
    with np.errstate(all="ignore"):
        solutions = _integrate(fun_rows, np.atleast_2d(y0), t_bound, rtol,
                               atol, t_eval,
                               None if stop is None else stop_rows)
    return Solutions(solutions) if y0.ndim == 2 else solutions[0]
