"""The explicit Runge-Kutta pair DOP853 of Dormand and Prince, sampled at
given times, for a batch of systems stepped in lockstep.

DOP853 is the 8th-order method with 5th- and 3rd-order error estimators and
a 7th-order continuous extension of Hairer, Norsett & Wanner, *Solving
Ordinary Differential Equations I: Nonstiff Problems*, 2nd ed., Sec. II.10.
The tables below are transcribed from Hairer's Fortran code DOP853; they
hold the same values as SciPy's DOP853 coefficient table
(`integrate/_ivp/dop853_coefficients.py` in the SciPy sources).

`solve_ivp` follows SciPy's `DOP853` solver driven by its `solve_ivp(...,
t_eval=...)`: the same initial step, step control and error norm, and the
interpolant built only for steps that hold a sample.  Each such step's
interpolant is recorded, and a row's samples are evaluated from them a
block at a time, with the arithmetic of a step-by-step evaluation
(`_Dense`).  It integrates a complex state forward from t=0 to the last
sample time at the tolerances DEFAULT_TOL and ATOL, optionally until a
predicate of the state holds and within a budget of step attempts, and
nothing else.  A step attempt evaluates fun at the 12 stages (and the 4
extra stages of the interpolant) with SciPy's floating-point operations
in SciPy's order (the real tables are cast to complex once, as np.dot
would cast them on each call), so its samples and evaluation counts are
identical to SciPy's (`_Stages`).

One core, `_integrate`, steps a batch of B rows in lockstep; one system
is the batch of one.  An iteration makes one step attempt for every row
still integrating: the stages, error estimates and interpolants of all
rows come from the same numpy calls, while each row keeps its own t, step
size, accept/reject decision, stop test, samples, evaluation count and
failure.  A row equals its run alone bit for bit, as each batched call
does per row exactly the one-row arithmetic (np.dot of a stage vector with
the stages of all rows is one BLAS gemv, np.vecdot one BLAS dot per row,
np.matmul one product per row) and the step-size control runs per row on
Python floats.  Finished rows stay in the arrays with a zero step, so an
iteration costs about the same for any B.

For y' = M y with a constant drift matrix M, each stage is h K_s =
Q_s(hM) y for a fixed polynomial Q_s, so a step and its error estimates
are fixed polynomials in hM applied to y (`_polynomial_table`).  On a
uniform sample grid no adaptive loop is needed: a step h = dt / 2^j of
the sample step dt, small enough that the error norm accepts it from any
state of norm <= 1, gives DOP853's step operator, which j squarings make
the sample-step operator.  Its two entries take the drift stack, the
grid times = np.linspace(0, t_final, n) and the index first of the first
sample: `operator_runs` samples its powers at times[first:], and
`window_means` takes it to the mean of |y|^2 over each half of those
times without a sample: quadratic forms in Gram sums of its powers,
built by binary doubling in O(log n) products.  Both use only M and the
tableau.

The step factor SAFETY * err ** ERROR_EXPONENT, the squared error norms
and the initial step take the power of a Python float or numpy scalar,
the C library's pow, as SciPy does: numpy's array power may be a
vectorized pow (AVX-512), or x * x for a square, either of which differs
from it in the last bit for some arguments, and one such bit moves every
later step away from SciPy's.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cache

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

#: the relative and the absolute tolerance of every run
DEFAULT_TOL = 1e-8
ATOL = 1e-10

#: how a run ends (see `solve_ivp`); the last two are failures
ENDS = ("t_final", "decay_floor", "failed", "budget")


@dataclass
class Solution:
    """Samples y[k] at t[k] for the sample times reached, except that a
    `window_means` run holds no sample but its two means; end is in ENDS."""

    t: np.ndarray
    y: np.ndarray  # shape (len(t), state size)
    end: str
    nfev: int
    accepted: int  # accepted steps
    rejected: int  # rejected step attempts
    # of a sample-step operator run only (see `operator_runs`):
    halvings: int | None = None  # j, the step being the sample step / 2^j
    error_bound: float | None = None  # the norm that chose j
    # of a `window_means` run only: the mean |y|^2 over each half of t_eval
    means: list | None = None


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


def _initial_step(fun, y0, f0, t_bound):
    """Hairer's starting step size (Solving ODEs I, Sec. II.4) from t=0,
    per row."""
    scale = ATOL + np.abs(y0) * DEFAULT_TOL
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


class _Stages:
    """The stage kernel, for any fun(t, y): an attempt evaluates fun at the
    12 stages of the method, and the continuous extension at its 4 extra
    stages, with SciPy's floating-point operations."""

    def __init__(self, fun, f):
        rows, n = f.shape
        self.fun = fun
        self.f = f  # fun(t, y) at the rows' current states
        self.K = np.empty((N_STAGES_EXTENDED, rows, n), dtype=complex)
        self.flat = self.K.reshape(N_STAGES_EXTENDED, rows * n)
        self.prefix = [self.flat[:s] for s in range(N_STAGES_EXTENDED + 1)]
        # np.dot writes each stage's increment, and the error estimates,
        # into these; dy is the (B, n) view of dy_flat
        self.dy_flat = np.empty(rows * n, dtype=complex)
        self.dy = self.dy_flat.reshape(rows, n)
        self.err_flat = np.empty((2, rows * n), dtype=complex)
        self.y_stage = np.empty((rows, n), dtype=complex)
        self.T = np.empty((N_STAGES_EXTENDED, rows))  # stage times

    def _stage(self, s, a, y):
        # y + np.dot(a, K[:s]) * h, as SciPy computes it
        np.dot(a, self.prefix[s], out=self.dy_flat)
        np.multiply(self.dy, self.hcol, out=self.dy)
        self.K[s] = self.fun(self.T[s], np.add(y, self.dy, out=self.y_stage))

    def attempt(self, y, t, h):
        """The end states of the steps of sizes h from the states y at the
        times t, and the error estimates (err5, err3) per unit step, shape
        (2, B, n)."""
        # complex, as numpy casts a real factor of a complex array anyway
        self.hcol = h.astype(complex)[:, None]
        np.multiply(_C, h, out=self.T)
        self.T += t
        self.K[0] = self.f
        for s, a in _METHOD_STAGES:
            self._stage(s, a, y)
        np.dot(_B, self.prefix[N_STAGES], out=self.dy_flat)
        y_new = y + self.hcol * self.dy
        self.f_new = np.asarray(self.fun(self.T[N_STAGES], y_new),
                                dtype=complex)
        self.K[N_STAGES] = self.f_new
        np.dot(_E5, self.prefix[N_STAGES + 1], out=self.err_flat[0])
        np.dot(_E3, self.prefix[N_STAGES + 1], out=self.err_flat[1])
        return y_new, self.err_flat.reshape(2, *y.shape)

    def dense(self, y, y_new):
        """The 7 coefficient vectors of each row's continuous extension over
        the attempted step, shape (7, B, n)."""
        for s, a in _EXTRA_STAGES:
            self._stage(s, a, y)
        rows, n = y.shape
        F = np.empty((INTERPOLATOR_POWER, rows, n), dtype=complex)
        delta_y = y_new - y
        F[0] = delta_y
        F[1] = self.hcol * self.f - delta_y
        F[2] = 2 * delta_y - self.hcol * (self.f_new + self.f)
        F[3:] = self.hcol * np.dot(_D, self.flat).reshape(
            INTERPOLATOR_POWER - 3, rows, n)
        return F

    def accept(self, keep):
        """Move f to the new states: of every row when keep is None, else
        of the rows where keep, of shape (B, 1), is False."""
        self.f = (self.f_new if keep is None
                  else np.where(keep, self.f, self.f_new))


#: the highest power of hM in a step of y' = M y and its error estimates:
#: one per method stage, and one for the stage f(t + h, y_new)
DEGREE = N_STAGES + 1


@cache
def _polynomial_table():
    """The coefficients c_pk of z^k, k = 1 .. DEGREE, of the outputs p of
    a step of y' = M y: the increment y_new - y, then h err5 and h err3.
    Stage s is h K_s = Q_s(hM) y, with Q_0(z) = z and Q_s(z) = z (1 +
    sum_j a_sj Q_j(z)); stage N_STAGES, whose a_sj are the weights b_j, is
    h f(t + h, y_new).  So each output is a fixed polynomial in hM applied
    to y.  Shape (3, DEGREE)."""
    q = np.zeros((N_STAGES + 1, DEGREE + 1))  # q[s, k]: z^k in Q_s
    for s in range(N_STAGES + 1):
        q[s, 1] = 1.0
        q[s, 2:] = A[s, :s] @ q[:s, 1:-1]
    return np.vstack([B @ q[:N_STAGES], E5 @ q, E3 @ q])[:, 1:]


def _square(x):
    """x ** 2 of a Python float by the C library's pow, as numpy's scalar
    power takes it, and inf where it overflows: numpy returns inf there,
    where Python raises OverflowError."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def _error_norm(err5, err3, h, n):
    """SciPy's DOP853 error norm of one row's step of size h, from the
    norms err5 and err3 of its two error estimates over n components, on
    Python floats.  Where Python raises and numpy does not, numpy's result
    is kept: inf for a square that overflows, and NaN for 0/0 (err5 = 0
    with 0.01 err3 ** 2 below the smallest subnormal)."""
    e5, e3 = _square(err5), _square(err3)
    if e5 == 0 and e3 == 0:
        return 0.0
    root = math.sqrt((e5 + 0.01 * e3) * n)
    return h * e5 / root if root else math.nan


#: samples per block of a row's interpolation (256 kB per (block, 4) array)
BLOCK = 4096


class _Dense:
    """The samples of one row at t_eval.  Each sampled step's continuous
    extension (its 7 coefficient vectors F, start state, t and h) is
    recorded; once BLOCK samples are pending they are evaluated, a block
    at a time, into one preallocated (samples, n) array.  A sample at
    x = (t - t_old) / h is y_old + F_0 x + F_1 x (1-x) + F_2 x^2 (1-x) +
    ..., nested from F_6 inward starting from zero, with the same numpy
    operations, element by element, as an evaluation step by step."""

    def __init__(self, t_eval, n):
        self.t_eval = t_eval
        self.out = np.empty((len(t_eval), n), dtype=complex)
        self.done = 0  # samples evaluated
        self.reached = 0  # samples of the recorded steps
        self.steps = []

    def add(self, F, y_old, t_old, h, reached):
        """Record the step [t_old, t_old + h] from y_old, whose extension
        has coefficients F, shape (7, n), and which holds the samples up to
        index reached."""
        self.steps.append((F, y_old, t_old, h, reached))
        self.reached = reached
        if reached - self.done >= BLOCK:
            self.flush()

    def flush(self):
        """Evaluate the samples of the recorded steps."""
        if not self.steps:
            return
        F, y_old, t_old, h, ends = zip(*self.steps)
        F = np.stack(F, axis=1)
        y_old = np.stack(y_old)
        t_old, h = np.array(t_old), np.array(h)
        step = np.repeat(np.arange(len(ends)),
                         np.diff(ends, prepend=self.done))
        for lo in range(self.done, self.reached, BLOCK):
            hi = min(lo + BLOCK, self.reached)
            k = step[lo - self.done:hi - self.done]
            x = ((self.t_eval[lo:hi] - t_old[k]) / h[k])[:, None]
            factors = x, 1 - x
            out = self.out[lo:hi]
            out[...] = 0
            for i in range(INTERPOLATOR_POWER):
                out += F[INTERPOLATOR_POWER - 1 - i, k]
                out *= factors[i % 2]
            out += y_old[k]
        self.done = self.reached
        self.steps = []

    def samples(self):
        """The samples reached, shape (samples, n)."""
        self.flush()
        return self.out[:self.done]


def _integrate(fun, y0, t_eval, stop, max_tries):
    """Step the rows of y0, shape (B, n), of y' = fun(t, y) in lockstep
    (see the module docstring) from t=0 to t_bound = t_eval[-1] and return
    a Solution per row.  The per-row state is kept in Python lists of
    Python floats and bools; a row that is done (at any of ENDS) takes
    zero steps from then on."""
    rows, n = y0.shape
    y = y0
    t_bound = float(t_eval[-1])
    f = np.asarray(fun(np.zeros(rows), y), dtype=complex)
    h_abs = _initial_step(fun, y, f, t_bound).tolist()
    kernel = _Stages(fun, f)
    # the sample times, read as Python floats without a list of them
    grid = memoryview(t_eval)
    t = [0.0] * rows
    live = list(range(rows))
    rejected = [False] * rows  # in the current step
    tries = [0] * rows
    accepted = [0] * rows
    interpolants = [0] * rows
    dense = [_Dense(t_eval, n) for _ in range(rows)]
    ends = ["t_final"] * rows
    while live:
        t_new = list(t)
        h = [0.0] * rows
        for b in list(live):
            if tries[b] == max_tries:
                ends[b] = "budget"
                live.remove(b)
                continue
            min_step = 10 * abs(math.nextafter(t[b], math.inf) - t[b])
            if not rejected[b]:
                h_abs[b] = max(h_abs[b], min_step)
            # SciPy tests h_abs < min_step, which a NaN step size (from a
            # zero or non-finite tolerance) never fails: it steps forever
            if not h_abs[b] >= min_step:
                ends[b] = "failed"
                live.remove(b)
                continue
            t_new[b] = min(t[b] + h_abs[b], t_bound)
            h[b] = t_new[b] - t[b]
            tries[b] += 1
        if not live:
            break
        y_new, err = kernel.attempt(y, t, np.array(h))

        scale = ATOL + np.maximum(np.abs(y), np.abs(y_new)) * DEFAULT_TOL
        err5, err3 = np.sqrt(_squared_norms(err / scale)).tolist()
        accept = []
        for b in live:
            h_b = abs(h[b])
            ok, h_abs[b] = _step_size(_error_norm(err5[b], err3[b], h_b, n),
                                      h_b, rejected[b])
            rejected[b] = not ok
            if ok:
                accept.append(b)
        if not accept:
            continue

        sample = []
        for b in accept:
            accepted[b] += 1
            # the step holds a sample when it reaches the first one pending;
            # the search is over the samples after it
            done = dense[b].reached
            if done < len(grid) and grid[done] <= t_new[b]:
                sample.append((b, bisect.bisect_right(grid, t_new[b],
                                                      lo=done + 1)))
        if sample:
            F = kernel.dense(y, y_new)
            for b, reached in sample:
                interpolants[b] += 1
                dense[b].add(F[:, b], y[b], t[b], h[b], reached)

        if len(accept) == rows:
            y, keep = y_new, None
        else:
            keep = np.ones((rows, 1), dtype=bool)
            keep[accept] = False
            y = np.where(keep, y, y_new)
        kernel.accept(keep)
        stopped = (np.asarray(stop(y)).tolist() if stop is not None
                   else None)
        for b in accept:
            t[b] = t_new[b]
            if stopped is not None and stopped[b]:
                ends[b] = "decay_floor"
                live.remove(b)
            elif not t[b] < t_bound:
                live.remove(b)

    return [Solution(t=t_eval[:dense[b].reached], y=dense[b].samples(),
                     end=ends[b],
                     nfev=(2 + N_STAGES * tries[b]
                           + len(_EXTRA_STAGES) * interpolants[b]),
                     accepted=accepted[b],
                     rejected=tries[b] - accepted[b])
            for b in range(rows)]


#: powers of the sample-step operator formed per block of samples
SAMPLE_BLOCK = 64


def _orbit(op, y, count):
    """y, op y, ..., op^(count - 1) y of each row, shape (B, count, n), for
    op of shape (B, n, n) and y of shape (B, n): blocks of SAMPLE_BLOCK
    samples, all of them one matmul per row of the powers op^i, i <
    SAMPLE_BLOCK, with the blocks' starts, which are the orbit of
    op^SAMPLE_BLOCK.  The samples are written once, in their order."""
    rows, n = y.shape
    size = min(count, SAMPLE_BLOCK)
    # powers[:, i] = op^i by doubling, op^(i + d) = op^i op^d with op^d
    # the square of the last op^(d / 2); the powers op^i, i < d, stacked
    # as one (d n, n) matrix per row take one product
    powers = np.empty((rows, size * n, n), dtype=complex)
    powers[:, :n] = np.eye(n)
    done = 1
    while done < size:
        width = min(done, size - done)
        np.matmul(powers[:, :width * n], op,
                  out=powers[:, done * n:(done + width) * n])
        op = op @ op
        done += width
    starts = (y[:, None] if count <= size
              else _orbit(op, y, -(-count // size)))
    # sample b size + i is (op^i s_b)^T = s_b^T (op^i)^T
    out = np.matmul(starts, powers.reshape(rows, size, n, n).transpose(
        0, 3, 1, 2).reshape(rows, n, size * n))
    return out.reshape(rows, starts.shape[1] * size, n)[:, :count]


def _sample_step_operator(m, y0, times, first):
    """The part that every sample-step operator run of y' = M y shares,
    for the drift stack m, shape (B, n, n), from the rows of y0 at t=0 on
    the uniform grid times from 0, sampled from times[first] on: (live,
    op, y, halvings, bounds), the rows live whose step met ATOL, their
    sample-step operators op and their states y at times[first], and per
    row its halvings and error bound (None where no step met ATOL).

    Row b takes the step h = dt / 2^j of the sample step dt = times[-1] /
    (len(times) - 1), for the least j whose two error polynomials
    (`_polynomial_table`) at hM have Frobenius norms, which bound their
    2-norms, at most ATOL: from a state of norm <= 1, as a drift whose
    norm never grows keeps it, a step of size h then has error estimates
    of norm <= ATOL, below their scale, so DOP853's error norm accepts it.
    Its step operator S(h) = I + sum_k c_k (hM)^k, squared j times, is the
    sample-step operator, and the state at times[first] is its power
    first by binary powering.  The powers of hM are those of dt M, formed
    once, scaled by 2^(-jk), which is exact.  A row whose step would fall
    below 10 ulp of times[-1] is not live.  Each row's products are those
    of its run alone."""
    rows, n, _ = m.shape
    t_bound = float(times[-1])
    dt = t_bound / (len(times) - 1)
    min_step = 10 * (math.nextafter(t_bound, math.inf) - t_bound)
    powers = np.empty((rows, DEGREE, n, n), dtype=complex)
    powers[:, 0] = dt * m
    for k in range(1, DEGREE):
        np.matmul(powers[:, k - 1], powers[:, 0], out=powers[:, k])
    powers = powers.reshape(rows, DEGREE, n * n)
    halvings, bounds = [None] * rows, [None] * rows
    step = np.empty((rows, n, n), dtype=complex)  # S(h) - I
    pending, j = np.arange(rows), 0
    while len(pending) and dt / 2 ** j >= min_step:
        weights = _polynomial_table() * 0.5 ** (j * np.arange(1, DEGREE + 1))
        poly = np.matmul(weights, powers[pending]).reshape(-1, 3, n, n)
        # NaN where a power overflows, which no j meets
        norms = np.linalg.norm(poly[:, 1:], axis=(2, 3)).max(axis=1)
        met = norms <= ATOL
        step[pending[met]] = poly[met, 0]
        for b, bound in zip(pending[met].tolist(), norms[met].tolist()):
            halvings[b], bounds[b] = j, bound
        pending = pending[~met]
        j += 1

    live = [b for b in range(rows) if halvings[b] is not None]
    op = np.eye(n) + step[live]
    for i in range(max((halvings[b] for b in live), default=0)):
        square = [k for k, b in enumerate(live) if halvings[b] > i]
        op[square] = op[square] @ op[square]
    y, power, e = y0[live], op, first
    while e:
        if e & 1:
            y = np.matvec(power, y)
        e >>= 1
        if e:
            power = power @ power
    return live, op, y, halvings, bounds


def _operator_solutions(times, first, n, live, halvings, bounds, samples,
                        means):
    """The Solutions of a sample-step operator run of an n-state system
    on times[first:] (see `_sample_step_operator`): live row live[k] ends
    at t_final with samples[k] as its y and means[k] as its means; any
    other row failed before any sample."""
    t_eval = times[first:]
    sols = Solutions(Solution(t=t_eval[:0], y=np.empty((0, n), dtype=complex),
                              end="failed", nfev=0, accepted=0, rejected=0)
                     for _ in halvings)
    for k, b in enumerate(live):
        sols[b] = Solution(
            t=t_eval, y=samples[k], end="t_final", nfev=0,
            accepted=2 ** halvings[b] * (len(times) - 1), rejected=0,
            halvings=halvings[b], error_bound=bounds[b], means=means[k])
    return sols


def operator_runs(m, y0, times, first):
    """The runs of y' = M y for the drift stack m, shape (B, n, n), from
    the rows of y0, shape (B, n), at t=0, on the grid times =
    np.linspace(0, t_final, N), N >= 2, sampled at times[first:] for 0 <=
    first < N: a Solution per row, whose samples are the powers of the
    sample-step operator (`_sample_step_operator`) applied to the state at
    times[first] (`_orbit`).

    A row ends as "t_final" with all its samples, or as "failed" before
    any sample when its step h would fall below 10 ulp of times[-1].  It
    evaluates no right-hand side, so nfev = 0; accepted counts the DOP853
    steps of size h from t=0 to times[-1], and rejected = 0, as every such
    step passes the error norm; halvings is j and error_bound the norm of
    the error polynomials that chose it (both None where no step met
    ATOL).  Each row's products are those of its run alone."""
    with np.errstate(all="ignore"):
        live, op, y, halvings, bounds = _sample_step_operator(m, y0, times,
                                                              first)
        samples = _orbit(op, y, len(times) - first)
    return _operator_solutions(times, first, m.shape[1], live, halvings,
                               bounds, samples, [None] * len(live))


def _gram_means(op, y, count):
    """The mean of |op^i y|^2 over i < count // 2 and over count // 2 <= i
    < count, for each row of op, shape (B, n, n), and y, shape (B, n).

    A half of K samples from s sums s^H G_K s, for the Gram sum G_K =
    sum_(i<K) (op^i)^H op^i.  G_K and op^K follow from G_1 = I by binary
    doubling over the bits of K: G_2m = G_m + (op^m)^H G_m op^m, and
    G_(m+1) = G_m + (op^m)^H op^m.  The second half starts at op^K y and,
    for an odd count, adds its last sample op^2K y."""
    half = count // 2
    gram = np.broadcast_to(np.eye(op.shape[-1], dtype=complex),
                           op.shape).copy()
    power = op
    for bit in bin(half)[3:]:
        gram = gram + power.mT.conj() @ gram @ power
        power = power @ power
        if bit == "1":
            gram = gram + power.mT.conj() @ power
            power = power @ op
    late = np.matvec(power, y)
    early_sum = np.vecdot(y, np.matvec(gram, y)).real
    late_sum = np.vecdot(late, np.matvec(gram, late)).real
    if count - half > half:
        last = np.matvec(power, late)
        late_sum = late_sum + np.vecdot(last, last).real
    return np.stack([early_sum / half, late_sum / (count - half)], axis=1)


def window_means(m, y0, times, first):
    """The runs of `operator_runs(m, y0, times, first)`, with count =
    len(times) - first >= 2 samples, reduced to the mean of |y|^2 over the
    first count // 2 samples and over the rest: a Solution per row whose
    means holds the two, and whose y holds no sample.

    From the state at times[first] (`_sample_step_operator`), the means
    are quadratic forms in the Gram sums of the sample-step operator
    (`_gram_means`), the discrete form of Van Loan's integrals of the
    matrix exponential (IEEE TAC 23, 1978): O(log count) n x n products
    for the batch, and no sample.  A row fails as in `operator_runs`, with
    means None; end, accepted, halvings and error_bound are those of its
    `operator_runs` run.  Each row's products are those of its run
    alone."""
    n = y0.shape[1]
    with np.errstate(all="ignore"):
        live, op, y, halvings, bounds = _sample_step_operator(m, y0, times,
                                                              first)
        means = _gram_means(op, y, len(times) - first)
    return _operator_solutions(times, first, n, live, halvings, bounds,
                               [np.empty((0, n), dtype=complex)] * len(live),
                               means.tolist())


def solve_ivp(fun, y0, t_eval, max_tries, stop=None):
    """Integrate y' = fun(t, y) from t=0 to t_eval[-1] and return the state
    at the times t_eval, ascending from 0 or later to a positive last
    time, as the caller's grid holds them.

    y0, complex of shape (B, n), is a batch of B systems stepped in
    lockstep (one system is the batch of one): fun(t, y) takes t of shape
    (B,) and y of shape (B, n) and returns the derivative of each row,
    stop(y) returns a bool per row, and the result is a Solution per row.
    Each row takes the steps, samples, evaluation count and end of its run
    alone, bit for bit.  The stage states passed to fun share one buffer,
    so fun must not keep y.

    A row ends as one of ENDS: "t_final" at t_eval[-1]; "decay_floor"
    after the first accepted step whose end state y satisfies stop(y) (the
    steps before it are those of a run without stop); "failed" with a step
    size below 10 ulp of t, or NaN; "budget" when it has made max_tries
    step attempts and would make another (SciPy has no such bound).  Its
    solution holds the samples reached.
    """
    # overflow and NaN end in a NaN error norm, which the step control
    # reports as "failed"
    with np.errstate(all="ignore"):
        return Solutions(_integrate(fun, y0, np.asarray(t_eval), stop,
                                    max_tries))
