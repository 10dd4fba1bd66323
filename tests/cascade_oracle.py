"""Independent cascade oracle shared by the test modules: the rate
equations integrated numerically with scipy's BDF solver, not the closed
forms that ``dickesim`` uses."""
import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp

from dickeqfi.dickesim import superradiance_timescale


def bdf_cascade(n, gamma_star, t_eval):
    """Independent oracle: the cascade rate equations integrated with BDF.

    Rung m of N decays into the waveguide at m(N-m+1) and out of the
    ladder at m * gamma_star (unit waveguide rate); the residence
    integrals ride along as d(res_m)/dt = P_m.  Returns the populations
    on ``t_eval`` and the residences at its last time.
    """
    m = np.arange(n + 1, dtype=float)
    down = m[1:] * (n - m[1:] + 1.0)
    out = np.concatenate(([0.0], down)) + m * gamma_star
    rates = sparse.diags([-out, down], offsets=[0, 1])
    zero = sparse.csc_matrix((n + 1, n + 1))
    aug = sparse.bmat([[rates, zero], [sparse.identity(n + 1), zero]], format="csc")
    y0 = np.zeros(2 * (n + 1))
    y0[n] = 1.0
    sol = solve_ivp(lambda t, y: aug @ y, (0.0, t_eval[-1]), y0, method="BDF",
                    jac=aug, t_eval=t_eval, rtol=1e-11, atol=1e-14)
    assert sol.success, sol.message
    return sol.y[: n + 1], sol.y[n + 1:, -1]


def bdf_drained(n, gamma_star):
    """Ground population and residences after forty cascade durations,
    by which every rung has drained."""
    horizon = 40.0 * superradiance_timescale(n, 1.0)
    populations, residence = bdf_cascade(n, gamma_star, [0.0, horizon])
    assert np.sum(populations[1:, -1]) < 1e-12
    return populations[0, -1], residence
