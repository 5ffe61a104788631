"""Independent high-precision references for the correctness gate.

The moment reference is a backward ratio sweep of the steady-state photon
recurrence in mpmath, written here from the equations and not taken from
``jclaser``.  F[n] = N_a[n+1]/N_a[n] obeys

    F[n-1] = C_n / (B_n + A_n F[n]),  F[n_max] = 0,

so n_a = F[0] and g2 = F[1]/F[0].  Two things make a sweep silently wrong,
and the reference guards against both:

* too few digits: the sweep needs about n_a/ln 10 + 20 of them, so it uses
  n_max/(4 ln 10) + 40, and the answer is accepted only if that is at least
  n_a/ln 10 + 40;
* too low a cutoff: below some multiple of n_a the sweep settles on a
  stable unphysical value (n_a = -1.0168 at gamma_a = 0.01, P = 7 for every
  cutoff up to 444, at any precision), and at 888 it gives a physical but
  wrong 0.135.  The cutoff doubles until the result is physical and two
  successive cutoffs agree to ``rtol``.
"""

from __future__ import annotations

import math

LN10 = math.log(10.0)


def ratio_sweep(p: dict, n_max: int, dps: int) -> tuple[float, float]:
    """(n_a, g2) from the sweep closed at ``n_max`` with ``dps`` digits."""
    from mpmath import mp, mpf  # here, so that the gate alone does not load mpmath into the measured child

    with mp.workdps(dps):
        g, ga, gs, gp, P, dl = (mpf(p[k]) for k in ("g", "gamma_a", "gamma_sigma", "gamma_phi", "P_sigma", "delta"))
        G = gs + P  # emitter broadening
        F = F1 = mpf(0)
        for n in range(n_max, 0, -1):
            gam_t = G + gp + (2 * n - 1) * ga  # decoherence rate of manifold n
            g_eff2 = g * g / (1 + (2 * dl / gam_t) ** 2) if dl else g * g
            inv_coop = ga * gam_t / (4 * g_eff2)
            d_n, d_m = G + n * ga, G + (n - 1) * ga
            A = 2 * ga / d_n
            B = inv_coop + n * ga / d_m - 2 * P / d_n + 1
            C = n * P / d_m
            F1, F = F, C / (B + A * F)
        return float(F), float(F1 / F)


def moment_reference(p: dict, rtol: float = 1e-12) -> tuple[float, float]:
    """Converged (n_a, g2) for P_a = 0 and gamma_a > 0."""
    n, prev = 64, None
    while True:
        dps = int(n / (4 * LN10)) + 40
        n_a, g2 = ratio_sweep(p, n, dps)
        physical = n_a > 0.0 and g2 > 0.0
        if (physical and prev is not None
                and abs(n_a - prev[0]) <= rtol * n_a and abs(g2 - prev[1]) <= rtol * g2
                and prev[2] >= n_a / LN10 + 40):
            return n_a, g2
        prev = (n_a, g2, dps) if physical else None
        n *= 2
        if n > 1 << 20:
            raise RuntimeError(f"reference sweep did not converge for {p}")


def coherent_weight(omega_L: float, gamma_sigma: float, gamma_phi: float = 0.0, delta: float = 0.0) -> float:
    """Elastic weight |<sigma'>|^2 / n_sigma of the driven emitter, closed form.

    The drive is reduced by the laser-emitter overlap at detuning ``delta``.
    """
    width = gamma_sigma + gamma_phi
    om_eff = omega_L if delta == 0.0 else omega_L / math.sqrt(1.0 + (2.0 * delta / width) ** 2)
    return gamma_sigma**2 / (8.0 * om_eff**2 + gamma_sigma * width)
