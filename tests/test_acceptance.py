"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Every tolerance is pinned here.  Reference table cells are 3-significant-digit
display values; agreement means within one unit of the third significant
digit (the displays mix round-half and truncate conventions).  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from twoscale import (
    ArrivalQuery,
    CharExponent,
    ModelPair,
    PowerScaling,
    approx_fast,
    approx_slow,
    compound_poisson_gamma_tail,
    diagnostic,
    fast_expansion,
    is_tail,
    lmgf,
    negbin_tail,
    pi_exact,
    pi_fast,
    pi_gamma,
    pi_hat_fast,
    pi_hat_slow,
    pi_pois,
    pi_slow,
    slow_expansion,
    solve_twist,
)
from twoscale.oracle import exact_law
from conftest import RARE_GRID, gp_pair, matches_displayed, pg_pair


def report(criterion: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


# --- criterion 1 -----------------------------------------------------------

TABLE1_EXPECTED = {
    (100_000, 1000.0, 150.0): (1.90e-6, 1.88e-6, 2.00e-5, 1.95e-6, 1.97e-6),
    (50_000, 500.0, 150.0): (1.93e-6, 1.88e-6, 2.00e-5, 1.95e-6, 2.00e-6),
    (10_000, 100.0, 150.0): (2.13e-6, 1.88e-6, 2.00e-5, 1.95e-6, 2.21e-6),
    (5_000, 50.0, 150.0): (2.41e-6, 1.88e-6, 2.00e-5, 1.95e-6, 2.51e-6),
    (1_000, 10.0, 150.0): (5.89e-6, 1.88e-6, 2.00e-5, 1.95e-6, 6.82e-6),
}


def test_criterion_1_table1_reproduction():
    start = time.perf_counter()
    bad = []
    for (K, mu_bar, u_bar), expected in TABLE1_EXPECTED.items():
        q = ArrivalQuery(K, u_bar, mu_bar)
        got = (
            pi_exact(q).probability,
            pi_pois(q),
            pi_hat_fast(q),
            pi_fast(q, M=1),
            pi_fast(q, M=2),
        )
        for col, (g, e) in enumerate(zip(got, expected)):
            if not matches_displayed(g, e):
                bad.append((K, col, g, e))
    elapsed = time.perf_counter() - start
    report(
        "criterion 1: fast-regime table, 5 rows x 5 columns at 3 significant digits",
        not bad and elapsed < 1.0,
        f"runtime {elapsed:.3f}s" + (f", mismatches {bad}" if bad else ""),
    )


# --- criterion 2 -----------------------------------------------------------

# Row 2 uses the corrected rate 0.005 (restores the common rho = 2/3).  The
# Erlang column is analytically constant over these rows; the displayed
# reference instead drifts upward (5.95/6.03/6.14 in rows 3..5), consistent
# with a threshold-minus-one evaluation.  Those three cells are asserted
# against the formula's constant and flagged, not matched to the display.
TABLE2_EXPECTED = {
    (100, 0.001, 150_000.0): (5.98e-6, 5.93e-6, 7.84e-5, 6.26e-6, 6.31e-6),
    (100, 0.005, 30_000.0): (6.20e-6, 5.93e-6, 7.84e-5, 6.26e-6, 6.52e-6),
    (100, 0.01, 15_000.0): (6.48e-6, 5.95e-6, 7.84e-5, 6.26e-6, 6.80e-6),
    (100, 0.05, 3_000.0): (9.11e-6, 6.03e-6, 7.84e-5, 6.26e-6, 9.49e-6),
    (100, 0.1, 1_500.0): (1.35e-5, 6.14e-6, 7.84e-5, 6.26e-6, 1.44e-5),
}
_GAMMA_COLUMN_DISCREPANT = {(100, 0.01, 15_000.0), (100, 0.05, 3_000.0), (100, 0.1, 1_500.0)}


def test_criterion_2_table2_reproduction_with_row2_correction():
    start = time.perf_counter()
    bad = []
    gamma_constant = pi_gamma(ArrivalQuery(100, 150_000.0, 0.001))
    for (K, mu_bar, u_bar), expected in TABLE2_EXPECTED.items():
        q = ArrivalQuery(K, u_bar, mu_bar)
        got = (
            pi_exact(q).probability,
            pi_gamma(q),
            pi_hat_slow(q),
            pi_slow(q, M=0),
            pi_slow(q, M=1),
        )
        for col, (g, e) in enumerate(zip(got, expected)):
            if col == 1 and (K, mu_bar, u_bar) in _GAMMA_COLUMN_DISCREPANT:
                # documented discrepancy: the formula value is constant
                if not (g == pytest.approx(gamma_constant, rel=1e-12) and not matches_displayed(g, e)):
                    bad.append((mu_bar, col, g, e, "gamma-column flag"))
                continue
            if not matches_displayed(g, e):
                bad.append((mu_bar, col, g, e))
    row2 = pi_exact(ArrivalQuery(100, 30_000.0, 0.005)).probability
    if not matches_displayed(row2, 6.20e-6):
        bad.append(("row2-corrected", row2, 6.20e-6))
    elapsed = time.perf_counter() - start
    report(
        "criterion 2: slow-regime table with corrected row 2 "
        "(Erlang column constant by formula; rows 3-5 display drift flagged)",
        not bad and elapsed < 1.0,
        f"runtime {elapsed:.3f}s" + (f", mismatches {bad}" if bad else ""),
    )


# --- criterion 3 -----------------------------------------------------------

def test_criterion_3_text_refinement_claims():
    # The quoted refinements: two extra exponent terms on the hardest fast
    # row reach 5.90e-6, and the slow sum through k = 2 reaches 1.34e-5.
    # The refinement index counts the sum's upper limit k, so the fast claim
    # is M = 3 (M = 4 demonstrably yields 6.00e-6 instead and is asserted as
    # the non-matching neighbour to pin the convention).
    q_fast = ArrivalQuery(1_000, 150.0, 10.0)
    q_slow = ArrivalQuery(100, 1_500.0, 0.1)
    fast_ok = matches_displayed(pi_fast(q_fast, M=3), 5.90e-6)
    fast_guard = matches_displayed(pi_fast(q_fast, M=4), 6.00e-6)
    slow_ok = matches_displayed(pi_slow(q_slow, M=2), 1.34e-5)
    report(
        "criterion 3: refinement claims 5.90e-6 (fast, sum through k=3) "
        "and 1.34e-5 (slow, sum through k=2)",
        fast_ok and fast_guard and slow_ok,
        f"pi_fast(M=3)={pi_fast(q_fast, M=3):.4e}, pi_fast(M=4)={pi_fast(q_fast, M=4):.4e}, "
        f"pi_slow(M=2)={pi_slow(q_slow, M=2):.4e}",
    )


# --- criterion 4 -----------------------------------------------------------

def test_criterion_4_solver_and_expansion_consistency():
    worst_theta = 0.0
    worst_coeff = 0.0
    worst_w2 = 0.0
    for lam, r, mu, u in RARE_GRID:
        rho = lam * r / (mu * u)
        # twist solutions vs closed forms, both models, both regimes
        for f, n in ((1.5, 64.0), (0.5, 400.0)):
            s = PowerScaling(f)
            psi = s.psi(n)
            got = solve_twist(pg_pair(lam, r, mu), s, n, u).theta_n
            closed = math.log((mu * u + lam * psi * u) / (lam * r + lam * psi * u))
            worst_theta = max(worst_theta, abs(got - closed) / max(1.0, abs(closed)))
            got = solve_twist(gp_pair(r, mu, lam), s, n, u).theta_n
            closed = mu * (1.0 - rho ** (1.0 / (1.0 + r * psi)))
            worst_theta = max(worst_theta, abs(got - closed) / max(1.0, abs(closed)))
        # generic expansion coefficients vs closed forms
        z1, z2 = lam / mu, u / r
        exp_f = fast_expansion(pg_pair(lam, r, mu), u, order=2)
        worst_coeff = max(
            worst_coeff,
            abs(exp_f.v[1] - (z1 - z2)) / abs(z1 - z2),
            abs(exp_f.v[2] + (z1**2 - z2**2) / 2.0) / abs((z1**2 - z2**2) / 2.0),
        )
        ell = math.log(1.0 / rho)
        exp_g = fast_expansion(gp_pair(r, mu, lam), u, order=2)
        worst_coeff = max(
            worst_coeff,
            abs(exp_g.v[1] + mu * r * rho * ell) / (mu * r * rho * ell),
            abs(exp_g.v[2] - mu * r**2 * rho * ell * (1.0 - ell / 2.0))
            / abs(mu * r**2 * rho * ell * (1.0 - ell / 2.0)),
        )
        exp_s = slow_expansion(pg_pair(lam, r, mu), u, order=1)
        tau_closed = (r / u) * (1.0 / rho - 1.0)
        worst_coeff = max(worst_coeff, abs(exp_s.tau_star - tau_closed) / tau_closed)
        # numerically extracted w_2 vs the printed closed form
        exp_s2 = slow_expansion(gp_pair(r, mu, lam), u, order=2)
        w2_closed = -(mu / r**2) * ell * (1.0 + ell / 2.0)
        worst_w2 = max(worst_w2, abs(exp_s2.w[1] - w2_closed) / abs(w2_closed))
    ok = worst_theta <= 1e-10 and worst_coeff <= 1e-9 and worst_w2 <= 1e-6
    report(
        "criterion 4: twist solver 1e-10, order-1/2 coefficients 1e-9, Richardson w2 1e-6 "
        f"over {len(RARE_GRID)} parameter sets",
        ok,
        f"worst theta {worst_theta:.2e}, coeff {worst_coeff:.2e}, w2 {worst_w2:.2e}",
    )


# --- criterion 5 -----------------------------------------------------------

def test_criterion_5_asymptotic_validity():
    start = time.perf_counter()
    lam, r, mu = 1.0, 1.0, 2.0
    u = 2.0 * lam * r / mu
    model = pg_pair(lam, r, mu)

    def ratios(f: float, lattice: bool, approx_fn) -> list[float]:
        s = PowerScaling(f)
        out = []
        for n in (1e2, 1e3, 1e4):
            law = exact_law(pg_pair(lam, r, mu), s, n)
            exact_log = negbin_tail(law.successes, law.p, u * n).log_probability
            est = approx_fn(model, s, n, u, mode="direct", lattice=lattice)
            out.append(math.exp(exact_log - est.log_value))
        return out

    fast = ratios(1.5, True, approx_fast)
    slow = ratios(0.5, False, approx_slow)
    gaps_fast = [abs(rho - 1.0) for rho in fast]
    gaps_slow = [abs(rho - 1.0) for rho in slow]
    ok = (
        0.95 <= fast[-1] <= 1.05
        and 0.95 <= slow[-1] <= 1.05
        and gaps_fast[0] > gaps_fast[1] > gaps_fast[2]
        and gaps_slow[0] > gaps_slow[1] > gaps_slow[2]
    )
    elapsed = time.perf_counter() - start
    report(
        "criterion 5: exact/approx in [0.95, 1.05] at n=1e4 with monotone approach "
        "(fast f=1.5 lattice, slow f=0.5 non-lattice)",
        ok and elapsed < 10.0,
        f"fast ratios {[f'{x:.4f}' for x in fast]}, slow {[f'{x:.4f}' for x in slow]}, "
        f"runtime {elapsed:.2f}s",
    )


# --- criterion 6 -----------------------------------------------------------

def test_criterion_6_oracle_cross_validation():
    start = time.perf_counter()
    samples = 100_000
    # counting model: P ~ 1.3e-6
    s = PowerScaling(1.5)
    pg = pg_pair(1.0, 1.0, 3.0)
    n, u = 400.0, 0.48
    law = exact_law(pg_pair(1.0, 1.0, 3.0), s, n)
    exact_pg = negbin_tail(law.successes, law.p, u * n).probability
    est_pg = is_tail(pg, s, n, u, samples=samples, seed=20240809)
    z_pg = abs(est_pg.probability - exact_pg) / est_pg.error.std_error
    rel_pg = est_pg.error.std_error / est_pg.probability
    # jump model: P ~ 6e-6
    gp = gp_pair(1.0, 2.0, 1.0)
    u_gp = 0.62
    exact_gp = compound_poisson_gamma_tail(
        s.phi(n) * 1.0, 1.0 * s.psi(n), 2.0, u_gp * n
    ).probability
    est_gp = is_tail(gp, s, n, u_gp, samples=samples, seed=20240810)
    z_gp = abs(est_gp.probability - exact_gp) / est_gp.error.std_error
    rel_gp = est_gp.error.std_error / est_gp.probability
    elapsed = time.perf_counter() - start
    ok = z_pg <= 3.0 and z_gp <= 3.0 and rel_pg <= 0.05 and rel_gp <= 0.05 and elapsed < 30.0
    report(
        "criterion 6: importance sampling within 3 SE of both exact oracles at P ~ 1e-6, "
        "relative SE <= 5%",
        ok,
        f"P_pg={exact_pg:.3e} z={z_pg:.2f} rel={rel_pg:.3%}; "
        f"P_gp={exact_gp:.3e} z={z_gp:.2f} rel={rel_gp:.3%}; runtime {elapsed:.1f}s",
    )


# --- criterion 7 -----------------------------------------------------------

def test_criterion_7_edgeworth_diagnostic():
    model, s, u = pg_pair(1.0, 1.0, 2.0), PowerScaling(2.5), 1.0
    scaled = []
    for n in (1e2, 1e3, 1e4):
        d = diagnostic(model, s, n, u)
        scaled.append(math.sqrt(n) * d.sup_gap)
    ok = scaled[0] > scaled[1] > scaled[2]
    report(
        "criterion 7: sqrt(n) * sup-gap to the exact tilted law decreases over "
        "n in {1e2, 1e3, 1e4} at f = 2.5",
        ok,
        f"values {[f'{v:.5f}' for v in scaled]}",
    )


# --- criterion 8 -----------------------------------------------------------

def test_criterion_8_property_suite():
    failures = []

    # convexity of the composed log-mgf (second difference non-negative)
    model, s = pg_pair(1.0, 1.0, 3.0), PowerScaling(1.5)
    h = 1e-3
    for theta in np.linspace(-1.0, 1.5, 23):
        second = (
            lmgf(model, s, 50.0, theta + h)
            - 2.0 * lmgf(model, s, 50.0, theta)
            + lmgf(model, s, 50.0, theta - h)
        ) / (h * h)
        if second < -1e-9:
            failures.append(f"convexity at theta={theta}")

    # finite-difference derivative checks for the built-in exponents
    for exponent in (CharExponent.poisson(1.3), CharExponent.gamma(0.7, 2.5)):
        for order, step in ((1, 1e-6), (2, 1e-5), (3, 1e-4)):
            for t in (-0.4, 0.0, 0.6):
                fd = (exponent.deriv(t + step, order - 1) - exponent.deriv(t - step, order - 1)) / (
                    2 * step
                )
                if abs(fd - exponent.deriv(t, order)) > 1e-6 * max(1.0, abs(exponent.deriv(t, order))):
                    failures.append(f"derivative order {order} at {t}")

    # lattice prefactor continuity at d = 1e-4
    lam, r, mu = 1.0, 1.0, 2.0
    u_near = 1.01 * lam * r / mu
    m_small_d = ModelPair(CharExponent.poisson(lam, lattice_span=1e-4), CharExponent.gamma(r, mu))
    latt = approx_fast(m_small_d, PowerScaling(1.5), 100.0, u_near, lattice=True)
    smooth = approx_fast(m_small_d, PowerScaling(1.5), 100.0, u_near, lattice=False)
    if abs(latt.prefactor / smooth.prefactor - 1.0) > 1e-6:
        failures.append("lattice prefactor continuity")

    # scale invariance of the arrival-count formulas
    K, mu_bar, u_bar = 100_000, 1000.0, 150.0
    q = ArrivalQuery(K, u_bar, mu_bar)
    for n in (10.0, 100.0, 1000.0):
        f = math.log(K) / math.log(n)
        mu_n = mu_bar * n ** (1.0 - f)
        mdl = ModelPair(CharExponent.poisson(1.0), CharExponent.gamma(1.0, mu_n))
        est = approx_fast(mdl, PowerScaling(f), n, u_bar / n, mode="series", order=2, lattice=True)
        if abs(est.value / pi_fast(q, M=2) - 1.0) > 1e-10:
            failures.append(f"scale invariance at n={n}")

    # seed determinism of the sampling oracle
    a = is_tail(pg_pair(1.0, 1.0, 3.0), PowerScaling(1.5), 400.0, 0.48, samples=4000, seed=5)
    b = is_tail(pg_pair(1.0, 1.0, 3.0), PowerScaling(1.5), 400.0, 0.48, samples=4000, seed=5)
    if a.probability != b.probability or a.error.std_error != b.error.std_error:
        failures.append("seed determinism")

    report(
        "criterion 8: convexity, derivative checks, lattice continuity 1e-6, "
        "scale invariance 1e-10, seed determinism",
        not failures,
        "; ".join(failures) if failures else "all properties hold",
    )
