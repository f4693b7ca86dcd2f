"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 6 checks both product inequalities and the two joint-POVM
domination inequalities for random instruments.  The joint POVM M is the
instrument followed by the SLD-optimal measurement of its output for
estimating <B>, so eps(A; I) >= eps(A; M) and eta(B; I) >= eps(B; M) hold by
construction; the check takes them at face value.
"""

import math
import time

import numpy as np

from urlab import (
    RLD_FUNCTION,
    SLD_FUNCTION,
    BOGOLIUBOV_FUNCTION,
    correlation,
    disturbance,
    error_disturbance_report,
    error_error_report,
    grad_expectation,
    locally_unbiased_estimator,
    measurement_error,
    model_from_povm,
    monotonicity_check,
    monte_carlo_variance,
    mp_inverse,
    pvm_of_observable,
    quantum_cr_check,
    quantum_fisher,
    schur_positivity_report,
    sym_correlation,
    tangent_basis,
    variance,
)
from urlab.randoms import (
    random_channel,
    random_hermitian,
    random_instrument,
    random_kernel,
    random_model,
    random_povm,
    random_state,
    rng_from_seed,
)
from urlab.scenarios import (
    ScenarioConfig,
    depolarizing_channel,
    run_scenario,
    unsharp_z_povm,
)

from conftest import IDENTITY2, SIGMA_Z, qubit_state


def _report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {tag} {detail}")
    return ok


def test_criterion_1_pvm_zero_error():
    start = time.time()
    gen = rng_from_seed(101)
    worst = 0.0
    for _ in range(100):
        d = int(gen.integers(2, 7))
        s = random_state(gen, d)
        a = random_hermitian(gen, d)
        res = measurement_error(s, a, pvm_of_observable(a))
        worst = max(worst, abs(res.value))
    elapsed = time.time() - start
    ok = worst <= 1e-8 and elapsed < 30
    assert _report(1, "pvm-zero-error", ok,
                   f"max |eps| = {worst:.3e}, {elapsed:.1f}s")


def test_criterion_2_closed_form_qubit_oracles():
    eps = measurement_error(IDENTITY2 / 2, SIGMA_Z, unsharp_z_povm(0.8)).value
    eta = disturbance(IDENTITY2 / 2, SIGMA_Z, depolarizing_channel(0.5)).value
    j = quantum_fisher(qubit_state(rz=0.6), SLD_FUNCTION)
    sld_form = j.matrix[2, 2]
    ok = (
        abs(eps - 0.5625) <= 1e-10
        and abs(eta - 3.0) <= 1e-10
        and abs(sld_form - 3.125) <= 1e-10
    )
    assert _report(2, "closed-form-qubit-oracles", ok,
                   f"eps = {eps:.10f}, eta = {eta:.10f}, sld = {sld_form:.10f}")


def test_criterion_3_quantum_cramer_rao():
    start = time.time()
    gen = rng_from_seed(103)
    worst_sld = worst_rld = 0.0
    ok = True
    for _ in range(200):
        d = int(gen.integers(2, 6))
        s = random_state(gen, d)
        m = random_povm(gen, d, int(gen.integers(2, d * d + 2)))
        rep = quantum_cr_check(s, m)
        ok &= rep.holds
        worst_sld = min(worst_sld, rep.sld_gap_min_eig)
        worst_rld = min(worst_rld, rep.rld_gap_min_eig)
    elapsed = time.time() - start
    ok = ok and elapsed < 60
    assert _report(3, "quantum-cramer-rao", ok,
                   f"min gaps sld = {worst_sld:.3e}, rld = {worst_rld:.3e}, "
                   f"{elapsed:.1f}s")


def test_criterion_4_correlation_identities():
    gen = rng_from_seed(104)
    worst = 0.0
    for _ in range(200):
        d = int(gen.integers(2, 5))
        s = random_state(gen, d)
        basis = tangent_basis(d)
        a = random_hermitian(gen, d)
        b = random_hermitian(gen, d)
        ga = basis.coords(grad_expectation(s, a))
        gb = basis.coords(grad_expectation(s, b))
        js = quantum_fisher(s, SLD_FUNCTION)
        jr = quantum_fisher(s, RLD_FUNCTION)
        worst = max(worst, abs(js.quad(gb, ga) - sym_correlation(s, a, b)))
        worst = max(worst, abs(complex(gb @ jr.pinv @ ga) - correlation(s, a, b)))
        worst = max(worst, abs(js.quad(ga) - variance(s, a)))
        worst = max(worst, abs(jr.quad(ga) - variance(s, a)))
    ok = worst <= 1e-8
    assert _report(4, "correlation-identities", ok, f"max error = {worst:.3e}")


def test_criterion_5_monotonicity():
    gen = rng_from_seed(105)
    ok = True
    worst_classical = 0.0
    for _ in range(200):
        mod = random_model(gen, int(gen.integers(3, 9)), int(gen.integers(1, 5)))
        k = random_kernel(gen, int(gen.integers(2, 7)), mod.n_outcomes)
        rep = monotonicity_check(mod, k)
        ok &= rep.holds
        worst_classical = min(worst_classical, rep.diff_min_eig)
    worst_quantum = 0.0
    functions = (SLD_FUNCTION, RLD_FUNCTION, BOGOLIUBOV_FUNCTION)
    for i in range(100):
        d = int(gen.integers(2, 5))
        s = random_state(gen, d)
        ch = random_channel(gen, d, int(gen.integers(1, 5)))
        f = functions[i % 3]
        j = quantum_fisher(s, f).matrix
        jp = quantum_fisher(s, f, pushforward=ch).matrix
        diff = (j - jp + (j - jp).conj().T) / 2
        gap = float(np.linalg.eigvalsh(diff).min())
        norm = max(np.linalg.norm(j), 1.0)
        ok &= gap >= -1e-8 * norm
        worst_quantum = min(worst_quantum, gap / norm)
    assert _report(5, "monotonicity", ok,
                   f"min classical eig = {worst_classical:.3e}, "
                   f"min quantum eig/norm = {worst_quantum:.3e}")


def test_criterion_6_uncertainty_inequalities():
    gen = rng_from_seed(106)
    ee_ok = ed_ok = dom_a_ok = dom_b_ok = True
    ee_margin = ed_margin = math.inf
    dom_b_failures = 0
    for _ in range(200):
        d = int(gen.integers(2, 5))
        s = random_state(gen, d)
        a = random_hermitian(gen, d)
        b = random_hermitian(gen, d)
        m = random_povm(gen, d, d * d + 1)
        ee = error_error_report(s, a, b, m)
        ee_ok &= ee.holds
        if not math.isinf(ee.gap):
            ee_margin = min(ee_margin, ee.gap + 1e-8 * max(1.0, ee.rhs))
    for _ in range(200):
        d = int(gen.integers(2, 5))
        s = random_state(gen, d)
        a = random_hermitian(gen, d)
        b = random_hermitian(gen, d)
        ins = random_instrument(gen, d, d * d + 1)
        rep = error_disturbance_report(s, a, b, ins)
        ed_ok &= rep.holds
        dom_a_ok &= rep.domination_a
        dom_b_ok &= rep.domination_b
        dom_b_failures += 0 if rep.domination_b else 1
        if not math.isinf(rep.gap):
            ed_margin = min(ed_margin, rep.gap + 1e-8 * max(1.0, rep.rhs))
    ok = ee_ok and ed_ok and dom_a_ok and dom_b_ok
    assert _report(
        6, "uncertainty-inequalities", ok,
        f"error-error margin = {ee_margin:.3e} ({'ok' if ee_ok else 'violated'}), "
        f"error-disturbance margin = {ed_margin:.3e} ({'ok' if ed_ok else 'violated'}), "
        f"domination-A {'ok' if dom_a_ok else 'violated'}, "
        f"domination-B violated in {dom_b_failures}/200 trials",
    )


def test_criterion_7_monte_carlo_cramer_rao():
    start = time.time()
    eta = 0.8
    basis = tangent_basis(2)
    mod = model_from_povm(IDENTITY2 / 2, unsharp_z_povm(eta))
    est = locally_unbiased_estimator(mod, basis.coords(SIGMA_Z), 0.0)
    res = monte_carlo_variance(mod, est.values, n=100_000, seed=107)
    elapsed = time.time() - start
    target = 1 / eta**2
    ok = abs(res.var - target) <= 3 * res.stderr and elapsed < 10
    assert _report(7, "monte-carlo-cramer-rao", ok,
                   f"var = {res.var:.5f}, target = {target:.5f}, "
                   f"3 stderr = {3 * res.stderr:.5f}, {elapsed:.1f}s")


def test_criterion_8_pseudoinverse_and_schur():
    gen = rng_from_seed(108)
    worst = 0.0
    for _ in range(500):
        n = int(gen.integers(2, 8))
        rank = int(gen.integers(1, n + 1))
        u = gen.normal(size=(n, rank)) + 1j * gen.normal(size=(n, rank))
        mat = u @ u.conj().T
        res = mp_inverse(mat)
        norm = max(np.linalg.norm(mat), 1.0)
        p = res.pinv
        worst = max(
            worst,
            np.linalg.norm(mat @ p @ mat - mat) / norm,
            np.linalg.norm(p @ mat @ p - p) / max(np.linalg.norm(p), 1.0),
            np.linalg.norm((mat @ p).conj().T - mat @ p) / norm,
            np.linalg.norm((p @ mat).conj().T - p @ mat) / norm,
        )
    schur_ok = True
    for _ in range(200):
        n = int(gen.integers(2, 5))
        w = gen.normal(size=(2 * n, 2 * n)) + 1j * gen.normal(size=(2 * n, 2 * n))
        m = w @ w.conj().T if gen.random() < 0.5 else w + w.conj().T
        rep = schur_positivity_report(m[:n, :n], m[:n, n:], m[n:, n:])
        schur_ok &= rep.is_psd == rep.cond2 == rep.cond3
    ok = worst <= 1e-9 and schur_ok
    assert _report(8, "pseudoinverse-and-schur", ok,
                   f"max penrose residual = {worst:.3e}, "
                   f"schur agreement {'ok' if schur_ok else 'violated'}")


def test_criterion_9_oscillator_truncation_proxy():
    start = time.time()
    cfg = ScenarioConfig(name="oscillator", cutoffs=(24, 32),
                         params={"mean_photon": 1.0})
    rep = run_scenario(cfg)
    by_name = {r.quantity: r for r in rep.rows}
    eps_ok = all(
        by_name[f"epsilon_q_cutoff{d}"].status == "pass" for d in (24, 32)
    )
    drift = by_name["eta_q_relative_drift"]
    elapsed = time.time() - start
    ok = eps_ok and drift.status == "pass" and elapsed < 300
    assert _report(9, "oscillator-truncation-proxy", ok,
                   f"eps rows {'ok' if eps_ok else 'violated'}, "
                   f"eta drift = {drift.value:.3e} (bound 0.01), {elapsed:.1f}s")
