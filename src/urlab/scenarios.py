"""Named scenarios and randomized verification suites behind the CLI.

Each scenario or suite produces a RunReport with one row per checked identity
or inequality; a report passes when no row fails.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import oscillator
from .classical import (
    fisher_operator,
    locally_unbiased_estimator,
    markov_pushforward,
    model_from_povm,
    monotonicity_check,
    monte_carlo_variance,
)
from .errors import UrlabError
from .operator_core import (
    BOGOLIUBOV_FUNCTION,
    RLD_FUNCTION,
    SLD_FUNCTION,
    kf_superoperator,
    mp_inverse,
    schur_positivity_report,
    tangent_basis,
)
from .qfisher import (
    log_derivative,
    quantum_cr_check,
    quantum_fisher,
    sld_optimal_pvm,
)
from .quantum import (
    CpInstrument,
    KrausChannel,
    Povm,
    QuantumState,
    average_channel,
    correlation,
    expectation,
    grad_expectation,
    induced_povm,
    pvm_of_observable,
    sym_correlation,
    variance,
)
from .randoms import (
    random_channel,
    random_complex,
    random_hermitian,
    random_instrument,
    random_kernel,
    random_model,
    random_povm,
    random_state,
    rng_from_seed,
)
from .report import RunReport, Row, eq_row, flag_row, ge_row, le_row, new_metadata
from .uncertainty import (
    disturbance,
    error_disturbance_report,
    error_error_report,
    instrument_error_disturbance,
    joint_povm,
    measurement_error,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY2 = np.eye(2, dtype=complex)


def unsharp_z_povm(eta: float) -> Povm:
    """Two-outcome unsharp z measurement with effects (I +- eta sigma_z) / 2."""
    return Povm(
        outcomes=("+", "-"),
        effects=((IDENTITY2 + eta * SIGMA_Z) / 2, (IDENTITY2 - eta * SIGMA_Z) / 2),
    )


def unsharp_z_instrument(eta: float) -> CpInstrument:
    """Instrument with Kraus operators sqrt((I +- eta sigma_z) / 2)."""
    kp = np.diag(np.sqrt(np.array([(1 + eta) / 2, (1 - eta) / 2])))
    km = np.diag(np.sqrt(np.array([(1 - eta) / 2, (1 + eta) / 2])))
    return CpInstrument(outcomes=("+", "-"), kraus_sets=((kp,), (km,)))


def luders_z_instrument() -> CpInstrument:
    pp = np.diag([1.0, 0.0]).astype(complex)
    pm = np.diag([0.0, 1.0]).astype(complex)
    return CpInstrument(outcomes=("+", "-"), kraus_sets=((pp,), (pm,)))


def depolarizing_channel(p: float) -> KrausChannel:
    return KrausChannel(
        kraus=(
            np.sqrt(1 - 3 * p / 4) * IDENTITY2,
            np.sqrt(p) / 2 * SIGMA_X,
            np.sqrt(p) / 2 * SIGMA_Y,
            np.sqrt(p) / 2 * SIGMA_Z,
        )
    )


@dataclass(frozen=True)
class ScenarioConfig:
    """Configuration of a named scenario run."""

    name: str
    dim: int = 2
    seed: int = 0
    params: dict = field(default_factory=dict)
    cutoffs: tuple = ()

    def __post_init__(self):
        if self.dim < 2:
            raise UrlabError(f"dim must be >= 2, got {self.dim}")
        if self.seed < 0:
            raise UrlabError("seed must be nonnegative")
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "cutoffs", tuple(int(c) for c in self.cutoffs))

    def param(self, key: str, default: float) -> float:
        try:
            return float(self.params.get(key, default))
        except (TypeError, ValueError) as exc:
            raise UrlabError(f"param {key!r} is not a number: {self.params[key]!r}") from exc


def _scenario_qubit_unsharp(cfg: ScenarioConfig) -> tuple[list[Row], list[int]]:
    eta = cfg.param("eta", 0.8)
    if not 0 < eta <= 1:
        raise UrlabError(f"eta must be in (0, 1], got {eta}")
    rng = rng_from_seed(cfg.seed)
    rows = []
    maximally_mixed = IDENTITY2 / 2

    eps = measurement_error(maximally_mixed, SIGMA_Z, unsharp_z_povm(eta))
    rows.append(eq_row("epsilon_sz", eps.value, 1 / eta**2 - 1, atol=1e-10))

    eps_pvm = measurement_error(maximally_mixed, SIGMA_Z, pvm_of_observable(SIGMA_Z))
    rows.append(le_row("pvm_zero_error", abs(eps_pvm.value), 1e-8))

    # error-error sweep on a polarized state with random POVMs and observables
    r = cfg.param("r", 0.5)
    rho = (IDENTITY2 + r * SIGMA_Z) / 2
    worst = math.inf
    trials = int(cfg.param("trials", 50))
    for _ in range(trials):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        m = random_povm(rng, 2, 4)
        rep = error_error_report(rho, a, b, m)
        if not math.isinf(rep.gap):
            worst = min(worst, rep.gap + 1e-8 * max(1.0, rep.rhs))
    rows.append(ge_row("error_error_gap_min", worst, 0.0))
    return rows, [2]


def _scenario_qubit_instrument(cfg: ScenarioConfig) -> tuple[list[Row], list[int]]:
    p = cfg.param("p", 0.5)
    eta = cfg.param("eta", 0.8)
    if not 0 <= p < 1:
        raise UrlabError(f"p must be in [0, 1), got {p}")
    rows = []
    maximally_mixed = IDENTITY2 / 2

    dist = disturbance(maximally_mixed, SIGMA_Z, depolarizing_channel(p))
    rows.append(eq_row("eta_depolarizing", dist.value, (1 - p) ** -2 - 1, atol=1e-10))

    rho = (IDENTITY2 + 0.3 * SIGMA_X) / 2
    rep = error_disturbance_report(rho, SIGMA_Z, SIGMA_X, unsharp_z_instrument(eta))
    rows.append(flag_row("ed_inequality", rep.holds, value=rep.gap))
    rows.append(flag_row("ed_domination_error", rep.domination_a))
    rows.append(flag_row("ed_domination_disturbance", rep.domination_b))

    eps, eta_b = instrument_error_disturbance(
        maximally_mixed, SIGMA_Z, SIGMA_X, unsharp_z_instrument(eta)
    )
    rows.append(eq_row("epsilon_sz_instrument", eps.value, 1 / eta**2 - 1, atol=1e-10))
    # the average channel shrinks the x component by sqrt(1 - eta^2), so
    # eta(sigma_x) = (1 - eta^2)^{-1} - 1; full dephasing makes it infinite
    rows.append(
        eq_row("eta_sx_instrument", eta_b.value, 1 / (1 - eta**2) - 1, atol=1e-10)
    )
    _, eta_full = instrument_error_disturbance(
        maximally_mixed, SIGMA_Z, SIGMA_X, luders_z_instrument()
    )
    rows.append(flag_row("eta_sx_luders_infinite", eta_full.is_infinite))
    return rows, [2]


def _scenario_qutrit_random(cfg: ScenarioConfig) -> tuple[list[Row], list[int]]:
    rng = rng_from_seed(cfg.seed)
    trials = int(cfg.param("trials", 25))
    d = 3
    basis = tangent_basis(d)
    cr_ok = True
    mono_min = math.inf
    corr_err = 0.0
    for _ in range(trials):
        s = random_state(rng, d)
        m = random_povm(rng, d, rng.integers(3, 7))
        cr_ok &= quantum_cr_check(s, m, basis).holds

        ch = random_channel(rng, d, 3)
        js = quantum_fisher(s, SLD_FUNCTION, basis=basis).matrix
        js_pushed = quantum_fisher(s, SLD_FUNCTION, pushforward=ch, basis=basis).matrix
        gap = np.linalg.eigvalsh(js - js_pushed).min() / max(np.linalg.norm(js), 1.0)
        mono_min = min(mono_min, float(gap))

        a = random_hermitian(rng, d)
        b = random_hermitian(rng, d)
        js_op = quantum_fisher(s, SLD_FUNCTION, basis=basis)
        lhs = sym_correlation(s, a, b)
        rhs = js_op.quad(basis.coords(grad_expectation(s, b)),
                         basis.coords(grad_expectation(s, a)))
        corr_err = max(corr_err, abs(lhs - rhs))
    rows = [
        flag_row("quantum_cramer_rao", cr_ok, value=float(cr_ok)),
        ge_row("sld_monotonicity_min_gap", mono_min, 0.0, atol=1e-8),
        le_row("correlation_identity_max_err", corr_err, 1e-8),
    ]
    return rows, [d]


def _scenario_oscillator(cfg: ScenarioConfig) -> tuple[list[Row], list[int]]:
    cutoffs = cfg.cutoffs or (8, 16, 24, 32)
    if len(cutoffs) < 2 or any(c < 4 for c in cutoffs):
        raise UrlabError("oscillator needs at least two cutoffs >= 4")
    nbar = cfg.param("mean_photon", 1.0)
    strength = cfg.param("dephasing", 0.3)
    rows = []
    etas = {}
    for d in cutoffs:
        thermal = oscillator.thermal_state(d, nbar)
        q = oscillator.quadrature_q(d)
        basis = tangent_basis(d)
        eps = measurement_error(thermal, q, oscillator.homodyne_q_pvm(d), basis)
        rows.append(le_row(f"epsilon_q_cutoff{d}", abs(eps.value), 1e-6))
        eta = disturbance(
            thermal, q, oscillator.number_dephasing_channel(d, strength), basis
        )
        etas[d] = eta.value
        rows.append(ge_row(f"eta_q_cutoff{d}", eta.value, 0.0, atol=1e-8))
    d_lo, d_hi = sorted(cutoffs)[-2:]
    drift = abs(etas[d_lo] - etas[d_hi]) / abs(etas[d_hi])
    rows.append(le_row("eta_q_relative_drift", drift, 0.01))
    return rows, list(cutoffs)


_SCENARIOS = {
    "qubit-unsharp": _scenario_qubit_unsharp,
    "qubit-instrument": _scenario_qubit_instrument,
    "qutrit-random": _scenario_qutrit_random,
    "oscillator": _scenario_oscillator,
}


def scenario_names() -> tuple:
    return tuple(sorted(_SCENARIOS))


def run_scenario(cfg: ScenarioConfig) -> RunReport:
    if cfg.name not in _SCENARIOS:
        raise UrlabError(
            f"unknown scenario {cfg.name!r}; available: {', '.join(scenario_names())}"
        )
    started = time.time()
    rows, dims = _SCENARIOS[cfg.name](cfg)
    return RunReport(
        scenario=cfg.name, rows=rows, metadata=new_metadata(cfg.seed, dims, started)
    )


# ---------------------------------------------------------------------------
# randomized verification suites


def _verify_classical(trials: int, rng, dim_max: int) -> list[Row]:
    zero_mean_max = 0.0
    fisher_min = 0.0
    cr_margin = math.inf
    mono_min = math.inf
    kernel_max = 0.0
    penrose_max = 0.0
    schur_ok = True
    for _ in range(trials):
        n_out = int(rng.integers(2, 9))
        n_par = int(rng.integers(1, min(15, dim_max * dim_max)))
        mod = random_model(rng, n_out, n_par)
        zero_mean_max = max(zero_mean_max, float(np.abs(mod.probs @ mod.scores).max()))
        j = fisher_operator(mod)
        norm = max(np.linalg.norm(j.matrix), 1.0)
        fisher_min = min(fisher_min, float(np.linalg.eigvalsh(j.matrix).min() / norm))

        # Cramer-Rao for the score estimator plus a random unbiased perturbation
        a = j.matrix @ rng.normal(size=n_par)  # guaranteed in range(J)
        est = locally_unbiased_estimator(mod, a, target_value=0.0)
        g = rng.normal(size=n_out)
        basis_cols = np.column_stack([np.ones(n_out), mod.scores])
        # remove components with nonzero p-weighted mean or score correlation
        w = mod.probs
        proj = basis_cols @ np.linalg.pinv((basis_cols * w[:, None]).T @ basis_cols) @ (
            basis_cols * w[:, None]
        ).T
        g = g - proj @ g
        perturbed = est.values + g
        var = float(w @ perturbed**2 - (w @ perturbed) ** 2)
        cr_margin = min(cr_margin, var - j.quad(a) + 1e-9)

        kern = random_kernel(rng, int(rng.integers(1, n_out + 2)), n_out)
        rep = monotonicity_check(mod, kern)
        mono_min = min(mono_min, rep.diff_min_eig / norm)

        fhat = rng.normal(size=n_out)
        grad = (w * fhat) @ mod.scores
        kernel_max = max(
            kernel_max,
            j.kernel_violation(grad) / max(np.linalg.norm(grad), 1e-300),
        )

        d = int(rng.integers(2, dim_max + 1))
        rank = int(rng.integers(1, d + 1))
        g2 = random_complex(rng, (d, rank))
        s = g2 @ g2.conj().T
        res = mp_inverse(s)
        snorm = max(np.linalg.norm(s), 1e-300)
        penrose_max = max(
            penrose_max,
            np.linalg.norm(s @ res.pinv @ s - s) / snorm,
            np.linalg.norm(res.pinv @ s @ res.pinv - res.pinv) / snorm,
        )

        blk = random_hermitian(rng, 2 * d)
        if rng.random() < 0.5:
            blk = blk @ blk.conj().T
        srep = schur_positivity_report(blk[:d, :d], blk[:d, d:], blk[d:, d:])
        schur_ok &= srep.is_psd == srep.cond2 == srep.cond3
    return [
        le_row("zero_mean_scores_max", zero_mean_max, 1e-9),
        ge_row("fisher_psd_min_eig", fisher_min, 0.0, atol=1e-9),
        ge_row("cramer_rao_margin_min", cr_margin, 0.0),
        ge_row("markov_monotonicity_min_gap", mono_min, 0.0, atol=1e-9),
        le_row("kernel_lemma_max_violation", kernel_max, 1e-8),
        le_row("penrose_residual_max", penrose_max, 1e-9),
        flag_row("schur_equivalence", schur_ok),
    ]


def _verify_quantum(trials: int, rng, dim_max: int) -> list[Row]:
    residual_max = 0.0
    zero_mean_max = 0.0
    cr_ok = True
    optimal_err = 0.0
    corr_s_err = 0.0
    corr_r_err = 0.0
    scalar_err = 0.0
    mono_min = math.inf
    functions = (SLD_FUNCTION, RLD_FUNCTION, BOGOLIUBOV_FUNCTION)
    for t in range(trials):
        d = int(rng.integers(2, dim_max + 1))
        basis = tangent_basis(d)
        s = random_state(rng, d)
        phi = basis.matrix(rng.normal(size=basis.size))
        f = functions[t % len(functions)]

        ld = log_derivative(s, phi, f)
        k = kf_superoperator(s.rho, f)
        residual_max = max(
            residual_max,
            np.linalg.norm(k.apply(ld.matrix) - phi) / max(np.linalg.norm(phi), 1e-300),
        )
        zero_mean_max = max(zero_mean_max, abs(complex(np.trace(s.rho @ ld.matrix))))

        m = random_povm(rng, d, int(rng.integers(2, d * d + 2)))
        cr_ok &= quantum_cr_check(s, m, basis).holds

        pvm = sld_optimal_pvm(s, phi)
        jm = fisher_operator(model_from_povm(s, pvm, basis)).matrix
        js = quantum_fisher(s, SLD_FUNCTION, basis=basis).matrix
        c = basis.coords(phi)
        optimal_err = max(optimal_err, abs(c @ jm @ c - c @ js @ c))

        a = random_hermitian(rng, d)
        b = random_hermitian(rng, d)
        js_op = quantum_fisher(s, SLD_FUNCTION, basis=basis)
        jr_op = quantum_fisher(s, RLD_FUNCTION, basis=basis)
        ga = basis.coords(grad_expectation(s, a))
        gb = basis.coords(grad_expectation(s, b))
        corr_s_err = max(
            corr_s_err, abs(sym_correlation(s, a, b) - js_op.quad(gb, ga))
        )
        corr_r = complex(gb @ jr_op.pinv @ ga)
        corr_r_err = max(corr_r_err, abs(correlation(s, a, b) - corr_r))
        gphi = basis.coords(phi)
        target = float(np.trace(s.rho @ phi @ phi).real - np.trace(s.rho @ phi).real ** 2)
        scalar_err = max(
            scalar_err,
            abs(js_op.quad(gphi) - target),
            abs(jr_op.quad(gphi) - target),
        )

        ch = random_channel(rng, d, int(rng.integers(1, 4)))
        jf = quantum_fisher(s, f, basis=basis).matrix
        jf_pushed = quantum_fisher(s, f, pushforward=ch, basis=basis).matrix
        gap = np.linalg.eigvalsh(jf - jf_pushed).min() / max(np.linalg.norm(jf), 1.0)
        mono_min = min(mono_min, float(gap))
    return [
        le_row("logderiv_residual_max", residual_max, 1e-9),
        le_row("logderiv_zero_mean_max", zero_mean_max, 1e-9),
        flag_row("quantum_cramer_rao", cr_ok),
        le_row("sld_optimal_pvm_max_err", optimal_err, 1e-8),
        le_row("correlation_sld_max_err", corr_s_err, 1e-8),
        le_row("correlation_rld_max_err", corr_r_err, 1e-8),
        le_row("scalar_identity_max_err", scalar_err, 1e-8),
        ge_row("f_monotonicity_min_gap", mono_min, 0.0, atol=1e-8),
    ]


def _verify_uncertainty(trials: int, rng, dim_max: int) -> list[Row]:
    dmax = min(dim_max, 4)
    pvm_err_max = 0.0
    optimality_min = math.inf
    attainment_err = 0.0
    marginal_err = 0.0
    domination_a_ok = True
    domination_b_ok = True
    ee_margin = math.inf
    ed_margin = math.inf
    for _ in range(trials):
        d = int(rng.integers(2, dmax + 1))
        basis = tangent_basis(d)
        s = random_state(rng, d)
        a = random_hermitian(rng, d)
        b = random_hermitian(rng, d)

        eps = measurement_error(s, a, pvm_of_observable(a), basis)
        if not eps.is_infinite:
            pvm_err_max = max(pvm_err_max, abs(eps.value))

        m = random_povm(rng, d, int(rng.integers(2, d * d + 2)))
        jm = fisher_operator(model_from_povm(s, m, basis))
        js_op = quantum_fisher(s, SLD_FUNCTION, basis=basis)
        jr_op = quantum_fisher(s, RLD_FUNCTION, basis=basis)
        phi = jm.matrix @ rng.normal(size=basis.size)  # in range(J^M)
        if np.linalg.norm(phi) > 1e-9:
            optimality_min = min(
                optimality_min,
                jm.quad(phi) - js_op.quad(phi) + 1e-8,
                jm.quad(phi) - jr_op.quad(phi) + 1e-8,
            )

        chi = basis.matrix(rng.normal(size=basis.size))
        cchi = basis.coords(chi)
        # the minimizing member of the SLD-optimal family is the PVM of
        # L^S((J^S)^+ chi), whose expectation gradient is exactly chi
        mopt = sld_optimal_pvm(s, basis.matrix(js_op.pinv @ cchi))
        jopt = fisher_operator(model_from_povm(s, mopt, basis))
        attainment_err = max(
            attainment_err,
            abs(jopt.quad(cchi) - js_op.quad(cchi)),
            abs(js_op.quad(cchi) - jr_op.quad(cchi)),
        )

        ins = random_instrument(rng, d, int(rng.integers(2, 5)))
        pvm_b = pvm_of_observable(b)
        joint = joint_povm(ins, pvm_b)
        induced = induced_povm(ins)
        marg_x = {}
        marg_y = {}
        for (x, y), e in zip(joint.outcomes, joint.effects):
            marg_x[x] = marg_x.get(x, 0) + e
            marg_y[y] = marg_y.get(y, 0) + e
        for x, e in zip(induced.outcomes, induced.effects):
            marginal_err = max(marginal_err, float(np.abs(marg_x[x] - e).max()))
        avg = average_channel(ins)
        for y, proj in zip(pvm_b.outcomes, pvm_b.effects):
            marginal_err = max(
                marginal_err, float(np.abs(marg_y[y] - avg.adjoint(proj)).max())
            )

        # an instrument with >= d^2 outcomes keeps the induced POVM
        # informationally complete, so the error-disturbance product check
        # is exercised with finite quantities instead of the infinite branch
        ins_full = random_instrument(rng, d, d * d + 1)
        rep = error_disturbance_report(s, a, b, ins_full, basis)
        domination_a_ok &= rep.domination_a
        domination_b_ok &= rep.domination_b
        if not math.isinf(rep.gap):
            ed_margin = min(ed_margin, rep.gap + 1e-8 * max(1.0, rep.rhs))

        ee = error_error_report(s, a, b, m, basis)
        if not math.isinf(ee.gap):
            ee_margin = min(ee_margin, ee.gap + 1e-8 * max(1.0, ee.rhs))
    return [
        le_row("pvm_zero_error_max", pvm_err_max, 1e-8),
        ge_row("optimality_lemma_min_margin", optimality_min, 0.0),
        le_row("min_attainment_max_err", attainment_err, 1e-8),
        le_row("joint_marginal_max_err", marginal_err, 1e-10),
        flag_row("domination_error_induced", domination_a_ok),
        flag_row("domination_disturbance_joint", domination_b_ok),
        ge_row("error_error_gap_min", ee_margin, 0.0),
        ge_row("error_disturbance_gap_min", ed_margin, 0.0),
    ]


_SUITES = {
    "classical": _verify_classical,
    "quantum": _verify_quantum,
    "uncertainty": _verify_uncertainty,
}


def run_verify(
    suite: str, trials: int = 50, seed: int = 0, dim_max: int = 5
) -> RunReport:
    """Run a randomized property suite and report per-property extremes."""
    if trials < 1:
        raise UrlabError("trials must be >= 1")
    if dim_max < 2:
        raise UrlabError("dim_max must be >= 2")
    names = sorted(_SUITES) if suite == "all" else [suite]
    if any(n not in _SUITES for n in names):
        raise UrlabError(f"unknown suite {suite!r}; use all|classical|quantum|uncertainty")
    started = time.time()
    rows = []
    for name in names:
        rng = rng_from_seed(seed + 7919 * (sorted(_SUITES).index(name) + 1))
        for row in _SUITES[name](trials, rng, dim_max):
            rows.append(Row(f"{name}.{row.quantity}", row.value, row.bound, row.status))
    return RunReport(
        scenario=f"verify-{suite}",
        rows=rows,
        metadata=new_metadata(seed, range(2, dim_max + 1), started),
    )
