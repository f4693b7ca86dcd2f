"""Named scenarios and randomized verification suites behind the CLI.

Each scenario or suite produces a RunReport with one row per checked identity
or inequality; a report passes when no row fails.

Every randomized check (the classical, quantum and uncertainty suites and the
qubit-unsharp and qutrit-random scenarios) is a list of trials plus one
table.  A suite's trial function trial(rng, dims, t) draws the inputs of
trial t from rng, at a dimension from the range dims, and returns
{quantity: value}; the table lists (quantity, kind, bound, atol).  run_verify
passes range(2, dim_max + 1), and qutrit-random runs the quantum suite's trial
and table at range(3, 4).  _extremes reduces the trials to one row per table
entry by kind: "le" keeps the largest value (0.0 if no trial reports it), "ge"
the smallest (inf), and "flag" requires every value to be true.  A trial
leaves a quantity out where it is undefined, e.g. an infinite error.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from . import oscillator
from .classical import (
    fisher_operator,
    locally_unbiased_estimator,
    model_from_povm,
    monotonicity_check,
)
from .errors import UrlabError, _as_dim, _as_int
from .operator_core import (
    BOGOLIUBOV_FUNCTION,
    RLD_FUNCTION,
    SLD_FUNCTION,
    kf_superoperator,
    mp_inverse,
    schur_positivity_report,
    tangent_basis,
)
from .qfisher import quantum_cr_check, quantum_fisher, sld_optimal_pvm
from .quantum import (
    CpInstrument,
    KrausChannel,
    Povm,
    average_channel,
    correlation,
    grad_expectation,
    induced_povm,
    pvm_of_observable,
    sym_correlation,
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
    """Instrument with the diagonal Kraus operators sqrt((I +- eta sigma_z) / 2), entrywise."""
    povm = unsharp_z_povm(eta)
    kraus_sets = tuple((np.sqrt(e),) for e in povm.effects)
    return CpInstrument(outcomes=povm.outcomes, kraus_sets=kraus_sets)


def luders_z_instrument() -> CpInstrument:
    return unsharp_z_instrument(1.0)


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
    seed: int = 0
    params: dict = field(default_factory=dict)
    cutoffs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "seed", _as_int(self.seed, "seed", least=0))
        try:
            cutoffs = tuple(_as_int(c, "cutoff") for c in self.cutoffs)
        except TypeError:
            raise UrlabError(f"cutoffs must be a list of integers, got {self.cutoffs!r}") from None
        params = {}
        for key, value in dict(self.params).items():  # a bool is an int, but true is not eta = 1
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise UrlabError(f"param {key!r} is not a number: {value!r}")
            try:
                params[key] = float(value)
            except OverflowError:  # an int past the float range, too long to repeat
                raise UrlabError(f"param {key!r} is out of the float range") from None
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "cutoffs", cutoffs)

    def param(self, key: str, default: float) -> float:
        return float(self.params.get(key, default))


def _extremes(trials: list[dict], table) -> list[Row]:
    """One row per (quantity, kind, bound, atol) entry, reduced over the trials.

    "le" keeps the largest value (0.0 if no trial reports it), "ge" the
    smallest (inf), "flag" requires every value to be true; a trial that
    leaves a quantity out does not count for it.  A NaN value fails its row.
    """
    rows = []
    for quantity, kind, bound, atol in table:
        values = [t[quantity] for t in trials if quantity in t]
        values = [v for v in values if v != v] or values  # max drops a NaN not first
        if kind == "le":
            rows.append(le_row(quantity, max(values, default=0.0), bound, atol=atol))
        elif kind == "ge":
            rows.append(ge_row(quantity, min(values, default=math.inf), bound, atol=atol))
        else:
            rows.append(flag_row(quantity, all(values)))
    return rows


def _trials(cfg: ScenarioConfig, default: int) -> int:
    """The trials parameter, by run_verify's rule; an integer-valued float counts as an integer."""
    trials = cfg.param("trials", default)
    return _as_int(int(trials) if trials.is_integer() else trials, "trials", least=1)


def _loewner_gap(j: np.ndarray, k: np.ndarray) -> float:
    """Smallest eigenvalue of j - k relative to max(|j|, 1); >= 0 iff j >= k."""
    return float(np.linalg.eigvalsh(j - k).min() / max(np.linalg.norm(j), 1.0))


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
    if not -1 <= r <= 1:
        raise UrlabError(f"r must be in [-1, 1], got {r}")
    rho = (IDENTITY2 + r * SIGMA_Z) / 2
    trials = [
        {"error_error_gap_min": error_error_report(
            rho, random_hermitian(rng, 2), random_hermitian(rng, 2), random_povm(rng, 2, 4)
        ).margin}
        for _ in range(_trials(cfg, 50))
    ]
    rows += _extremes(trials, (("error_error_gap_min", "ge", 0.0, 0.0),))
    return rows, [2]


def _scenario_qubit_instrument(cfg: ScenarioConfig) -> tuple[list[Row], list[int]]:
    p = cfg.param("p", 0.5)
    eta = cfg.param("eta", 0.8)
    if not 0 <= p < 1:
        raise UrlabError(f"p must be in [0, 1), got {p}")
    if not 0 < eta < 1:  # eta = 1 is Lueders, the eta_sx_luders_infinite row
        raise UrlabError(f"eta must be in (0, 1), got {eta}")
    rows = []
    maximally_mixed = IDENTITY2 / 2

    dist = disturbance(maximally_mixed, SIGMA_Z, depolarizing_channel(p))
    rows.append(eq_row("eta_depolarizing", dist.value, (1 - p) ** -2 - 1, atol=1e-10))

    ins = unsharp_z_instrument(eta)
    rho = (IDENTITY2 + 0.3 * SIGMA_X) / 2
    rep = error_disturbance_report(rho, SIGMA_Z, SIGMA_X, ins)
    rows.append(flag_row("ed_inequality", rep.holds, value=rep.gap))
    rows.append(flag_row("ed_domination_error", rep.domination_a))
    rows.append(flag_row("ed_domination_disturbance", rep.domination_b))

    eps = measurement_error(maximally_mixed, SIGMA_Z, induced_povm(ins))
    rows.append(eq_row("epsilon_sz_instrument", eps.value, 1 / eta**2 - 1, atol=1e-10))
    # the average channel shrinks the x component by sqrt(1 - eta^2), so
    # eta(sigma_x) = (1 - eta^2)^{-1} - 1; full dephasing makes it infinite
    eta_b = disturbance(maximally_mixed, SIGMA_X, average_channel(ins))
    rows.append(
        eq_row("eta_sx_instrument", eta_b.value, 1 / (1 - eta**2) - 1, atol=1e-10)
    )
    eta_full = disturbance(maximally_mixed, SIGMA_X, average_channel(luders_z_instrument()))
    rows.append(flag_row("eta_sx_luders_infinite", eta_full.is_infinite))
    return rows, [2]


def _scenario_qutrit_random(cfg: ScenarioConfig) -> tuple[list[Row], list[int]]:
    rng, dims = rng_from_seed(cfg.seed), range(3, 4)
    trials = [_quantum_trial(rng, dims, t) for t in range(_trials(cfg, 25))]
    return _extremes(trials, _QUANTUM_TABLE), list(dims)


def _scenario_oscillator(cfg: ScenarioConfig) -> tuple[list[Row], list[int]]:
    cutoffs = cfg.cutoffs or (8, 16, 24, 32)
    if len(cutoffs) < 2 or len(set(cutoffs)) < len(cutoffs) or any(c < 4 for c in cutoffs):
        raise UrlabError("oscillator needs at least two distinct cutoffs >= 4")
    nbar = cfg.param("mean_photon", 1.0)
    strength = cfg.param("dephasing", 0.3)
    rows = []
    etas = {}
    eta_atol = 1e-8
    for d in cutoffs:
        thermal = oscillator.thermal_state(d, nbar)
        q = oscillator.quadrature_q(d)
        eps = measurement_error(thermal, q, oscillator.homodyne_q_pvm(d))
        rows.append(le_row(f"epsilon_q_cutoff{d}", abs(eps.value), 1e-6))
        eta = disturbance(thermal, q, oscillator.number_dephasing_channel(d, strength))
        etas[d] = eta.value
        rows.append(ge_row(f"eta_q_cutoff{d}", eta.value, 0.0, atol=eta_atol))
    lo, hi = (etas[d] for d in sorted(cutoffs)[-2:])
    if math.isinf(lo) or math.isinf(hi):
        # two infinite values have no drift to bound; one alone has not converged
        status = "infinite" if math.isinf(lo) and math.isinf(hi) else "fail"
        rows.append(Row("eta_q_relative_drift", math.inf, 0.01, status))
    else:
        # eta_q is 0 without dephasing: below eta_atol the drift is taken against eta_atol
        drift = abs(lo - hi) / max(abs(hi), eta_atol)
        rows.append(le_row("eta_q_relative_drift", drift, 0.01))
    return rows, list(cutoffs)


# each scenario with the parameter names it reads and whether it reads cutoffs
_SCENARIOS = {
    "qubit-unsharp": (_scenario_qubit_unsharp, ("eta", "r", "trials"), False),
    "qubit-instrument": (_scenario_qubit_instrument, ("p", "eta"), False),
    "qutrit-random": (_scenario_qutrit_random, ("trials",), False),
    "oscillator": (_scenario_oscillator, ("mean_photon", "dephasing"), True),
}


def scenario_names() -> tuple:
    return tuple(sorted(_SCENARIOS))


def run_scenario(cfg: ScenarioConfig) -> RunReport:
    if cfg.name not in _SCENARIOS:
        raise UrlabError(
            f"unknown scenario {cfg.name!r}; available: {', '.join(scenario_names())}"
        )
    run, accepted, takes_cutoffs = _SCENARIOS[cfg.name]
    unknown = sorted(set(cfg.params) - set(accepted))
    if unknown:
        raise UrlabError(f"unknown parameter(s) {', '.join(unknown)} for scenario "
                         f"{cfg.name!r}; accepted: {', '.join(accepted)}")
    if cfg.cutoffs and not takes_cutoffs:
        raise UrlabError(f"scenario {cfg.name!r} reads no cutoffs")
    started = time.time()
    rows, dims = run(cfg)
    inputs = {"params": cfg.params, "cutoffs": list(cfg.cutoffs)}
    return RunReport(cfg.name, rows, new_metadata(cfg.seed, dims, started, inputs))


# ---------------------------------------------------------------------------
# randomized verification suites


def _classical_trial(rng, dims: range, t: int) -> dict:
    n_out = int(rng.integers(2, 9))
    n_par = int(rng.integers(1, min(15, dims[-1] ** 2)))
    mod = random_model(rng, n_out, n_par)
    j = fisher_operator(mod)
    norm = max(np.linalg.norm(j.matrix), 1.0)

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

    kern = random_kernel(rng, int(rng.integers(1, n_out + 2)), n_out)
    grad = (w * rng.normal(size=n_out)) @ mod.scores

    d = int(rng.integers(dims.start, dims.stop))
    rank = int(rng.integers(1, d + 1))
    g2 = random_complex(rng, (d, rank))
    s = g2 @ g2.conj().T
    p = mp_inverse(s).pinv

    blk = random_hermitian(rng, 2 * d)
    if rng.random() < 0.5:
        blk = blk @ blk.conj().T
    srep = schur_positivity_report(blk[:d, :d], blk[:d, d:], blk[d:, d:])
    return {
        "zero_mean_scores_max": float(np.abs(mod.probs @ mod.scores).max()),
        "fisher_psd_min_eig": float(np.linalg.eigvalsh(j.matrix).min() / norm),
        "cramer_rao_margin_min": var - j.quad(a) + 1e-9,
        "markov_monotonicity_min_gap": monotonicity_check(mod, kern).diff_min_eig / norm,
        "kernel_lemma_max_violation": (
            j.kernel_violation(grad) / max(np.linalg.norm(grad), 1e-300)
        ),
        "penrose_residual_max": max(
            np.linalg.norm(s @ p @ s - s) / max(np.linalg.norm(s), 1e-300),
            np.linalg.norm(p @ s @ p - p) / max(np.linalg.norm(p), 1.0),
        ),
        "schur_equivalence": srep.is_psd == srep.cond2 == srep.cond3,
    }


_CLASSICAL_TABLE = (
    ("zero_mean_scores_max", "le", 1e-9, 0.0),
    ("fisher_psd_min_eig", "ge", 0.0, 1e-9),
    ("cramer_rao_margin_min", "ge", 0.0, 0.0),
    ("markov_monotonicity_min_gap", "ge", 0.0, 1e-9),
    ("kernel_lemma_max_violation", "le", 1e-8, 0.0),
    ("penrose_residual_max", "le", 1e-9, 0.0),
    ("schur_equivalence", "flag", 0.0, 0.0),
)

_FUNCTIONS = (SLD_FUNCTION, RLD_FUNCTION, BOGOLIUBOV_FUNCTION)


def _quantum_trial(rng, dims: range, t: int) -> dict:
    d = int(rng.integers(dims.start, dims.stop))
    basis = tangent_basis(d)
    s = random_state(rng, d)
    phi = basis.matrix(rng.normal(size=basis.size))
    c = basis.coords(phi)
    f = _FUNCTIONS[t % len(_FUNCTIONS)]
    m = random_povm(rng, d, int(rng.integers(2, d * d + 2)))
    a = random_hermitian(rng, d)
    b = random_hermitian(rng, d)
    ch = random_channel(rng, d, int(rng.integers(1, 4)))

    # the Cramer-Rao check builds the SLD and RLD operators; f may be either
    cr = quantum_cr_check(s, m)
    js, jr = cr.sld, cr.rld
    jf = js if f is SLD_FUNCTION else jr if f is RLD_FUNCTION else quantum_fisher(s, f)
    k = kf_superoperator(s.rho, f)
    ld = k.apply_inverse(phi)
    jm = fisher_operator(model_from_povm(s, sld_optimal_pvm(s, phi))).matrix
    ga = basis.coords(grad_expectation(s, a))
    gb = basis.coords(grad_expectation(s, b))
    target = float(np.trace(s.rho @ phi @ phi).real - np.trace(s.rho @ phi).real ** 2)
    jf_pushed = quantum_fisher(s, f, pushforward=ch)
    return {
        "logderiv_residual_max": (
            np.linalg.norm(k.apply(ld) - phi) / max(np.linalg.norm(phi), 1e-300)
        ),
        "logderiv_zero_mean_max": abs(complex(np.trace(s.rho @ ld))),
        "quantum_cramer_rao": cr.holds,
        "sld_optimal_pvm_max_err": abs(c @ jm @ c - c @ js.matrix @ c),
        "correlation_sld_max_err": abs(sym_correlation(s, a, b) - js.quad(gb, ga)),
        "correlation_rld_max_err": abs(correlation(s, a, b) - complex(gb @ jr.solve(ga))),
        "scalar_identity_max_err": max(abs(js.quad(c) - target), abs(jr.quad(c) - target)),
        "f_monotonicity_min_gap": _loewner_gap(jf.matrix, jf_pushed.matrix),
    }


_QUANTUM_TABLE = (
    ("logderiv_residual_max", "le", 1e-9, 0.0),
    ("logderiv_zero_mean_max", "le", 1e-9, 0.0),
    ("quantum_cramer_rao", "flag", 0.0, 0.0),
    ("sld_optimal_pvm_max_err", "le", 1e-8, 0.0),
    ("correlation_sld_max_err", "le", 1e-8, 0.0),
    ("correlation_rld_max_err", "le", 1e-8, 0.0),
    ("scalar_identity_max_err", "le", 1e-8, 0.0),
    ("f_monotonicity_min_gap", "ge", 0.0, 1e-8),
)


def _uncertainty_trial(rng, dims: range, t: int) -> dict:
    d = int(rng.integers(dims.start, min(dims.stop, 5)))
    basis = tangent_basis(d)
    s = random_state(rng, d)
    a = random_hermitian(rng, d)
    b = random_hermitian(rng, d)
    out = {}

    eps = measurement_error(s, a, pvm_of_observable(a))
    if not eps.is_infinite:
        out["pvm_zero_error_max"] = abs(eps.value)

    m = random_povm(rng, d, int(rng.integers(2, d * d + 2)))
    jm = fisher_operator(model_from_povm(s, m))
    js = quantum_fisher(s, SLD_FUNCTION)
    jr = quantum_fisher(s, RLD_FUNCTION)
    phi = jm.matrix @ rng.normal(size=basis.size)  # in range(J^M)
    if np.linalg.norm(phi) > 1e-9:
        out["optimality_lemma_min_margin"] = (
            jm.quad(phi) - max(js.quad(phi), jr.quad(phi)) + 1e-8
        )

    cchi = rng.normal(size=basis.size)
    # the minimizing member of the SLD-optimal family is the PVM of
    # L^S((J^S)^+ chi), whose expectation gradient is exactly chi
    mopt = sld_optimal_pvm(s, basis.matrix(js.solve(cchi)))
    jopt = fisher_operator(model_from_povm(s, mopt))
    out["min_attainment_max_err"] = max(
        abs(jopt.quad(cchi) - js.quad(cchi)), abs(js.quad(cchi) - jr.quad(cchi))
    )

    ins = random_instrument(rng, d, int(rng.integers(2, 5)))
    pvm_b = pvm_of_observable(b)
    # joint effects are x-major: axis 0 of the grid is x, axis 1 is y
    grid = joint_povm(ins, pvm_b).effects.reshape(len(ins.outcomes), len(pvm_b), d, d)
    out["joint_marginal_max_err"] = float(max(
        np.abs(grid.sum(axis=1) - induced_povm(ins).effects).max(),
        np.abs(grid.sum(axis=0) - average_channel(ins).adjoint(pvm_b.effects)).max(),
    ))

    # an instrument with >= d^2 outcomes keeps the induced POVM
    # informationally complete, so the error-disturbance product check
    # is exercised with finite quantities instead of the infinite branch
    rep = error_disturbance_report(s, a, b, random_instrument(rng, d, d * d + 1))
    out["domination_error_induced"] = rep.domination_a
    out["domination_disturbance_joint"] = rep.domination_b
    out["error_disturbance_gap_min"] = rep.margin
    out["error_error_gap_min"] = error_error_report(s, a, b, m).margin
    return out


_UNCERTAINTY_TABLE = (
    ("pvm_zero_error_max", "le", 1e-8, 0.0),
    ("optimality_lemma_min_margin", "ge", 0.0, 0.0),
    ("min_attainment_max_err", "le", 1e-8, 0.0),
    ("joint_marginal_max_err", "le", 1e-10, 0.0),
    ("domination_error_induced", "flag", 0.0, 0.0),
    ("domination_disturbance_joint", "flag", 0.0, 0.0),
    ("error_error_gap_min", "ge", 0.0, 0.0),
    ("error_disturbance_gap_min", "ge", 0.0, 0.0),
)

_SUITES = {
    "classical": (_classical_trial, _CLASSICAL_TABLE),
    "quantum": (_quantum_trial, _QUANTUM_TABLE),
    "uncertainty": (_uncertainty_trial, _UNCERTAINTY_TABLE),
}


def run_verify(
    suite: str, trials: int = 50, seed: int = 0, dim_max: int = 5
) -> RunReport:
    """Run a randomized property suite and report per-property extremes."""
    trials, seed = _as_int(trials, "trials", least=1), _as_int(seed, "seed", least=0)
    dim_max = _as_dim(dim_max, "dim_max")
    names = sorted(_SUITES) if suite == "all" else [suite]
    if any(n not in _SUITES for n in names):
        raise UrlabError(f"unknown suite {suite!r}; use all|classical|quantum|uncertainty")
    started, dims = time.time(), range(2, dim_max + 1)
    rows = []
    for name in names:
        rng = rng_from_seed(seed + 7919 * (sorted(_SUITES).index(name) + 1))
        trial, table = _SUITES[name]
        for row in _extremes([trial(rng, dims, t) for t in range(trials)], table):
            rows.append(Row(f"{name}.{row.quantity}", row.value, row.bound, row.status))
    inputs = {"suite": suite, "trials": trials, "dim_max": dim_max}
    return RunReport(f"verify-{suite}", rows, new_metadata(seed, dims, started, inputs))
