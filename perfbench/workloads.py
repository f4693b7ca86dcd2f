"""The benchmark's workloads: inputs drawn from a seed, the calls, and the checks.

A workload is a list of operations (zero-argument calls into urlab's public
API) that make up one pass, and a check that turns an operation's result into
named verdicts.  A verdict is either the program's own (a report row, an
inequality flag) or the benchmark's (a closed-form oracle, an expectation the
inputs guarantee).  All of them count as attempted or failed checks; only the
benchmark's decide whether a run is correct.  Every operation looks its urlab
function up at call time, so the tracer's wrappers are seen.  Why each
workload exists is recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Small enough that one operation takes about 0.2 s: operations much longer
# than the machine's speed changes measure the machine (see README.md).
OSCILLATOR_CUTOFFS = (8, 12, 16)
# Up to 1.2 the eta drift from d=12 to d=16 stays under the scenario's 1%
# (1.5 gives 1.4%); from 0.3 the d=16 thermal state stays above EPS_POS.
OSCILLATOR_MEAN_PHOTON = (0.5, 1.2)
OSCILLATOR_DEPHASING = (0.1, 0.5)
ORACLE_ETA_RTOL = 1e-12
ORACLE_EPS_RTOL = 1e-8

# 200 trials per pass, in short operations of 2 trials each
VERIFY_OPS = 100
VERIFY_TRIALS = 2
VERIFY_DIM_MAX = 5

IC_REPORTS = 40
IC_DIM = 8


@dataclass(frozen=True)
class Workload:
    ops: list  # zero-argument callables; one pass calls each once, in order
    check: Callable  # result of any op -> list of (check name, passed, benchmark's own)


def oscillator_oracle(d: int, mean_photon: float, dephasing: float) -> tuple[float, float]:
    """Closed-form (eta_q, Var q) for the truncated thermal state under dephasing.

    The thermal state is diagonal, number dephasing is the Schur multiplier
    (1-s) off the diagonal, and q has a zero diagonal, so the pushed SLD bound
    for <q> is Var(q) / (1-s)^2 and eta_q = Var(q) ((1-s)^-2 - 1).  The
    homodyne PVM is q's own spectral measure, so eps_q = 0.
    """
    n = np.arange(d)
    lam = (mean_photon / (mean_photon + 1)) ** n
    lam = lam / lam.sum()
    q2_diag = n + 0.5  # (a a^dag + a^dag a) / 2 on the truncated space ...
    q2_diag[-1] = (d - 1) / 2  # ... where a a^dag loses its top level
    var = float(lam @ q2_diag)
    return var * ((1 - dephasing) ** -2 - 1), var


def oscillator_sweep(seed: int, urlab) -> Workload:
    rng = np.random.default_rng(seed)
    mean_photon = float(rng.uniform(*OSCILLATOR_MEAN_PHOTON))
    dephasing = float(rng.uniform(*OSCILLATOR_DEPHASING))
    cfg = urlab.scenarios.ScenarioConfig(
        name="oscillator",
        params={"mean_photon": mean_photon, "dephasing": dephasing},
        cutoffs=OSCILLATOR_CUTOFFS,
    )

    def check(report):
        rows = {r.quantity: r for r in report.rows}
        verdicts = [(r.quantity, r.status != "fail", False) for r in report.rows]
        for d in OSCILLATOR_CUTOFFS:
            eta, var = oscillator_oracle(d, mean_photon, dephasing)
            got_eta = rows[f"eta_q_cutoff{d}"].value
            got_eps = rows[f"epsilon_q_cutoff{d}"].value
            verdicts.append(
                (f"oracle.eta_q_cutoff{d}", abs(got_eta - eta) <= ORACLE_ETA_RTOL * eta, True)
            )
            verdicts.append(
                (f"oracle.epsilon_q_cutoff{d}", abs(got_eps) <= ORACLE_EPS_RTOL * var, True)
            )
        return verdicts

    return Workload(ops=[lambda: urlab.scenarios.run_scenario(cfg)], check=check)


def verify_small(seed: int, urlab) -> Workload:
    seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(VERIFY_OPS)]

    def op(k):
        return lambda: urlab.scenarios.run_verify(
            "all", trials=VERIFY_TRIALS, seed=seeds[k], dim_max=VERIFY_DIM_MAX
        )

    def check(report):
        return [(r.quantity, r.status != "fail", False) for r in report.rows]

    return Workload(ops=[op(k) for k in range(VERIFY_OPS)], check=check)


def instrument_ic(seed: int, urlab) -> Workload:
    rnd = urlab.randoms
    rng = rnd.rng_from_seed(seed)
    # d^2 + 1 outcomes keep the induced POVM informationally complete, so
    # every eps and eta is finite
    inputs = [
        (
            rnd.random_state(rng, IC_DIM),
            rnd.random_hermitian(rng, IC_DIM),
            rnd.random_hermitian(rng, IC_DIM),
            rnd.random_instrument(rng, IC_DIM, IC_DIM * IC_DIM + 1),
        )
        for _ in range(IC_REPORTS)
    ]

    def op(i):
        return lambda: urlab.uncertainty.error_disturbance_report(*inputs[i])

    def check(rep):
        finite = not (rep.eps_a.is_infinite or rep.eps_or_eta_b.is_infinite)
        return [
            ("error_disturbance.finite", finite, True),
            ("error_disturbance.holds", rep.holds, False),
            ("error_disturbance.domination_a", rep.domination_a, False),
            ("error_disturbance.domination_b", rep.domination_b, False),
        ]

    return Workload(ops=[op(i) for i in range(IC_REPORTS)], check=check)


WORKLOADS = {
    "oscillator-sweep": oscillator_sweep,
    "verify-small": verify_small,
    "instrument-ic": instrument_ic,
}
