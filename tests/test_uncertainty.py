"""Measurement error, disturbance, joint POVMs, and the bound reports."""

import math
import tracemalloc

import numpy as np
import pytest

from urlab import (
    CpInstrument,
    KrausChannel,
    Povm,
    QuantumState,
    SLD_FUNCTION,
    average_channel,
    disturbance,
    error_disturbance_report,
    error_error_report,
    fisher_operator,
    grad_expectation,
    induced_povm,
    joint_povm,
    kf_superoperator,
    measurement_error,
    model_from_povm,
    pvm_of_observable,
    quantum_fisher,
    sym_correlation,
    tangent_basis,
    variance,
)
from urlab import uncertainty
from urlab.errors import InvalidOperandError, SingularStateError
from urlab.quantum import _derived_povm
from urlab.randoms import (
    random_channel,
    random_complex,
    random_hermitian,
    random_instrument,
    random_povm,
    random_state,
    rng_from_seed,
)
from urlab.scenarios import (
    depolarizing_channel,
    luders_z_instrument,
    unsharp_z_instrument,
    unsharp_z_povm,
)

from conftest import IDENTITY2, SIGMA_X, SIGMA_Y, SIGMA_Z, qubit_state


def test_unsharp_measurement_error_oracle():
    # epsilon(sigma_z; I/2, unsharp eta) = 1 / eta^2 - 1
    eta = 0.8
    res = measurement_error(IDENTITY2 / 2, SIGMA_Z, unsharp_z_povm(eta))
    assert not res.is_infinite
    assert res.value == pytest.approx(1 / eta**2 - 1, abs=1e-10)
    assert res.value == pytest.approx(0.5625, abs=1e-10)


def test_orthogonal_direction_is_infinite():
    res = measurement_error(IDENTITY2 / 2, SIGMA_X, pvm_of_observable(SIGMA_Z))
    assert res.is_infinite
    assert math.isinf(res.value)
    assert res.kernel_violation > 0.1


@pytest.mark.parametrize("draw, violation", [(4, 0.88), (13, 0.44)])
def test_three_outcome_qubit_povm_has_infinite_error(draw, violation):
    # three effects that sum to I span only two traceless directions, so the
    # Fisher operator has rank 2 and a generic A has infinite error; rounding
    # leaves a third singular value above the rank cut unless sqrt(p) is
    # deflated, and eps then comes out finite, of order 1e29
    gen = rng_from_seed(123)
    for _ in range(draw + 1):
        s, a, m = random_state(gen, 2), random_hermitian(gen, 2), random_povm(gen, 2, 3)
    assert fisher_operator(model_from_povm(s, m)).rank == 2
    res = measurement_error(s, a, m)
    assert res.is_infinite
    assert res.kernel_violation == pytest.approx(violation, abs=0.005)


def test_own_pvm_has_zero_error():
    res = measurement_error(qubit_state(rz=0.3), SIGMA_Z, pvm_of_observable(SIGMA_Z))
    assert abs(res.value) <= 1e-10


def test_depolarizing_disturbance_oracle():
    # eta(sigma_z; I/2, depolarizing p) = (1 - p)^{-2} - 1
    p = 0.5
    res = disturbance(IDENTITY2 / 2, SIGMA_Z, depolarizing_channel(p))
    assert res.value == pytest.approx((1 - p) ** -2 - 1, abs=1e-10)
    assert res.value == pytest.approx(3.0, abs=1e-10)


def test_raw_matrix_state_needs_unit_trace():
    # I is Hermitian but not a state: it used to give eps 4.25 and eta 6.0
    with pytest.raises(InvalidOperandError, match="trace"):
        measurement_error(IDENTITY2, SIGMA_Z, unsharp_z_povm(0.8))
    with pytest.raises(InvalidOperandError, match="trace"):
        disturbance(IDENTITY2, SIGMA_Z, depolarizing_channel(0.5))


@pytest.mark.parametrize("wrap", [np.asarray, QuantumState], ids=["matrix", "state"])
def test_pure_state_has_an_error_but_no_disturbance(wrap):
    # the pure state |0><0| is admitted: eps never inverts it, while eta's SLD
    # solve does, so eta refuses it
    s = wrap(np.diag([1.0, 0.0]).astype(complex))
    eta = 0.8
    res = measurement_error(s, SIGMA_Z, unsharp_z_povm(eta))
    assert res.value == pytest.approx(1 / eta**2 - 1, abs=1e-12)
    with pytest.raises(SingularStateError):
        disturbance(s, SIGMA_Z, KrausChannel(kraus=(np.eye(2),)))


def embedding_with_decay_kraus(d, strength):
    """Kraus operators d -> d+1: sqrt(1-s) V (V the embedding) and sqrt(s) |d><i| for i < d."""
    kraus = np.zeros((d + 1, d + 1, d), dtype=complex)
    kraus[0, :d, :d] = np.sqrt(1 - strength) * np.eye(d)
    kraus[np.arange(1, d + 1), d, np.arange(d)] = np.sqrt(strength)
    return kraus


@pytest.mark.parametrize("strength", [0.1, 0.5])
@pytest.mark.parametrize("d", [2, 3])
def test_disturbance_of_a_channel_into_a_larger_space(d, strength):
    # E(X) = (1-s) V X V^H on traceless X and E(rho) = (1-s) V rho V^H + s |d><d|,
    # so the pushed SLD operator is (1-s) J^S and eta(A) = Var(A) s / (1-s)
    gen = rng_from_seed(30 + d)
    s, a, b = random_state(gen, d), random_hermitian(gen, d), random_hermitian(gen, d)
    kraus = embedding_with_decay_kraus(d, strength)
    expect = variance(s, a) * strength / (1 - strength)
    res = disturbance(s, a, KrausChannel(kraus=kraus))
    assert res.value == pytest.approx(expect, rel=1e-12)
    ins = CpInstrument(outcomes=tuple(range(d + 1)), kraus_sets=tuple(kraus[:, None]))
    rep = error_disturbance_report(s, b, a, ins)
    assert rep.eps_or_eta_b.value == pytest.approx(expect, rel=1e-12)
    assert rep.domination_a and rep.domination_b and rep.holds


def test_disturbance_refuses_a_channel_on_another_space():
    # quantum_fisher's channel application is the one dimension check
    with pytest.raises(InvalidOperandError, match="channel input"):
        disturbance(IDENTITY2 / 2, SIGMA_Z, KrausChannel(kraus=(np.eye(3),)))


def test_error_disturbance_refuses_an_instrument_on_another_space():
    qutrit = random_state(rng_from_seed(0), 3)
    with pytest.raises(InvalidOperandError, match="state and instrument dimension mismatch"):
        error_disturbance_report(qutrit, np.eye(3), np.eye(3), unsharp_z_instrument(0.5))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_rhs_terms_match_their_definitions(d, monkeypatch):
    # r_term = (grad<A>, (J^M)^+ grad<B>) - C^S(A, B) and commutator_term =
    # |Tr rho [A, B]|^2 / 4, with M the simultaneous POVM or the witness
    witnesses = []

    def recording(ins, pvm):
        witnesses.append(joint_povm(ins, pvm))
        return witnesses[-1]

    monkeypatch.setattr(uncertainty, "joint_povm", recording)
    rng = rng_from_seed(10 + d)
    basis = tangent_basis(d)
    for _ in range(5):
        s = random_state(rng, d)
        a, b = random_hermitian(rng, d), random_hermitian(rng, d)
        ga, gb = (basis.coords(grad_expectation(s, x)) for x in (a, b))
        m = random_povm(rng, d, d * d + 1)
        reports = (
            (error_error_report(s, a, b, m), m),
            (error_disturbance_report(s, a, b, random_instrument(rng, d, d * d + 1)), None),
        )
        for rep, m in reports:
            j = fisher_operator(model_from_povm(s, m or witnesses[-1]))
            r_ref = j.quad(ga, gb) - sym_correlation(s, a, b)
            comm_ref = abs(np.trace(s.rho @ (a @ b - b @ a))) ** 2 / 4
            assert rep.r_term == pytest.approx(r_ref, rel=1e-12, abs=1e-12)
            assert rep.commutator_term == pytest.approx(comm_ref, rel=1e-12, abs=1e-12)


def test_identity_channel_no_disturbance():
    res = disturbance(qubit_state(rx=0.4), SIGMA_Y, KrausChannel(kraus=(np.eye(2),)))
    assert abs(res.value) <= 1e-10


def test_instrument_error_disturbance():
    eta = 0.8
    ins = unsharp_z_instrument(eta)
    eps = measurement_error(IDENTITY2 / 2, SIGMA_Z, induced_povm(ins))
    dist = disturbance(IDENTITY2 / 2, SIGMA_Z, average_channel(ins))
    assert eps.value == pytest.approx(1 / eta**2 - 1, abs=1e-10)
    assert dist.value >= -1e-10


def test_full_dephasing_makes_transverse_disturbance_infinite():
    dist = disturbance(IDENTITY2 / 2, SIGMA_X, average_channel(luders_z_instrument()))
    assert dist.is_infinite


def two_operator_sets_case(gen):
    """Three outcomes of two Kraus operators each on d=3, so every effect sums two terms."""
    kraus = random_channel(gen, 3, 6).kraus
    ins = CpInstrument(outcomes=("a", "b", "c"), kraus_sets=(kraus[:2], kraus[2:4], kraus[4:]))
    return ins, pvm_of_observable(random_hermitian(gen, 3))


def rank_two_pvm_case(gen):
    """A random one-operator instrument on d=3 and a PVM with a rank-2 projector."""
    u = np.linalg.qr(random_complex(gen, (3, 3)))[0]
    pvm = pvm_of_observable(u @ np.diag([1.0, 1.0, -1.0]) @ u.conj().T)
    assert sorted(round(np.trace(e).real) for e in pvm.effects) == [1, 2]
    return random_instrument(gen, 3, 4), pvm


def mixed_set_sizes_case(gen):
    """Kraus sets of sizes 1 and 3 in one instrument on d=3."""
    kraus = random_channel(gen, 3, 4).kraus
    ins = CpInstrument(outcomes=("one", "three"), kraus_sets=(kraus[:1], kraus[1:]))
    return ins, pvm_of_observable(random_hermitian(gen, 3))


def rectangular_case(gen):
    """Three 3x2 Kraus operators whose vertical stack is an isometry: d=2 -> d'=3."""
    kraus = np.linalg.qr(random_complex(gen, (9, 2)))[0].reshape(3, 3, 2)
    ins = CpInstrument(outcomes=(0, 1, 2), kraus_sets=tuple(kraus[:, None]))
    return ins, pvm_of_observable(random_hermitian(gen, 3))


class TestJointPovm:
    def test_luders_times_sigma_x(self):
        joint = joint_povm(luders_z_instrument(), pvm_of_observable(SIGMA_X))
        assert len(joint) == 4
        pz = ((IDENTITY2 + SIGMA_Z) / 2, (IDENTITY2 - SIGMA_Z) / 2)
        px = ((IDENTITY2 - SIGMA_X) / 2, (IDENTITY2 + SIGMA_X) / 2)
        for (x, y), e in zip(joint.outcomes, joint.effects):
            xi = 0 if x == joint.outcomes[0][0] else 1
            yi = list(pvm_of_observable(SIGMA_X).outcomes).index(y)
            np.testing.assert_allclose(e, pz[xi] @ px[yi] @ pz[xi], atol=1e-12)

    def test_trivial_pvm_gives_induced_povm(self):
        from urlab import induced_povm

        ins = unsharp_z_instrument(0.7)
        trivial = Povm(outcomes=("all",), effects=(IDENTITY2,))
        joint = joint_povm(ins, trivial)
        ind = induced_povm(ins)
        for e_joint, e_ind in zip(joint.effects, ind.effects):
            np.testing.assert_allclose(e_joint, e_ind, atol=1e-12)

    def test_identity_instrument_gives_pvm_back(self):
        from urlab import CpInstrument

        ins = CpInstrument(outcomes=(0,), kraus_sets=((np.eye(2, dtype=complex),),))
        pvm = pvm_of_observable(SIGMA_Y)
        joint = joint_povm(ins, pvm)
        for e_joint, e_pvm in zip(joint.effects, pvm.effects):
            np.testing.assert_allclose(e_joint, e_pvm, atol=1e-12)

    @pytest.mark.parametrize(
        "case",
        [two_operator_sets_case, rank_two_pvm_case, mixed_set_sizes_case, rectangular_case],
        ids=["sets-of-2", "rank-2-projector", "sets-of-1-and-3", "rectangular-2-to-3"],
    )
    def test_induced_and_joint_povm_equal_explicit_sums(self, case):
        ins, pvm = case(rng_from_seed(28))
        induced = induced_povm(ins)
        joint = joint_povm(ins, pvm)
        assert induced.outcomes == ins.outcomes
        assert joint.dim == induced.dim == ins.dim
        assert joint.outcomes == tuple((x, y) for x in ins.outcomes for y in pvm.outcomes)
        for ks, e in zip(ins.kraus_sets, induced.effects):
            np.testing.assert_allclose(e, sum(k.conj().T @ k for k in ks), rtol=0, atol=1e-14)
        for (x, y), e in zip(joint.outcomes, joint.effects):
            ks = ins.kraus_sets[ins.outcomes.index(x)]
            proj = pvm.effects[pvm.outcomes.index(y)]
            naive = sum(k.conj().T @ proj @ k for k in ks)
            np.testing.assert_allclose(e, naive, rtol=0, atol=1e-14)

    def test_instrument_keeps_its_total_channel(self):
        # the Kraus operators are stored once: every set is a view of the kept channel
        gen = rng_from_seed(28)
        kraus = random_channel(gen, 3, 6).kraus
        ins = CpInstrument(outcomes=("a", "b", "c"), kraus_sets=(kraus[:2], kraus[2:4], kraus[4:]))
        assert average_channel(ins) is average_channel(ins)
        for ks in ins.kraus_sets:
            assert np.shares_memory(ks, average_channel(ins).kraus)
        np.testing.assert_array_equal(average_channel(ins).kraus, kraus)
        np.testing.assert_array_equal(ins.starts, [0, 2, 4])

    def test_holds_less_than_four_effect_stacks(self):
        # at the instrument-ic shape (d = 8, 65 one-operator sets, 8 projectors) one
        # (520, 8, 8) stack of effects is 532 KB: the batched product's two stacks peak
        # at 1.02 MiB, with no Povm check temporaries, and a third would pass 1.25 MiB
        gen = rng_from_seed(5)
        ins, pvm = random_instrument(gen, 8, 65), pvm_of_observable(random_hermitian(gen, 8))
        assert len(pvm) == 8 and len(ins.starts) == len(ins.channel.kraus) == 65
        joint_povm(ins, pvm)
        tracemalloc.start()
        try:
            joint_povm(ins, pvm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 2**20

    def test_rejects_non_projective_second_argument(self):
        with pytest.raises(InvalidOperandError):
            joint_povm(luders_z_instrument(), unsharp_z_povm(0.8))

    def test_marginals(self):
        gen = rng_from_seed(21)
        ins = random_instrument(gen, 3, 4)
        b = random_hermitian(gen, 3)
        pvm = pvm_of_observable(b)
        joint = joint_povm(ins, pvm)
        from urlab import average_channel, induced_povm

        first = {x: np.zeros((3, 3), complex) for x in ins.outcomes}
        second = {y: np.zeros((3, 3), complex) for y in pvm.outcomes}
        for (x, y), e in zip(joint.outcomes, joint.effects):
            first[x] = first[x] + e
            second[y] = second[y] + e
        for x, e in zip(induced_povm(ins).outcomes, induced_povm(ins).effects):
            np.testing.assert_allclose(first[x], e, atol=1e-10)
        avg = average_channel(ins)
        for y, proj in zip(pvm.outcomes, pvm.effects):
            np.testing.assert_allclose(second[y], avg.adjoint(proj), atol=1e-10)


class TestErrorErrorReport:
    def test_unsharp_xy_povm_example(self):
        s = 0.7
        effects = tuple(
            (IDENTITY2 + sign1 * s * (SIGMA_X + sign2 * SIGMA_Y) / np.sqrt(2)) / 4
            for sign1 in (1, -1)
            for sign2 in (1, -1)
        )
        m = Povm(outcomes=tuple(range(4)), effects=effects)
        rep = error_error_report(qubit_state(rz=0.5), SIGMA_X, SIGMA_Y, m)
        assert rep.commutator_term == pytest.approx(0.25, abs=1e-12)
        assert rep.holds
        assert rep.gap >= -1e-8 * max(1.0, rep.rhs)

    def test_diagonal_case_is_tight(self):
        # A = B with an informationally complete POVM: R = eps(A), zero
        # commutator, so lhs = rhs exactly
        gen = rng_from_seed(22)
        from urlab.randoms import random_povm

        s = random_state(gen, 2)
        a = random_hermitian(gen, 2)
        m = random_povm(gen, 2, 5)
        rep = error_error_report(s, a, a, m)
        assert rep.commutator_term <= 1e-12
        assert rep.r_term == pytest.approx(rep.eps_a.value, abs=1e-9)
        assert rep.gap == pytest.approx(0.0, abs=1e-8)
        assert rep.holds == (rep.margin >= 0)

    def test_maximally_mixed_random_sweep(self):
        gen = rng_from_seed(23)
        from urlab.randoms import random_povm

        for _ in range(20):
            a = random_hermitian(gen, 2)
            b = random_hermitian(gen, 2)
            m = random_povm(gen, 2, 5)
            rep = error_error_report(IDENTITY2 / 2, a, b, m)
            assert rep.commutator_term <= 1e-20
            assert rep.holds


def _instrument_of_small_sets(gen, d: int, n: int) -> CpInstrument:
    """A random instrument whose n Kraus sets hold 1-3 operators each, the first 3."""
    sizes = gen.integers(1, 4, size=n)
    sizes[0] = 3
    kraus = random_channel(gen, d, int(sizes.sum())).kraus
    return CpInstrument(outcomes=tuple(range(n)), kraus_sets=np.split(kraus, np.cumsum(sizes)[:-1]))


def _degenerate_observable(gen, d: int) -> np.ndarray:
    """A diagonal with a repeated eigenvalue, rotated by a random unitary."""
    levels = np.arange(d) // 2 - 0.5 * gen.random()
    u = np.linalg.qr(random_complex(gen, (d, d)))[0]
    return (u * levels) @ u.conj().T


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("d", range(2, 9))
def test_derived_povms_pass_the_full_admission(seed, d):
    # induced_povm, pvm_of_observable and joint_povm skip the Hermitian and PSD tests
    # that their construction implies; Povm(...) runs them, and every check, again
    gen = rng_from_seed(1000 * seed + d)
    pvm = pvm_of_observable(_degenerate_observable(gen, d))
    assert len(pvm) == (d + 1) // 2  # every level but a lone top one is a double one
    derived = [pvm, pvm_of_observable(random_hermitian(gen, d))]
    for ins in (random_instrument(gen, d, 3), _instrument_of_small_sets(gen, d, 4)):
        derived += [induced_povm(ins), joint_povm(ins, pvm)]
    assert len(derived[-1]) == 4 * len(pvm)
    for p in derived:
        full = Povm(outcomes=p.outcomes, effects=p.effects)
        assert full.outcomes == p.outcomes
        np.testing.assert_array_equal(full.effects, p.effects)


def test_derived_povm_still_checks_completeness():
    halves = np.array([np.eye(2), np.eye(2)]) / 2 * (1 + 2e-8)
    with pytest.raises(InvalidOperandError, match="effects do not sum to the identity"):
        _derived_povm((0, 1), halves)


class TestErrorDisturbanceReport:
    def test_admits_its_derived_povms_without_cholesky_or_stacked_hermitian_test(
        self, cholesky_calls, hermitian_test_shapes
    ):
        # the induced POVM, the SLD PVM and the 520-effect joint POVM each ran the
        # Hermitian test and a batched Cholesky on effects their construction makes PSD
        gen = rng_from_seed(5)
        s, ins = random_state(gen, 8), random_instrument(gen, 8, 65)
        a, b = random_hermitian(gen, 8), random_hermitian(gen, 8)
        cholesky_calls.clear()
        hermitian_test_shapes.clear()
        error_disturbance_report(s, a, b, ins)
        assert cholesky_calls == []
        assert hermitian_test_shapes and all(len(shape) == 2 for shape in hermitian_test_shapes)

    def test_unsharp_instrument_example(self):
        # all four inequalities hold for the unsharp instrument on a state
        # displaced along x
        rep = error_disturbance_report(
            qubit_state(rx=0.3), SIGMA_Z, SIGMA_X, unsharp_z_instrument(0.8)
        )
        assert rep.holds
        assert rep.domination_a
        assert rep.domination_b
        assert rep.gap >= -1e-8 * max(1.0, rep.rhs)

    def test_luders_zero_error_forces_small_rhs(self):
        rep = error_disturbance_report(
            qubit_state(rx=0.3), SIGMA_Z, SIGMA_X, luders_z_instrument()
        )
        assert abs(rep.eps_a.value) <= 1e-10
        assert rep.rhs <= 1e-8
        assert rep.holds

    def test_identity_instrument_trivial_bound(self):
        from urlab import CpInstrument

        ins = CpInstrument(outcomes=(0,), kraus_sets=((np.eye(2, dtype=complex),),))
        gen = rng_from_seed(26)
        for _ in range(5):
            a = random_hermitian(gen, 2)
            b = random_hermitian(gen, 2)
            # at the maximally mixed state the commutator expectation is a
            # trace of a commutator, so the whole bound collapses to zero
            rep = error_disturbance_report(IDENTITY2 / 2, a, b, ins)
            assert abs(rep.eps_or_eta_b.value) <= 1e-10
            assert rep.rhs <= 1e-8
            assert rep.holds

    def test_identity_instrument_noncommuting_short_circuit(self):
        # with a displaced state the commutator term is genuinely nonzero;
        # the bound still holds because the uninformative single outcome
        # makes eps(A) infinite
        from urlab import CpInstrument

        ins = CpInstrument(outcomes=(0,), kraus_sets=((np.eye(2, dtype=complex),),))
        rep = error_disturbance_report(qubit_state(rz=0.2), SIGMA_X, SIGMA_Y, ins)
        assert abs(rep.eps_or_eta_b.value) <= 1e-10
        assert rep.commutator_term == pytest.approx(0.04, abs=1e-12)
        assert rep.eps_a.is_infinite
        assert rep.holds

    def test_error_domination_random_instruments(self):
        # the induced-POVM error dominates the joint-POVM error of A, and the
        # disturbance of B dominates the joint-POVM error of B
        gen = rng_from_seed(24)
        for _ in range(25):
            d = int(gen.integers(2, 4))
            s = random_state(gen, d)
            a = random_hermitian(gen, d)
            b = random_hermitian(gen, d)
            ins = random_instrument(gen, d, d * d + 1)
            rep = error_disturbance_report(s, a, b, ins)
            assert rep.domination_a
            assert rep.domination_b

    def test_one_fisher_solve_per_report(self, monkeypatch):
        # eta(B) and the witness's SLD share one K^S of E(rho): _sld_pvm builds
        # none, so the only other eigh is the witness PVM's
        import urlab.qfisher as qf

        built, eighs = [], []
        real_kf, real_eigh = qf.kf_superoperator, np.linalg.eigh

        def counting_kf(rho, f):
            built.append(f)
            return real_kf(rho, f)

        def counting_eigh(a, *args, **kwargs):
            eighs.append(np.shape(a))
            return real_eigh(a, *args, **kwargs)

        gen = rng_from_seed(27)
        s = random_state(gen, 3)
        a, b = random_hermitian(gen, 3), random_hermitian(gen, 3)
        ins = random_instrument(gen, 3, 10)
        monkeypatch.setattr(qf, "kf_superoperator", counting_kf)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        error_disturbance_report(s, a, b, ins)
        assert len(built) == 1 and built[0] is SLD_FUNCTION
        assert eighs == [(3, 3), (3, 3)]

    def test_no_svd_per_informationally_complete_report(self, svd_calls):
        # the induced POVM (64x63), pushed SLD (63x63) and joint (519x63)
        # factors are dense and well conditioned: |R|_F |R^-1|_F of each
        # triangle certifies its full rank, and no SVD runs
        gen = rng_from_seed(29)
        s = random_state(gen, 8)
        a, b = random_hermitian(gen, 8), random_hermitian(gen, 8)
        error_disturbance_report(s, a, b, random_instrument(gen, 8, 65))
        assert svd_calls == []

    def test_witness_is_the_sld_pvm_of_the_pushed_state(self, monkeypatch):
        # the PVM passed to joint_povm is that of L^S(E(X)) at E(rho), here
        # solved on a fresh K^S of E(rho)
        pvms = []

        def recording(ins, pvm):
            pvms.append(pvm)
            return joint_povm(ins, pvm)

        monkeypatch.setattr(uncertainty, "joint_povm", recording)
        gen = rng_from_seed(31)
        for d in (2, 3, 4):
            s = random_state(gen, d)
            a, b = random_hermitian(gen, d), random_hermitian(gen, d)
            ins = random_instrument(gen, d, d * d + 1)
            error_disturbance_report(s, a, b, ins)
            avg, basis = average_channel(ins), tangent_basis(d)
            gb = basis.coords(grad_expectation(s, b))
            x = basis.matrix(quantum_fisher(s, SLD_FUNCTION, pushforward=avg).solve(gb))
            l = kf_superoperator(avg(s.rho), SLD_FUNCTION).apply_inverse(avg(x))
            ref = pvm_of_observable((l + l.conj().T) / 2)
            assert np.allclose(pvms[-1].outcomes, ref.outcomes, rtol=0, atol=1e-12)
            assert np.abs(pvms[-1].effects - ref.effects).max() <= 1e-12

    def test_one_gradient_variance_and_channel_pass_per_report(self, monkeypatch):
        # grad<A>, Var(A) and E(rho), E(X) are each computed once per report
        import urlab.quantum as qm
        import urlab.uncertainty as unc

        calls = []

        def counting(real):
            def wrapper(*args, **kwargs):
                calls.append(real.__name__)
                return real(*args, **kwargs)

            return wrapper

        for mod, name in ((unc, "grad_expectation"), (unc, "variance"), (qm, "apply_channel")):
            monkeypatch.setattr(mod, name, counting(getattr(mod, name)))
        gen = rng_from_seed(28)
        s = random_state(gen, 4)
        ins = random_instrument(gen, 4, 5)
        error_disturbance_report(s, random_hermitian(gen, 4), random_hermitian(gen, 4), ins)
        assert sorted(calls) == ["apply_channel"] * 2 + ["grad_expectation"] * 2 + ["variance"] * 2

    def test_two_kraus_sums_per_report(self, monkeypatch):
        # E(rho) once, for the pushed Fisher operator and the witness, and E(X);
        # the induced and joint POVMs are batched products, not per-outcome sums
        import urlab.quantum as qm

        calls = []
        real = qm._kraus_sum

        def counting(kraus, x):
            calls.append(np.shape(x))
            return real(kraus, x)

        monkeypatch.setattr(qm, "_kraus_sum", counting)
        gen = rng_from_seed(29)
        s = random_state(gen, 4)
        ins = random_instrument(gen, 4, 17)
        error_disturbance_report(s, random_hermitian(gen, 4), random_hermitian(gen, 4), ins)
        assert calls == [(4, 4), (4, 4)]

    def test_each_state_is_validated_once_per_report(self, monkeypatch):
        # the caller's raw rho becomes one QuantumState that the whole call
        # tree shares; a QuantumState argument is not validated again, and
        # E(rho) is not admitted as a state at all
        gen = rng_from_seed(26)
        s = random_state(gen, 3)
        a, b = random_hermitian(gen, 3), random_hermitian(gen, 3)
        ins = random_instrument(gen, 3, 10)
        validated = []
        real = QuantumState.__post_init__

        def recording(state):
            validated.append(np.array(state.base))
            real(state)

        monkeypatch.setattr(QuantumState, "__post_init__", recording)
        for arg, expect in ((s.rho, 1), (s, 0)):
            validated.clear()
            error_disturbance_report(arg, a, b, ins)
            assert sum(np.array_equal(v, s.rho) for v in validated) == expect
            assert len(validated) == expect

    def test_witness_accepts_every_instrument_cp_instrument_accepts(self):
        # trace preservation is checked to 1e-10, so E(rho) may have trace
        # 1 + 4e-11, beyond a state's 1e-12 d; the witness must not refuse it
        gen = rng_from_seed(5)
        s = random_state(gen, 3)
        a, b = random_hermitian(gen, 3), random_hermitian(gen, 3)
        ins = random_instrument(gen, 3, 10)
        scaled = CpInstrument(
            outcomes=ins.outcomes,
            kraus_sets=tuple(np.sqrt(1 + 4e-11) * ks for ks in ins.kraus_sets),
        )
        assert abs(np.trace(average_channel(scaled)(s.rho)).real - 1) > 3e-12
        rep = error_disturbance_report(s, a, b, scaled)
        assert rep.domination_a and rep.domination_b
        assert rep.eps_or_eta_b.value == disturbance(s, b, average_channel(scaled)).value

    def test_infinite_product_short_circuits(self):
        # a two-outcome instrument cannot resolve all of a qutrit's
        # parameters, so eps(A) is infinite and the bound holds trivially
        gen = rng_from_seed(25)
        s = random_state(gen, 3)
        ins = random_instrument(gen, 3, 2)
        rep = error_disturbance_report(
            s, random_hermitian(gen, 3), random_hermitian(gen, 3), ins
        )
        assert rep.eps_a.is_infinite
        assert math.isinf(rep.lhs)
        assert math.isinf(rep.margin)
        assert rep.holds
