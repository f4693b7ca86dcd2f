"""States, POVMs, channels, instruments, and the statistics helpers."""

from contextlib import nullcontext

import numpy as np
import pytest

from urlab import (
    SLD_FUNCTION,
    CpInstrument,
    KrausChannel,
    MonotoneFunction,
    Povm,
    QuantumState,
    StatisticalModel,
    StochasticKernel,
    average_channel,
    correlation,
    expectation,
    grad_expectation,
    induced_povm,
    is_hermitian,
    kf_superoperator,
    measurement_error,
    mp_inverse,
    pvm_of_observable,
    schur_positivity_report,
    sym_correlation,
    variance,
)
from urlab.classical import Estimator, locally_unbiased_estimator, monte_carlo_variance
from urlab.errors import InvalidOperandError
import urlab.quantum
from urlab.quantum import _kraus_sum
from urlab.randoms import random_channel, random_complex, rng_from_seed
from urlab.scenarios import luders_z_instrument, unsharp_z_instrument, unsharp_z_povm

from conftest import IDENTITY2, SIGMA_X, SIGMA_Y, SIGMA_Z, qubit_state


_NAN2 = np.full((2, 2), np.nan)
_INF2 = np.full((2, 2), np.inf)
_HALF = np.eye(2) / 2
_MODEL = StatisticalModel(outcomes=(0, 1), probs=np.array([0.5, 0.5]),
                          scores=np.array([[1.0], [-1.0]]))


@pytest.mark.parametrize(
    "build",
    [
        lambda: KrausChannel(kraus=(_NAN2,)),
        lambda: KrausChannel(kraus=(np.full((2, 2), np.inf),)),
        lambda: CpInstrument(outcomes=(0,), kraus_sets=((_NAN2,),)),
        lambda: MonotoneFunction("nan", lambda x: np.full(np.shape(x), np.nan)),
        lambda: MonotoneFunction("nan-off-1", lambda x: np.where(x == 1.0, 1.0, np.nan)),
        lambda: expectation(_HALF, _NAN2),
        lambda: expectation(_HALF, np.full((2, 2), np.inf)),
        lambda: variance(_HALF, _NAN2),
        lambda: variance(_HALF, np.full((2, 2), np.inf)),
        lambda: grad_expectation(_HALF, np.full((2, 2), np.inf)),
        lambda: mp_inverse(_NAN2),
        lambda: mp_inverse(np.full((2, 2), np.inf)),
        lambda: QuantumState(base=_INF2),
        lambda: QuantumState(base=_NAN2),
        lambda: pvm_of_observable(_INF2),
        lambda: Povm(outcomes=(0,), effects=(_INF2,)),
        lambda: schur_positivity_report(_INF2, IDENTITY2, IDENTITY2),
        lambda: schur_positivity_report(IDENTITY2, _NAN2, IDENTITY2),
        lambda: schur_positivity_report(IDENTITY2, _INF2, IDENTITY2),
        lambda: locally_unbiased_estimator(_MODEL, np.ones(1), target_value=np.nan),
        lambda: monte_carlo_variance(_MODEL, np.array([np.nan, 1.0]), n=1000, seed=0),
        lambda: StochasticKernel([[1.0 + 0j, 0.0], [0.0, 1.0]]),
        lambda: StochasticKernel([[1.0, "0"], [0.0, 1.0]]),
        lambda: StochasticKernel([[1.0, 0.0], [0.0]]),
        lambda: locally_unbiased_estimator(_MODEL, [1 + 1j], target_value=0.0),
        lambda: locally_unbiased_estimator(_MODEL, [np.inf], target_value=0.0),
        lambda: locally_unbiased_estimator(_MODEL, ["1"], target_value=0.0),
        lambda: locally_unbiased_estimator(_MODEL, np.ones(1), target_value=1j),
        lambda: monte_carlo_variance(_MODEL, [1j, 0.0], n=1000, seed=0),
        lambda: monte_carlo_variance(_MODEL, [[0.0], []], n=1000, seed=0),
    ],
    ids=["nan-channel", "inf-channel", "nan-instrument", "nan-function", "nan-off-one",
         "nan-expectation", "inf-expectation", "nan-variance", "inf-variance", "inf-gradient",
         "nan-pinv", "inf-pinv", "inf-state", "nan-state", "inf-observable", "inf-effect",
         "inf-schur-a", "nan-schur-b", "inf-schur-b", "nan-target", "nan-mc-values",
         "complex-kernel", "string-kernel", "ragged-kernel", "complex-direction",
         "inf-direction", "string-direction", "complex-target", "complex-mc-values",
         "ragged-mc-values"],
)
def test_non_finite_input_is_rejected_before_it_warns(build):
    # NaN slipped through every `residue > tol` test; inf warned inside a matmul or
    # in a - a^H first, and a non-finite Schur block B stopped eigvalsh from converging.
    # A complex classical input lost its imaginary part with only a ComplexWarning (a
    # complex target made complex estimator values); a string or ragged one raised a
    # raw ValueError or TypeError
    with pytest.raises(InvalidOperandError):
        build()


def test_non_finite_matrix_is_not_hermitian_and_does_not_warn():
    # pytest turns the RuntimeWarning of inf - inf into an error
    assert not is_hermitian(_INF2)
    assert not is_hermitian(np.array([IDENTITY2, _NAN2]))


class TestQuantumState:
    def test_valid_state(self):
        s = QuantumState(base=qubit_state(rz=0.5))
        assert s.dim == 2
        np.testing.assert_allclose(s.rho, qubit_state(rz=0.5))

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvalidOperandError):
            QuantumState(base=np.eye(2, dtype=complex))

    @pytest.mark.parametrize("use", ["state", "expectation", "measurement_error"])
    def test_rejects_negative_eigenvalue(self, use):
        # Hermitian with unit trace but not PSD: a QuantumState and a raw
        # matrix follow the same rule, and no quantity is computed from it
        rho = np.diag([1.2, -0.2]).astype(complex)
        calls = {
            "state": lambda: QuantumState(base=rho),
            "expectation": lambda: expectation(rho, SIGMA_Z),
            "measurement_error": lambda: measurement_error(rho, SIGMA_Z, unsharp_z_povm(0.8)),
        }
        with pytest.raises(InvalidOperandError, match="eigenvalue -2.000e-01"):
            calls[use]()

    def test_raw_matrix_is_validated_once_per_call(self, monkeypatch):
        # sym_correlation makes two correlation calls on one QuantumState
        validated = []
        real = QuantumState.__post_init__
        monkeypatch.setattr(QuantumState, "__post_init__", lambda st: validated.append(real(st)))
        sym_correlation(qubit_state(rz=0.5), SIGMA_X, SIGMA_Z)
        assert len(validated) == 1

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidOperandError):
            QuantumState(base=np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_rejects_stack_of_states(self):
        # Hermiticity checks accept stacks of effects; a state is one matrix
        with pytest.raises(InvalidOperandError):
            QuantumState(base=np.array([IDENTITY2 / 2, IDENTITY2 / 2]))
        with pytest.raises(InvalidOperandError):
            expectation(np.array([IDENTITY2 / 2, IDENTITY2 / 2]), SIGMA_Z)


class TestPovm:
    def test_incomplete_rejected(self):
        with pytest.raises(InvalidOperandError):
            Povm(outcomes=(0,), effects=(IDENTITY2 / 2,))

    def test_negative_effect_rejected(self):
        with pytest.raises(InvalidOperandError):
            Povm(outcomes=(0, 1), effects=(IDENTITY2 + SIGMA_Z, -SIGMA_Z))

    def test_projective_detection(self):
        pvm = pvm_of_observable(SIGMA_Z)
        assert pvm.is_projective()
        assert not unsharp_z_povm(0.8).is_projective()

    def test_hermiticity_is_checked_per_effect(self):
        # a large effect must not loosen the check of a small one in the stack
        small = np.array([[0.5, 1e-9], [0.0, 0.5]])
        assert is_hermitian(np.array([1e6 * IDENTITY2, IDENTITY2]))
        assert not is_hermitian(np.array([1e6 * IDENTITY2, small]))
        with pytest.raises(InvalidOperandError, match="not Hermitian"):
            Povm(outcomes=(0, 1), effects=(1e6 * IDENTITY2, small))

    def test_completeness_tolerance_is_1e_8(self):
        # a completeness defect of 1e-9 passes, one of 1e-7 does not
        Povm(outcomes=(0, 1), effects=((IDENTITY2 / 2) * (1 + 1e-9), IDENTITY2 / 2))
        with pytest.raises(InvalidOperandError, match="sum to the identity"):
            Povm(outcomes=(0, 1), effects=((IDENTITY2 / 2) * (1 + 1e-7), IDENTITY2 / 2))

    # An effect passes the PSD test when its smallest eigenvalue is at least
    # -tol, tol = 1e-10 max(|E|_F, 1); every effect below has |E|_F < 1.
    @pytest.mark.parametrize("factor, accepted", [(0.999, True), (1.001, False)])
    def test_psd_boundary_of_a_qubit_effect(self, factor, accepted):
        c = factor * 1e-10
        effects = (np.diag([-c, 0.5]), np.diag([1 + c, 0.5]))
        with _verdict(accepted, "effect 'a' is not PSD"):
            Povm(outcomes=("a", "b"), effects=effects)

    @pytest.mark.parametrize("factor, accepted", [(0.999, True), (1.001, False)])
    def test_psd_boundary_inside_a_large_stack(self, factor, accepted):
        outcomes, effects = _rotated_effects(factor * 1e-10, bad=257)
        with _verdict(accepted, "effect 'x257' is not PSD"):
            Povm(outcomes=outcomes, effects=effects)

    @pytest.mark.parametrize("c, accepted", [(0.0, True), (1e-6, False)])
    def test_eigenvalues_only_after_a_failed_factorization(self, monkeypatch, c, accepted):
        outcomes, effects = _rotated_effects(c, bad=3)
        calls = []
        real = np.linalg.eigvalsh

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        with _verdict(accepted, "effect 'x3' is not PSD"):
            Povm(outcomes=outcomes, effects=effects)
        assert len(calls) == (0 if accepted else 1)


def _verdict(accepted: bool, message: str):
    return nullcontext() if accepted else pytest.raises(InvalidOperandError, match=message)


def _rotated_effects(c: float, bad: int, n: int = 520, d: int = 8):
    """n outcomes and effects on C^d: 'x<bad>' is a rotated diag(-c, 0.3, ..., 0.3),
    the others split its complement equally."""
    u = np.linalg.qr(random_complex(rng_from_seed(5), (d, d)))[0]
    e = u @ np.diag([-c] + [0.3] * (d - 1)) @ u.conj().T
    e = (e + e.conj().T) / 2
    effects = np.repeat(((np.eye(d) - e) / (n - 1))[None], n, axis=0)
    effects[bad] = e
    return tuple(f"x{i}" for i in range(n)), effects


def _assert_close_relative(actual, expected, rtol=1e-14):
    assert np.abs(actual - expected).max() <= rtol * np.abs(expected).max()


class TestKrausChannel:
    def test_not_trace_preserving_rejected(self):
        with pytest.raises(InvalidOperandError):
            KrausChannel(kraus=(0.5 * np.eye(2),))

    def test_adjoint_duality(self, rng):
        ks = []
        g = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
        q, _ = np.linalg.qr(g)
        ks = (q[:2], q[2:4], q[4:])
        ch = KrausChannel(kraus=ks)
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        lhs = np.trace(ch(x) @ y)
        rhs = np.trace(x @ ch.adjoint(y))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_channel_and_adjoint_apply_to_stacks(self):
        # a rectangular channel from a qutrit to a qubit, applied to stacks
        # with no, one and two leading axes, against per-operator Kraus sums
        gen = rng_from_seed(12)
        ch = KrausChannel(kraus=np.linalg.qr(random_complex(gen, (10, 3)))[0].reshape(5, 2, 3))
        for lead in [(), (4,), (2, 4)]:
            xs = random_complex(gen, (*lead, 3, 3))
            ys = random_complex(gen, (*lead, 2, 2))
            images = ch(xs)
            preimages = ch.adjoint(ys)
            assert images.shape == ys.shape and preimages.shape == xs.shape
            for idx in np.ndindex(*lead):
                naive = sum(k @ xs[idx] @ k.conj().T for k in ch.kraus)
                _assert_close_relative(images[idx], naive)
                naive = sum(k.conj().T @ ys[idx] @ k for k in ch.kraus)
                _assert_close_relative(preimages[idx], naive)
        with pytest.raises(InvalidOperandError):
            ch(ys)
        with pytest.raises(InvalidOperandError):
            ch.adjoint(xs)

    @pytest.mark.parametrize("rows, cols", [(2, 5), (5, 2), (4, 4)])
    def test_kraus_sum_matches_per_operator_loop(self, rows, cols):
        # any (k, d', d) stack, trace preserving or not
        gen = rng_from_seed(rows * 10 + cols)
        kraus = random_complex(gen, (7, rows, cols))
        xs = random_complex(gen, (3, cols, cols))
        out = _kraus_sum(kraus, xs)
        assert out.shape == (3, rows, rows)
        for x, y in zip(xs, out):
            _assert_close_relative(y, sum(k @ x @ k.conj().T for k in kraus))

    def test_identity_channel(self, rng):
        ch = KrausChannel(kraus=(np.eye(3),))
        x = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
        np.testing.assert_array_equal(ch(x), x)
        np.testing.assert_array_equal(ch(x[0]), x[0])


def test_expectation_variance_known_qubit():
    rho = qubit_state(rz=0.6)
    assert expectation(rho, SIGMA_Z) == pytest.approx(0.6, abs=1e-12)
    assert variance(rho, SIGMA_Z) == pytest.approx(1 - 0.36, abs=1e-12)
    assert expectation(rho, SIGMA_X) == pytest.approx(0.0, abs=1e-12)


def test_correlations():
    rho = qubit_state(rz=0.5)
    # <sigma_x sigma_y> = <i sigma_z> = 0.5i, both means vanish
    assert correlation(rho, SIGMA_X, SIGMA_Y) == pytest.approx(0.5j, abs=1e-12)
    assert sym_correlation(rho, SIGMA_X, SIGMA_Y) == pytest.approx(0.0, abs=1e-12)
    assert sym_correlation(rho, SIGMA_Z, SIGMA_Z) == pytest.approx(
        variance(rho, SIGMA_Z), abs=1e-12
    )


def test_grad_expectation_is_traceless_projection(rng):
    rho = qubit_state(rx=0.2)
    a = rng.normal(size=(2, 2))
    a = a + a.T + 3 * np.eye(2)
    g = grad_expectation(rho, a)
    assert abs(np.trace(g)) < 1e-12
    np.testing.assert_allclose(g, a - np.trace(a) / 2 * np.eye(2), atol=1e-12)


class TestUnsharpZInstrument:
    def test_eta_one_gives_the_luders_projectors(self):
        for ins in (unsharp_z_instrument(1.0), luders_z_instrument()):
            np.testing.assert_array_equal(
                ins.channel.kraus, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
            )

    @pytest.mark.parametrize("eta", [0.1, 0.5, 0.8, 1.0])
    def test_induced_povm_is_the_unsharp_povm(self, eta):
        np.testing.assert_allclose(
            induced_povm(unsharp_z_instrument(eta)).effects, unsharp_z_povm(eta).effects,
            rtol=0, atol=1e-15,
        )


class TestPvmOfObservable:
    def test_spectral_decomposition(self):
        pvm = pvm_of_observable(SIGMA_Z)
        assert len(pvm) == 2
        assert pvm.is_projective()
        np.testing.assert_allclose(sum(pvm.effects), IDENTITY2, atol=1e-12)
        # outcomes are the eigenvalues, ascending
        assert list(pvm.outcomes) == pytest.approx([-1.0, 1.0])

    def test_degenerate_eigenvalues_cluster(self):
        a = np.diag([1.0, 1.0, 0.0]).astype(complex)
        pvm = pvm_of_observable(a)
        assert len(pvm) == 2
        ranks = sorted(int(round(np.trace(e).real)) for e in pvm.effects)
        assert ranks == [1, 2]
        # in a random basis: a level split by 1e-10 < 1e-8 |A| and an exact double level
        u = np.linalg.qr(random_complex(rng_from_seed(4), (5, 5)))[0]
        w = np.array([-1.0, -1.0, 0.5, 0.5 + 1e-10, 2.0])
        pvm = pvm_of_observable((u * w) @ u.conj().T)
        clusters = [[0, 1], [2, 3], [4]]
        assert pvm.outcomes == pytest.approx([w[c].mean() for c in clusters], rel=0, abs=1e-14)
        assert list(pvm.outcomes) == sorted(pvm.outcomes)
        for e, c in zip(pvm.effects, clusters):
            np.testing.assert_allclose(e, u[:, c] @ u[:, c].conj().T, rtol=0, atol=1e-13)
        assert np.abs(pvm.effects.sum(axis=0) - np.eye(5)).max() <= 1e-14


    @pytest.mark.parametrize("w", [[3e154, 0.0], [1e200, 0.0], [1e300, -1e300], [1e154, 0.0]])
    def test_observable_whose_norm_squares_overflow(self, w):
        # np.linalg.norm overflowed from entries of about 1.3e154 on: the tolerance was
        # inf, no cluster started, and the empty effect stack was refused as malformed
        pvm = pvm_of_observable(np.diag(w))
        assert pvm.outcomes == pytest.approx(sorted(w), rel=1e-15)
        order = np.argsort(w)
        projectors = np.eye(2)[order][:, :, None] * np.eye(2)[order][:, None, :]
        np.testing.assert_allclose(pvm.effects, projectors, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("a", [np.full((2, 2), 1e308), np.diag([1.7e308, -1.7e308])])
    def test_observable_without_a_finite_spectrum_is_refused(self, a):
        # eigh returns [0, inf] for the first; the gap of the second overflows
        with pytest.raises(InvalidOperandError, match="spectrum"):
            pvm_of_observable(a)


@pytest.mark.parametrize(
    "build",
    [
        lambda: StatisticalModel(outcomes=(0, 1), probs=[0.5, 0.5], scores=[[1.0], [-1.0]]),
        lambda: StochasticKernel(matrix=np.eye(2)),
        lambda: Estimator(values=np.zeros(2), variance=0.0),
        lambda: mp_inverse(np.eye(2)),
        lambda: kf_superoperator(IDENTITY2 / 2, SLD_FUNCTION),
        lambda: QuantumState(base=IDENTITY2 / 2),
        lambda: unsharp_z_povm(0.5),
        lambda: KrausChannel(kraus=[IDENTITY2]),
        luders_z_instrument,
    ],
    ids=["model", "kernel", "estimator", "pinv", "kf", "state", "povm", "channel", "instrument"],
)
def test_array_holding_objects_compare_and_hash_by_identity(build):
    # a generated __eq__ would compare arrays, whose truth value raises
    x, y = build(), build()
    assert x == x and x != y
    assert hash(x) == hash(x)
    assert x in {x} and y not in {x}


def test_induced_povm_and_average_channel():
    ins = luders_z_instrument()
    m = induced_povm(ins)
    np.testing.assert_allclose(m.effects[0] + m.effects[1], IDENTITY2, atol=1e-12)
    assert m.is_projective()
    ch = average_channel(ins)
    out = ch(qubit_state(rx=0.8))
    # full z dephasing kills the x component
    np.testing.assert_allclose(out, IDENTITY2 / 2, atol=1e-12)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Povm(outcomes=(), effects=()),
        lambda: KrausChannel(kraus=(np.ones(2),)),
        lambda: CpInstrument(outcomes=(0, 1), kraus_sets=((), (np.eye(2),))),
        lambda: CpInstrument(outcomes=(0, 1), kraus_sets=(1.0, (np.eye(2),))),
        lambda: CpInstrument(outcomes=(0, 1), kraus_sets=((np.eye(3),), (np.eye(2),))),
        lambda: CpInstrument(outcomes=(0, 1), kraus_sets=((np.eye(2), np.eye(3)), (np.eye(2),))),
        lambda: CpInstrument(outcomes=(0, 1), kraus_sets=(np.zeros((0, 2, 2)), (np.eye(2),))),
        lambda: CpInstrument(outcomes=(0, 1), kraus_sets=((_NAN2,), (np.eye(2),))),
    ],
    ids=["povm-without-effects", "vector-kraus-operator", "empty-kraus-set", "scalar-kraus-set",
         "other-shape-kraus-set", "ragged-kraus-set", "explicit-empty-kraus-set", "nan-kraus-set"],
)
def test_malformed_operator_family_is_invalid_operand(build):
    with pytest.raises(InvalidOperandError):
        build()


def test_instrument_admits_its_sets_as_one_stack(monkeypatch):
    # one single-operator set per outcome, as random_instrument passes them, used to
    # make one admission per set and one more for their concatenation
    sets = tuple(random_channel(rng_from_seed(4), 8, 65).kraus[:, None])
    calls = []
    real = urlab.quantum._operator_stack
    monkeypatch.setattr(urlab.quantum, "_operator_stack", lambda *a: calls.append(a) or real(*a))
    ins = CpInstrument(outcomes=tuple(range(65)), kraus_sets=sets)
    assert len(calls) == 1
    assert ins.starts == tuple(range(65))


def test_instrument_requires_trace_preserving_total():
    half = np.sqrt(0.5) * np.eye(2, dtype=complex)
    CpInstrument(outcomes=(0, 1), kraus_sets=((half,), (half,)))
    with pytest.raises(InvalidOperandError):
        CpInstrument(outcomes=(0,), kraus_sets=((half,),))
