import numpy as np
import pytest

from qheatflow.dynamics import (
    ManifoldRotation,
    UnitaryReport,
    _stack_report,
    _total_hamiltonian,
    _xy_perturbation,
    _xy_perturbation_epsilon,
    commutator_norm,
    energy_preserving_unitary,
    exchange_unitary_stack,
    perturbed_xy_unitary,
    perturbed_xy_unitary_stack,
    rotation_angle,
    two_qubit_exchange_unitary,
    xy_exchange_unitary,
    xy_unitary_stack,
)
from qheatflow.linalg import SIGMA_X, kron, spectral_norm
from qheatflow.states import EnergySpectrum

import reference

J_HZ = 215.1


def test_identity_at_zero_angle():
    u = two_qubit_exchange_unitary(0.0)
    assert np.max(np.abs(u.matrix - np.eye(4))) == 0.0
    assert u.commutator_norm < 1e-10


def test_full_rotation_swaps_manifold():
    u = two_qubit_exchange_unitary(np.pi / 2).matrix
    assert abs(u[2, 1] - 1.0) < 1e-12 and abs(u[1, 2] + 1.0) < 1e-12
    assert abs(u[1, 1]) < 1e-12 and abs(u[2, 2]) < 1e-12


def test_quarter_rotation_entries():
    u = two_qubit_exchange_unitary(np.pi / 4).matrix
    r = 1.0 / np.sqrt(2.0)
    assert np.allclose(
        u[1:3, 1:3], np.array([[r, -r], [r, r]]), atol=1e-12
    )


def test_phase_structure_of_general_block():
    theta, kappa, lam, phi = 0.6, 0.3, 1.1, -0.4
    u = two_qubit_exchange_unitary(theta, kappa=kappa, lam=lam, phi=phi).matrix
    ct, st = np.cos(theta), np.sin(theta)
    assert u[1, 1] == pytest.approx(np.exp(1j * (kappa + lam)) * ct)
    assert u[1, 2] == pytest.approx(-np.exp(1j * (kappa - phi)) * st)
    assert u[2, 1] == pytest.approx(np.exp(1j * (kappa + phi)) * st)
    assert u[2, 2] == pytest.approx(np.exp(1j * (kappa - lam)) * ct)


def test_qudit_empty_rotation_list_is_identity():
    spec = EnergySpectrum((0.0, 1.0, 1.15))
    u = energy_preserving_unitary(spec, [])
    assert np.array_equal(u.matrix, np.eye(9))


def test_qutrit_block_pattern():
    spec = EnergySpectrum((0.0, 1.0, 1.15))
    th01, th02 = 0.7, 1.2
    u = energy_preserving_unitary(
        spec,
        [
            ManifoldRotation((0, 1), th01),
            ManifoldRotation((0, 2), th02),
            ManifoldRotation((1, 2), th02),  # tied angles
        ],
    ).matrix
    # manifold (0,1) acts on joint indices 1, 3
    assert u[1, 1] == pytest.approx(np.cos(th01))
    assert u[1, 3] == pytest.approx(-np.sin(th01))
    assert u[3, 1] == pytest.approx(np.sin(th01))
    # manifold (0,2) on 2, 6 and (1,2) on 5, 7
    assert u[2, 6] == pytest.approx(-np.sin(th02))
    assert u[5, 7] == pytest.approx(-np.sin(th02))
    # untouched cells stay identity
    assert u[0, 0] == 1.0 and u[4, 4] == 1.0 and u[8, 8] == 1.0


def test_qudit_duplicate_manifold_rejected():
    spec = EnergySpectrum((0.0, 1.0, 1.15))
    rots = [ManifoldRotation((0, 1), 0.3), ManifoldRotation((1, 0), 0.5)]
    with pytest.raises(ValueError, match="duplicate"):
        energy_preserving_unitary(spec, rots)


def test_qudit_degenerate_spectrum_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        energy_preserving_unitary(EnergySpectrum((0.0, 1.0, 2.0)), [])


def test_two_qubit_constructor_equivalence():
    direct = two_qubit_exchange_unitary(0.9, kappa=0.2, lam=0.5, phi=1.5).matrix
    via_general = energy_preserving_unitary(
        EnergySpectrum.two_level(),
        [ManifoldRotation((0, 1), 0.9, phi=1.5, lam=0.5, kappa=0.2)],
    ).matrix
    assert np.max(np.abs(direct - via_general)) == 0.0


def test_commutator_norm_for_energy_preserving_unitaries():
    spec = EnergySpectrum((0.0, 0.9, 2.1))
    rots = [ManifoldRotation((0, 2), 1.1, phi=0.3, lam=0.8, kappa=0.1)]
    u = energy_preserving_unitary(spec, rots)
    assert u.commutator_norm < 1e-10


def test_commutator_norm_positive_for_hadamard():
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    u = kron(h, np.eye(2))
    spec = EnergySpectrum.two_level()
    h_tot = kron(reference.hamiltonian(spec.levels), np.eye(2)) + kron(np.eye(2), reference.hamiltonian(spec.levels))
    assert commutator_norm(u, h_tot) > 0.1


# ---------------------------------------------------------------------------
# time-driven coupling
# ---------------------------------------------------------------------------

def test_xy_unitary_at_zero_time():
    u = xy_exchange_unitary(J_HZ, 0.0)
    assert np.max(np.abs(u.matrix - np.eye(4))) == 0.0


def test_xy_unitary_angle_linear_in_time():
    times = np.linspace(1e-4, 1.4e-3, 7)
    angles = [rotation_angle(xy_exchange_unitary(J_HZ, t)) for t in times]
    slopes = np.diff(angles) / np.diff(times)
    assert np.max(np.abs(slopes - slopes[0])) < 1e-6 * abs(slopes[0])
    # slope read off the matrix exponential, not assumed
    assert slopes[0] == pytest.approx(np.pi * J_HZ, rel=1e-9)


def test_xy_unitary_manifold_unitarity():
    for t in (2e-4, 9e-4, 3.1e-3):
        u = xy_exchange_unitary(J_HZ, t).matrix
        assert abs(u[1, 1]) ** 2 + abs(u[2, 1]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_xy_unitary_semigroup():
    t1, t2 = 7e-4, 1.9e-3
    u1 = xy_exchange_unitary(J_HZ, t1).matrix
    u2 = xy_exchange_unitary(J_HZ, t2).matrix
    u12 = xy_exchange_unitary(J_HZ, t1 + t2).matrix
    assert np.max(np.abs(u1 @ u2 - u12)) < 1e-9


def test_xy_unitary_commutes_with_resonant_hamiltonian():
    u = xy_exchange_unitary(J_HZ, 2.3e-3)
    assert u.commutator_norm < 1e-10


# ---------------------------------------------------------------------------
# perturbed coupling
# ---------------------------------------------------------------------------

def test_perturbed_epsilon_zero_without_perturbation():
    u = perturbed_xy_unitary(J_HZ, 0.0, 3e-3)
    assert u.epsilon == 0.0


def test_perturbed_epsilon_duhamel_bound(rng):
    for _ in range(20):
        jx = rng.uniform(0.0, 120.0)
        t = rng.uniform(0.0, 5e-3)
        u = perturbed_xy_unitary(J_HZ, jx, t)
        assert u.epsilon <= jx * t + 1e-12
        assert spectral_norm(u.matrix @ u.matrix.conj().T - np.eye(4)) < 1e-10


def test_perturbed_epsilon_matches_singular_value_oracle(rng):
    jx, t = 35.0, 3e-3
    u = perturbed_xy_unitary(J_HZ, jx, t)
    ref = xy_exchange_unitary(J_HZ, t)
    diff = u.matrix - ref.matrix
    largest_sv = np.sqrt(np.linalg.eigvalsh(diff.conj().T @ diff)[-1])
    assert u.epsilon == pytest.approx(largest_sv, abs=1e-12)


@pytest.mark.parametrize("j_hz", [0.0, 1.0, 220.0, 400.0])
@pytest.mark.parametrize("t", [0.0, 1e-4, 0.004, 1.0])
def test_closed_form_epsilon_is_within_its_margin_of_the_stacked_one(j_hz, t):
    # t = 1 takes the phases r t into the thousands of radians
    j_x = np.concatenate([np.linspace(0.0, 4000.0, 4001), [1e-300, 5e-324, 0.5, 4000.0 - 1e-9]])
    j_hz, t = np.full(j_x.size, j_hz), np.full(j_x.size, t)
    epsilon, margin = _xy_perturbation_epsilon(j_hz, j_x, t)
    exact = _xy_perturbation(j_hz, t)(j_x)[1]
    assert np.all(np.abs(epsilon - exact) <= margin / 8)


def test_perturbed_epsilon_of_a_subset_equals_the_full_stack_bit_for_bit(rng):
    j_hz, t, j_x = rng.uniform(50.0, 400.0, 12), rng.uniform(0.0, 1e-2, 12), rng.uniform(0.0, 4000.0, 12)
    perturbed = _xy_perturbation(j_hz, t)
    u, epsilon = perturbed(j_x)
    index = np.array([0, 5, 11])
    u_sub, epsilon_sub = perturbed(j_x[index], index)
    assert u_sub.tobytes() == u[index].tobytes() and epsilon_sub.tobytes() == epsilon[index].tobytes()


def test_perturbed_commutator_strictly_positive():
    u = perturbed_xy_unitary(J_HZ, 40.0, 3e-3)
    assert u.commutator_norm > 1e-6


def test_perturbation_operator_norm_is_one():
    assert spectral_norm(kron(SIGMA_X, SIGMA_X)) == pytest.approx(1.0)


def test_perturbed_commutator_uses_both_gaps_on_detuned_pair():
    jx, t, e_c, e_h = 40.0, 3e-3, 1.0, 1.25
    u = perturbed_xy_unitary(J_HZ, jx, t, gap=e_c, gap_h=e_h)
    # C-major product basis |i_C i_H>: energies 0, E_H, E_C, E_C + E_H
    h = np.diag([0.0, e_h, e_c, e_c + e_h]).astype(complex)
    explicit = np.linalg.norm(u.matrix @ h - h @ u.matrix, 2)
    assert u.commutator_norm == pytest.approx(explicit, rel=1e-12, abs=1e-12)
    resonant = perturbed_xy_unitary(J_HZ, jx, t, gap=e_c)
    assert abs(u.commutator_norm - resonant.commutator_norm) > 1e-3
    same_gaps = perturbed_xy_unitary(J_HZ, jx, t, gap=e_c, gap_h=e_c)
    assert resonant.commutator_norm == same_gaps.commutator_norm


# ---------------------------------------------------------------------------
# fast paths against the dense reference
# ---------------------------------------------------------------------------

def _dense_norm_bytes(u, h) -> bytes:
    """The dense commutator norm, as bits."""
    return np.float64(spectral_norm(u @ h - h @ u)).tobytes()


def _random_spectrum(rng, d) -> EnergySpectrum:
    return EnergySpectrum(tuple(np.concatenate([[0.0], np.cumsum(rng.uniform(0.3, 1.7, d - 1))])))


def test_total_hamiltonian_is_the_kron_sum_bit_for_bit():
    rng = np.random.default_rng(3)
    cases = [(_random_spectrum(rng, d_c), _random_spectrum(rng, d_h)) for d_c, d_h in [(2, 2), (2, 3), (3, 3), (4, 2)]]
    cases.append((EnergySpectrum((-0.0, 1.0)), EnergySpectrum((0.0, 1.3))))  # a -0.0 ground level
    for spec_c, spec_h in cases:
        d_c, d_h = spec_c.dim, spec_h.dim
        kron_sum = kron(reference.hamiltonian(spec_c.levels), np.eye(d_h)) + kron(np.eye(d_c), reference.hamiltonian(spec_h.levels))
        assert _total_hamiltonian(spec_c.levels, spec_h.levels).tobytes() == kron_sum.tobytes()
        if d_c == d_h:
            same = kron(reference.hamiltonian(spec_c.levels), np.eye(d_c)) + kron(np.eye(d_c), reference.hamiltonian(spec_c.levels))
            assert _total_hamiltonian(spec_c.levels).tobytes() == same.tobytes()
    # one H per cell: each equals its own cell's
    specs = [_random_spectrum(rng, 3) for _ in range(4)]
    stack = _total_hamiltonian(np.array([s.levels for s in specs]), np.array([s.levels for s in specs[::-1]]))
    for k, (spec_c, spec_h) in enumerate(zip(specs, specs[::-1])):
        assert stack[k].tobytes() == _total_hamiltonian(spec_c.levels, spec_h.levels).tobytes()


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 12, 16])
def test_exchange_commutator_norm_equals_dense_bit_for_bit(d):
    rng = np.random.default_rng(d)
    spec = _random_spectrum(rng, d)
    h = _total_hamiltonian(spec.levels)
    pairs = [(n, m) for n in range(d) for m in range(n + 1, d)]
    rots = [ManifoldRotation(pair, *rng.uniform(-np.pi, np.pi, 4)) for pair in pairs]
    u = energy_preserving_unitary(spec, rots)
    dense = _dense_norm_bytes(u.matrix, h)
    assert np.float64(u.commutator_norm).tobytes() == dense
    assert np.float64(commutator_norm(u, h)).tobytes() == dense
    n = 3
    angles = {pair: tuple(rng.uniform(-np.pi, np.pi, (4, n))) for pair in pairs}
    stack = exchange_unitary_stack(spec.levels, n, angles.items())
    for k in range(n):
        assert stack.commutator_norm[k].tobytes() == _dense_norm_bytes(stack.matrix[k], h)


def test_non_exchange_commutator_norms_take_the_dense_path():
    rng = np.random.default_rng(5)
    resonant = _total_hamiltonian((0.0, 1.0))
    detuned = np.diag([0.0, 1.25, 1.0, 2.25]).astype(complex)
    exchange = two_qubit_exchange_unitary(0.7, kappa=0.2, lam=-0.4, phi=1.1).matrix
    cases = [
        (perturbed_xy_unitary(J_HZ, 40.0, 3e-3).matrix, resonant),
        (perturbed_xy_unitary(J_HZ, 40.0, 3e-3, gap=1.0, gap_h=1.25).matrix, detuned),
        (exchange, detuned),  # a detuned pair: |01> and |10> differ in energy
        (exchange, resonant + 0.1 * kron(SIGMA_X, SIGMA_X)),  # H not diagonal
    ]
    for u, h in cases:
        assert np.float64(commutator_norm(u, h)).tobytes() == _dense_norm_bytes(u, h)
        assert commutator_norm(u, h) > 1e-3
    complex_h = (1.0 + 0.5j) * resonant  # a complex diagonal: the two products may round apart
    assert np.float64(commutator_norm(exchange, complex_h)).tobytes() == _dense_norm_bytes(exchange, complex_h)
    # one stack of exchange, perturbed and identity cells: each cell equals its own dense norm
    mixed = np.stack([exchange, cases[0][0], np.eye(4, dtype=complex), cases[1][0]])
    report = _stack_report(mixed, resonant)
    for k in range(len(mixed)):
        assert report.commutator_norm[k].tobytes() == _dense_norm_bytes(mixed[k], resonant)
    # stacks of xy and perturbed unitaries: each norm is the dense one
    j_hz, t = rng.uniform(100.0, 300.0, 5), rng.uniform(0.0, 5e-3, 5)
    j_x = rng.uniform(1.0, 60.0, 5)
    for stack, h in [
        (xy_unitary_stack(j_hz, t), resonant),
        (perturbed_xy_unitary_stack(j_hz, j_x, t, 1.0, 1.0), resonant),
        (perturbed_xy_unitary_stack(j_hz, j_x, t, 1.0, 1.25), detuned),
    ]:
        for k in range(5):
            assert stack.commutator_norm[k].tobytes() == _dense_norm_bytes(stack.matrix[k], h)
    for k in range(5):
        u = xy_exchange_unitary(j_hz[k], t[k])
        assert np.float64(u.commutator_norm).tobytes() == _dense_norm_bytes(u.matrix, resonant)
    # one gap pair per cell: each norm is taken against the cell's own H
    gap, gap_h = rng.uniform(0.8, 1.2, 5), rng.uniform(0.8, 1.2, 5)
    per_cell = perturbed_xy_unitary_stack(j_hz, j_x, t, gap, gap_h)
    assert len(set(per_cell.commutator_norm.tolist())) == 5
    for k in range(5):
        u = reference.perturbed_xy_unitary(j_hz[k], j_x[k], t[k], gap=gap[k], gap_h=gap_h[k])
        assert per_cell.matrix[k].tobytes() == u.matrix.tobytes()
        assert per_cell.commutator_norm[k].tobytes() == np.float64(u.commutator_norm).tobytes()


def _near_unitary(size: int, defects: list[float]) -> np.ndarray:
    """A diagonal matrix with U U^dag - I = diag(defects, 0, ...) up to rounding."""
    u = np.eye(size, dtype=complex)
    u[np.arange(len(defects)), np.arange(len(defects))] = np.sqrt(1.0 + np.asarray(defects))
    return u


def _spectral_defect(u) -> float:
    return spectral_norm(u @ u.conj().T - np.eye(u.shape[0]))


@pytest.mark.parametrize("size", [4, 16])
def test_unitarity_defect_above_tolerance_raises_the_unchanged_message(size):
    h = np.diag(np.arange(size, dtype=float)).astype(complex)
    for defects in ([2e-10], [1.5e-10], [2e-10] * 3, [1.1e-10] * size):
        u = _near_unitary(size, defects)
        message = f"matrix is not unitary (defect {_spectral_defect(u):.3e})"
        assert _spectral_defect(u) > 1e-10
        with pytest.raises(ValueError) as single:
            UnitaryReport(u, 0.0)
        with pytest.raises(ValueError) as stacked:
            _stack_report(np.stack([np.eye(size, dtype=complex), u, u]), h)
        assert str(single.value) == str(stacked.value) == message


@pytest.mark.parametrize("size", [4, 16])
def test_unitarity_defect_below_tolerance_passes(size):
    h = np.diag(np.arange(size, dtype=float)).astype(complex)
    # rank one: the Frobenius bound settles it; spread over the diagonal:
    # the Frobenius norm exceeds the tolerance and the SVD decides
    for defects in ([5e-11], [5e-11] * size, [9e-11] * size):
        u = _near_unitary(size, defects)
        assert _spectral_defect(u) <= 1e-10
        assert UnitaryReport(u, 0.0).matrix.tobytes() == u.tobytes()
        assert _stack_report(np.stack([u, np.eye(size, dtype=complex)]), h).matrix[0].tobytes() == u.tobytes()


def test_unitarity_check_of_a_nan_matrix_fails_as_the_svd_does():
    with pytest.raises(np.linalg.LinAlgError):
        UnitaryReport(np.full((4, 4), np.nan, dtype=complex), 0.0)
