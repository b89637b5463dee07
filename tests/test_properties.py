"""The property suite's stacked trials, the state validation kernel and
the property selection."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import reference

import qheatflow.states as states
from qheatflow import dynamics, fluctuations, properties, witnesses
from qheatflow.cli import main as cli_main
from qheatflow.linalg import partial_trace
from qheatflow.states import (
    BipartiteSystem,
    EnergySpectrum,
    InfeasibleStateError,
    StateStack,
    gamma_correlated_state,
    qudit_locally_thermal,
    thermal_populations,
    thermal_state,
    validate_stack,
)

# ---------------------------------------------------------------------------
# the validation kernel
# ---------------------------------------------------------------------------

QUBIT = EnergySpectrum.two_level()


def _valid_qubit_state():
    return gamma_correlated_state(0.1 - 0.05j, 1.13, 0.9618)


def _gibbs(sys):
    """The Gibbs populations (C, H) a system's marginals are checked against."""
    return thermal_populations(sys.spectrum_c, sys.beta_c), thermal_populations(sys.spectrum_h, sys.beta_h)


def _bad_rows():
    """(name, rho, beta_c, beta_h) of two-qubit states that fail one
    check each, or several (the first of which must win), plus a valid one."""
    good = _valid_qubit_state()
    rho, b_c, b_h = good.rho.copy(), good.beta_c, good.beta_h
    trace = rho * 1.01
    herm = rho.copy()
    herm[0, 3] += 1e-6
    psd = rho.copy()
    psd[1, 2] = psd[2, 1] = 0.4  # a coherence past the populations' geometric mean
    hot = np.diag(np.diag(rho))
    hot[1, 1], hot[2, 2] = hot[2, 2], hot[1, 1]  # swaps the marginals
    both = psd * 1.01  # trace and psd: trace comes first
    return [
        ("valid", rho, b_c, b_h),
        ("trace", trace, b_c, b_h),
        ("hermiticity", herm, b_c, b_h),
        ("psd", psd, b_c, b_h),
        ("thermal_marginal_C", hot, b_c, b_h),
        ("thermal_marginal_H", hot, None, b_h),
        ("trace+psd", both, b_c, b_h),
        ("dephased", np.where(np.eye(4, dtype=bool), rho, 0.0), b_c, b_h),
        ("infinite", np.diag([np.inf] * 4).astype(complex), b_c, b_h),  # fails the trace check; no later check runs on it
    ]


def test_each_constraint_keeps_its_name():
    expected = {
        "valid": None, "trace": "trace", "hermiticity": "hermiticity", "psd": "psd",
        "thermal_marginal_C": "thermal_marginal_C", "thermal_marginal_H": "thermal_marginal_H",
        "trace+psd": "trace", "dephased": None, "infinite": "trace",
    }
    for name, rho, b_c, b_h in _bad_rows():
        assert reference.validation_failure(QUBIT, QUBIT, rho, b_c, b_h) == expected[name], name
        if expected[name] is None:
            BipartiteSystem(QUBIT, QUBIT, rho, b_c, b_h)
            continue
        with pytest.raises(InfeasibleStateError) as err:
            BipartiteSystem(QUBIT, QUBIT, rho, b_c, b_h)
        assert err.value.constraint == expected[name], name
    with pytest.raises(InfeasibleStateError) as err:
        BipartiteSystem(QUBIT, QUBIT, np.eye(3) / 3)
    assert err.value.constraint == "dimension"
    assert reference.validation_failure(QUBIT, QUBIT, np.eye(3) / 3) == "dimension"


def test_a_mixed_stack_reports_each_rows_first_failure_as_one_row_does():
    rows = _bad_rows()
    gibbs = _gibbs(_valid_qubit_state())
    rho = np.stack([r[1] for r in rows])
    # per-row targets: the rows without a C temperature skip that check
    for targets in (gibbs, (None, gibbs[1])):
        errors, _ = validate_stack(rho, (2, 2), targets)
        for (name, one, _, _), error in zip(rows, errors):
            (alone,), _ = validate_stack(one[None], (2, 2), targets)
            assert (error and error.constraint) == (alone and alone.constraint), name
            assert (error and str(error)) == (alone and str(alone)), name


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4), (8, 2), (5, 4)])
def test_kernel_marginals_are_the_partial_trace_diagonals_bit_for_bit(dims):
    rng = np.random.default_rng(sum(dims))
    side = dims[0] * dims[1]
    a = rng.standard_normal((6, side, side)) + 1j * rng.standard_normal((6, side, side))
    rho = a @ a.conj().swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=1, axis2=2)[:, None, None]
    errors, (marginal_c, marginal_h) = validate_stack(rho, dims)
    assert errors == [None] * 6
    for k, m in enumerate(rho):
        (_,), (alone_c, alone_h) = validate_stack(m[None], dims)
        assert marginal_c[k].tobytes() == alone_c[0].tobytes() == partial_trace(m, dims, "H").diagonal().real.tobytes()
        assert marginal_h[k].tobytes() == alone_h[0].tobytes() == partial_trace(m, dims, "C").diagonal().real.tobytes()


def _systems():
    rng = np.random.default_rng(5)
    spec = EnergySpectrum((0.0, 1.0, 2.7))
    free = {0: 0.4, 5: 0.02, 7: 0.005, 8: 0.004}
    qutrit = qudit_locally_thermal(spec, 1.2, 0.5, free, {(0, 1): 0.4}, {(0, 1): 0.3})
    return [
        properties.random_system_and_unitary(rng, 2)[0],
        properties.random_system_and_unitary(rng, 3)[0],
        properties.random_system_and_unitary(rng, 4)[0],
        qutrit,
        BipartiteSystem(QUBIT, EnergySpectrum.two_level(1.3), np.eye(4) / 4),  # no betas, unequal spectra
        BipartiteSystem(QUBIT, QUBIT, np.eye(4) / 4),  # no betas, equal spectra
    ]


def test_a_systems_row_equals_the_eager_one_column_by_column():
    for sys in _systems():
        row, eager = tuple(sys.stack), reference.eager_state_row(sys)
        assert len(row) == len(eager) == len(StateStack._fields)
        for name, got, want in zip(StateStack._fields, row, eager):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), name
        assert sys.stack.dims == sys.dims
    st = properties._draw(np.random.default_rng(5), [2])[0].st  # the state of _systems()[0]
    errors, stacked = states.entry_stack(*reference.entry_columns(st, np.zeros(3, int)))
    assert errors == [None] * 3
    for name, got, want in zip(StateStack._fields, stacked, _systems()[0].stack):
        assert got.tobytes() == np.concatenate([want] * 3).tobytes(), name


def test_with_rho_checks_against_the_systems_gibbs_populations():
    sys = _valid_qubit_state()
    diag = sys.with_rho(np.diag(np.diag(sys.rho)))
    assert (diag.spectrum_c, diag.spectrum_h, diag.beta_c, diag.beta_h) == (sys.spectrum_c, sys.spectrum_h, sys.beta_c, sys.beta_h)
    for got, target in zip((diag.stack.marginal_c[0], diag.stack.marginal_h[0]), _gibbs(sys)):
        assert np.abs(got - target).max() <= states.THERMAL_TOL
    swapped = np.diag(np.diag(sys.rho)[[0, 2, 1, 3]])
    with pytest.raises(InfeasibleStateError) as err:
        sys.with_rho(swapped)
    assert err.value.constraint == "thermal_marginal_C"
    assert BipartiteSystem(sys.spectrum_c, sys.spectrum_h, swapped).beta_c is None


@pytest.mark.parametrize("beta", [np.nan, np.inf, -np.inf])
def test_a_non_finite_beta_on_either_side_is_refused(beta):
    rho = _valid_qubit_state().rho
    for betas in ((beta, 0.9618), (1.13, beta), (beta, None), (None, beta)):
        with pytest.raises(ValueError, match="^beta must be finite$"):
            BipartiteSystem(QUBIT, QUBIT, rho, *betas)


def test_a_system_with_one_beta_checks_only_that_sides_marginal():
    flat = np.full(2, 0.5)
    cold_only = np.kron(thermal_state(QUBIT, 1.13), np.diag(flat))  # thermal C marginal, flat H marginal
    hot_only = np.kron(np.diag(flat), thermal_state(QUBIT, 0.9618))
    for rho, betas, side in ((cold_only, (1.13, None), "H"), (hot_only, (None, 0.9618), "C")):
        sys = BipartiteSystem(QUBIT, QUBIT, rho, *betas)
        assert sys.stack.unequal_betas.tolist() == [False]
        assert [np.isnan(b) for b in (sys.stack.beta_c[0], sys.stack.beta_h[0])] == [b is None for b in betas]
        with pytest.raises(InfeasibleStateError) as err:
            BipartiteSystem(QUBIT, QUBIT, rho, 1.13, 0.9618)  # both set: the flat side fails
        assert err.value.constraint == f"thermal_marginal_{side}"


def test_a_nan_entry_fails_the_kernel_and_the_reference_alike():
    good = _valid_qubit_state()
    for at, constraint in (((0, 0), "trace"), ((1, 2), "hermiticity")):
        rho = good.rho.copy()
        rho[at] = np.nan
        (error,), _ = validate_stack(rho[None], (2, 2), _gibbs(good))
        assert error.constraint == constraint
        assert reference.validation_failure(QUBIT, QUBIT, rho, good.beta_c, good.beta_h) == constraint


# ---------------------------------------------------------------------------
# drawn states: parameters first, then one stack
# ---------------------------------------------------------------------------

def _assert_draws_equal_the_scalar_generators(seed, dims, **pattern):
    """``properties._draw`` against the reference's row-at-a-time draw: every state, angle, uniform
    and integer, each state also checked alone, and the generator state afterwards."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    rng.integers(0, 4)  # a 32-bit half waits in the stash: the first bounded integer drawn takes it
    ref_rng.integers(0, 4)
    groups = properties._draw(rng, dims, pattern.get("coherent", True), pattern.get("rotations", True))
    # what a property draws after the states, each column as one call
    tails = [rng.uniform(lo, hi, len(dims)) for lo, hi in pattern.get("uniforms", ())]
    ints = [rng.integers(0, hi or np.array(dims), len(dims)) for hi in pattern.get("integers", ())]
    want = reference.draw(ref_rng, list(dims), **pattern)
    assert rng.bit_generator.state == ref_rng.bit_generator.state  # the same candidates accepted, the same calls made
    assert sorted(k for g in groups for k in g.at) == list(range(len(dims)))
    for g in groups:
        st = g.st
        gibbs = states.gibbs_stack(st.levels_c, st.beta_c), states.gibbs_stack(st.levels_h, st.beta_h)
        for j, k in enumerate(g.at):
            sys, rots = want[k].sys, want[k].rots
            drawn = st.system(j)
            one = BipartiteSystem(drawn.spectrum_c, drawn.spectrum_h, drawn.rho, drawn.beta_c, drawn.beta_h)  # checked alone
            for name, got, alone, ref in zip(StateStack._fields, st.take(slice(j, j + 1)), one.stack, reference.eager_state_row(sys)):
                assert got.tobytes() == alone.tobytes() == ref.tobytes(), (seed, k, name)
            for side in (0, 1):
                assert gibbs[side][j].tobytes() == _gibbs(one)[side].tobytes() == _gibbs(sys)[side].tobytes(), (seed, k, side)
            assert (drawn.spectrum_c, drawn.beta_c, drawn.beta_h) == (sys.spectrum_c, sys.beta_c, sys.beta_h)
            assert reference.validation_failure(sys.spectrum_c, sys.spectrum_h, st.rho[j], sys.beta_c, sys.beta_h) is None
            if rots is not None:
                assert properties._rotation_list(g, j) == rots, (seed, k)
    assert [column.tobytes() for column in tails] == [np.array(values).tobytes() for values in zip(*(t.uniforms for t in want))]
    assert [column.tolist() for column in ints] == [list(values) for values in zip(*(t.integers for t in want))]


DRAWS = [(2, True), (2, False), (3, True), (3, False), (4, True), (8, True)]  # every qudit draw is coherent


@pytest.mark.parametrize("d, coherent", DRAWS)
def test_drawn_stacks_equal_the_scalar_generators_bit_for_bit(d, coherent):
    for n in (1, properties.STACK_TRIALS - 1, properties.STACK_TRIALS, properties.STACK_TRIALS + 1):
        for seed in (0, 3, 11) if d < 8 else (0,):
            for rotations in (False, True):
                _assert_draws_equal_the_scalar_generators(seed, [d] * n, coherent=coherent, rotations=rotations)


@pytest.mark.parametrize("d", [12, 16])
def test_drawn_qudit_stacks_at_d_12_and_16_equal_the_reference_bit_for_bit(d):
    for n in (1, 3):
        _assert_draws_equal_the_scalar_generators(0, [d] * n, rotations=n > 1)


PATTERNS = {  # the draw of each property, by the dimensions of a stack of n trials and what each trial draws after its state
    "mixed-2-3": (lambda rng, n: ([2, 3] * n)[:n], {}),
    "mixed-3-4": (lambda rng, n: ([3, 4] * n)[:n], {}),
    "picked-dims": (lambda rng, n: rng.integers(2, 5, n).tolist(), {}),  # unitarity: the stack's dimensions drawn first
    "closed-form-angles": (lambda rng, n: [2] * n, {"rotations": False, "uniforms": ((0.0, np.pi), (0.0, properties.TAU), (0.0, properties.TAU))}),
    "exchange-angle": (lambda rng, n: [2] * n, {"rotations": False, "uniforms": ((0.0, np.pi),)}),
    "incoherent-exchange-angle": (lambda rng, n: [2] * n, {"coherent": False, "rotations": False, "uniforms": ((0.0, np.pi),)}),
    "perturbed-xy": (lambda rng, n: [2] * n, {"rotations": False, "uniforms": ((100.0, 400.0), (0.0, 6e-3), (0.0, 60.0))}),
    "probe-targets": (lambda rng, n: ([2, 3] * n)[:n], {"integers": (None, None)}),
    "probe-index": (lambda rng, n: [2] * n, {"rotations": False, "integers": (4,)}),
    "probe-seed": (lambda rng, n: [2] * n, {"integers": (2**31,)}),
}


@pytest.mark.parametrize("name", PATTERNS)
def test_block_draws_of_every_pattern_equal_the_scalar_generators_bit_for_bit(name):
    dims, pattern = PATTERNS[name]
    for n in (1, properties.STACK_TRIALS - 1, properties.STACK_TRIALS, properties.STACK_TRIALS + 1):
        for seed in (0, 3):
            _assert_draws_equal_the_scalar_generators(seed, dims(np.random.default_rng(seed + 100), n), **pattern)


def test_the_first_diverged_trial_is_rerun_on_its_own_system_and_unitary():
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    groups = properties._draw(rng, [2, 3] * 4)
    want = reference.draw(ref_rng, [2, 3] * 4)
    diverged, seen = np.isin(np.arange(8), [3, 6]), []
    properties._raise_first(diverged, groups, lambda sys, u: seen.append((sys, u)))
    ((sys, u),) = seen  # trial 3: row 1 of the d = 3 group
    assert (sys.rho.tobytes(), u.matrix.tobytes()) == (want[3].sys.rho.tobytes(), want[3].u.matrix.tobytes())


def test_an_mt19937_generator_draws_a_checked_state():
    """The draw makes public ``Generator`` calls only, so a 32-bit bit generator draws as PCG64 does."""
    rng, ref_rng = np.random.Generator(np.random.MT19937(0)), np.random.Generator(np.random.MT19937(0))
    sys, u, rots = properties.random_system_and_unitary(rng, 3)
    (want,) = reference.draw(ref_rng, [3])
    assert (sys.rho.tobytes(), u.matrix.tobytes(), rots) == (want.sys.rho.tobytes(), want.u.matrix.tobytes(), want.rots)
    assert rng.integers(0, 2**40, 8).tolist() == ref_rng.integers(0, 2**40, 8).tolist()  # the streams go on alike
    assert reference.validation_failure(sys.spectrum_c, sys.spectrum_h, sys.rho, sys.beta_c, sys.beta_h) is None


def test_the_numpy_identities_the_block_draw_relies_on_hold():
    """The phase draw makes each candidate's uniforms, Boltzmann weights and
    coherences as arrays; the reference makes them one call at a time.
    Where an identity fails, numpy on this platform rounds some array path
    differently from its scalar one, and every drawn state would differ
    from the reference's in its last bits."""
    rng = np.random.default_rng(2024)
    for seed, (lo, hi) in enumerate(((0.1, 1.2), (-0.95, 0.95), (0.0, np.pi), (0.0, 2.0 * np.pi), (0.7, 1.3), (100.0, 400.0), (0.0, 6e-3))):
        one, block = np.random.default_rng(seed), np.random.default_rng(seed)
        scalar = np.array([one.uniform(lo, hi) for _ in range(2000)])
        assert scalar.tobytes() == properties._uniform(block.random(2000), lo, hi).tobytes(), f"Generator.uniform({lo}, {hi}) is not lo + (hi - lo) * random()"
    block, one = np.random.default_rng(1).random((300, 14)), np.random.default_rng(1)
    assert block.tobytes() == np.array([one.random(14) for _ in range(300)]).tobytes(), "random((m, k)) is not m random(k) calls"
    x, eta = rng.uniform(-40.0, 40.0, 5000), rng.uniform(-1.0, 1.0, 5000)
    for name, array, scalar in (
        ("np.exp", np.exp(x), [np.exp(v) for v in x.tolist()]),
        ("np.sqrt", np.sqrt(np.abs(x)), [np.sqrt(abs(v)) for v in x.tolist()]),
        ("complex np.exp", np.exp(1j * x), [np.exp(1j * v) for v in x.tolist()]),
        ("eta e^{i xi} sqrt(p)", eta * np.exp(1j * x) * np.sqrt(np.abs(x)), [e * np.exp(1j * v) * np.sqrt(abs(v)) for e, v in zip(eta.tolist(), x.tolist())]),
        ("np.angle", np.angle(np.exp(1j * x)), [float(np.angle(np.exp(1j * v))) for v in x.tolist()]),
        ("np.log of ints", np.log(np.arange(2, 300)), [np.log(v) for v in range(2, 300)]),  # strong-backflow-threshold's log(d)
    ):
        assert array.tobytes() == np.array(scalar).tobytes(), f"array {name} differs from scalar {name}"
    # kron-algebra draws its trials' normals as one block, and the probe reads
    # each outcome's 2 x 2 ancilla block of a stack in place
    block, one = np.random.default_rng(5).standard_normal((300, 36)), np.random.default_rng(5)
    assert block.tobytes() == np.array([one.standard_normal(36) for _ in range(300)]).tobytes(), "standard_normal((n, k)) is not n standard_normal(k) calls"
    evolved = rng.standard_normal((3, 10, 10)) + 1j * rng.standard_normal((3, 10, 10))  # (n, 2D, 2D) at D = 5
    blocks = evolved.reshape(3, 5, 2, 5, 2).diagonal(axis1=1, axis2=3).transpose(0, 3, 1, 2)
    for v in (np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0), np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)):
        rows, q = v.conj() @ blocks, ((v.conj() @ blocks)[..., None, :] @ v[:, None])[..., 0, 0]
        for k, f in np.ndindex(3, 5):
            flat = v.conj() @ evolved[k].reshape(5, 2, 5, 2)[f, :, f, :]
            assert rows[k, f].tobytes() == flat.tobytes(), "a stacked vector-matrix product over strided 2 x 2 views is not the 2-D product"
            assert q[k, f].tobytes() == (flat @ v).tobytes(), "(..., 1, 2) @ (2, 1) is not the 1-D @"


def test_a_failing_row_raises_its_first_failed_check_and_is_never_skipped():
    rng = np.random.default_rng(4)
    levels, _, beta_c, beta_h, populations, (a, b, values) = reference.entry_columns(
        properties._draw(rng, [3] * 12, rotations=False)[0].st, np.arange(12)
    )
    swollen = populations.copy()
    swollen[5] *= 1.01  # trace
    loose = values.copy()
    loose[9, 0] /= abs(loose[9, 0])  # |rho_ab| = 1: psd

    def rows(pops, coherences, k=slice(None)):  # the entry_stack arguments of rows k
        return levels[k], levels[k], beta_c[k], beta_h[k], pops[k], (a, b, coherences[k])

    for pops, constraint in ((swollen, "trace"), (populations, "psd")):
        errors, _ = states.entry_stack(*rows(pops, loose))  # each row's first failure, none raised
        failed = {5: "trace", 9: "psd"} if constraint == "trace" else {9: "psd"}
        assert [error and error.constraint for error in errors] == [failed.get(k) for k in range(12)]
        with pytest.raises(InfeasibleStateError) as err:
            states.valid_stack(states.entry_stack(*rows(pops, loose)))
        assert err.value.constraint == constraint
        bad = 5 if constraint == "trace" else 9
        with pytest.raises(InfeasibleStateError) as alone:
            states.valid_stack(states.entry_stack(*rows(pops, loose, [bad])))
        assert alone.value.constraint == constraint
        rho = np.diag(pops[bad].astype(complex))
        for i, j, v in zip(a, b, loose[bad]):
            rho[i, j], rho[j, i] = v, np.conj(v)
        spec = states.EnergySpectrum(tuple(levels[bad].tolist()))
        assert reference.validation_failure(spec, spec, rho, beta_c[bad].item(), beta_h[bad].item()) == constraint


# ---------------------------------------------------------------------------
# unitaries
# ---------------------------------------------------------------------------

def test_a_report_holds_its_stack_and_a_table_reads_it():
    spec = EnergySpectrum((0.0, 1.0, 2.7))
    rots = [dynamics.ManifoldRotation((0, 1), 0.4), dynamics.ManifoldRotation((1, 2), 1.1)]
    u = dynamics.energy_preserving_unitary(spec, rots)
    assert np.shares_memory(u.stack.matrix, u.matrix)
    assert u.stack.commutator_norm[0] == u.commutator_norm and u.stack.epsilon is None
    direct = dynamics.UnitaryReport(np.array(u.matrix), u.commutator_norm)
    assert direct.stack.matrix.tobytes() == u.stack.matrix.tobytes()
    assert direct.stack.adjoint.tobytes() == u.stack.adjoint.tobytes()
    sys = properties.random_system_and_unitary(np.random.default_rng(1), 2)[0]
    _, matrix, adjoint = fluctuations._one_cell(sys, u)
    assert matrix is u.stack.matrix and adjoint is u.stack.adjoint


@pytest.mark.parametrize("d", [2, 3, 4])
def test_average_heat_and_marginal_check_equal_the_scalar_reference_bit_for_bit(d):
    rng = np.random.default_rng(60 + d)
    for _ in range(5):
        sys, u, _ = properties.random_system_and_unitary(rng, d)
        for unitary in (u, np.array(u.matrix)):  # a report, and a bare matrix
            assert repr(fluctuations.average_heat(sys, unitary)) == repr(reference.average_heat(sys, unitary))
            for table in (fluctuations.mh_distribution(sys, u), fluctuations.tpm_distribution(sys, u)):
                for dephased in (None, True, False):
                    got = fluctuations.marginal_check(table, sys, unitary, dephased)
                    assert repr(got) == repr(reference.marginal_check(table, sys, unitary, dephased))
        deph = states.dephase(sys)
        energies = (np.asarray(sys.spectrum_c.levels)[:, None] + np.asarray(sys.spectrum_h.levels)[None, :]).reshape(-1)
        want = np.where(np.abs(energies[:, None] - energies[None, :]) <= states.DEGENERACY_TOL, sys.rho, 0.0)
        assert deph.rho.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# nonnegative instances for the soundness properties
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_nonneg_instances_scale_only_the_coherences_of_negative_draws(d):
    rng, twin = np.random.default_rng(70 + d), np.random.default_rng(70 + d)
    n = 24
    ((at, st, u),) = properties._nonneg_instance(rng, [d] * n)
    ((_, drawn, u_drawn),) = properties._groups(properties._draw(twin, [d] * n))
    assert rng.bit_generator.state == twin.bit_generator.state  # one draw per instance
    assert list(at) == list(range(n)) and u.matrix.tobytes() == u_drawn.matrix.tobytes()
    kept = fluctuations.table_stack("MH", drawn, u.matrix, u.adjoint).reshape(n, -1).min(axis=-1) >= 0.0
    mh = fluctuations.table_stack("MH", st, u.matrix, u.adjoint).reshape(n, -1)
    assert (mh.min(axis=-1) >= 0.0).all()
    assert (np.where(mh > 0.0, mh, np.inf)[~kept].min(axis=-1) < 1e-8).all()  # a scaled table sits at the edge
    assert st.rho[kept].tobytes() == drawn.rho[kept].tobytes()
    assert st.populations.tobytes() == drawn.populations.tobytes()  # so the marginals and the TPM table stay
    off = ~np.eye(d * d, dtype=bool)
    scales = []
    for k in np.flatnonzero(~kept):
        top = np.argmax(np.abs(drawn.rho[k][off]))
        s = (st.rho[k][off][top] / drawn.rho[k][off][top]).real
        assert 0.0 < s < 1.0  # scaled, and not dephased
        np.testing.assert_allclose(st.rho[k][off], s * drawn.rho[k][off], rtol=1e-12, atol=0.0)
        scales.append(s)
    assert len(scales) > 0 and (d > 3 or kept.any())  # both kinds of draw; a nonnegative one is rare past d = 3
    assert np.median([1.0] * int(kept.sum()) + scales) > 0.01


def test_witness_soundness_counts_every_applicable_witness(monkeypatch):
    monkeypatch.setattr(witnesses, "VIOLATION_MARGIN", -np.inf)  # every applicable witness fires
    # all seven at d = 2 (T2 at eps = 0), five at d = 3: no T1 or T2
    assert properties.PROPERTIES["witness-soundness"](np.random.default_rng(0), 20)[:2] == (120, 7.0)
    rng = np.random.default_rng(0)
    assert [list(properties._soundness_trials(rng, 10, d)[0]) for d in (2, 3)] == [[7] * 10, [5] * 10]


@pytest.mark.parametrize("margin", [-np.inf, -1e-3, 1e-3])
def test_nonideal_soundness_counts_equal_the_scalar_path_per_instance(monkeypatch, margin):
    monkeypatch.setattr(witnesses, "VIOLATION_MARGIN", margin)  # so that T2 and T3-nonideal fire
    seen = 0
    for seed in (0, 1):
        for n in (1, 7, properties.STACK_TRIALS + 3):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = properties._nonideal_soundness_trials(rng, n)[0]
            want = reference.nonideal_soundness_counts(ref_rng, n)
            assert got.tolist() == want
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            seen += sum(want)
    if margin == -np.inf:
        assert seen > 0


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------

STACKED = [name for name, prop in properties.PROPERTIES.items() if hasattr(prop, "trials")]
WHOLE = {  # stacked without the per-trial form: (rng, n) -> (failures, max_dev, note)
    "table-norm-range": reference.prop_table_norm_range,
    "t1-strong-flow": reference.prop_t1_violation_implies_strong_flow,
    "tpm-no-backflow": reference.prop_tpm_no_backflow,
    "witness-soundness-nonideal": reference.prop_witness_soundness_nonideal,
    "all-negative-direction": reference.prop_all_negative_direction,
    "probe-sampling": reference.prop_probe_sampling,
}


@pytest.mark.parametrize("name", STACKED)
@pytest.mark.parametrize("n", [1, 2, 9, 2 * properties.STACK_TRIALS + 3])
def test_stacked_trials_equal_the_trial_by_trial_path_bit_for_bit(name, n):
    for seed in (0, 3):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        dev, bad = properties.PROPERTIES[name].trials(rng, n)
        want = reference.trial_by_trial(name, ref_rng, n)
        assert [repr(float(x)) for x in dev] == [repr(float(d)) for d, _ in want]
        assert [int(x) for x in bad] == [int(b) for _, b in want]
        assert rng.bit_generator.state == ref_rng.bit_generator.state  # the same draws, in order


@pytest.mark.parametrize("name", WHOLE)
@pytest.mark.parametrize("n", [1, 2, 9, 2 * properties.STACK_TRIALS + 3])
def test_stacked_properties_equal_the_trial_by_trial_path(name, n):
    for seed in (0, 3):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = properties.PROPERTIES[name](rng, n), WHOLE[name](ref_rng, n)
        assert (got[0], repr(float(got[1])), got[2]) == (want[0], repr(float(want[1])), want[2])
        assert rng.bit_generator.state == ref_rng.bit_generator.state


# (trials, failures, repr(max_dev)) of each property at (seed, --trials): a
# change to how the suite draws or evaluates its trials must not move them.
# (0, 500) is the benchmark's own run: ``qheatflow check --seed 0 --trials 500``
PINNED = {
    'kron-algebra': {(0, 500): (500, 0, '7.119291619286993e-15'), (0, 37): (37, 0, '3.66205343881779e-15'), (0, 1): (1, 0, '6.280369834735101e-16'), (3, 37): (37, 0, '3.66205343881779e-15'), (3, 1): (1, 0, '9.930136612989092e-16'), (7, 37): (37, 0, '2.5121479338940403e-15'), (7, 1): (1, 0, '1.9860273225978185e-15')},
    'partial-ops': {(0, 500): (500, 0, '2.5121479338940403e-15'), (0, 37): (37, 0, '1.831026719408895e-15'), (0, 1): (1, 0, '9.155133597044475e-16'), (3, 37): (37, 0, '1.9860273225978185e-15'), (3, 1): (1, 0, '1.8041124150158794e-16'), (7, 37): (37, 0, '3.552713678800501e-15'), (7, 1): (1, 0, '8.95090418262362e-16')},
    'unitarity': {(0, 500): (500, 0, '9.652674990707984e-16'), (0, 37): (37, 0, '9.796243851643118e-16'), (0, 1): (1, 0, '4.577566798522237e-16'), (3, 37): (37, 0, '9.123451461219917e-16'), (3, 1): (1, 0, '5.551115123125782e-16'), (7, 37): (37, 0, '6.78158481431228e-16'), (7, 1): (1, 0, '2.220479930051231e-16')},
    'state-validity': {(0, 500): (500, 0, '4.440892098500626e-16'), (0, 37): (37, 0, '2.220446049250313e-16'), (0, 1): (1, 0, '5.551115123125783e-17'), (3, 37): (37, 0, '2.220446049250313e-16'), (3, 1): (1, 0, '0.0'), (7, 37): (37, 0, '2.220446049250313e-16'), (7, 1): (1, 0, '8.326672684688674e-17')},
    'dephase': {(0, 500): (500, 0, '0.0'), (0, 37): (37, 0, '0.0'), (0, 1): (1, 0, '0.0'), (3, 37): (37, 0, '0.0'), (3, 1): (1, 0, '0.0'), (7, 37): (37, 0, '0.0'), (7, 1): (1, 0, '0.0')},
    'mh-marginals': {(0, 500): (500, 0, '1.6653345369377348e-16'), (0, 37): (37, 0, '1.1102230246251565e-16'), (0, 1): (1, 0, '1.1102230246251565e-16'), (3, 37): (37, 0, '1.1102230246251565e-16'), (3, 1): (1, 0, '5.551115123125783e-17'), (7, 37): (37, 0, '1.1102230246251565e-16'), (7, 1): (1, 0, '2.7755575615628914e-17')},
    'table-norm-range': {(0, 500): (500, 0, '4.440892098500626e-16'), (0, 37): (37, 0, '2.220446049250313e-16'), (0, 1): (1, 0, '0.0'), (3, 37): (37, 0, '2.220446049250313e-16'), (3, 1): (1, 0, '0.0'), (7, 37): (37, 0, '3.3306690738754696e-16'), (7, 1): (1, 0, '0.0')},
    'heat-identities': {(0, 500): (500, 0, '2.7755575615628914e-16'), (0, 37): (37, 0, '1.3877787807814457e-16'), (0, 1): (1, 0, '5.204170427930421e-17'), (3, 37): (37, 0, '1.6306400674181987e-16'), (3, 1): (1, 0, '8.326672684688674e-17'), (7, 37): (37, 0, '1.6653345369377348e-16'), (7, 1): (1, 0, '2.7755575615628914e-17')},
    'mh-tpm-dephased': {(0, 500): (500, 0, '1.1102230246251565e-16'), (0, 37): (37, 0, '8.326672684688674e-17'), (0, 1): (1, 0, '2.7755575615628914e-17'), (3, 37): (37, 0, '1.1102230246251565e-16'), (3, 1): (1, 0, '2.7755575615628914e-17'), (7, 37): (37, 0, '1.1102230246251565e-16'), (7, 1): (1, 0, '5.551115123125783e-17')},
    'two-qubit-closed-forms': {(0, 500): (500, 0, '2.498001805406602e-16'), (0, 37): (37, 0, '1.6653345369377348e-16'), (0, 1): (1, 0, '2.7755575615628914e-17'), (3, 37): (37, 0, '2.7755575615628914e-16'), (3, 1): (1, 0, '5.551115123125783e-17'), (7, 37): (37, 0, '2.0816681711721685e-16'), (7, 1): (1, 0, '2.7755575615628914e-17')},
    'qudit-closed-forms': {(0, 500): (150, 0, '1.1102230246251565e-16'), (0, 37): (11, 0, '5.551115123125783e-17'), (0, 1): (1, 0, '1.3877787807814457e-17'), (3, 37): (11, 0, '3.469446951953614e-17'), (3, 1): (1, 0, '2.0816681711721685e-17'), (7, 37): (11, 0, '2.7755575615628914e-17'), (7, 1): (1, 0, '1.3877787807814457e-17')},
    'xft-identity': {(0, 500): (300, 0, '7.216449660063518e-16'), (0, 37): (22, 0, '4.579669976578771e-16'), (0, 1): (1, 0, '9.302454639925628e-17'), (3, 37): (22, 0, '3.157196726277789e-16'), (3, 1): (1, 0, '2.0122792321330962e-16'), (7, 37): (22, 0, '2.7755575615628914e-16'), (7, 1): (1, 0, '9.020562075079397e-17')},
    'j-identity': {(0, 500): (500, 0, '4.440892098500626e-16'), (0, 37): (37, 0, '4.440892098500626e-16'), (0, 1): (1, 0, '0.0'), (3, 37): (37, 0, '4.440892098500626e-16'), (3, 1): (1, 0, '1.1102230246251565e-16'), (7, 37): (37, 0, '4.440892098500626e-16'), (7, 1): (1, 0, '0.0')},
    'witness-soundness': {(0, 500): (250, 0, '0.0'), (0, 37): (18, 0, '0.0'), (0, 1): (1, 0, '0.0'), (3, 37): (18, 0, '0.0'), (3, 1): (1, 0, '0.0'), (7, 37): (18, 0, '0.0'), (7, 1): (1, 0, '0.0')},
    'witness-soundness-nonideal': {(0, 500): (100, 0, '0.0'), (0, 37): (7, 0, '0.0'), (0, 1): (1, 0, '0.0'), (3, 37): (7, 0, '0.0'), (3, 1): (1, 0, '0.0'), (7, 37): (7, 0, '0.0'), (7, 1): (1, 0, '0.0')},
    't1-strong-flow': {(0, 500): (500, 0, '49.0'), (0, 37): (37, 0, '5.0'), (0, 1): (1, 0, '0.0'), (3, 37): (37, 0, '4.0'), (3, 1): (1, 0, '0.0'), (7, 37): (37, 0, '3.0'), (7, 1): (1, 0, '0.0')},
    'tpm-no-backflow': {(0, 500): (500, 0, '-6.419015886435809e-08'), (0, 37): (37, 0, '-2.6671184284186173e-05'), (0, 1): (1, 0, '-0.025302372349894107'), (3, 37): (37, 0, '-2.4051054249058025e-06'), (3, 1): (1, 0, '-0.006243833074276911'), (7, 37): (37, 0, '-5.158220200528549e-05'), (7, 1): (1, 0, '-0.12030871037613568')},
    'all-negative-direction': {(0, 500): (150, 0, '150.0'), (0, 37): (11, 0, '11.0'), (0, 1): (1, 0, '1.0'), (3, 37): (11, 0, '11.0'), (3, 1): (1, 0, '1.0'), (7, 37): (11, 0, '11.0'), (7, 1): (1, 0, '1.0')},
    'delta-q-max': {(0, 500): (150, 0, '3.3306690738754696e-16'), (0, 37): (11, 0, '2.220446049250313e-16'), (0, 1): (1, 0, '8.326672684688674e-17'), (3, 37): (11, 0, '1.249000902703301e-16'), (3, 1): (1, 0, '5.551115123125783e-17'), (7, 37): (11, 0, '2.220446049250313e-16'), (7, 1): (1, 0, '5.551115123125783e-17')},
    'probe-exactness': {(0, 500): (100, 0, '4.440892098500626e-16'), (0, 37): (7, 0, '1.6653345369377348e-16'), (0, 1): (1, 0, '1.1102230246251565e-16'), (3, 37): (7, 0, '2.220446049250313e-16'), (3, 1): (1, 0, '1.942890293094024e-16'), (7, 37): (7, 0, '2.220446049250313e-16'), (7, 1): (1, 0, '1.1102230246251565e-16')},
    'probe-disturbance': {(0, 500): (500, 0, '0.00016165619891943841'), (0, 37): (37, 0, '0.00018066682191766287'), (0, 1): (1, 0, '5.170221244637994e-06'), (3, 37): (37, 0, '0.00019120396676380237'), (3, 1): (1, 0, '6.938893903907228e-18'), (7, 37): (37, 0, '0.00015007682880854018'), (7, 1): (1, 0, '2.7755575615628914e-17')},
    'probe-sampling': {(0, 500): (20, 0, '2.8415658005008715'), (0, 37): (1, 0, '1.3645895569775774'), (0, 1): (1, 0, '1.3645895569775774'), (3, 37): (1, 0, '1.4709657979386332'), (3, 1): (1, 0, '1.4709657979386332'), (7, 37): (1, 0, '1.5031189902647848'), (7, 1): (1, 0, '1.5031189902647848')},
    'p00-bounds': {(0, 500): (500, 0, '2.7755575615628914e-17'), (0, 37): (37, 0, '2.7755575615628914e-17'), (0, 1): (1, 0, '0.0'), (3, 37): (37, 0, '1.3877787807814457e-17'), (3, 1): (1, 0, '0.0'), (7, 37): (37, 0, '1.3877787807814457e-17'), (7, 1): (1, 0, '1.3877787807814457e-17')},
    'strong-backflow-threshold': {(0, 500): (500, 0, '0.0'), (0, 37): (37, 0, '0.0'), (0, 1): (1, 0, '0.0'), (3, 37): (37, 0, '0.0'), (3, 1): (1, 0, '0.0'), (7, 37): (37, 0, '0.0'), (7, 1): (1, 0, '0.0')},
}


@pytest.mark.parametrize("seed", [0, 3, 7])
@pytest.mark.parametrize("trials", [37, 1])
def test_each_propertys_result_is_pinned(seed, trials):
    for r in properties.run_property_suite(seed=seed, n_trials=trials, names=list(PINNED)):
        assert (r.trials, r.failures, repr(r.max_dev)) == PINNED[r.name][(seed, trials)], r.name


def test_the_benchmarks_own_run_is_pinned():
    for r in properties.run_property_suite(seed=0, n_trials=500):
        assert (r.trials, r.failures, repr(r.max_dev)) == PINNED[r.name][(0, 500)], r.name


def test_no_property_builds_or_checks_a_system_per_trial(monkeypatch):
    """A 500-trial suite checks its states in stacks: no one-state constructor
    call and no ``BipartiteSystem`` check; ``p00-bounds`` builds its probes,
    out-of-bounds ones among them, in one ``two_qubit_rows`` call per stack."""
    calls = {"one state": 0, "BipartiteSystem": 0, "random": 0, "two_qubit_rows": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("two_qubit_state", "gamma_correlated_state", "two_qutrit_state", "qudit_locally_thermal"):
        monkeypatch.setattr(states, name, counted("one state", getattr(states, name)))
    monkeypatch.setattr(states, "two_qubit_rows", counted("two_qubit_rows", states.two_qubit_rows))
    monkeypatch.setattr(BipartiteSystem, "__post_init__", counted("BipartiteSystem", BipartiteSystem.__post_init__))
    for name in ("random_two_qubit_system", "random_two_qutrit_system", "random_qudit_system", "random_system_and_unitary"):
        monkeypatch.setattr(properties, name, counted("random", getattr(properties, name)))
    results = properties.run_property_suite(seed=7, n_trials=500)
    assert all(r.passed for r in results) and len(results) == len(properties.PROPERTIES)
    assert calls == {"one state": 0, "BipartiteSystem": 0, "random": 0, "two_qubit_rows": -(-500 // properties.STACK_TRIALS)}


def test_a_qudit_draw_at_d_12_and_16_is_checked_and_bohr_nondegenerate():
    for d in (12, 16):
        for seed in range(12):
            sys = properties.random_qudit_system(np.random.default_rng(seed), d)
            assert sys.dims == (d, d) and sys.stack.bohr_nondegenerate[0] and sys.spectrum_c.bohr_nondegenerate(1e-3)
            assert reference.validation_failure(sys.spectrum_c, sys.spectrum_h, sys.rho, sys.beta_c, sys.beta_h) is None
            assert sys.populations().min() >= properties.QUDIT_MIN_POPULATION


def test_a_qudit_draw_past_d_16_raises_and_leaves_the_stream_alone():
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    for draw in (lambda: properties.random_qudit_system(rng, 17), lambda: properties._draw(rng, [4, 1, 17, 18])):
        with pytest.raises(ValueError) as err:
            draw()
        assert "d = " in str(err.value) and rng.bit_generator.state == before
    assert str(err.value) == "no state is drawn at local dimension d = 1: the draw covers d = 2 to 16"


@pytest.mark.parametrize("d", range(4, 17))
def test_a_ruler_draw_has_distinct_level_differences_and_every_population_over_the_floor(d):
    """Above d = 3 every candidate is accepted: its levels are a scaled Golomb ruler and its jitter
    cannot move a solved population under the floor, so a stack is drawn in one round."""
    marks = states.RULERS[d]
    differences = [b - a for k, a in enumerate(marks) for b in marks[k + 1:]]
    assert len(marks) == d and len(set(differences)) == len(differences)
    rng = np.random.default_rng(d)
    accepted, levels, _, _, populations, _, _ = properties._candidates(rng.random((200, reference.candidate_size(d))), d, True)
    assert accepted.all() and populations.min() >= properties.QUDIT_MIN_POPULATION
    assert np.all(states.bohr_nondegenerate(levels, 1e-3))
    st = properties._draw(rng, [d] * 3, rotations=False)[0].st
    assert st.bohr_nondegenerate.all() and st.populations.min() >= properties.QUDIT_MIN_POPULATION


def test_a_stack_rows_system_is_the_checked_systems_bit_for_bit():
    rng = np.random.default_rng(5)
    drawn = properties._draw(rng, [3] * 3, rotations=False)[0].st
    st = states.valid_stack(states.entry_stack(*reference.entry_columns(drawn, np.arange(3))))
    for k in range(3):
        got, want = st.system(k), reference.checked_system(drawn, k)
        assert (got.spectrum_c, got.spectrum_h, got.beta_c, got.beta_h) == (want.spectrum_c, want.spectrum_h, want.beta_c, want.beta_h)
        assert got.rho.tobytes() == want.rho.tobytes() and not got.rho.flags.writeable
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got.stack, want.stack))
    assert st.rho.flags.writeable  # the stack's own rows stay as they were


def test_the_suite_repeats_in_one_process_and_a_subset_matches_the_full_run():
    first = properties.run_property_suite(seed=3, n_trials=8)
    assert properties.run_property_suite(seed=3, n_trials=8) == first
    by_name = {r.name: r for r in first}
    subset = ["xft-identity", "dephase", "kron-algebra"]
    assert properties.run_property_suite(seed=3, n_trials=8, names=subset) == [by_name[n] for n in subset]


@pytest.mark.parametrize(
    "selection, message",
    [(",", "no properties selected"), ("", "no properties selected"),
     ("dephase,dephase", "properties listed twice: ['dephase']"),
     ("dephase, kron-algebra ,dephase", "properties listed twice: ['dephase']")],
)
def test_empty_or_repeated_selection_exits_1(selection, message, capsys):
    assert cli_main(["check", "--trials", "2", "--properties", selection]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
    with pytest.raises(ValueError, match=re.escape(message)):
        properties.run_property_suite(n_trials=2, names=[s.strip() for s in selection.split(",") if s.strip()])


def test_an_unknown_property_exits_1_naming_the_valid_ones(capsys):
    assert cli_main(["check", "--trials", "2", "--properties", "dephase,no-such"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: unknown properties: ['no-such']; valid: {', '.join(properties.PROPERTIES)}\n"
    assert captured.out == ""


def test_the_cli_imports_the_property_suite_only_to_run_it():
    code = "import sys, qheatflow.cli; print('qheatflow.properties' in sys.modules)"
    src = str(Path(properties.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out == "False\n"


@pytest.mark.parametrize("name,column", [("dephase", None), *(("table-norm-range", k) for k in range(5))])
def test_a_nan_deviation_fails_its_trial(monkeypatch, capsys, name, column):
    # every bound holds except that one trial's kernel returns nan: a stacked
    # property's deviation, or one of table-norm-range's five per-trial values
    def values(n):
        x = np.zeros(n)
        x[n // 2] = np.nan
        return x

    if column is None:
        monkeypatch.setattr(properties.PROPERTIES[name], "trials", lambda rng, n: (values(n), np.zeros(n, bool)))
    else:
        monkeypatch.setattr(properties, "_table_norm_trials", lambda rng, n: [values(n) if k == column else np.zeros(n) for k in range(5)])
    assert cli_main(["check", "--trials", "4", "--properties", name]) == 3
    out = capsys.readouterr().out
    assert out.startswith(f"[FAIL] {name}: trials=4 failures=1 max_dev=0 ")
    assert out.endswith("FAILED: 1 properties, 1 failures\n")
