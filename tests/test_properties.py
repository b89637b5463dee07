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
    (state,) = reference.exchange_states(properties._draw(np.random.default_rng(5), [2]).groups[0].st)  # the state of _systems()[0]
    errors, stacked = states.exchange_stack([state] * 3)
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

def _reference_draws(rng, dims, coherent=True, rotations=True, uniforms=(), integers=()):
    """(system, rotations or None, uniforms, integers) of each trial, drawn
    by the reference generators one attempt at a time in ``_draw``'s order."""
    out = []
    for spec in dims:
        d = spec if isinstance(spec, int) else int(rng.integers(*spec))
        sys = reference.random_system(rng, d, coherent)
        rots = reference.random_rotations(rng, sys.spectrum_c) if rotations else None
        tail = [rng.uniform(lo, hi) for lo, hi in uniforms]
        out.append((sys, rots, tail, [int(rng.integers(0, hi or d)) for hi in integers]))
    return out


def _assert_draws_equal_the_scalar_generators(seed, dims, **pattern):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    rng.integers(0, 4)  # a 32-bit half waits in the stash: the first bounded integer of a trial takes it
    ref_rng.integers(0, 4)
    draws, want = properties._draw(rng, dims, **pattern), _reference_draws(ref_rng, dims, **pattern)
    assert rng.bit_generator.state == ref_rng.bit_generator.state  # the same attempts accepted, the same words used
    assert sorted(k for g in draws.groups for k in g.at) == list(range(len(dims)))
    for g in draws.groups:
        st = g.st
        gibbs = states.gibbs_stack(st.levels_c, st.beta_c), states.gibbs_stack(st.levels_h, st.beta_h)
        for j, k in enumerate(g.at):
            sys, rots, _, _ = want[k]
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
    for column, values in zip(draws.uniforms, zip(*(tail for _, _, tail, _ in want))):
        assert column.tobytes() == np.array(values).tobytes()
    assert draws.integers.tolist() == [ints for _, _, _, ints in want]


DRAWS = [(2, True), (2, False), (3, True), (3, False), (4, True), (8, True)]  # every qudit draw is coherent


@pytest.mark.parametrize("d, coherent", DRAWS)
def test_drawn_stacks_equal_the_scalar_generators_bit_for_bit(d, coherent):
    for n in (1, properties.STACK_TRIALS - 1, properties.STACK_TRIALS, properties.STACK_TRIALS + 1):
        for seed in (0, 3, 11) if d < 8 else (0,):
            for rotations in (False, True):
                _assert_draws_equal_the_scalar_generators(seed, [d] * n, coherent=coherent, rotations=rotations)


PATTERNS = {  # the draw of each property, by the dimensions of its n trials and what each trial draws after its state
    "mixed-2-3": (lambda n: ([2, 3] * n)[:n], {}),
    "mixed-3-4": (lambda n: ([3, 4] * n)[:n], {}),
    "picked-dims": (lambda n: [(2, 5)] * n, {}),  # unitarity: d = rng.integers(2, 5) first
    "closed-form-angles": (lambda n: [2] * n, {"rotations": False, "uniforms": ((0.0, np.pi), (0.0, properties.TAU), (0.0, properties.TAU))}),
    "exchange-angle": (lambda n: [2] * n, {"rotations": False, "uniforms": ((0.0, np.pi),)}),
    "incoherent-exchange-angle": (lambda n: [2] * n, {"coherent": False, "rotations": False, "uniforms": ((0.0, np.pi),)}),
    "perturbed-xy": (lambda n: [2] * n, {"rotations": False, "uniforms": ((100.0, 400.0), (0.0, 6e-3), (0.0, 60.0))}),
    "probe-targets": (lambda n: ([2, 3] * n)[:n], {"integers": (None, None)}),
    "probe-index": (lambda n: [2] * n, {"rotations": False, "integers": (4,)}),
    "probe-seed": (lambda n: [2] * n, {"integers": (2**31,)}),
}


@pytest.mark.parametrize("name", PATTERNS)
def test_block_draws_of_every_pattern_equal_the_scalar_generators_bit_for_bit(name):
    dims, pattern = PATTERNS[name]
    for n in (1, properties.STACK_TRIALS - 1, properties.STACK_TRIALS, properties.STACK_TRIALS + 1):
        for seed in (0, 3):
            _assert_draws_equal_the_scalar_generators(seed, dims(n), **pattern)


@pytest.mark.parametrize("hi", [2, 3, 4, 5, 2**31, 3 * 2**30, 2**32 - 1])
def test_a_bounded_integer_takes_numpys_words_and_stash(hi):
    """``_integer`` against ``rng.integers(0, hi)``, doubles drawn between:
    hi = 3 * 2**30 redraws a quarter of its halves, 2**32 - 1 all but none."""
    rng, twin = np.random.default_rng(hi), np.random.default_rng(hi)
    state = twin.bit_generator.state
    words, i, stash = twin.bit_generator.random_raw(4000), 0, (state["has_uint32"], state["uinteger"])
    for k in range(1000):
        if k % 3 == 0:  # a double between: one word, the stash left as it is
            rng.random()
            i += 1
        value, i, stash = properties._integer(words, i, stash, 0, hi)
        assert value == rng.integers(0, hi), k
    replay = np.random.default_rng(hi).bit_generator
    replay.random_raw(i)
    assert rng.bit_generator.state == {**replay.state, "has_uint32": stash[0], "uinteger": stash[1]}


def test_the_first_diverged_trial_is_rerun_on_its_own_system_and_unitary():
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    draws = properties._draw(rng, [2, 3] * 4)
    want = [reference.random_system_and_unitary(ref_rng, d) for d in [2, 3] * 4]
    diverged, seen = np.isin(np.arange(8), [3, 6]), []
    properties._raise_first(diverged, draws, lambda sys, u: seen.append((sys, u)))
    ((sys, u),) = seen  # trial 3: row 1 of the d = 3 group
    assert (sys.rho.tobytes(), u.matrix.tobytes()) == (want[3][0].rho.tobytes(), want[3][1].matrix.tobytes())


def test_a_32_bit_generator_is_refused():
    with pytest.raises(TypeError, match="MT19937"):
        properties._draw(np.random.Generator(np.random.MT19937(0)), [2])


def test_the_numpy_identities_the_block_draw_relies_on_hold():
    """The block draw makes each attempt's uniforms, Boltzmann weights and
    coherences as arrays; the scalar generators made them one call at a
    time.  Where an identity fails, numpy on this platform rounds some array
    path differently from its scalar one, and every drawn state would
    differ from the scalar generators' in its last bits."""
    rng = np.random.default_rng(2024)
    for seed, (lo, hi) in enumerate(((0.1, 1.2), (-0.95, 0.95), (0.0, np.pi), (0.0, 2.0 * np.pi), (0.7, 1.3), (100.0, 400.0), (0.0, 6e-3))):
        one, block = np.random.default_rng(seed), np.random.default_rng(seed)
        scalar = np.array([one.uniform(lo, hi) for _ in range(2000)])
        assert scalar.tobytes() == properties._uniform(block.random(2000), lo, hi).tobytes(), f"Generator.uniform({lo}, {hi}) is not lo + (hi - lo) * random()"
    raw, twin = np.random.default_rng(1).bit_generator.random_raw(2000), np.random.default_rng(1)
    assert properties._doubles(raw).tobytes() == twin.random(2000).tobytes(), "random() is not the top 53 bits of a 64-bit word"
    x, eta = rng.uniform(-40.0, 40.0, 5000), rng.uniform(-1.0, 1.0, 5000)
    for name, array, scalar in (
        ("np.exp", np.exp(x), [np.exp(v) for v in x.tolist()]),
        ("np.sqrt", np.sqrt(np.abs(x)), [np.sqrt(abs(v)) for v in x.tolist()]),
        ("complex np.exp", np.exp(1j * x), [np.exp(1j * v) for v in x.tolist()]),
        ("eta e^{i xi} sqrt(p)", eta * np.exp(1j * x) * np.sqrt(np.abs(x)), [e * np.exp(1j * v) * np.sqrt(abs(v)) for e, v in zip(eta.tolist(), x.tolist())]),
        ("np.angle", np.angle(np.exp(1j * x)), [float(np.angle(np.exp(1j * v))) for v in x.tolist()]),
    ):
        assert array.tobytes() == np.array(scalar).tobytes(), f"array {name} differs from scalar {name}"


def test_a_failing_row_raises_its_first_failed_check_and_is_never_skipped():
    rng = np.random.default_rng(4)
    drawn = reference.exchange_states(properties._draw(rng, [3] * 12, rotations=False).groups[0].st)
    swollen = drawn[5]._replace(populations=drawn[5].populations * 1.01)  # trace
    a, b, value = drawn[9].coherences[0]
    loose = drawn[9]._replace(coherences=[(a, b, value / abs(value)), *drawn[9].coherences[1:]])  # |rho_ab| = 1: psd
    for rows, constraint in (([*drawn[:5], swollen, *drawn[6:9], loose, *drawn[10:]], "trace"), ([*drawn[:9], loose, *drawn[10:]], "psd")):
        errors, _ = states.exchange_stack(rows)  # each row's first failure, none raised
        failed = {5: "trace", 9: "psd"} if constraint == "trace" else {9: "psd"}
        assert [error and error.constraint for error in errors] == [failed.get(k) for k in range(12)]
        with pytest.raises(InfeasibleStateError) as err:
            states.valid_stack(states.exchange_stack(rows))
        assert err.value.constraint == constraint
        bad = rows[5] if constraint == "trace" else rows[9]
        with pytest.raises(InfeasibleStateError) as alone:
            states.exchange_system(bad)
        assert alone.value.constraint == constraint
        rho = np.diag(bad.populations.astype(complex))
        for i, j, v in bad.coherences:
            rho[i, j], rho[j, i] = v, np.conj(v)
        assert reference.validation_failure(bad.spectrum_c, bad.spectrum_h, rho, bad.beta_c, bad.beta_h) == constraint


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
            want = [reference.prop_witness_soundness_nonideal(ref_rng, 1)[0] for _ in range(n)]
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
    one = getattr(reference, "prop_" + name.replace("-", "_"))
    for seed in (0, 3):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        dev, bad = properties.PROPERTIES[name].trials(rng, n)
        want = [one(ref_rng, k) for k in range(n)]
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
# change to how the suite draws or evaluates its trials must not move them
PINNED = {
    'kron-algebra': {(0, 37): (37, 0, '3.66205343881779e-15'), (0, 1): (1, 0, '6.280369834735101e-16'), (3, 37): (37, 0, '3.66205343881779e-15'), (3, 1): (1, 0, '9.930136612989092e-16'), (7, 37): (37, 0, '2.5121479338940403e-15'), (7, 1): (1, 0, '1.9860273225978185e-15')},
    'partial-ops': {(0, 37): (37, 0, '1.831026719408895e-15'), (0, 1): (1, 0, '9.155133597044475e-16'), (3, 37): (37, 0, '1.9860273225978185e-15'), (3, 1): (1, 0, '1.8041124150158794e-16'), (7, 37): (37, 0, '3.552713678800501e-15'), (7, 1): (1, 0, '8.95090418262362e-16')},
    'unitarity': {(0, 37): (37, 0, '7.800410757982074e-16'), (0, 1): (1, 0, '4.577566798522237e-16'), (3, 37): (37, 0, '6.866350197783356e-16'), (3, 1): (1, 0, '3.7572684881917124e-16'), (7, 37): (37, 0, '7.224329682229049e-16'), (7, 1): (1, 0, '2.220479930051231e-16')},
    'state-validity': {(0, 37): (37, 0, '2.220446049250313e-16'), (0, 1): (1, 0, '5.551115123125783e-17'), (3, 37): (37, 0, '2.220446049250313e-16'), (3, 1): (1, 0, '0.0'), (7, 37): (37, 0, '2.220446049250313e-16'), (7, 1): (1, 0, '8.326672684688674e-17')},
    'dephase': {(0, 37): (37, 0, '0.0'), (0, 1): (1, 0, '0.0'), (3, 37): (37, 0, '0.0'), (3, 1): (1, 0, '0.0'), (7, 37): (37, 0, '0.0'), (7, 1): (1, 0, '0.0')},
    'mh-marginals': {(0, 37): (37, 0, '1.1102230246251565e-16'), (0, 1): (1, 0, '1.1102230246251565e-16'), (3, 37): (37, 0, '1.1102230246251565e-16'), (3, 1): (1, 0, '5.551115123125783e-17'), (7, 37): (37, 0, '8.326672684688674e-17'), (7, 1): (1, 0, '2.7755575615628914e-17')},
    'table-norm-range': {(0, 37): (37, 0, '2.220446049250313e-16'), (0, 1): (1, 0, '0.0'), (3, 37): (37, 0, '2.220446049250313e-16'), (3, 1): (1, 0, '0.0'), (7, 37): (37, 0, '2.220446049250313e-16'), (7, 1): (1, 0, '0.0')},
    'heat-identities': {(0, 37): (37, 0, '1.6653345369377348e-16'), (0, 1): (1, 0, '5.204170427930421e-17'), (3, 37): (37, 0, '2.220446049250313e-16'), (3, 1): (1, 0, '8.326672684688674e-17'), (7, 37): (37, 0, '1.942890293094024e-16'), (7, 1): (1, 0, '2.7755575615628914e-17')},
    'mh-tpm-dephased': {(0, 37): (37, 0, '8.326672684688674e-17'), (0, 1): (1, 0, '2.7755575615628914e-17'), (3, 37): (37, 0, '1.1102230246251565e-16'), (3, 1): (1, 0, '2.7755575615628914e-17'), (7, 37): (37, 0, '8.326672684688674e-17'), (7, 1): (1, 0, '5.551115123125783e-17')},
    'two-qubit-closed-forms': {(0, 37): (37, 0, '1.1102230246251565e-16'), (0, 1): (1, 0, '2.7755575615628914e-17'), (3, 37): (37, 0, '1.6653345369377348e-16'), (3, 1): (1, 0, '5.551115123125783e-17'), (7, 37): (37, 0, '1.249000902703301e-16'), (7, 1): (1, 0, '2.7755575615628914e-17')},
    'qudit-closed-forms': {(0, 37): (11, 0, '5.551115123125783e-17'), (0, 1): (1, 0, '1.3877787807814457e-17'), (3, 37): (11, 0, '5.551115123125783e-17'), (3, 1): (1, 0, '2.0816681711721685e-17'), (7, 37): (11, 0, '5.551115123125783e-17'), (7, 1): (1, 0, '1.3877787807814457e-17')},
    'xft-identity': {(0, 37): (22, 0, '3.469446951953614e-16'), (0, 1): (1, 0, '9.302454639925628e-17'), (3, 37): (22, 0, '3.191891195797325e-16'), (3, 1): (1, 0, '2.0122792321330962e-16'), (7, 37): (22, 0, '4.891920202254596e-16'), (7, 1): (1, 0, '9.020562075079397e-17')},
    'j-identity': {(0, 37): (37, 0, '4.440892098500626e-16'), (0, 1): (1, 0, '0.0'), (3, 37): (37, 0, '4.440892098500626e-16'), (3, 1): (1, 0, '1.1102230246251565e-16'), (7, 37): (37, 0, '4.440892098500626e-16'), (7, 1): (1, 0, '0.0')},
    'witness-soundness': {(0, 37): (18, 0, '0.0'), (0, 1): (1, 0, '0.0'), (3, 37): (18, 0, '0.0'), (3, 1): (1, 0, '0.0'), (7, 37): (18, 0, '0.0'), (7, 1): (1, 0, '0.0')},
    'witness-soundness-nonideal': {(0, 37): (7, 0, '0.0'), (0, 1): (1, 0, '0.0'), (3, 37): (7, 0, '0.0'), (3, 1): (1, 0, '0.0'), (7, 37): (7, 0, '0.0'), (7, 1): (1, 0, '0.0')},
    't1-strong-flow': {(0, 37): (37, 0, '5.0'), (0, 1): (1, 0, '0.0'), (3, 37): (37, 0, '1.0'), (3, 1): (1, 0, '0.0'), (7, 37): (37, 0, '2.0'), (7, 1): (1, 0, '0.0')},
    'tpm-no-backflow': {(0, 37): (37, 0, '-0.00010864518653141552'), (0, 1): (1, 0, '-0.025302372349894107'), (3, 37): (37, 0, '-0.00011044971079457417'), (3, 1): (1, 0, '-0.006243833074276911'), (7, 37): (37, 0, '-1.9493632419046993e-05'), (7, 1): (1, 0, '-0.12030871037613568')},
    'all-negative-direction': {(0, 37): (11, 0, '11.0'), (0, 1): (1, 0, '1.0'), (3, 37): (11, 0, '11.0'), (3, 1): (1, 0, '1.0'), (7, 37): (11, 0, '11.0'), (7, 1): (1, 0, '1.0')},
    'delta-q-max': {(0, 37): (11, 0, '2.220446049250313e-16'), (0, 1): (1, 0, '8.326672684688674e-17'), (3, 37): (11, 0, '1.249000902703301e-16'), (3, 1): (1, 0, '5.551115123125783e-17'), (7, 37): (11, 0, '2.220446049250313e-16'), (7, 1): (1, 0, '5.551115123125783e-17')},
    'probe-exactness': {(0, 37): (7, 0, '3.3306690738754696e-16'), (0, 1): (1, 0, '1.1102230246251565e-16'), (3, 37): (7, 0, '2.498001805406602e-16'), (3, 1): (1, 0, '1.942890293094024e-16'), (7, 37): (7, 0, '3.3306690738754696e-16'), (7, 1): (1, 0, '1.1102230246251565e-16')},
    'probe-disturbance': {(0, 37): (37, 0, '0.00016062238070795675'), (0, 1): (1, 0, '5.170221244637994e-06'), (3, 37): (37, 0, '0.00013805793945778088'), (3, 1): (1, 0, '6.938893903907228e-18'), (7, 37): (37, 0, '0.00014273614597236375'), (7, 1): (1, 0, '2.7755575615628914e-17')},
    'probe-sampling': {(0, 37): (1, 0, '1.3645895569775774'), (0, 1): (1, 0, '1.3645895569775774'), (3, 37): (1, 0, '1.4709657979386332'), (3, 1): (1, 0, '1.4709657979386332'), (7, 37): (1, 0, '1.5031189902647848'), (7, 1): (1, 0, '1.5031189902647848')},
    'p00-bounds': {(0, 37): (37, 0, '2.7755575615628914e-17'), (0, 1): (1, 0, '0.0'), (3, 37): (37, 0, '2.7755575615628914e-17'), (3, 1): (1, 0, '0.0'), (7, 37): (37, 0, '5.551115123125783e-17'), (7, 1): (1, 0, '1.3877787807814457e-17')},
    'strong-backflow-threshold': {(0, 37): (37, 0, '0.0'), (0, 1): (1, 0, '0.0'), (3, 37): (37, 0, '0.0'), (3, 1): (1, 0, '0.0'), (7, 37): (37, 0, '0.0'), (7, 1): (1, 0, '0.0')},
}


@pytest.mark.parametrize("seed", [0, 3, 7])
@pytest.mark.parametrize("trials", [37, 1])
def test_each_propertys_result_is_pinned(seed, trials):
    for r in properties.run_property_suite(seed=seed, n_trials=trials, names=list(PINNED)):
        assert (r.trials, r.failures, repr(r.max_dev)) == PINNED[r.name][(seed, trials)], r.name


def test_no_property_builds_or_checks_a_system_per_trial(monkeypatch):
    """A 500-trial suite checks its states in stacks: no ``exchange_system``
    call and no ``BipartiteSystem`` check; ``p00-bounds``' out-of-bounds probes
    raise on their parameters, before any system is built."""
    calls = {"exchange_system": 0, "BipartiteSystem": 0, "random": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(states, "exchange_system", counted("exchange_system", states.exchange_system))
    monkeypatch.setattr(BipartiteSystem, "__post_init__", counted("BipartiteSystem", BipartiteSystem.__post_init__))
    for name in ("random_two_qubit_system", "random_two_qutrit_system", "random_qudit_system", "random_system_and_unitary"):
        monkeypatch.setattr(properties, name, counted("random", getattr(properties, name)))
    results = properties.run_property_suite(seed=7, n_trials=500)
    assert all(r.passed for r in results) and len(results) == len(properties.PROPERTIES)
    assert calls == {"exchange_system": 0, "BipartiteSystem": 0, "random": 0}


def test_a_stack_rows_system_is_the_checked_systems_bit_for_bit():
    rng = np.random.default_rng(5)
    drawn = reference.exchange_states(properties._draw(rng, [3] * 3, rotations=False).groups[0].st)
    st = states.valid_stack(states.exchange_stack(drawn))
    for k, state in enumerate(drawn):
        got, want = st.system(k), states.exchange_system(state)
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
