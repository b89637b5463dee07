"""Heat-fluctuation quasiprobabilities and heat-flow witnesses.

Simulates energy exchange between two small quantum systems with locally
thermal states, computes the two-point-measurement (TPM) and
Margenau-Hill quasiprobability transition tables of the exchanged heat,
and evaluates heat-flow inequalities whose violation certifies that some
quasiprobability is negative.

Conventions used throughout:
  * joint basis is C-major: |i_C i_H>  <->  index i_C * d_H + i_H;
  * k = hbar = 1, local spectra start at E_0 = 0;
  * heat sign: Q > 0 is backflow (energy moving from C to H).
"""

from __future__ import annotations

__version__ = "0.1.0"

from .linalg import (
    kron,
    partial_trace,
    partial_transpose,
    hermitian_eigenvalues,
    spectral_norm,
    matrix_exp,
)
from .states import (
    EnergySpectrum,
    BipartiteSystem,
    TwoQubitParams,
    QutritStateParams,
    InfeasibleStateError,
    thermal_state,
    thermal_populations,
    two_qubit_state,
    gamma_correlated_state,
    two_qutrit_state,
    qudit_locally_thermal,
    dephase,
    min_partial_transpose_eigenvalue,
)
from .dynamics import (
    ManifoldRotation,
    UnitaryReport,
    two_qubit_exchange_unitary,
    energy_preserving_unitary,
    xy_exchange_unitary,
    perturbed_xy_unitary,
    commutator_norm,
)
from .fluctuations import (
    TransitionTable,
    HeatReport,
    XftReport,
    HeatExpCorrection,
    DivergenceError,
    tpm_distribution,
    mh_distribution,
    marginal_check,
    average_heat,
    table_heat,
    flow_decomposition,
    exchange_heat_shift,
    exchange_manifold_pw,
    exchange_manifold_tpm,
    xft_coherence_term,
    xft_average,
    heat_exp_correction,
    max_heat_coherence_shift,
    two_qubit_heat,
    two_qubit_tpm_heat,
    two_qubit_exchange_probs,
)
from .witnesses import (
    WitnessVerdict,
    two_qubit_flow_witness,
    nonideal_flow_witness,
    xft_flow_witness,
    correlation_flow_witness,
    tpm_band_witness,
    strong_backflow_witness,
)
from .probe import (
    ProbeOutcomeStats,
    SampledReconstruction,
    probe_statistics,
    reconstruct_quasiprobability,
    sampled_reconstruction,
)
