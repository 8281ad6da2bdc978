"""Covariance-matrix criteria for quantum network states."""

from .linalg import (
    SubsystemLayout,
    partial_trace,
    permute_subsystems,
    psd_project,
    trace_norm,
)
from .ncmx import read_matrix, write_matrix
from .states import (
    DensityOperator,
    NoisyPureState,
    bell_pair,
    btn_assemble,
    cluster4_state,
    dicke_state,
    ghz_state,
    maximally_mixed,
    mix_white_noise,
    network_layout,
    network_state,
    pure_state,
    split_nodes,
    w_state,
)
from .observables import (
    ObservableSet,
    full_product_set,
    named_observable_set,
    orthogonal_basis,
)
from .covariance import (
    BlockCovarianceMatrix,
    covariance_matrix,
    load_cm,
    save_cm,
)
from .topology import NetworkTopology, line_topology, triangle_topology
from .criteria import (
    BtnDecomposition,
    CriterionReport,
    WhiteNoiseScan,
    btn_cm_residual,
    btn_decompose,
    ghz_fidelity_bound,
    trace_norm_criterion,
    xi_matrix,
    xi_report,
)
from .feasibility import (
    FeasibilityOutcome,
    FeasibilityProblem,
    InfeasibilityCertificate,
    solve,
    verify_certificate,
    verify_witness,
)

__version__ = "0.1.0"
