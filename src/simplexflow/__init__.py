"""Constrained decoding dynamics on the probability simplex."""

from .exceptions import (
    ConfigError,
    DegenerateFaceError,
    InteriorityError,
    InvalidInputError,
    OracleFailureError,
    SimplexFlowError,
    SupportMismatchError,
    UnsupportedIdentityError,
)
from .simplex import (
    FaceMask,
    FreeEnergyReport,
    ScoreVector,
    SimplexPoint,
    build_face_nucleus,
    build_face_topk,
    embed_in_face,
    entropy,
    free_energy,
    kl_divergence,
    log_partition,
    log_softmax,
    restrict_to_face,
    softmax,
    softmax_jacobian,
)
from .mirror import (
    AscentCertificate,
    MirrorStepKind,
    ascent_certificate,
    exact_prox_step,
    iterate,
    printed_mw_step,
)
from .replicator import (
    ConstantSchedule,
    EulerConsistencyReport,
    ExponentialSchedule,
    FieldKind,
    IntegratorControls,
    LyapunovReport,
    PiecewiseConstantSchedule,
    check_time_reparameterization,
    effective_time,
    euler_consistency,
    eval_field,
    integrate,
    lyapunov_report,
    parse_schedule,
)
from .path_fields import (
    LockinReport,
    RecurrenceReport,
    ScoreField,
    constant_field,
    curl_magnitude,
    detect_recurrence,
    eval_path_field,
    find_multibasin_coupling,
    find_recurrent_beta,
    generalized_free_energy,
    integrate_path,
    integrate_paths,
    is_conservative,
    linear_field,
    lockin_probe,
    rotation_coupling,
)
from .oracles import (
    ClaimVerdict,
    closed_form_entropic,
    closed_form_literal,
    equilibrium_residual,
    fd_gradient,
    fd_jacobian,
    prox_objective_maximizer,
    rk4_flow,
    run_adjudication,
)
from .trajectory import TerminalStatus, TrajectoryRecord, TrajectorySample

__version__ = "0.1.0"
