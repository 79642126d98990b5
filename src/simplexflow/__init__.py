"""Constrained decoding dynamics on the probability simplex.

The names below are loaded from their submodules on first use (PEP 562), so
that importing one submodule, such as the CLI, loads no other.
"""

import importlib

#: each re-exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        (
            "ConfigError",
            "DegenerateFaceError",
            "InteriorityError",
            "InvalidInputError",
            "OracleFailureError",
            "SimplexFlowError",
            "SupportMismatchError",
            "UnsupportedIdentityError",
        ),
        "exceptions",
    ),
    **dict.fromkeys(
        (
            "FaceMask",
            "FreeEnergyReport",
            "ScoreVector",
            "SimplexPoint",
            "build_face_nucleus",
            "build_face_topk",
            "embed_in_face",
            "entropy",
            "free_energy",
            "kl_divergence",
            "log_partition",
            "log_softmax",
            "restrict_to_face",
            "softmax",
            "softmax_jacobian",
        ),
        "simplex",
    ),
    **dict.fromkeys(
        (
            "AscentCertificate",
            "MirrorStepKind",
            "ascent_certificate",
            "exact_prox_step",
            "iterate",
            "printed_mw_step",
        ),
        "mirror",
    ),
    **dict.fromkeys(
        (
            "ConstantSchedule",
            "EulerConsistencyReport",
            "ExponentialSchedule",
            "FieldKind",
            "IntegratorControls",
            "LyapunovReport",
            "PiecewiseConstantSchedule",
            "check_time_reparameterization",
            "effective_time",
            "euler_consistency",
            "eval_field",
            "integrate",
            "lyapunov_report",
            "parse_schedule",
        ),
        "replicator",
    ),
    **dict.fromkeys(
        (
            "LockinReport",
            "RecurrenceReport",
            "ScoreField",
            "constant_field",
            "curl_magnitude",
            "detect_recurrence",
            "eval_path_field",
            "find_multibasin_coupling",
            "find_recurrent_beta",
            "generalized_free_energy",
            "integrate_path",
            "integrate_paths",
            "is_conservative",
            "linear_field",
            "lockin_probe",
            "rotation_coupling",
        ),
        "path_fields",
    ),
    **dict.fromkeys(
        (
            "ClaimVerdict",
            "closed_form_entropic",
            "closed_form_literal",
            "equilibrium_residual",
            "fd_gradient",
            "fd_jacobian",
            "prox_objective_maximizer",
            "rk4_flow",
            "run_adjudication",
        ),
        "oracles",
    ),
    **dict.fromkeys(("TerminalStatus", "TrajectoryRecord", "TrajectorySample"), "trajectory"),
}

__version__ = "0.1.0"
__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *_EXPORTS})
