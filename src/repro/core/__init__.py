"""The paper's contribution: the application I/O abstract model.

Pipeline: trace (``repro.tracer``) -> local access patterns (``lap``)
-> I/O phases (``phases``) -> model (``model``) -> IOR replication
(``replication``) -> time/usage/error estimation (``estimate``) -- with
``pipeline`` wiring the stages and ``patterns`` exporting the spatial /
temporal global access patterns of the paper's figures.
"""

from . import cache
from .estimate import (
    ClusterFactory,
    ConfigurationChoice,
    EstimateReport,
    MeasureReport,
    PhaseEstimate,
    PhaseMeasurement,
    absolute_error,
    estimate_model,
    estimate_phase,
    measure_phases,
    peak_bandwidth,
    relative_error,
    select_configuration,
    system_usage,
    time_error_pct,
)
from .lap import LAPEntry, LAPOp, expand_entry, extract_laps
from .model import IOModel, models_equivalent
from .offsetfn import OffsetFunction, fit_offsets
from .patterns import (
    PatternPoint,
    ascii_plot,
    global_access_pattern,
    spatial_pattern,
    temporal_pattern,
    to_csv,
)
from .phases import (
    DEFAULT_TICK_TOL,
    Phase,
    PhaseOp,
    file_groups_from_metadata,
    identify_phases,
    merge_adjacent_phases,
)
from .pipeline import (
    Evaluation,
    EvaluationRow,
    characterize_app,
    characterize_peaks_for,
    estimate_on,
    evaluate,
    full_study,
    measure_on,
)
from .replayer import ReplayResult, estimate_phase_replayed, replay_phase
from .sweep import sweep_map
from .replication import (
    PhaseReplication,
    STEADY_STATE_MIN_BLOCK,
    replicate_model,
    replication_for_phase,
)
from .rescale import RescaleError, rescale_model
from .validate import Finding, ValidationReport, audit, validate_model
from .synthesis import (
    SynthesisError,
    replay_model,
    synthesize_program,
)
from .signatures import (
    PhaseSignature,
    classify_model,
    classify_phase,
    dominant_signature,
    signature_histogram,
    similarity,
)

__all__ = [
    "ClusterFactory",
    "cache",
    "sweep_map",
    "ConfigurationChoice",
    "DEFAULT_TICK_TOL",
    "EstimateReport",
    "Evaluation",
    "EvaluationRow",
    "IOModel",
    "LAPEntry",
    "LAPOp",
    "MeasureReport",
    "OffsetFunction",
    "PatternPoint",
    "Phase",
    "PhaseEstimate",
    "PhaseMeasurement",
    "PhaseOp",
    "PhaseReplication",
    "PhaseSignature",
    "ReplayResult",
    "RescaleError",
    "STEADY_STATE_MIN_BLOCK",
    "absolute_error",
    "classify_model",
    "classify_phase",
    "ascii_plot",
    "characterize_app",
    "characterize_peaks_for",
    "estimate_model",
    "estimate_on",
    "estimate_phase",
    "evaluate",
    "expand_entry",
    "extract_laps",
    "file_groups_from_metadata",
    "fit_offsets",
    "full_study",
    "global_access_pattern",
    "identify_phases",
    "measure_on",
    "measure_phases",
    "merge_adjacent_phases",
    "models_equivalent",
    "peak_bandwidth",
    "relative_error",
    "time_error_pct",
    "dominant_signature",
    "estimate_phase_replayed",
    "replay_phase",
    "replicate_model",
    "replication_for_phase",
    "rescale_model",
    "signature_histogram",
    "similarity",
    "Finding",
    "SynthesisError",
    "ValidationReport",
    "audit",
    "replay_model",
    "synthesize_program",
    "validate_model",
    "select_configuration",
    "spatial_pattern",
    "system_usage",
    "temporal_pattern",
    "to_csv",
]
