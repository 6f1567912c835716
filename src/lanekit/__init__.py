"""Lane-change extraction, criticality metrics, and scenario sampling."""

from .criticality import (
    CriticalityRecord,
    Encounter,
    KinState,
    Thresholds,
    critical_records,
    direction_stats,
    encounter,
    euclidean_distance,
    most_critical,
    thw,
    ttce_dce,
)
from .detection import (
    Direction,
    EventKind,
    LaneChangeEvent,
    PeakParams,
    classify_double,
    detect_distance,
    detect_gradient,
    detect_peak,
    find_peaks,
    peak_width,
    rel_height_from_widths,
)
from .mis import (
    FrontBrakeInjection,
    MISConfig,
    MISEvalReport,
    MISScenario,
    engagement_check,
    plan_decel,
    run_closed_loop,
)
from .robustness import (
    Perturbation,
    RobustnessReport,
    inject_bias,
    inject_brownian,
    sweep,
)
from .stats import BoxSummary, box_summary, event_stats
from .synth import SyntheticCorpus, generate_corpus
from .trajectory import (
    ContinuousLateral,
    LaneLayout,
    Trajectory,
    VehicleClass,
    VehicleShape,
    continuous_lateral,
    derivative,
    lowpass,
    resample,
)
from .wiedemann import (
    CFState,
    SampledScenarioSet,
    ScenarioSpec,
    W99Params,
    sample_cc1,
    simulate,
    w99_accel,
)

__version__ = "0.1.0"
