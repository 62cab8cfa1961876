"""boostdyn: transient and steady-state prediction for non-ideal Boost
DC-DC converters, with closed-form models, numerical oracles, error
metrics and parameter-space analysis."""

from .circuit import (
    ConverterParams,
    ResponseMetrics,
    StepEvent,
    StepKind,
    Waveform,
    validate_params,
)
from .steady import ideal_steady_output, steady_inductor_current, steady_output
from .ebm import (
    OdeCoefficients,
    SecondOrderForm,
    ebm_metrics,
    ebm_response,
    initial_slope_for_load_step,
    inductor_peak_current,
    load_step_form,
    ode_coefficients,
    startup_form,
    to_standard_form,
)
from .tfm_line import (
    SecondOrderTF,
    line_peak_time,
    line_peak_voltage,
    line_step_response,
    line_tf_coefficients,
)
from .tfm_load import (
    ExpModeSum,
    QuarticTF,
    invert_quartic_tf,
    load_metrics,
    load_response,
    load_tf_corrected,
    load_tf_raw,
)
from .refmodel import fr_step_response, fr_tf
from .oracle import (
    EnergyBreakdown,
    SwitchedTrace,
    energy_audit,
    integrate_second_order,
    simulate_averaged,
    simulate_switched,
)
from .analysis import (
    ComparisonTable,
    DescentPath,
    SweepAxis,
    SweepGrid,
    compare_models,
    error_percent,
    extract_metrics,
    rmse,
    scenario_predict,
    steepest_descent,
    sweep,
)

__version__ = "0.1.0"
