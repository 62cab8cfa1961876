"""boostdyn: transient and steady-state prediction for non-ideal Boost
DC-DC converters, with closed-form models, numerical oracles, error
metrics and parameter-space analysis.

The package root holds what a caller needs to describe a converter, solve
an event in closed form, run the oracles and explore the design space;
every other name stays importable from its own module."""

from .circuit import ConverterParams, ResponseMetrics, StepEvent, StepKind, Waveform
from .steady import steady_output
from .oracle import energy_audit, simulate_averaged, simulate_switched
from .analysis import (
    SweepAxis,
    closed_form,
    closed_form_metrics,
    compare_models,
    scenario_predict,
    steepest_descent,
    sweep,
)

__version__ = "0.1.0"
