"""Adaptive fixed-point amplitude amplification.

Generate the per-step phase schedule that drives a start state onto a
target state with certainty, simulate it on one qubit or over 2^nb basis
states, and check its limit behavior (uniform-stepping saturation and the
continuum decay flow).
"""

from .asymptotics import (
    ContinuumTrace,
    SaturationReport,
    fit_tail_rate,
    integrate_continuum,
    mu_of_g,
    saturation_analysis,
    verify_saturation,
)
from .qubit_sim import ErrTrace, run_afga_qubit, run_grover_qubit
from .schedule import (
    AfgaParams,
    ConvergenceError,
    ScheduleRow,
    alpha,
    arc_rj_sprime,
    build_schedule,
    dbar_gamma,
    iter_angles,
    steps_to_tolerance,
)
from .search_sim import (
    SearchState,
    SearchTrace,
    apply_sprime_phase,
    apply_target_phase,
    init_uniform,
    run_afga_search,
)

__version__ = "0.1.0"

__all__ = [
    "AfgaParams",
    "ScheduleRow",
    "ConvergenceError",
    "arc_rj_sprime",
    "dbar_gamma",
    "alpha",
    "iter_angles",
    "build_schedule",
    "steps_to_tolerance",
    "ErrTrace",
    "run_afga_qubit",
    "run_grover_qubit",
    "SearchState",
    "SearchTrace",
    "init_uniform",
    "apply_target_phase",
    "apply_sprime_phase",
    "run_afga_search",
    "SaturationReport",
    "ContinuumTrace",
    "saturation_analysis",
    "verify_saturation",
    "mu_of_g",
    "integrate_continuum",
    "fit_tail_rate",
    "__version__",
]
