"""Numerical laboratory for null-controllability of a degenerate
parabolic equation on a periodic strip.

The operator under study degenerates at the inner radius with a power
weight; everything downstream (spectra, weighted energy inequalities,
observability constants, control synthesis, observation from measurable
sets) is built so that each claimed estimate is checked against an
independent route.
"""

from .errors import ConfigError, InvariantError, NonConvergenceError
from .model import (Field2D, Model, ModelConfig, ModeCoeffs, ModeIndex,
                    RadialGrid, RadialOperator, assemble_radial_operator,
                    build_model, build_radial_grid, coeffs_inner, mode_set,
                    project_modes, synthesize_field, zero_coeffs)
from .spectral import (HardyReport, RadialSpectrum, bessel_oracle,
                       hardy_ratio, radial_spectrum)
from .evolution import (TimeGrid, evolve_mode, solve_adjoint, solve_forward,
                        time_grid_for)
from .carleman import (CarlemanReport, CarlemanWeights, EtaWeight,
                       ThetaBoundReport, build_carleman_weights, build_eta,
                       carleman_report, s0_default, verify_theta_bounds)
from .observability import (ObservabilityEstimate, TorusGram,
                            mode_observability_constant,
                            torus_smallest_gram_eigenvalue,
                            truncated_observability)
from .control import (Cylinder, HUMResult, LRResult, apply_control_gramian,
                      hum_control, lr_control)
from .measurable import (BoxUnionSet, DatumRecord, DensitySequence,
                         DerivativeBoundReport, ExtendedField,
                         MeasurableReport, SlabReport, SpectralPropagator,
                         TimeSliceSet, build_time_slices, choose_q,
                         datum_family, density_point_of, density_sequence,
                         derivative_bound_report, extended_field,
                         measurable_observability_ratio,
                         slab_interpolation_report)

__version__ = "0.1.0"

__all__ = [
    "BoxUnionSet", "CarlemanReport", "CarlemanWeights",
    "ConfigError", "Cylinder", "DatumRecord",
    "DensitySequence", "DerivativeBoundReport", "EtaWeight", "ExtendedField",
    "Field2D", "HUMResult", "HardyReport", "InvariantError", "LRResult",
    "MeasurableReport", "Model", "ModelConfig", "ModeCoeffs", "ModeIndex",
    "NonConvergenceError", "ObservabilityEstimate", "RadialGrid",
    "RadialOperator", "RadialSpectrum", "SlabReport", "SpectralPropagator",
    "ThetaBoundReport", "TimeGrid", "TimeSliceSet", "TorusGram",
    "apply_control_gramian", "assemble_radial_operator", "bessel_oracle",
    "build_carleman_weights", "build_eta", "build_model", "build_radial_grid",
    "build_time_slices", "carleman_report", "choose_q", "coeffs_inner",
    "verify_theta_bounds",
    "datum_family", "density_point_of", "density_sequence",
    "derivative_bound_report", "evolve_mode", "extended_field",
    "hardy_ratio", "hum_control", "lr_control",
    "measurable_observability_ratio", "mode_observability_constant",
    "mode_set", "project_modes", "radial_spectrum", "s0_default",
    "slab_interpolation_report", "solve_adjoint", "solve_forward",
    "synthesize_field", "time_grid_for",
    "torus_smallest_gram_eigenvalue", "truncated_observability",
    "zero_coeffs",
]
