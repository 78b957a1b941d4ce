"""Toolkit for metrics that combine mass transport with density norms.

Modules:
    measures     grid densities, point clouds, curve generators
    gridio       file formats for grids, fields, trajectories
    transport    exact finite-q transport distances and oracles
    bottleneck   exact bottleneck (sup-displacement) distance and oracles
    plmetric     the composite transport + L^p metric and metric derivatives
    functionals  discrete total variation, isoperimetric and Sobolev ratios
    mms          minimizing-movement scheme for the isoperimetric ratio
    dynamics     continuity-equation residuals, solvers, reconstructions
    instances    reference instances with closed-form answers
    cli          batch command-line front end
"""

from .errors import InfeasibleError, InputError, PlqpError
from .measures import (
    DiscreteMeasure,
    GridDensity,
    GridSpec,
    MollifierConfig,
    Trajectory,
    VelocityField,
    dilate_curve,
    grid_to_atoms,
    make_multiball,
    make_ramp_ball,
    mollify,
    translate_curve,
)
from .transport import (
    Coupling,
    TransportResult,
    TransportStats,
    monotone_1d,
    wq,
    wq_many,
    wq_permutation_oracle,
)
from .bottleneck import (
    BottleneckResult,
    BottleneckStats,
    RadialMeasure,
    winf,
    winf_grid,
    winf_many,
    winf_permutation_oracle,
    winf_radial,
)
from .plmetric import DerivativeEstimate, PLMetricParams, dqp, lp_norm_diff, metric_derivative
from .functionals import FunctionalValue, isop, isop_multiball_formula, sobolev_ratio, tv
from .mms import (
    DiscreteSolution,
    GridSearchFamily,
    RadialFamily,
    ResolventProblem,
    StepPartition,
    resolvent,
    run_scheme,
)
from .dynamics import (
    BBReport,
    PathEnsemble,
    ResidualReport,
    TraceReport,
    action_minimize,
    bb_verify,
    continuity_residual,
    evolve,
    reconstruct_velocity,
    trace_characteristics,
)

__version__ = "0.1.0"
