"""Coulomb-gauge orbit geometry and stochastic reduction on periodic lattices.

Desk-scale numerics for an abelian gauge potential coupled to a two-component
scalar: exact lattice gauge fixing (projectors, gauge-fixing Green function,
adapted coordinates), the geometry of gauge orbits (orbit metric, mechanical
connection, curvature drifts, reduction Jacobian), Ito integration of the
original and reduced dynamics, potential-weighted Monte Carlo expectations,
and a dense backward-equation oracle for validating them.
"""

__version__ = "0.1.0"

from .lattice import Lattice, LatticeSpec, MAX_DENSE_SITES, flat, unflat
from .gauge import (JBAR, AdaptedCoords, FaddeevPopov, FieldPair,
                    faddeev_popov, from_adapted, gauge_transform,
                    killing_doublet_matrix, killing_vector, potential,
                    projector_N, rotate, solve_gauge_parameter, to_adapted,
                    transverse_projector)
from .orbit import (HorizontalMetric, JacobianReport, MechanicalConnection,
                    OrbitGeometry, OrbitMetric, SingularOrbitMetric,
                    effective_potential, horizontal_metric, horizontal_project,
                    orbit_metric, reduced_drift, reduction_jacobian)
from .sde import (EXPONENT_GUARD, SINGULARITY_FLOOR, FKEstimate, SDEConfig,
                  feynman_kac, girsanov_check, path_rng,
                  reduced_batch_diagnostics, weak_convergence_estimates,
                  worker_count)
from .kolmogorov import (GridPDE, Verdict, build_generator, compare,
                         discretization_budget, evolve, heat_value,
                         mehler_value, solve_value, value_at)
