"""Coulomb-gauge orbit geometry and stochastic reduction on periodic lattices.

Desk-scale numerics for an abelian gauge potential coupled to a two-component
scalar: exact lattice gauge fixing (projectors, gauge-fixing Green function,
adapted coordinates), the geometry of gauge orbits (orbit metric, mechanical
connection, curvature drifts, reduction Jacobian), Ito integration of the
original and reduced dynamics, potential-weighted Monte Carlo expectations,
and a grid backward-equation oracle for validating them.
"""

__version__ = "0.1.0"

from .lattice import Lattice, LatticeSpec, MAX_DENSE_SITES, flat
from .gauge import (AdaptedCoords, FaddeevPopov, FieldPair, faddeev_popov,
                    from_adapted, gauge_transform, killing_doublet_matrix,
                    killing_vector, potential, rotate, solve_gauge_parameter,
                    to_adapted, transverse_projector)
from .orbit import (HorizontalMetric, JacobianReport, OrbitGeometry, OrbitMetric,
                    SingularOrbitMetric, apply_N_f, horizontal_metric, orbit_metric,
                    reduced_drift, scalar_drift)
from .sde import (EXPONENT_GUARD, SINGULARITY_FLOOR, FKEstimate, SDEConfig,
                  feynman_kac, girsanov_check, path_rng,
                  reduced_batch_diagnostics, weak_convergence_estimates,
                  worker_count)
from .kolmogorov import (GridPDE, Verdict, build_generator, compare,
                         discretization_budget, evolve, solve_value, value_at)
