"""Geometry of the cone over the circle and unbalanced transport on densities.

The package connects four views of the same metric structure: the cone
over the circle in mass coordinates, a semidirect-product group of circle
diffeomorphisms and gauge factors, a family of dispersionless shallow
water equations whose solutions are geodesics of that group, and the
dynamic Wasserstein-Fisher-Rao distance on nonnegative densities obtained
by Riemannian submersion.
"""
from .cone import (APEX_FLOOR, ApexError, ConeGeodesic, ConeParams,
                   ConePoint, ConeTangent, chart_validity_sector,
                   cone_distance, cone_geodesic, cone_metric,
                   cone_sectional_curvature, planar_chart,
                   planar_chart_inverse)
from .grid import PeriodicGrid, bump_density, circle_distance, wrap
from .group import (DensityField, GroupElement, VelocityPair, adjoint_action,
                    compose, cone_l2_energy, embed_diffeo, group_exponential,
                    hdiv_energy, identity, infinitesimal_action, inverse,
                    lie_bracket, pushforward_action)
from .ch import (CHBlowupError, CHTrajectory, FlowPath, ch_invariants, ch_rhs,
                 ch_solve, flow_map)
from .euler import (AnnulusGrid, EulerResidualReport, FormConsistencyReport,
                    MeasureReport, PolarVectorField, euler_residual,
                    geodesic_form_consistency, lagrangian_measure_check,
                    madelung, polar_velocity, pressure_from_state,
                    weighted_divergence)
from .submersion import (IIResult, LiftResult, MinimalityReport, SplitResult,
                         gauss_codazzi_sectional, hessian_certificate,
                         horizontal_lift, make_perturbation_family,
                         minimality_test, oneill_curvature, pair_inner,
                         path_action, second_fundamental_form,
                         vertical_horizontal_split)
from .wfr import (CONVENTIONS, HorizontalFlowResult, StaggeredGrid,
                  WFRConvergenceError, WFRResult, continuity_project,
                  continuity_residual, hellinger_distance, horizontal_flow,
                  interpolate_centers, prox_action, solve_wfr, wfr_action)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
