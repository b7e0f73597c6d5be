"""Explicit hyperbolic collar/cusp geometry and Laurent-mode quadratic
differentials: closed-form norms, quadrature oracles, decay experiments,
subspace projections, and dimension bookkeeping under pinching."""

__version__ = "0.1.0"

from .collar import (CollarParams, ThinWindow, conformal_factor,
                     thin_boundary, injectivity_radius, thin_area,
                     thin_area_bound, validate_delta0,
                     DEFAULT_DELTA0, ELL_MAX, DELTA_MAX, CUSP_DISC_RADIUS)
from .errors import (DomainError, ValidationError, InvalidMoveError,
                     RankDeficiencyError, QuadratureError)
from .laurent import (LaurentQD, SubCollar, ThinSup, CoefficientBoundReport,
                      full_window, principal_part, remove_principal,
                      eval_density, mode_l2_norm_sq, l2_inner, l2_norm,
                      lp_norm, linf_thin, coefficient_bound_check,
                      coeffs_from_json, coeffs_to_json, load_coeffs)
from .spaces import (MultiCollarQD, QDSpace, mc_inner, mc_norm, mc_combine,
                     mc_zero, principal_vector, unitary_basis,
                     w_subspace, project_onto_w, w_decay_report,
                     space_from_json, multi_from_json, multi_to_json,
                     load_space)
from .topology import (SurfaceTopology, PinchMove, hol_dimension,
                       max_short_geodesics, pinch, degeneration_dims,
                       enumerate_moves, topology_from_json, topology_to_json,
                       moves_from_json, load_topology, load_moves)
from .cusps import (PunctureGerm, pole_order, l1_norm, l1_norm_quadrature,
                    l1_norm_hyperbolic, l1_norm_cylinder, is_bounded,
                    classify, truncation_profile, hyperbolic_density,
                    germ_from_json, germ_to_json, load_germ)
from .sweeps import (SweepConfig, decay_sweep, principal_mass_sweep,
                     bij_normalization_check, lp_vanishing_sweep,
                     interleaved_modes, PRINCIPAL_MASS_CONSTANT)
from .report import Report, ReportRow, CSV_SCHEMA
