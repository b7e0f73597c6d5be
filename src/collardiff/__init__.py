"""Explicit hyperbolic collar/cusp geometry and Laurent-mode quadratic
differentials: closed-form norms, quadrature oracles, decay experiments,
subspace projections, and dimension bookkeeping under pinching.

Importing the package loads none of its modules.  Each public name below
is imported from its module on first access (PEP 562), so a command that
only counts dimensions never pays for numpy.
"""

import importlib

__version__ = "0.1.0"

# defining module -> the public names the package re-exports from it
_EXPORTS = {
    "defaults": ("DEFAULT_DELTA0", "CUSP_DISC_RADIUS"),
    "collar": ("CollarParams", "ThinWindow", "conformal_factor",
               "thin_boundary", "injectivity_radius", "thin_area_bound",
               "validate_delta0", "ELL_MAX", "DELTA_MAX"),
    "errors": ("DomainError", "ValidationError", "InvalidMoveError",
               "RankDeficiencyError", "QuadratureError"),
    "laurent": ("LaurentQD", "SubCollar", "ThinSup", "CoefficientBoundReport",
                "full_window", "principal_part", "remove_principal",
                "eval_density", "mode_l2_norm_sq", "l2_inner", "l2_norm",
                "lp_norm", "linf_thin", "coefficient_bound_check",
                "coeffs_from_json", "coeffs_to_json", "load_coeffs"),
    "spaces": ("MultiCollarQD", "QDSpace", "mc_inner", "mc_norm",
               "mc_combine", "mc_zero", "principal_vector", "unitary_basis",
               "w_subspace", "project_onto_w", "w_decay_report",
               "space_from_json", "multi_from_json", "multi_to_json",
               "load_space"),
    "topology": ("SurfaceTopology", "PinchMove", "hol_dimension",
                 "max_short_geodesics", "pinch", "degeneration_dims",
                 "enumerate_moves", "topology_from_json", "topology_to_json",
                 "moves_from_json", "load_topology", "load_moves"),
    "cusps": ("PunctureGerm", "pole_order", "l1_norm", "l1_norm_quadrature",
              "l1_norm_hyperbolic", "l1_norm_cylinder", "is_bounded",
              "classify", "truncation_profile", "hyperbolic_density",
              "germ_from_json", "germ_to_json", "load_germ"),
    "sweeps": ("SweepConfig", "decay_sweep", "principal_mass_sweep",
               "bij_normalization_check", "lp_vanishing_sweep",
               "interleaved_modes", "PRINCIPAL_MASS_CONSTANT"),
    "report": ("Report", "ReportRow", "CSV_SCHEMA"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    try:
        mod = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{mod}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
