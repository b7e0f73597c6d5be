"""The package namespace: every public name resolves on first access."""

import importlib

import pytest

import collardiff

# defining module -> every public name the package has exported since it
# imported all of its modules eagerly
_PUBLIC = {
    "collar": """CollarParams ThinWindow conformal_factor thin_boundary
        injectivity_radius thin_area thin_area_bound validate_delta0
        DEFAULT_DELTA0 ELL_MAX DELTA_MAX CUSP_DISC_RADIUS""",
    "errors": """DomainError ValidationError InvalidMoveError
        RankDeficiencyError QuadratureError""",
    "laurent": """LaurentQD SubCollar ThinSup CoefficientBoundReport
        full_window principal_part remove_principal eval_density
        mode_l2_norm_sq l2_inner l2_norm lp_norm linf_thin
        coefficient_bound_check coeffs_from_json coeffs_to_json
        load_coeffs""",
    "spaces": """MultiCollarQD QDSpace mc_inner mc_norm mc_combine mc_zero
        principal_vector unitary_basis w_subspace project_onto_w
        w_decay_report space_from_json multi_from_json multi_to_json
        load_space""",
    "topology": """SurfaceTopology PinchMove hol_dimension
        max_short_geodesics pinch degeneration_dims enumerate_moves
        topology_from_json topology_to_json moves_from_json load_topology
        load_moves""",
    "cusps": """PunctureGerm pole_order l1_norm l1_norm_quadrature
        l1_norm_hyperbolic l1_norm_cylinder is_bounded classify
        truncation_profile hyperbolic_density germ_from_json germ_to_json
        load_germ""",
    "sweeps": """SweepConfig decay_sweep principal_mass_sweep
        bij_normalization_check lp_vanishing_sweep interleaved_modes
        PRINCIPAL_MASS_CONSTANT""",
    "report": "Report ReportRow CSV_SCHEMA",
}
_NAMES = [(mod, name) for mod, names in _PUBLIC.items()
          for name in names.split()]


def test_public_names_are_their_module_attributes():
    wrong = [(mod, name) for mod, name in _NAMES
             if getattr(collardiff, name)
             is not getattr(importlib.import_module(f"collardiff.{mod}"), name)]
    assert wrong == []
    assert collardiff.decay_sweep is collardiff.sweeps.decay_sweep


def test_dir_lists_every_public_name():
    listed = set(dir(collardiff))
    assert {name for _, name in _NAMES} <= listed
    assert "__version__" in listed


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        collardiff.no_such_name
    assert not hasattr(collardiff, "_density_max")
