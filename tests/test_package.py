"""The package namespace: every public name resolves on first access,
every name a module imports is read, and so is every private name a
module defines."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import collardiff

# defining module -> every public name the package has exported since it
# imported all of its modules eagerly
_PUBLIC = {
    "collar": """CollarParams ThinWindow conformal_factor thin_boundary
        injectivity_radius thin_area_bound validate_delta0
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
    assert not hasattr(collardiff, "_lp_cell")


def _scope_imports(scope):
    """Import statements of a module or function body, not of the
    functions nested in it."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def _unused_imports(path):
    """(line, name) of each name a scope imports and never reads; lines
    marked ``# noqa: F401`` (re-exports) and __future__ imports pass."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    scopes = [tree] + [n for n in ast.walk(tree) if isinstance(
        n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    unused = []
    for scope in scopes:
        read = {n.id for n in ast.walk(scope)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in _scope_imports(scope):
            span = lines[node.lineno - 1:node.end_lineno]
            if getattr(node, "module", None) == "__future__" \
                    or any("# noqa: F401" in line for line in span):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append((node.lineno, name))
    return sorted(unused)


def test_every_imported_name_is_read():
    src = Path(collardiff.__file__).parent
    unused = [f"{path.name}:{line} {name}"
              for path in sorted(src.glob("*.py"))
              for line, name in _unused_imports(path)]
    assert unused == []


def _private_definitions(tree):
    """(line, name) of each private function, class and constant a module
    defines at top level, tuple targets included; dunders pass."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield node.lineno, name


def test_every_private_module_name_is_read():
    # a private helper whose last caller went is dead code; a name counts
    # as read where src/ loads it, bare or as an attribute (an importer
    # that never reads it fails the test above)
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(collardiff.__file__).parent.glob("*.py"))}
    read = {n.id if isinstance(n, ast.Name) else n.attr
            for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)}
    defined = [(f"{file}:{line}", name) for file, tree in trees.items()
               for line, name in _private_definitions(tree)]
    assert len(defined) > 50
    assert [f"{where} {name}" for where, name in defined
            if name not in read] == []



def test_every_errstate_says_what_it_expects():
    # a silenced floating-point error is expected, so the errstate's line
    # or the line above it names the non-finite value that it lets through
    words = ("inf", "nan", "overflow", "underflow", "0/0", "non-finite")
    silenced = unnamed = 0
    for path in sorted(Path(collardiff.__file__).parent.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for i, line in enumerate(lines):
            if "np.errstate(" in line:
                silenced += 1
                notes = " ".join(text.partition("#")[2].lower()
                                 for text in (lines[i - 1], line))
                if not any(word in notes for word in words):
                    unnamed += 1
                    print(f"{path.name}:{i + 1}: {line.strip()}")
    assert silenced and not unnamed

_FIXED_SIZES = {
    "cusps": {"l1_norm": "n_theta tol_abs tol_rel",
              "l1_norm_quadrature": "n_theta r_lo tol_abs tol_rel",
              "l1_norm_hyperbolic": "n_theta tol_abs tol_rel",
              "l1_norm_cylinder": "n_theta tol_abs tol_rel",
              "is_bounded": "n_theta", "classify": "n_theta",
              "truncation_profile": "steps shrink n_theta",
              "PunctureGerm": "k_min", "germ_from_json": "k_min",
              "load_germ": "k_min"},
    "laurent": {"lp_norm": "n_theta", "linf_thin": "n_s",
                "mode_inner_quadrature_ratios": "n_theta tol_abs tol_rel",
                "LaurentQD": "n_max", "coefficient_bound_check": "delta0",
                "DensityRows": "n_theta"},
    "collar": {"validate_delta0": "ell_values"},
    "numerics": {"adaptive_quad": "limit"},
}


@pytest.mark.parametrize("module, func, name", [
    (module, func, name) for module, funcs in _FIXED_SIZES.items()
    for func, names in funcs.items() for name in names.split()])
def test_fixed_rule_sizes_are_not_parameters(module, func, name):
    # theta rules, ladders, oracle tolerances and the germ mode floor that
    # no caller set are constants of their module, and a differential's
    # n_max is read off its modes; passing one is an error, not ignored
    fn = getattr(importlib.import_module(f"collardiff.{module}"), func)
    with pytest.raises(TypeError, match=f"unexpected keyword .*'{name}'"):
        fn(None, **{name: 1})


@pytest.mark.parametrize("make", [
    lambda: collardiff.LaurentQD(collardiff.CollarParams(0.3), {1: 1.0}),
    lambda: collardiff.PunctureGerm({-1: 1.0}),
    lambda: collardiff.MultiCollarQD(
        [collardiff.LaurentQD(collardiff.CollarParams(0.3), {1: 1.0})])],
    ids=["LaurentQD", "PunctureGerm", "MultiCollarQD"])
def test_differential_types_are_frozen(make):
    # a derived field such as LaurentQD.n_max cannot go stale; equality
    # and hashing stay by identity
    value = make()
    with pytest.raises(AttributeError):
        value.coeffs = {2: 1.0}
    assert value != make() and hash(value) == object.__hash__(value)


def test_every_name_the_benchmark_tracer_wraps_exists():
    # a traced benchmark run patches each (module, attribute) of the
    # tracer's TARGETS and fails on one that src/ no longer defines
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    if not path.exists():
        pytest.skip("perfbench/ is not in this checkout")
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)     # the standard library only
    missing = []
    for modname, attr, _ in tracer.TARGETS:
        owner = importlib.import_module(modname)
        cls_name, _, name = attr.rpartition(".")
        if cls_name:                # Class.method, patched on the class
            owner = vars(owner).get(cls_name)
        if owner is None or name not in vars(owner):
            missing.append(f"{modname}.{attr}")
    assert tracer.TARGETS
    assert missing == []
