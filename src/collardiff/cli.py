"""Command-line front end.

Every data-producing subcommand builds its complete output string first
and writes it in one shot (to --out or stdout), so a failing run never
leaves partial output behind.  Exit codes: 0 success, 2 for input or
validation problems (including usage errors), 3 for numerical failures
(quadrature that refuses to converge).

Each command imports the modules it runs when it runs, so a process pays
only for its own command: the topology commands never import numpy.
"""

from __future__ import annotations

import math
import os
import sys
import tempfile
from types import SimpleNamespace
from typing import TYPE_CHECKING

import click

from .defaults import CUSP_DISC_RADIUS, DEFAULT_DELTA0
from .errors import MODE_MAX, QuadratureError, ValidationError, read_json
from .report import Report, ReportRow, STATUS_EMPTY

if TYPE_CHECKING:
    from .topology import SurfaceTopology


@click.group(name="collardiff")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True, help="Report output format.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write output to a file instead of stdout.")
@click.option("--seed", type=click.IntRange(0, 2 ** 64 - 1), default=0,
              show_default=True,
              help="Base seed, unsigned 64-bit (read by qd decay-sweep and "
                   "space w-report).")
@click.option("--n-max", type=click.IntRange(1, MODE_MAX), default=32,
              show_default=True,
              help="Drawn Laurent modes n = +-1..N (read by qd decay-sweep).")
@click.pass_context
def cli(ctx, fmt, out, seed, n_max):
    """Collar geometry, Laurent differentials, and pinching experiments."""
    ctx.obj = SimpleNamespace(fmt=fmt, out=out, seed=seed, n_max=n_max)


def _write(opts, text: str) -> None:
    if opts.out is None:
        sys.stdout.write(text)
        return
    # a sibling temp file renamed over the target: the target holds either
    # its old bytes or all of the new ones, never a truncated mix
    head, name = os.path.split(os.path.abspath(opts.out))
    fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=head)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)   # mkstemp makes 0600; match open()
        os.replace(tmp, opts.out)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(opts, report: Report) -> None:
    text = report.render(opts.fmt)
    if not text.endswith("\n"):
        text += "\n"
    _write(opts, text)


def parse_grid(spec: str) -> tuple:
    """Grid mini-language: 'log:start:stop:num', 'lin:start:stop:num', or
    a comma-separated list of values."""
    spec = spec.strip()
    if spec.startswith(("log:", "lin:")):
        import numpy as np

        kind, rest = spec[:3], spec[4:]
        parts = rest.split(":")
        if len(parts) != 3:
            raise ValidationError(f"bad grid spec {spec!r}; expected "
                                  f"{kind}:start:stop:num")
        try:
            start, stop, num = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ValidationError(f"bad grid spec {spec!r}: {exc}") from exc
        if num < 1:
            raise ValidationError("grid needs at least one point")
        # finite only if both endpoints are, and numpy takes this difference
        if not math.isfinite(stop - start):
            raise ValidationError("grid endpoints and their difference "
                                  "must be finite")
        if kind == "log":
            if start <= 0 or stop <= 0:
                raise ValidationError("log grids need positive endpoints")
            return tuple(float(x) for x in
                         np.logspace(math.log10(start), math.log10(stop), num))
        return tuple(float(x) for x in np.linspace(start, stop, num))
    try:
        return tuple(float(x) for x in spec.split(","))
    except ValueError as exc:
        raise ValidationError(f"bad grid spec {spec!r}: {exc}") from exc


# --- collar ---------------------------------------------------------------------

@cli.group()
def collar():
    """Collar geometry queries."""


@collar.command("info")
@click.argument("ell", type=float)
@click.option("--delta", "deltas", type=float, multiple=True,
              help="Thin-part thresholds to tabulate (repeatable).")
@click.pass_obj
def collar_info(opts, ell, deltas):
    """Geometry of the collar with core length ELL."""
    from . import collar as cg

    c = cg.CollarParams(ell)
    x = c.half_length
    rows = [
        ReportRow(ell, None, "half_length", x, ell * x / math.pi ** 2),
        ReportRow(ell, None, "boundary_cos", cg.cos_profile_vec(c, x),
                  math.tanh(0.5 * ell)),
    ]
    for d in deltas:
        win = cg.thin_boundary(c, d)
        if win.empty:
            rows.append(ReportRow(ell, d, "thin_boundary", 0.0, None,
                                  STATUS_EMPTY))
            rows.append(ReportRow(ell, d, "thin_area", 0.0,
                                  cg.thin_area_bound(c, d), STATUS_EMPTY))
            continue
        rows.append(ReportRow(ell, d, "thin_boundary", win.x_delta,
                              math.pi ** 2 / ell - math.pi / d))
        rows.append(ReportRow(ell, d, "injectivity_at_thin_boundary",
                              cg.injectivity_radius(c, win.x_delta), d))
        rows.append(ReportRow(ell, d, "thin_area", win.area,
                              cg.thin_area_bound(c, d)))
    _emit(opts, Report(rows))


# --- qd -------------------------------------------------------------------------

@cli.group()
def qd():
    """Laurent quadratic differentials on a single collar."""


@qd.command("norms")
@click.option("--coeffs", "coeffs_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="JSON coefficient file: [{n, re, im}, ...].")
@click.option("--ell", type=float, required=True, help="Collar core length.")
@click.option("--delta", type=float, default=DEFAULT_DELTA0,
              show_default=True, help="Thin-part threshold.")
@click.pass_obj
def qd_norms(opts, coeffs_path, ell, delta):
    """Norms of a differential: closed forms next to quadrature."""
    from . import collar as cg
    from . import laurent as lq

    c = cg.CollarParams(ell)
    q = lq.LaurentQD(c, lq.load_coeffs(coeffs_path))
    win = cg.thin_boundary(c, delta)
    rows = [ReportRow(ell, None, "l2_full", lq.l2_norm(q))]
    if win.empty:
        for stat in ("l2_thin", "l2_thin_quadrature", "lp_thin_p1",
                     "lp_thin_p4", "linf_thin"):
            rows.append(ReportRow(ell, delta, stat, 0.0, None, STATUS_EMPTY))
    else:
        sub = lq.SubCollar(-win.x_delta, win.x_delta)
        sup = lq.linf_thin(q, delta)
        rows.extend([
            ReportRow(ell, delta, "l2_thin", lq.l2_norm(q, sub)),
            ReportRow(ell, delta, "l2_thin_quadrature",
                      lq.lp_norm(q, 2.0, sub)),
            ReportRow(ell, delta, "lp_thin_p1", lq.lp_norm(q, 1.0, sub)),
            ReportRow(ell, delta, "lp_thin_p4", lq.lp_norm(q, 4.0, sub)),
            ReportRow(ell, delta, "linf_thin", sup.sup, sup.envelope),
        ])
    _emit(opts, Report(rows))


_ell_grid = click.option("--ell-grid", default="log:1e-4:1:25",
                         show_default=True, help="Core length grid.")
_delta_grid = click.option("--delta-grid", default="lin:0.05:0.8:16",
                           show_default=True, help="Thin threshold grid.")


@qd.command("decay-sweep")
@_ell_grid
@_delta_grid
@click.option("--delta0", type=float, default=DEFAULT_DELTA0,
              show_default=True,
              help="Thick-part threshold for normalization.")
@click.option("--trials", type=int, default=64, show_default=True)
@click.option("--workers", type=click.IntRange(min=1), default=1,
              show_default=True,
              help="Worker threads; output is identical for any count.")
@click.pass_obj
def qd_decay_sweep(opts, ell_grid, delta_grid, delta0, trials, workers):
    """Thin-part sups of random zero-principal differentials."""
    from . import sweeps as sw

    cfg = sw.SweepConfig(ell_grid=parse_grid(ell_grid),
                         delta_grid=parse_grid(delta_grid), delta0=delta0,
                         n_max=opts.n_max,
                         trials=trials, seed=opts.seed)
    _emit(opts, sw.decay_sweep(cfg, workers=workers))


@qd.command("principal-mass")
@_ell_grid
@_delta_grid
@click.pass_obj
def qd_principal_mass(opts, ell_grid, delta_grid):
    """ell^3-scaled thin mass of the principal differential."""
    from . import sweeps as sw

    _emit(opts, sw.principal_mass_sweep(parse_grid(ell_grid),
                                        parse_grid(delta_grid)))


@qd.command("bij-check")
@_ell_grid
@click.option("--delta0", type=float, default=DEFAULT_DELTA0,
              show_default=True, help="Thin-part threshold of the b0 norms.")
@click.option("--b0", required=True,
              help="Principal coefficients along the ell grid: 'pow:K' for "
                   "b0 = ell^K, or a comma-separated list of complex values.")
@click.pass_obj
def qd_bij_check(opts, ell_grid, delta0, b0):
    """Vanishing check for the ell^{-3/2}-normalized principal part."""
    from . import sweeps as sw

    # the grid is checked before pow:K meets it (0 ** -1 would raise)
    ells, = sw.check_grids(parse_grid(ell_grid))
    try:
        if b0.startswith("pow:"):
            k = float(b0[4:])
            seq = [ell ** k for ell in ells]
        else:
            seq = [complex(tok) for tok in b0.split(",")]
    except ValueError as exc:
        raise ValidationError(f"bad --b0 spec {b0!r}: {exc}") from exc
    except OverflowError:
        raise ValidationError(
            f"--b0 {b0}: the b0 sequence ell^K overflows") from None
    _emit(opts, sw.bij_normalization_check(ells, seq, delta0))


# --- space ----------------------------------------------------------------------

@cli.group()
def space():
    """Finite-dimensional spaces of multi-collar differentials."""


@space.command("project")
@click.argument("space_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("target_file", type=click.Path(exists=True, dir_okay=False))
@click.pass_obj
def space_project(opts, space_file, target_file):
    """Project a differential onto the zero-principal subspace W."""
    from . import spaces as sp

    s = sp.load_space(space_file)
    psi = sp.multi_from_json(read_json(target_file), s.collars)
    w = sp.w_subspace(s)
    proj = sp.project_onto_w(s, psi)
    resid = sp.mc_combine([psi, proj], [1.0, -1.0])
    target_norm, proj_norm = sp.mc_norm(psi), sp.mc_norm(proj)
    # the residual's rounding floor: each of its n coordinates is a
    # difference of the target's and the projection's, which come from
    # n-term inner products, so it carries rounding up to about n eps
    # times those operands; a residual_norm at or below it is noise
    n = sum(len(part.coeffs) for part in resid.parts)
    floor = n * sys.float_info.epsilon * (target_norm + proj_norm)
    rows = [
        ReportRow(None, None, "space_dimension", float(s.dim)),
        ReportRow(None, None, "w_dimension", float(w.dim)),
        ReportRow(None, None, "target_norm", target_norm),
        ReportRow(None, None, "projection_norm", proj_norm),
        ReportRow(None, None, "residual_norm", sp.mc_norm(resid), floor),
    ]
    _emit(opts, Report(rows))


@space.command("w-report")
@click.argument("space_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--delta", "deltas", type=float, multiple=True, required=True,
              help="Thin thresholds to test (repeatable).")
@click.option("--samples", type=click.IntRange(min=0), default=48,
              show_default=True,
              help="Random unit W elements per threshold.")
@click.pass_obj
def space_w_report(opts, space_file, deltas, samples):
    """Thin-part decay statistics over the W-subspace of a span."""
    from . import spaces as sp

    s = sp.load_space(space_file)
    _emit(opts, sp.w_decay_report(s, deltas, samples=samples, seed=opts.seed))


# --- topology -------------------------------------------------------------------

@cli.group()
def topology():
    """Dimension bookkeeping under pinching."""


def _load_surface(spec: str) -> SurfaceTopology:
    """A path to a JSON surface file, or inline 'g,k;g,k;...'."""
    from . import topology as tp

    if os.path.exists(spec):
        return tp.load_topology(spec)
    try:
        comps = []
        for part in spec.split(";"):
            g, k = part.split(",")
            comps.append((int(g), int(k)))
    except ValueError as exc:
        raise ValidationError(
            f"bad surface spec {spec!r} (not a file, and not 'g,k;...'): "
            f"{exc}") from exc
    return tp.SurfaceTopology(tuple(comps))


@topology.command("dim")
@click.argument("surface")
@click.pass_obj
def topology_dim(opts, surface):
    """Dimension of holomorphic quadratic differentials; prints an integer."""
    from . import topology as tp

    _write(opts, f"{tp.hol_dimension(_load_surface(surface))}\n")


@topology.command("pinch")
@click.argument("surface")
@click.option("--moves", "moves_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="JSON move script.")
@click.pass_obj
def topology_pinch(opts, surface, moves_path):
    """Apply a pinch script and tabulate the dimension after each move."""
    from . import topology as tp

    t = _load_surface(surface)
    moves = tp.load_moves(moves_path)
    dims = tp.degeneration_dims(t, moves)
    rows = [ReportRow(None, None, "initial_dimension",
                      float(tp.hol_dimension(t)))]
    rows += [ReportRow(None, None, f"dim_after[{i}]", float(d))
             for i, d in enumerate(dims)]
    _emit(opts, Report(rows))


# --- cusp -----------------------------------------------------------------------

@cli.group()
def cusp():
    """Quadratic-differential germs at punctures."""


@cusp.command("classify")
@click.argument("germ_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--radius", type=float, default=CUSP_DISC_RADIUS,
              help="Disc radius in [2^-91, 1) (default e^{-pi}).")
@click.pass_obj
def cusp_classify(opts, germ_file, radius):
    """The three equivalent finiteness conditions for a germ."""
    from . import cusps as cu

    g = cu.load_germ(germ_file, radius=radius)
    cl = cu.classify(g)
    rows = [
        ReportRow(None, None, "pole_order", float(cu.pole_order(g))),
        ReportRow(None, None, "integrable", float(cl.integrable)),
        ReportRow(None, None, "bounded", float(cl.bounded)),
        ReportRow(None, None, "simple_pole_or_better",
                  float(cl.simple_pole_or_better)),
        ReportRow(None, None, "l1_norm", cu.l1_norm(g)),
        ReportRow(None, None, "density_sup", cu.is_bounded(g).sup),
    ]
    _emit(opts, Report(rows))


def main(argv=None) -> int:
    """Console entry point with the documented exit-code contract."""
    # BLAS starts one thread per CPU when numpy loads, and each --workers
    # thread of a sweep calls BLAS, so two workers oversubscribe two CPUs.
    # No command has imported numpy yet; a value the user set is kept.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    os.environ.setdefault("MKL_NUM_THREADS", "1")
    try:
        return cli.main(args=argv, standalone_mode=False,
                        prog_name="collardiff") or 0
    except click.ClickException as exc:
        exc.show()
        return 2
    except QuadratureError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        return 3
    except (ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2


if __name__ == "__main__":
    sys.exit(main())
