"""Command-line front door.

One subcommand per study: trivial-branch, classical-load, koiter-modes,
korn, components, ansatz, fixedbc, rect-korn.  Every subcommand prints one
JSON payload, its input configuration first, to stdout.  Files are written
only into ``--out``: ``<name>.json`` (the same JSON) and, for a sweep,
``<name>.csv`` whose first line is the configuration.  Sweeps run their h
values one after another in one thread.  Exit codes: 2 for invalid
parameters, 3 for solver failures, 4 when rect-korn finds a violated
inequality.
"""

import argparse
import csv
from dataclasses import asdict
import functools
import json
import math
import os
import sys
import time

import numpy as np

from cylshell import ansatz, fixedbc, koiter, korn, rect
from cylshell.errors import (NotDestabilizingError, ParameterError, ShapeError,
                             SolverError)
from cylshell.material import (ShellGeometry, derive_material, hoop_imperfection,
                               perfect_stress, shear_imperfection, shell_sweep,
                               solve_trivial_branch)
from cylshell.scaling import fit_exponent


def _comma_list(kind):
    """argparse type: a non-empty comma-separated list of ``kind`` values."""
    def parse(text):
        try:
            vals = [kind(tok) for tok in text.split(",") if tok.strip()]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad list {text!r}: {exc}") from None
        if not vals:
            raise argparse.ArgumentTypeError("empty list")
        return vals
    return parse


def _out_dir(path):
    """argparse type: a directory that exists or can be created."""
    parent = os.path.abspath(path)
    while not os.path.exists(parent):
        parent = os.path.dirname(parent)
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(
            f"cannot create directory {path!r}: {parent!r} is not a directory")
    return path


def _export_path(path):
    """argparse type: a file path whose directory exists, not the .csv of its twin."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise argparse.ArgumentTypeError(f"directory {folder!r} does not exist")
    if os.path.splitext(path)[1].lower() == ".csv":
        raise argparse.ArgumentTypeError(
            f"{path!r} is where the surface's CSV twin goes; give the OBJ another extension")
    return path


def _finish(args, name, payload, header=None, rows=None):
    """Print ``payload`` as JSON, config first; with --out also write artifacts.

    The config is every option the subcommand declares, in declaration order,
    but --out and --export, and without unset (None) values.  The artifacts
    are ``<name>.json``, equal to what was printed, and, when ``rows`` is
    given, ``<name>.csv``: a ``# config:`` line, ``header``, rows.
    """
    config = {k: v for k, v in vars(args).items()
              if k not in ("fn", "out", "command", "export") and v is not None}
    text = json.dumps({"config": config, **payload}, indent=2)
    print(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, f"{name}.json"), "w") as f:
            f.write(text + "\n")
        if rows is not None:
            with open(os.path.join(args.out, f"{name}.csv"), "w", newline="") as f:
                writer = csv.writer(f)
                writer.writerow([f"# config: {json.dumps(config, sort_keys=True)}"])
                writer.writerow(header)
                writer.writerows(rows)
    return 0


# ---------------------------------------------------------------------------
# surface export


# most vertices n_th n_z of an exported surface: at 1000 x 1000 the tracemalloc
# peak of export_surface is 198 MiB, and it writes 68 MB of OBJ and 96 MB of CSV
MAX_SURFACE_VERTICES = 1_000_000


def export_surface(field, amplitude, geometry, path, n_th=96, n_z=48):
    """Write the deformed mid-surface as OBJ (and a CSV twin).

    Points are ((1 + eps u_r) cos th, (1 + eps u_r) sin th, z + eps u_z)
    sampled on an n_th x n_z grid of at most MAX_SURFACE_VERTICES points,
    with quad faces wrapping in theta.
    """
    if not 0 < amplitude < math.inf:
        raise ParameterError(f"amplitude must be finite and positive, got {amplitude}")
    if n_th < 3 or n_z < 2:
        raise ParameterError(f"surface grid needs n_th >= 3 and n_z >= 2, "
                             f"got {n_th} x {n_z}")
    if n_th * n_z > MAX_SURFACE_VERTICES:
        raise ParameterError(f"surface grid of {n_th} x {n_z} points exceeds "
                             f"{MAX_SURFACE_VERTICES} vertices")
    th = np.arange(n_th) * (2.0 * np.pi / n_th)
    z = np.linspace(0.0, geometry.L, n_z)
    TH, Z = np.meshgrid(th, z, indexing="ij")
    p = field.partials(1.0, TH, Z)
    u_r, u_z = (np.broadcast_to(p[c], TH.shape) for c in ("ur", "uz"))
    radius = 1.0 + amplitude * u_r
    pts = np.stack([radius * np.cos(TH), radius * np.sin(TH),
                    Z + amplitude * u_z], axis=-1)
    # 1-based vertex a = i n_z + j + 1 and its neighbour b one theta step on
    i, j = np.ogrid[:n_th, :n_z - 1]
    a = i * n_z + j + 1
    b = (i + 1) % n_th * n_z + j + 1
    with open(path, "w") as f:
        np.savetxt(f, pts.reshape(-1, 3), fmt="v %.9g %.9g %.9g")
        np.savetxt(f, np.stack([a, b, b + 1, a + 1], axis=-1).reshape(-1, 4),
                   fmt="f %d %d %d %d")
    with open(os.path.splitext(path)[0] + ".csv", "w", newline="") as f:
        np.savetxt(f, np.column_stack([TH.ravel(), Z.ravel(), pts.reshape(-1, 3)]),
                   fmt="%s", delimiter=",", newline="\r\n",
                   header="theta,z,x,y,z_deformed", comments="")
    return pts


# ---------------------------------------------------------------------------
# subcommands


def _cmd_trivial_branch(args):
    material = derive_material(args.E, args.nu)
    branch = solve_trivial_branch(material, getattr(args, "lambda"))
    return _finish(args, "trivial_branch",
                   {"a": branch.a, "b": branch.b, "residual": branch.residual})


def _cmd_classical_load(args):
    geometry = ShellGeometry(h=args.h, L=args.L)
    material = derive_material(args.E, args.nu)
    res = koiter.minimize_load(geometry, material, m_max=args.mmax, n_max=args.nmax)
    return _finish(args, "classical_load", {
        "lambda_hat": res.lambda_hat, "m": res.m_star, "n": res.n_star,
        "circle_residual": res.circle_residual, "closed_form": res.closed_form,
    })


def _cmd_koiter_modes(args):
    geometry = ShellGeometry(h=args.h, L=args.L)
    material = derive_material(args.E, args.nu)
    rows = []
    for m in args.m:
        n = koiter.koiter_circle_n(m, geometry, material.Lambda)
        lam = koiter.lambda_star(geometry, material, m, n)
        rows.append([m, n, lam, koiter.circle_residual(geometry, material.Lambda, m, n)])
    if args.export:     # after every m has its row, so a bad m writes no file
        stem, ext = os.path.splitext(args.export)
        for m, n, *_ in rows:
            mode = koiter.buckling_mode(m, geometry, material, n=n)
            path = args.export if len(args.m) == 1 else f"{stem}_m{m}{ext}"
            export_surface(mode, args.amplitude, geometry, path,
                           n_th=args.ntheta, n_z=args.nz)
    header = ["m", "n", "lambda_star", "circle_residual"]
    return _finish(args, "koiter_modes", {"modes": [dict(zip(header, r)) for r in rows]},
                   header, rows)


def _h_sweep(args, name, header, one, group=None, **extra):
    """Rows of ``one(geometry) -> (row, scan)`` over the h-list, largest h first.

    Every h is checked by ``korn.scan_window`` (of ``group``) before the
    first scan.  ``scans`` reports, per h, every field of the scan's
    ``ScanResult`` but the value and mode the row already holds, and its wall
    time; the exponent is fitted from 4 rows.
    """
    shells = shell_sweep(args.h_list, args.L)
    for geo in shells:
        korn.scan_window(geo, group, args.mmax, args.nmax)
    rows, scans = [], []
    for geo in shells:
        start = time.perf_counter()
        row, res = one(geo)
        rows.append(row)
        record = {k: v for k, v in asdict(res).items() if k not in ("value", "m", "n")}
        scans.append({"h": geo.h, **record, "wall_s": time.perf_counter() - start})
    payload = {"rows": rows, **extra}
    if len(rows) >= 4:
        fit = fit_exponent([(r[0], r[1]) for r in rows])
        payload["fit"] = {"exponent": fit.exponent, "prefactor": fit.prefactor,
                          "max_residual": fit.max_residual}
    return _finish(args, name, {**payload, "scans": scans}, header, rows)


def _cmd_korn(args):
    def one(geo):
        res = korn.korn_constant(geo, m_max=args.mmax, n_max=args.nmax, N=args.N)
        return (geo.h, res.value, res.m, res.n, res.value / geo.h**1.5), res

    return _h_sweep(args, "korn", ["h", "K", "m_star", "n_star", "K_over_h15"], one)


def _cmd_components(args):
    def one(geo):
        res = korn.component_bound(geo, args.which, m_max=args.mmax,
                                   n_max=args.nmax, N=args.N)
        return (geo.h, res.value, res.m, res.n), res

    return _h_sweep(args, f"components_{args.which}", ["h", "bound", "m_star", "n_star"], one,
                    args.which, target_exponent=korn.COMPONENT_EXPONENTS[args.which])


def _cmd_ansatz(args):
    bump = ansatz.BumpProfile(eta0=args.eta0, L=args.L, skew=args.skew)
    payload = {}
    rows = []
    if args.stress is None:
        report = ansatz.verify_limits(bump, args.h_list)
        for name in ("gradient", "strain"):
            tab = report[name]
            for (h, val), nv in zip(tab.points, tab.normalized):
                rows.append([name, h, val, nv])
            payload[name] = {"points": list(tab.points),
                             "normalized": list(tab.normalized),
                             "target": tab.target}
        return _finish(args, "ansatz_limits", payload,
                       ["quantity", "h", "value", "normalized"], rows)
    material = derive_material(args.E, args.nu)
    stress = {"perfect": perfect_stress,
              "shear": lambda: shear_imperfection(np.cos),
              "hoop": hoop_imperfection}[args.stress]()
    report = ansatz.compressiveness_scaling(bump, args.h_list, material, stress)
    tab = report["ratio"]
    for h, val in tab.points:
        rows.append([args.stress, h, val])
    payload["ratio"] = {"points": list(tab.points)}
    if tab.fit is not None:
        payload["fit"] = {"exponent": tab.fit.exponent,
                          "prefactor": tab.fit.prefactor}
    payload["excluded"] = list(report["excluded"].points)
    return _finish(args, f"ansatz_{args.stress}", payload,
                   ["stress", "h", "ratio"], rows)


def _cmd_fixedbc(args):
    material = derive_material(args.E, args.nu)
    report = fixedbc.fixedbc_limit(args.h_list, args.alpha, args.L, material)
    rows = [(row.h, row.m, row.n, row.ratio) for row in report.rows]
    if args.export:
        row = report.rows[-1]
        geo = ShellGeometry(h=row.h, L=args.L)
        mode = fixedbc.fixedbc_mode(row.m, geo, material, n=row.n)
        export_surface(mode, args.amplitude, geo, args.export,
                       n_th=args.ntheta, n_z=args.nz)
    return _finish(args, "fixedbc", {"rows": rows}, ["h", "m", "n", "ratio"], rows)


def _cmd_rect_korn(args):
    # every input is checked before the first trial
    if not (math.isfinite(args.L) and args.L > 0.0):
        raise ParameterError(f"L = {args.L} must be finite and positive")
    if not 0.0 < args.h < rect.PERIODIC_SIGMA:
        raise ParameterError(f"h = {args.h} outside (0, sigma = {rect.PERIODIC_SIGMA})")
    if args.trials < 1:
        raise ParameterError(f"need at least 1 trial, got trials={args.trials}")
    # the lemma goes first: it checks tau = pi h / L before its first trial
    lemma = rect.harmonic_lemma_check(args.h, args.L, seed=args.seed)
    violations, min_margin = rect.basic_inequality_trials(
        args.h, args.L, trials=args.trials, seed=args.seed)
    pviol, pmargin = rect.periodic_inequality_trials(
        args.h, trials=args.trials, seed=args.seed)
    violations += lemma.hi_violations + pviol
    _finish(args, "rect_korn", {
        "violations": violations,
        "min_margin": min(min_margin, lemma.hi_min_margin, pmargin),
        "extremal_equality_error": lemma.equality_error,
    })
    return 4 if violations else 0


# ---------------------------------------------------------------------------
# parser


def _options(*specs):
    """A parent parser holding options shared by several subcommands."""
    p = argparse.ArgumentParser(add_help=False)
    for flag, kwargs in specs:
        p.add_argument(flag, **kwargs)
    return p


@functools.cache
def build_parser():
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="cylshell",
                                     description="Cylindrical-shell buckling studies")
    parser.add_argument("--out", type=_out_dir, default=None,
                        help="output directory for artifacts")
    sub = parser.add_subparsers(dest="command", required=True)

    one_h = _options(("--h", dict(type=float, required=True)))
    sweep = _options(("--h-list", dict(dest="h_list", type=_comma_list(float),
                                       required=True)))
    shell = _options(("--L", dict(type=float, default=math.pi)))
    material = _options(("--E", dict(type=float, default=1.0)),
                        ("--nu", dict(type=float, default=0.3)))
    window = _options(("--mmax", dict(type=int, default=None)),
                      ("--nmax", dict(type=int, default=None)))
    radial = _options(("--N", dict(type=int, default=32)))
    export = _options(("--amplitude", dict(type=float, default=0.05)),
                      ("--export", dict(type=_export_path, default=None)),
                      ("--ntheta", dict(type=int, default=96)),
                      ("--nz", dict(type=int, default=48)))

    def add(name, fn, *parents):
        p = sub.add_parser(name, parents=list(parents))
        p.set_defaults(fn=fn)
        return p

    p = add("trivial-branch", _cmd_trivial_branch)
    p.add_argument("--E", type=float, required=True)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--lambda", type=float, required=True)

    add("classical-load", _cmd_classical_load, one_h, shell, material, window)

    p = add("koiter-modes", _cmd_koiter_modes, one_h, shell, material, export)
    p.add_argument("--m", type=_comma_list(int), required=True,
                   help="comma-separated axial wavenumbers")

    add("korn", _cmd_korn, sweep, shell, window, radial)

    p = add("components", _cmd_components, sweep, shell, window, radial)
    p.add_argument("--which", choices=tuple(korn.COMPONENT_GROUPS), required=True)

    p = add("ansatz", _cmd_ansatz, sweep, shell, material)
    p.add_argument("--eta0", type=float, default=1.0)
    p.add_argument("--stress", choices=("perfect", "shear", "hoop"), default=None)
    p.add_argument("--skew", type=float, default=0.0)

    p = add("fixedbc", _cmd_fixedbc, sweep, shell, material, export)
    p.add_argument("--alpha", type=float, default=0.25)

    p = add("rect-korn", _cmd_rect_korn)
    p.add_argument("--h", type=float, default=0.1)
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=1234)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ParameterError, NotDestabilizingError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
