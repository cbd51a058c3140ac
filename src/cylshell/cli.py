"""Command-line front door.

One subcommand per study: trivial-branch, classical-load, koiter-modes,
korn, components, ansatz, fixedbc, rect-korn.  Single results print JSON to
stdout; sweeps write CSV tables (plus a fit JSON where a power law is
fitted) into the output directory.  Every artifact embeds the input
configuration.  Sweeps run their h values one after another in one thread.
Exit codes: 2 for invalid parameters, 3 for solver failures, 4 when
rect-korn finds a violated inequality.
"""

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from cylshell import ansatz, fixedbc, koiter, korn, rect
from cylshell.errors import (NotDestabilizingError, ParameterError, ShapeError,
                             SolverError)
from cylshell.material import (ShellGeometry, derive_material, hoop_imperfection,
                               perfect_stress, shear_imperfection,
                               solve_trivial_branch)
from cylshell.scaling import fit_exponent


def _parse_h_list(text):
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ParameterError(f"bad h-list {text!r}: {exc}") from None
    if not vals:
        raise ParameterError("empty h-list")
    return vals


def _write_json(path, payload):
    with open(path, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")


def _write_csv(path, header, rows, config):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow([f"# config: {json.dumps(config, sort_keys=True)}"])
        writer.writerow(header)
        writer.writerows(rows)


def _emit(args, name, payload):
    payload = {"config": payload.pop("config"), **payload}
    text = json.dumps(payload, indent=2)
    print(text)
    if args.out:
        _write_json(os.path.join(args.out, f"{name}.json"), payload)


def _config(args, keys):
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


def _fit_payload(rows):
    """Power-law fit of the (h, value, ...) rows of a sweep."""
    fit = fit_exponent([(r[0], r[1]) for r in rows])
    return {"exponent": fit.exponent, "prefactor": fit.prefactor,
            "max_residual": fit.max_residual}


# ---------------------------------------------------------------------------
# surface export


def export_surface(field, amplitude, geometry, path, n_th=96, n_z=48):
    """Write the deformed mid-surface as OBJ (and a CSV twin).

    Points are ((1 + eps u_r) cos th, (1 + eps u_r) sin th, z + eps u_z)
    sampled on an n_th x n_z grid, with quad faces wrapping in theta.
    """
    if amplitude <= 0:
        raise ParameterError(f"amplitude must be positive, got {amplitude}")
    th = np.arange(n_th) * (2.0 * np.pi / n_th)
    z = np.linspace(0.0, geometry.L, n_z)
    TH, Z = np.meshgrid(th, z, indexing="ij")
    u_r = np.broadcast_to(field.u_r(1.0, TH, Z), TH.shape)
    u_z = np.broadcast_to(field.u_z(1.0, TH, Z), TH.shape)
    radius = 1.0 + amplitude * u_r
    pts = np.stack([radius * np.cos(TH), radius * np.sin(TH),
                    Z + amplitude * u_z], axis=-1)
    with open(path, "w") as f:
        for i in range(n_th):
            for j in range(n_z):
                f.write("v {:.9g} {:.9g} {:.9g}\n".format(*pts[i, j]))
        for i in range(n_th):
            i2 = (i + 1) % n_th
            for j in range(n_z - 1):
                a = i * n_z + j + 1
                b = i2 * n_z + j + 1
                f.write(f"f {a} {b} {b + 1} {a + 1}\n")
    csv_path = os.path.splitext(path)[0] + ".csv"
    with open(csv_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["theta", "z", "x", "y", "z_deformed"])
        for i in range(n_th):
            for j in range(n_z):
                writer.writerow([th[i], z[j], *pts[i, j]])
    return pts


# ---------------------------------------------------------------------------
# subcommands


def _cmd_trivial_branch(args):
    material = derive_material(args.E, args.nu)
    branch = solve_trivial_branch(material, getattr(args, "lambda"))
    _emit(args, "trivial_branch", {
        "config": _config(args, ("E", "nu", "lambda")),
        "a": branch.a, "b": branch.b, "residual": branch.residual,
    })
    return 0


def _cmd_classical_load(args):
    geometry = ShellGeometry(h=args.h, L=args.L)
    material = derive_material(args.E, args.nu)
    res = koiter.minimize_load(geometry, material, m_max=args.mmax, n_max=args.nmax)
    _emit(args, "classical_load", {
        "config": _config(args, ("h", "L", "E", "nu", "mmax", "nmax")),
        "lambda_hat": res.lambda_hat, "m": res.m_star, "n": res.n_star,
        "circle_residual": res.circle_residual, "closed_form": res.closed_form,
    })
    return 0


def _cmd_koiter_modes(args):
    geometry = ShellGeometry(h=args.h, L=args.L)
    material = derive_material(args.E, args.nu)
    ms = [int(tok) for tok in args.m.split(",") if tok.strip()]
    if not ms:
        raise ParameterError("empty m list")
    rows = []
    for m in ms:
        n = koiter.koiter_circle_n(m, geometry, material.Lambda)
        lam = koiter.lambda_star(geometry, material, m, n)
        rows.append([m, n, lam, koiter.circle_residual(geometry, material.Lambda, m, n)])
        if args.export:
            mode = koiter.buckling_mode(m, geometry, material, n=n)
            stem, ext = os.path.splitext(args.export)
            path = args.export if len(ms) == 1 else f"{stem}_m{m}{ext}"
            export_surface(mode, args.amplitude, geometry, path,
                           n_th=args.ntheta, n_z=args.nz)
    config = _config(args, ("h", "L", "E", "nu", "m", "amplitude"))
    out = os.path.join(args.out or ".", "koiter_modes.csv")
    _write_csv(out, ["m", "n", "lambda_star", "circle_residual"], rows, config)
    print(json.dumps({"config": config, "modes": [
        {"m": r[0], "n": r[1], "lambda_star": r[2], "circle_residual": r[3]}
        for r in rows]}, indent=2))
    return 0


def _cmd_korn(args):
    config = _config(args, ("h_list", "L", "mmax", "nmax", "N"))

    def one(h):
        geo = ShellGeometry(h=h, L=args.L)
        res = korn.korn_constant(geo, m_max=args.mmax, n_max=args.nmax, N=args.N)
        return (h, res.value, res.m, res.n, res.value / h**1.5)

    rows = [one(h) for h in sorted(args.h_list, reverse=True)]
    out = os.path.join(args.out or ".", "korn.csv")
    _write_csv(out, ["h", "K", "m_star", "n_star", "K_over_h15"], rows, config)
    payload = {"config": config, "rows": rows}
    if len(rows) >= 4:
        payload["fit"] = _fit_payload(rows)
        _write_json(os.path.join(args.out or ".", "korn_fit.json"), payload)
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_components(args):
    if args.which not in korn.COMPONENT_GROUPS:
        raise ParameterError(f"unknown component tag {args.which!r}; "
                             f"choose from {sorted(korn.COMPONENT_GROUPS)}")
    config = _config(args, ("h_list", "L", "which", "mmax", "nmax", "N"))

    def one(h):
        geo = ShellGeometry(h=h, L=args.L)
        res = korn.component_bound(geo, args.which, m_max=args.mmax,
                                   n_max=args.nmax, N=args.N)
        return (h, res.value, res.m, res.n)

    rows = [one(h) for h in sorted(args.h_list, reverse=True)]
    out = os.path.join(args.out or ".", f"components_{args.which}.csv")
    _write_csv(out, ["h", "bound", "m_star", "n_star"], rows, config)
    payload = {"config": config, "rows": rows,
               "target_exponent": korn.COMPONENT_EXPONENTS[args.which]}
    if len(rows) >= 4:
        payload["fit"] = _fit_payload(rows)
    print(json.dumps(payload, indent=2))
    if args.out:
        _write_json(os.path.join(args.out, f"components_{args.which}_fit.json"), payload)
    return 0


def _cmd_ansatz(args):
    geometry = ShellGeometry(h=min(args.h_list), L=args.L)
    bump = ansatz.BumpProfile(eta0=args.eta0, L=args.L, skew=args.skew)
    config = _config(args, ("h_list", "eta0", "L", "stress", "skew", "E", "nu"))
    payload = {"config": config}
    rows = []
    if args.stress is None:
        report = ansatz.verify_limits(bump, args.h_list, geometry)
        for name in ("gradient", "strain"):
            tab = report[name]
            for (h, val), nv in zip(tab.points, tab.normalized):
                rows.append([name, h, val, nv])
            payload[name] = {"points": list(tab.points),
                             "normalized": list(tab.normalized),
                             "target": tab.target}
        header = ["quantity", "h", "value", "normalized"]
        out = os.path.join(args.out or ".", "ansatz_limits.csv")
    else:
        material = derive_material(args.E, args.nu)
        stress = {"perfect": perfect_stress,
                  "shear": lambda: shear_imperfection(np.cos),
                  "hoop": hoop_imperfection}[args.stress]()
        report = ansatz.compressiveness_scaling(bump, args.h_list, geometry,
                                                material, stress)
        tab = report["ratio"]
        for h, val in tab.points:
            rows.append([args.stress, h, val])
        payload["ratio"] = {"points": list(tab.points)}
        if tab.fit is not None:
            payload["fit"] = {"exponent": tab.fit.exponent,
                              "prefactor": tab.fit.prefactor}
        payload["excluded"] = list(report["excluded"].points)
        header = ["stress", "h", "ratio"]
        out = os.path.join(args.out or ".", f"ansatz_{args.stress}.csv")
    _write_csv(out, header, rows, config)
    print(json.dumps(payload, indent=2))
    if args.out:
        _write_json(os.path.join(args.out, "ansatz_fit.json"), payload)
    return 0


def _cmd_fixedbc(args):
    geometry = ShellGeometry(h=min(args.h_list), L=args.L)
    material = derive_material(args.E, args.nu)
    config = _config(args, ("h_list", "alpha", "L", "E", "nu"))
    report = fixedbc.fixedbc_limit(args.h_list, args.alpha, geometry, material)
    rows = [(row.h, row.m, row.n, row.ratio) for row in report.rows]
    out = os.path.join(args.out or ".", "fixedbc.csv")
    _write_csv(out, ["h", "m", "n", "ratio"], rows, config)
    if args.export:
        row = report.rows[-1]
        geo = ShellGeometry(h=row.h, L=args.L)
        mode = fixedbc.fixedbc_mode(row.m, geo, material, n=row.n)
        export_surface(mode, args.amplitude, geo, args.export,
                       n_th=args.ntheta, n_z=args.nz)
    print(json.dumps({"config": config, "rows": rows}, indent=2))
    return 0


def _cmd_rect_korn(args):
    violations, min_margin = rect.basic_inequality_trials(
        args.h, args.L, trials=args.trials, seed=args.seed)
    lemma = rect.harmonic_lemma_check(args.h, args.L, seed=args.seed)
    pviol, pmargin = rect.periodic_inequality_trials(
        args.h, trials=args.trials, seed=args.seed)
    payload = {
        "config": _config(args, ("h", "L", "trials", "seed")),
        "violations": violations + lemma.hi_violations + pviol,
        "min_margin": min(min_margin, lemma.hi_min_margin, pmargin),
        "extremal_equality_error": lemma.equality_error,
    }
    _emit(args, "rect_korn", payload)
    return 4 if payload["violations"] else 0


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(prog="cylshell",
                                     description="Cylindrical-shell buckling studies")
    parser.add_argument("--out", default=None, help="output directory for artifacts")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("trivial-branch", _cmd_trivial_branch)
    p.add_argument("--E", type=float, required=True)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--lambda", type=float, required=True)

    p = add("classical-load", _cmd_classical_load)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--L", type=float, default=math.pi)
    p.add_argument("--E", type=float, default=1.0)
    p.add_argument("--nu", type=float, default=0.3)
    p.add_argument("--mmax", type=int, default=None)
    p.add_argument("--nmax", type=int, default=None)

    p = add("koiter-modes", _cmd_koiter_modes)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--L", type=float, default=math.pi)
    p.add_argument("--E", type=float, default=1.0)
    p.add_argument("--nu", type=float, default=0.3)
    p.add_argument("--m", required=True, help="comma-separated axial wavenumbers")
    p.add_argument("--amplitude", type=float, default=0.05)
    p.add_argument("--export", default=None)
    p.add_argument("--ntheta", type=int, default=96)
    p.add_argument("--nz", type=int, default=48)

    p = add("korn", _cmd_korn)
    p.add_argument("--h-list", dest="h_list", type=_parse_h_list, required=True)
    p.add_argument("--L", type=float, default=math.pi)
    p.add_argument("--mmax", type=int, default=None)
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--N", type=int, default=32)

    p = add("components", _cmd_components)
    p.add_argument("--h-list", dest="h_list", type=_parse_h_list, required=True)
    p.add_argument("--L", type=float, default=math.pi)
    p.add_argument("--which", required=True)
    p.add_argument("--mmax", type=int, default=None)
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--N", type=int, default=32)

    p = add("ansatz", _cmd_ansatz)
    p.add_argument("--h-list", dest="h_list", type=_parse_h_list, required=True)
    p.add_argument("--eta0", type=float, default=1.0)
    p.add_argument("--L", type=float, default=math.pi)
    p.add_argument("--stress", choices=("perfect", "shear", "hoop"), default=None)
    p.add_argument("--skew", type=float, default=0.0)
    p.add_argument("--E", type=float, default=1.0)
    p.add_argument("--nu", type=float, default=0.3)

    p = add("fixedbc", _cmd_fixedbc)
    p.add_argument("--h-list", dest="h_list", type=_parse_h_list, required=True)
    p.add_argument("--alpha", type=float, default=0.25)
    p.add_argument("--L", type=float, default=math.pi)
    p.add_argument("--E", type=float, default=1.0)
    p.add_argument("--nu", type=float, default=0.3)
    p.add_argument("--export", default=None)
    p.add_argument("--amplitude", type=float, default=0.05)
    p.add_argument("--ntheta", type=int, default=96)
    p.add_argument("--nz", type=int, default=48)

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
    if args.out:
        os.makedirs(args.out, exist_ok=True)
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
