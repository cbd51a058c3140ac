"""The two benchmark workloads: inputs from the seed, one pass, checks.

Each workload runs the README CLI commands in-process through
``cylshell.cli.main`` and, where no command exists, the library calls the
acceptance suite makes.  Every case is checked at the tolerance of the test
it is copied from; a case fails on an exception, a nonzero CLI exit code, a
scan that ends on its search boundary, or a value outside its tolerance.

Why these two:

- ``korn-sweep``: the smallest-quotient strain/grad pencil with the deepest
  scans; kernel and scan take almost all of its time, so it is the workload
  for scan and ``min_rayleigh`` work and the bypass workload for every
  study layer.
- ``component-studies``: the same kernel from the other end, the largest
  quotient of a 2- or 3-block numerator over the strain form, with
  shallower scans, so a kernel change that helps ``min_rayleigh`` but costs
  ``max_rayleigh`` shows here; then the studies, which run every layer but
  korn with no Rayleigh solve (the classical load with the h^-1 memory wall
  of ``minimize_load``, the clamped edge, the functional family, the ansatz
  and the rectangle solver).  The studies take about 2.5 s, all of it
  compute-bound, and on a shared 2-vCPU host their pass time follows the
  host's speed, which drifts by nearly 2x within minutes; alone they could
  not be timed to within 25% from run to run.  In one pass with the
  component sweep, whose time is set by BLAS thread hand-offs and barely
  drifts, they can.  Their own time shows per layer in the traced run.
"""

import contextlib
import io
import json
import math
import random
import time

import numpy as np

from cylshell import cli, fields, koiter, korn, rect
from cylshell.material import ShellGeometry, derive_material
from cylshell.scaling import fit_exponent

L = math.pi
# tests/test_acceptance.py H_SWEEP
H_SWEEP = (1e-2, 10**-2.5, 1e-3, 10**-3.5, 1e-4)
# the README korn sweep
KORN_H = (1e-2, 3.16e-3, 1e-3, 3.16e-4, 1e-4)
# The seed moves each interior h by at most this many decades.  At 0.1 the
# h = 10^-2.5 point of the compressiveness sweeps can cross the jump of the
# ansatz wavenumber floor(h^-1/4) from 4 to 3, and the perfect-stress fitted
# exponent then leaves 1.0 +/- 0.1 (13 of 300 seeds); at 0.05 no point
# crosses a jump.
H_JITTER = 0.05

# tests/test_korn.py::test_korn_constant_reference, at h = 1e-2
KORN_REF = (1, 5, 1.3852221157721682e-04, 1e-9)
# tests/test_korn.py::test_component_bound_reference_values, at h = 1e-2
COMPONENT_REF = {
    "ththzz": (1.0, 5e-12),
    "rthr": (6.907263900e+03, 1e-8),
    "urrzzr": (5.382924480e+02, 1e-8),
    "thzzth": (2.089076709e+01, 1e-8),
}
# tests/test_fixedbc.py::test_ratio_reference_values, rel 1e-9
FIXEDBC_REF = {1e-4: 1.027444058235132, 1e-5: 1.009350755035927,
               1e-6: 1.0033203423546768}
# the planted wrong reference of the self-check is off by this factor
PLANTED_ERROR = 1.0 + 1e-6


def approx(actual, expected, rel=1e-6, abs_=1e-12):
    """pytest.approx: |actual - expected| <= max(rel |expected|, abs)."""
    return abs(actual - expected) <= max(rel * abs(expected), abs_)


def jitter(hs, rng):
    """Move every interior h by a uniform shift of at most H_JITTER decades."""
    return (hs[0], *(h * 10.0 ** rng.uniform(-H_JITTER, H_JITTER) for h in hs[1:-1]),
            hs[-1])


def h_list(hs):
    return ",".join(repr(h) for h in hs)


class CaseError(Exception):
    pass


class Pass:
    """Cases of one pass, their checked outputs, and the scans the CLI ran."""

    def __init__(self, seed, out_dir, plant=False):
        self.seed = seed
        self.rng = random.Random(seed)
        self.out_dir = out_dir
        self.plant = plant
        self.cases = []
        self.outputs = {}
        self.scans = []

    def ref(self, value):
        return value * PLANTED_ERROR if self.plant else value

    def case(self, name, body):
        """Run ``body(check)``; the case fails if any check fails or it raises."""
        failed = []

        def check(ok, label):
            if not ok:
                failed.append(label)

        self.scans.clear()
        start = time.perf_counter()
        try:
            body(check)
            for scan in self.scans:
                check(not scan.on_boundary,
                      f"scan at ({scan.m}, {scan.n}) ended on its search boundary")
        except Exception as exc:  # a raising case is a failed case
            failed.append(f"{type(exc).__name__}: {exc}")
        self.cases.append({"name": name, "s": time.perf_counter() - start, "failed": failed})

    def cli(self, *argv):
        """Run one CLI command in-process and return its JSON output."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["--out", self.out_dir, *argv])
        if code != 0:
            raise CaseError(f"cylshell {' '.join(argv)} exited with {code}")
        return json.loads(buf.getvalue())


def korn_sweep(p):
    hs = jitter(KORN_H, p.rng)
    rows = []

    def sweep(check):
        out = p.cli("korn", "--h-list", h_list(hs))
        rows.extend(out["rows"])
        p.outputs["korn"] = out["rows"]
        p.outputs["korn.exponent"] = out["fit"]["exponent"]
        h, value, m, n, _ = rows[0]
        m_ref, n_ref, k_ref, rel = KORN_REF
        check(h == KORN_H[0] and (m, n) == (m_ref, n_ref), f"argmin {(m, n)} at h={h}")
        check(approx(value, p.ref(k_ref), rel=rel), f"K={value!r} at h={h}")
        check(1.35 <= out["fit"]["exponent"] <= 1.65, f"exponent {out['fit']['exponent']}")

    p.case("korn", sweep)
    for h in hs:
        def refine(check, h=h):
            _, value, m, n, _ = next(row for row in rows if row[0] == h)
            geo = ShellGeometry(h=h, L=L)
            pair = korn.assemble_mode_forms(m, n, geo, korn.radial_grid(geo, N=48))
            refined = korn.min_rayleigh(pair)[0]
            p.outputs[f"refine.{h!r}"] = refined
            check(abs(refined - value) <= 0.01 * value, f"N=48 moves K by {refined / value - 1:.2%}")

        p.case(f"refine h={h:.3g}", refine)


def component_sweep(p):
    for group, (ref, rel) in COMPONENT_REF.items():
        def bound(check, group=group, ref=ref, rel=rel):
            out = p.cli("components", "--which", group, "--h-list", h_list((1e-2, 1e-3)))
            p.outputs[group] = out["rows"]
            h, value, _, _ = out["rows"][0]
            check(h == 1e-2 and approx(value, p.ref(ref), rel=rel), f"bound {value!r} at h={h}")
            if group == "ththzz":
                for h, value, _, _ in out["rows"]:
                    check(value <= 1.0 + 1e-9, f"ththzz bound {value!r} > 1 at h={h}")

        p.case(f"components {group}", bound)


def studies(p):
    hs = jitter(H_SWEEP, p.rng)
    mat = derive_material(1.0, 0.3)

    for h in (1e-4, 1e-5, 1e-6):
        def load(check, h=h):
            out = p.cli("classical-load", "--h", repr(h))
            p.outputs[f"classical-load.{h!r}"] = out["lambda_hat"]
            excess = out["lambda_hat"] / out["closed_form"] - 1.0
            check(0.0 <= excess <= 0.02, f"lambda_hat {excess:+.3%} off the closed form")
            if h == 1e-4:
                check(approx(out["closed_form"], 7.022e-5, rel=1e-3),
                      f"closed form {out['closed_form']!r}")

        p.case(f"classical-load h={h:g}", load)

    def clamped(check):
        out = p.cli("fixedbc", "--h-list", h_list((1e-4, 1e-5, 1e-6, 1e-7)), "--alpha", "0.25")
        p.outputs["fixedbc"] = out["rows"]
        ratios = {row[0]: row[3] for row in out["rows"]}
        for h, ref in FIXEDBC_REF.items():
            check(approx(ratios[h], p.ref(ref), rel=1e-9), f"ratio {ratios[h]!r} at h={h}")

    p.case("fixedbc", clamped)

    def family(check):
        gaps, values = [], []
        for h in H_SWEEP:
            geo = ShellGeometry(h=h, L=L)
            n = koiter.koiter_circle_n(1, geo, mat.Lambda)
            field = koiter.buckling_mode(1, geo, mat, n=n)
            grid = fields.volume_grid(geo, n_r=4, n_th=2 * n + 7, n_z=24)
            fam = fields.functional_family(field, mat, geo, grid)
            values.append([fam[k] for k in ("K", "K1", "K0", "Kstar")])
            check(fam["K"] <= fam["K1"] * (1.0 + 1e-12), f"K > K1 at h={h}")
            gaps.append((h, abs(1.0 / fam["K0"] - 1.0 / fam["K1"]) * fam["K1"]))
            if h == 1e-4:
                check(abs(fam["Kstar"] - fam["K0"]) / fam["K0"] <= 0.1, "K* far from K0")
        p.outputs["functional-family"] = values
        exponent = fit_exponent(gaps).exponent
        check(exponent >= 0.2, f"gap exponent {exponent}")

    p.case("functional-family", family)

    def limits(check):
        out = p.cli("ansatz", "--h-list", h_list((3.0**-4, 5.0**-4, 10.0**-4)))
        for name in ("gradient", "strain"):
            normalized = out[name]["normalized"]
            p.outputs[f"ansatz.{name}"] = normalized
            check(abs(normalized[-1] - 1.0) <= 0.05, f"{name} limit {normalized[-1]}")
            diffs = [abs(v - 1.0) for v in normalized]
            check(all(a > b for a, b in zip(diffs, diffs[1:])), f"{name} not monotone")

    p.case("ansatz limits", limits)

    for stress, extra, target, tol in (("perfect", (), 1.0, 0.1),
                                       ("shear", ("--skew", "-1"), 1.25, 0.15),
                                       ("hoop", (), 1.5, 0.15)):
        def compressiveness(check, stress=stress, extra=extra, target=target, tol=tol):
            out = p.cli("ansatz", "--h-list", h_list(hs), "--stress", stress, *extra)
            exponent = out["fit"]["exponent"]
            p.outputs[f"ansatz.{stress}"] = exponent
            check(approx(exponent, target, abs_=tol), f"{stress} exponent {exponent}")

        p.case(f"ansatz {stress}", compressiveness)

    def rect_korn(check):
        out = p.cli("rect-korn", "--trials", "200", "--seed", str(p.seed))
        p.outputs["rect-korn"] = [out["violations"], out["min_margin"],
                                  out["extremal_equality_error"]]
        check(out["violations"] == 0, f"{out['violations']} violations")
        check(out["min_margin"] > 0, f"min margin {out['min_margin']}")
        check(out["extremal_equality_error"] <= 1e-8,
              f"extremal equality error {out['extremal_equality_error']}")

    p.case("rect-korn", rect_korn)

    def projections(check):
        h, length = 0.1, 1.0
        rng = np.random.default_rng(p.seed)
        diffs = []
        for _ in range(5):
            field = rect.random_zero_horizontal(rng, h, length)
            rep = rect.projection_estimates(field, alpha=1.0, h=h, L=length, allowance=0.05)
            diffs.append([rep.grad_diff, rep.value_diff])
            check(rep.holds, "projection estimate violated")
        p.outputs["projection"] = diffs

    p.case("projection-estimates", projections)

    def convergence(check):
        h, length = 0.1, 1.0
        w = rect.extremal_harmonic(h, length)
        field = rect.PlanarField(w, rect.ZERO, bc_tag=None)
        errs = []
        for n_x, n_y in ((16, 32), (32, 64)):
            sol = rect.harmonic_projection(field, h, length, n_x=n_x, n_y=n_y)
            exact = w(sol.x[:, None], sol.y[None, :])
            errs.append(float(np.max(np.abs(sol.w - exact))))
        p.outputs["harmonic-projection"] = errs
        check(approx(errs[0] / errs[1], 4.0, rel=0.15), f"convergence ratio {errs[0] / errs[1]}")

    p.case("harmonic-projection", convergence)


def component_studies(p):
    component_sweep(p)
    studies(p)


WORKLOADS = {"korn-sweep": korn_sweep, "component-studies": component_studies}
