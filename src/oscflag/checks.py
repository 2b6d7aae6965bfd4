"""Check implementations behind the catalog's declared expectations.

Every check consumes the shared verification context and returns a uniform
result record (pass/fail, the measured residual, and the tolerance it was
judged against), so reports always print residuals next to the tolerances
that judged them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import subspaces as sub
from .geometry import (PointGeometry, frame_derivative, point_geometry,
                       projection_frame, relative_nullity, ricci,
                       sectional_curvature)
from .nonparallel import (CaseClassification, NonparallelData,
                          codazzi_residual, nonparallel_data, p_parallel_drift,
                          phi_difference, phi_frame_fd, phi_pairing)
from .ruled_extension import (SplittingSpec, build_extension, integrate_leaf,
                              verify_extension)


@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: float | None = None
    tolerance: float | None = None
    description: str = ""
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "residual": self.residual,
            "tolerance": self.tolerance,
            "description": self.description,
            "details": self.details,
        }


@dataclass
class PointRecord:
    index: int
    x: np.ndarray
    geom: PointGeometry
    phi: object
    nd: NonparallelData
    nu_s: list[int]
    k: int | None = None
    classification: CaseClassification | None = None


@dataclass
class VerifyContext:
    entry: object               # CatalogEntry
    config: object              # RunConfig
    records: list[PointRecord]
    seed: int
    fd_step: float
    rank_tol: float

    @property
    def chart(self):
        return self.entry.chart

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def ruling_space(self, rec: PointRecord) -> sub.Subspace:
        if self.entry.ruling_from == "D":
            return rec.nd.D
        return rec.nd.nullity


def _bound(name, value, tol, description="", **details) -> CheckResult:
    return CheckResult(name, bool(value < tol), float(value), float(tol),
                       description, details)


def _equal(name, got, expected, description="", **details) -> CheckResult:
    details = {"got": got, "expected": expected, **details}
    return CheckResult(name, bool(got == expected), None, None, description,
                       details)


# ---------------------------------------------------------------------------
# Entry-declared checks


def check_first_normal_rank(ctx: VerifyContext, expected: int) -> CheckResult:
    got = sorted({rec.nd.p for rec in ctx.records})
    return _equal("first_normal_rank", got, [expected])


def check_s_rank(ctx: VerifyContext, expected: int) -> CheckResult:
    got = sorted({rec.nd.s for rec in ctx.records})
    return _equal("s_rank", got, [expected])


def check_d_dim(ctx: VerifyContext, expected: int) -> CheckResult:
    got = sorted({rec.nd.D.dim for rec in ctx.records})
    return _equal("d_dim", got, [expected])


def check_nu(ctx: VerifyContext, expected: int) -> CheckResult:
    got = sorted({rec.nd.nu for rec in ctx.records})
    return _equal("nu", got, [expected])


def check_case_label(ctx: VerifyContext, expected: str) -> CheckResult:
    # consequence failures are aggregated by check_trichotomy_consequences
    labels = sorted({rec.classification.label if rec.classification else
                     rec.nd.case_label for rec in ctx.records})
    return _equal("case_label", labels, [expected])


def check_flag_dims(ctx: VerifyContext, stages, total) -> CheckResult:
    seen = {tuple(s.dim for s in rec.geom.normal_flag)
            for rec in ctx.records}
    ok = len(seen) == 1
    dims = sorted(seen)[0] if ok else ()
    if ok and stages is not None:
        ok = list(dims) == list(stages)
    if ok and total is not None:
        n = ctx.chart.intrinsic_dim
        ok = n + sum(dims) == total
    return CheckResult("flag_dims", ok, None, None,
                       details={"dims_seen": sorted(list(s) for s in seen),
                                "expected_stages": stages,
                                "expected_total": total})


def check_alpha_zero(ctx: VerifyContext, tol: float) -> CheckResult:
    worst = max(float(np.max(np.abs(rec.geom.alpha))) for rec in ctx.records)
    return _bound("alpha_zero", worst, tol)


def check_phi_zero(ctx: VerifyContext, tol: float) -> CheckResult:
    worst = max(rec.phi.norm() for rec in ctx.records)
    return _bound("phi_zero", worst, tol)


def check_phi_absent(ctx: VerifyContext) -> CheckResult:
    qs = {rec.phi.mu_frame.shape[0] for rec in ctx.records}
    ss = {rec.nd.s for rec in ctx.records}
    return CheckResult(
        "phi_absent", qs == {0} and ss == {0},
        description="not locally substantial beyond the first normal space",
        details={"complement_dims": sorted(qs), "s_values": sorted(ss)})


def check_umbilic_sphere(ctx: VerifyContext, tol: float) -> CheckResult:
    worst = 0.0
    for rec in ctx.records:
        pos = ctx.chart.position(rec.x)
        n = rec.geom.n
        for a in range(n):
            for b in range(n):
                expect = -(1.0 if a == b else 0.0) * pos
                worst = max(worst, float(np.max(np.abs(
                    rec.geom.alpha[a, b] - expect))))
    return _bound("umbilic_sphere", worst, tol)


def check_ricci_constant(ctx: VerifyContext, expected: float, tol: float,
                         count: int) -> CheckResult:
    rng = ctx.rng(101)
    worst = 0.0
    per_point = max(1, count // len(ctx.records))
    for rec in ctx.records:
        for _ in range(per_point):
            xv = rng.standard_normal(rec.geom.n)
            xv /= np.linalg.norm(xv)
            worst = max(worst, abs(ricci(rec.geom, xv) - expected))
    return _bound("ricci_constant", worst, tol)


def check_sectional_flat(ctx: VerifyContext, tol: float,
                         count: int) -> CheckResult:
    rng = ctx.rng(102)
    worst = 0.0
    for rec in ctx.records:
        n = rec.geom.n
        for _ in range(max(1, count // len(ctx.records))):
            q, _ = np.linalg.qr(rng.standard_normal((n, 2)))
            worst = max(worst, abs(sectional_curvature(
                rec.geom, q[:, 0], q[:, 1])))
    return _bound("sectional_flat", worst, tol)


def check_transport_orthonormality(ctx: VerifyContext,
                                   tol: float) -> CheckResult:
    drift = ctx.entry.aux["system"].orthonormality_drift()
    return _bound("transport_orthonormality", drift, tol)


def check_ellipticity(ctx: VerifyContext, tol: float,
                      count: int) -> CheckResult:
    # J rotates the oriented orthonormal tangent frame by a quarter turn.
    rng = ctx.rng(103)
    worst = 0.0
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for rec in ctx.records:
        for _ in range(max(1, count // len(ctx.records))):
            z = rng.standard_normal(2)
            jz = rot @ z
            val = rec.geom.alpha_of(z, z) + rec.geom.alpha_of(jz, jz)
            worst = max(worst, float(np.linalg.norm(val)))
    return _bound("ellipticity", worst, tol)


def check_minimality(ctx: VerifyContext, tol: float) -> CheckResult:
    worst = max(float(np.linalg.norm(np.einsum("aaN->N", rec.geom.alpha)))
                for rec in ctx.records)
    return _bound("minimality", worst, tol)


def check_flag_coordinate_planes_at_origin(ctx: VerifyContext,
                                           tol: float) -> CheckResult:
    geom = point_geometry(ctx.chart, np.zeros(2), ctx.entry.max_normal_order,
                          ctx.rank_tol)
    big_n = ctx.chart.ambient_dim
    worst = float(np.max(sub.principal_angles(
        geom.tangent, _coordinate_plane(big_n, 0))))
    for k, stage in enumerate(geom.normal_flag, start=1):
        plane = _coordinate_plane(big_n, k)
        if stage.dim != 2:
            return CheckResult("flag_coordinate_planes_at_origin", False,
                               details={"stage": k, "dim": stage.dim})
        worst = max(worst, float(np.max(sub.principal_angles(stage, plane))))
    return _bound("flag_coordinate_planes_at_origin", worst, tol)


def _coordinate_plane(big_n: int, k: int) -> sub.Subspace:
    basis = np.zeros((2, big_n))
    basis[0, 2 * k] = 1.0
    basis[1, 2 * k + 1] = 1.0
    return sub.Subspace(big_n, basis)


def _base_geometry(ctx: VerifyContext, rec: PointRecord) -> PointGeometry:
    base_entry = ctx.entry.aux["base_entry"]
    return point_geometry(base_entry.chart, rec.x[:2],
                          base_entry.max_normal_order, ctx.rank_tol)


def check_s_matches_base_stage(ctx: VerifyContext, stage: int,
                               tol: float) -> CheckResult:
    worst = 0.0
    for rec in ctx.records:
        base_stage = _base_geometry(ctx, rec).normal_flag[stage - 1]
        if base_stage.dim != rec.nd.S.dim:
            return CheckResult("s_matches_base_stage", False,
                               details={"base_dim": base_stage.dim,
                                        "s": rec.nd.S.dim})
        worst = max(worst, float(np.max(
            sub.principal_angles(rec.nd.S, base_stage))))
    return _bound("s_matches_base_stage", worst, tol)


def check_osculating_identity(ctx: VerifyContext, tol: float) -> CheckResult:
    m = ctx.entry.aux["m"]
    worst = 0.0
    for rec in ctx.records:
        lhs = sub.direct_sum(rec.geom.tangent, rec.geom.first_normal,
                             ctx.rank_tol)
        base = _base_geometry(ctx, rec)
        rows = [base.tangent.basis]
        rows.extend(base.normal_flag[j].basis for j in range(m + 1))
        rhs = sub.span_of(np.vstack(rows), ctx.rank_tol)
        if lhs.dim != rhs.dim:
            return CheckResult("osculating_identity", False,
                               details={"lhs_dim": lhs.dim,
                                        "rhs_dim": rhs.dim})
        worst = max(worst, float(np.max(sub.principal_angles(lhs, rhs))))
    return _bound("osculating_identity", worst, tol)


def check_vertical_alpha_span(ctx: VerifyContext, tol: float) -> CheckResult:
    """Mixed alpha values over the rulings span the expected slice of the
    first normal space: the intersection with (base tangent + stage m)."""
    m = ctx.entry.aux["m"]
    worst = 0.0
    for rec in ctx.records:
        vals = np.einsum("va,abN->vbN", rec.nd.D.basis,
                         rec.geom.alpha).reshape(-1, rec.geom.ambient_dim)
        lhs = sub.span_of(vals, ctx.rank_tol,
                          ambient_dim=rec.geom.ambient_dim)
        base = _base_geometry(ctx, rec)
        slab = sub.direct_sum(base.tangent, base.normal_flag[m - 1],
                              ctx.rank_tol)
        rhs = sub.intersection(slab, rec.geom.first_normal,
                               angle_tol=max(tol, 1e-7))
        if lhs.dim != rhs.dim:
            return CheckResult("vertical_alpha_span", False,
                               details={"lhs_dim": lhs.dim,
                                        "rhs_dim": rhs.dim})
        worst = max(worst, float(np.max(sub.principal_angles(lhs, rhs))))
    return _bound("vertical_alpha_span", worst, tol)


def check_rulings_alpha_nonzero(ctx: VerifyContext, tol: float) -> CheckResult:
    """Smallest singular value of v -> alpha(v, .) on D, so that no unit
    ruling, whichever combination of D's basis it is, lies in the relative
    nullity."""
    smallest = np.inf
    for rec in ctx.records:
        d_dim = rec.nd.D.dim
        if d_dim == 0:
            continue
        a_d = np.einsum("va,abN->vbN", rec.nd.D.basis, rec.geom.alpha)
        svals = np.linalg.svd(a_d.reshape(d_dim, -1), compute_uv=False)
        smallest = min(smallest, float(svals[-1]))
    return CheckResult("rulings_alpha_nonzero", bool(smallest > tol),
                       float(smallest), float(tol),
                       description="rulings not in relative nullity")


def check_nu_s_violation(ctx: VerifyContext, s: int) -> CheckResult:
    ok = True
    values = []
    for rec in ctx.records:
        bound = rec.geom.n - s
        got = rec.nu_s[s - 1] if s - 1 < len(rec.nu_s) else 0
        values.append(got)
        ok = ok and got >= bound
    return CheckResult("nu_s_violation", ok, None, None,
                       description=f"nullity bound fails at s={s}: "
                                   f"nu_s >= n - s at every point",
                       details={"nu_s_values": values,
                                "bound": ctx.records[0].geom.n - s})


# ---------------------------------------------------------------------------
# Universal checks (applied to every entry by the run pipeline)


def check_trichotomy_consequences(ctx: VerifyContext) -> CheckResult:
    """Aggregate of the per-point consequence checks attached to the case
    classification; any failure here falsifies the implementation."""
    failures = []
    names = set()
    for rec in ctx.records:
        if rec.classification is None:
            continue
        for c in rec.classification.checks:
            names.add(c.name)
            if not c.passed:
                failures.append({"point": rec.index, "name": c.name,
                                 "detail": c.detail})
    return CheckResult("trichotomy_consequences", not failures, None, None,
                       description="checked consequences of the pointwise "
                                   "case labels",
                       details={"checked": sorted(names),
                                "failures": failures})


def check_nu_s_monotone(ctx: VerifyContext) -> CheckResult:
    ok = all(all(a >= b for a, b in zip(rec.nu_s, rec.nu_s[1:]))
             for rec in ctx.records)
    return CheckResult("nu_s_monotone", ok, None, None,
                       details={"tables": [rec.nu_s for rec in ctx.records]})


def check_lemma_parallel_i(ctx: VerifyContext, tol: float = 1e-6) -> CheckResult:
    worst = 0.0
    for rec in ctx.records:
        if rec.nd.phi_kernel.dim != rec.nd.D.dim:
            return CheckResult("lemma_parallel_i", False,
                               details={"kernel_dim": rec.nd.phi_kernel.dim,
                                        "d_dim": rec.nd.D.dim})
        if rec.nd.D.dim:
            worst = max(worst, float(np.max(sub.principal_angles(
                rec.nd.phi_kernel, rec.nd.D), initial=0.0)))
    return _bound("lemma_parallel_i", worst, tol,
                  "kernel of phi equals kernel of alpha restricted to S")


def check_d_bound(ctx: VerifyContext) -> CheckResult:
    ok = True
    rows = []
    for rec in ctx.records:
        if 0 < rec.nd.s <= 6:
            bound = rec.geom.n - rec.nd.s
            rows.append((rec.nd.D.dim, bound))
            ok = ok and rec.nd.D.dim >= bound
    return CheckResult("d_bound", ok, None, None,
                       description="dim D >= n - s wherever 0 < s <= 6",
                       details={"dim_vs_bound": rows})


def check_phi_convergence(ctx: VerifyContext, points: int = 3,
                          window: tuple[float, float] = (3.2, 4.8),
                          noise_floor: float = 1e-11) -> CheckResult:
    """Second-order convergence of the frame-difference phi to the pairing
    phi.  Entries whose phi vanishes identically pass at the noise floor."""
    h = ctx.fd_step
    ratios = []
    diffs = []
    for rec in ctx.records[:points]:
        if rec.phi.is_empty:
            continue
        d1 = phi_difference(rec.phi, phi_frame_fd(
            ctx.chart, rec.x, h, ctx.rank_tol, geom=rec.geom))
        d2 = phi_difference(rec.phi, phi_frame_fd(
            ctx.chart, rec.x, h / 2.0, ctx.rank_tol, geom=rec.geom))
        diffs.append((d1, d2))
        if max(d1, d2) > noise_floor:
            ratios.append(d1 / d2)
    ok = all(window[0] <= r <= window[1] for r in ratios)
    return CheckResult("phi_convergence", ok, None, None,
                       description="frame-difference phi converges at "
                                   "second order to the pairing phi",
                       details={"ratios": ratios, "diffs": diffs,
                                "window": list(window)})


def check_codazzi(ctx: VerifyContext, tol: float = 1e-6,
                  points: int = 3) -> CheckResult:
    worst = 0.0
    for rec in ctx.records[:points]:
        if rec.phi.is_empty:
            continue
        worst = max(worst, codazzi_residual(
            ctx.chart, rec.geom, ctx.fd_step, ctx.rng(104 + rec.index)))
    return _bound("codazzi", worst, tol,
                  "swapped shape operators of connection derivatives agree")


def check_p_parallel_drift(ctx: VerifyContext, points: int = 2) -> CheckResult:
    """Second-order smallness of the forbidden component of P-derivatives
    along D (measured at h and h/2; a true nonzero component would not
    shrink)."""
    h = ctx.fd_step
    worst_pairs = []
    ok = True
    for rec in ctx.records[:points]:
        if not (0 < rec.nd.s < rec.nd.p) or rec.nd.D.dim == 0:
            continue
        r1 = p_parallel_drift(ctx.chart, rec.geom, rec.nd, h, ctx.rank_tol)
        r2 = p_parallel_drift(ctx.chart, rec.geom, rec.nd, h / 2.0,
                              ctx.rank_tol)
        worst_pairs.append((r1, r2))
        ok = ok and r1 < max(100.0 * h ** 2, 1e-9)
    return CheckResult("p_parallel_drift", ok, None, None,
                       description="P is parallel along D: forbidden "
                                   "component is below the step-size floor",
                       details={"residual_pairs": worst_pairs,
                                "floor": 100.0 * h ** 2})


def check_s_constancy(ctx: VerifyContext, ratio: bool,
                      points: int = 2) -> CheckResult:
    """Drift of the S-projector along the ruling space.

    The drift is the largest over unit ruling directions.  The pointwise
    pairing method must show drift at the rounding floor; the
    frame-difference method carries an O(h^2) discretization error whose
    measured drift must shrink by a factor of four when the step halves.
    """
    h = ctx.fd_step
    pairing_worst = 0.0
    ratios = []

    def fd_s_projector(x, step) -> np.ndarray:
        phi = phi_frame_fd(ctx.chart, x, step, ctx.rank_tol)
        vals = phi.ambient_values()
        space = sub.span_of(vals, 1e-6, ambient_dim=ctx.chart.ambient_dim)
        return space.projector()

    def pairing_s_projector(x) -> np.ndarray:
        geom = point_geometry(ctx.chart, x, 2, ctx.rank_tol)
        nd = nonparallel_data(geom, phi_pairing(geom))
        return nd.S.projector()

    def drift(s_projector, x, directions, step) -> float:
        # largest drift over unit directions of the ruling space: the top
        # singular value of the stacked drifts along an orthonormal basis
        stacked = frame_derivative(s_projector, x, directions, step)
        return float(np.linalg.norm(
            stacked.reshape(len(directions), -1), 2))

    for rec in ctx.records[:points]:
        ruling = ctx.ruling_space(rec)
        if ruling.dim == 0 or rec.nd.s == 0:
            continue
        # the pivoted projection frame depends on the space, not its basis
        directions = projection_frame(ruling)[0] @ rec.geom.frame_in_chart
        pairing_worst = max(pairing_worst, drift(
            pairing_s_projector, rec.x, directions, h))
        if ratio:
            d_h = drift(lambda y: fd_s_projector(y, h), rec.x, directions, h)
            d_h2 = drift(lambda y: fd_s_projector(y, 0.5 * h), rec.x,
                         directions, 0.5 * h)
            if max(d_h, d_h2) > 1e-11:
                ratios.append(d_h / d_h2)
    ok = pairing_worst < 1e-6
    if ratio:
        ok = ok and bool(ratios) and all(3.2 <= r <= 4.8 for r in ratios)
    return CheckResult("s_constancy", ok, pairing_worst, 1e-6,
                       description="S-projector constant along rulings "
                                   "(pairing at rounding floor; "
                                   "frame-difference drift second order)",
                       details={"fd_ratios": ratios})


def check_ricci_rulings(ctx: VerifyContext, count: int = 50,
                        zero_tol: float = 1e-8,
                        angle_tol: float = 1e-4) -> CheckResult:
    rng = ctx.rng(105)
    ok = True
    max_ric = -np.inf
    near_zero_angle = 0.0
    per_point = max(1, count // len(ctx.records))
    for rec in ctx.records:
        ruling = ctx.ruling_space(rec)
        if ruling.dim == 0:
            continue
        for _ in range(per_point):
            xv = ruling.project(rng.standard_normal(rec.geom.n))
            xv /= np.linalg.norm(xv)
            ric = ricci(rec.geom, xv)
            max_ric = max(max_ric, ric)
            ok = ok and ric <= zero_tol
            if abs(ric) < zero_tol:
                if rec.nd.nullity.dim == 0:
                    ok = False
                    near_zero_angle = np.pi / 2
                else:
                    line = sub.Subspace(rec.geom.n, xv[None, :])
                    ang = float(sub.principal_angles(line, rec.nd.nullity)[0])
                    near_zero_angle = max(near_zero_angle, ang)
                    ok = ok and ang < angle_tol
    return CheckResult("ricci_rulings", ok, float(max_ric), zero_tol,
                       description="Ricci non-positive along rulings, zero "
                                   "only inside the relative nullity",
                       details={"worst_near_zero_angle": near_zero_angle})


def check_d_ruled_leaves(ctx: VerifyContext, points: int = 2,
                         arc: float = 0.02,
                         tol: float = 1e-8) -> CheckResult:
    """Direct D-ruledness of the base immersion: integrated leaves stay in
    the affine subspace spanned by the ruling directions, and the
    nonparallelism span stays constant along them."""
    worst_leaf = 0.0
    worst_s = 0.0

    def ruling_at(y):
        if ctx.entry.ruling_from == "D":
            geom_y = point_geometry(ctx.chart, y, 2, ctx.rank_tol)
            return geom_y, nonparallel_data(geom_y, phi_pairing(geom_y)).D
        geom_y = point_geometry(ctx.chart, y, 1, ctx.rank_tol)
        return geom_y, relative_nullity(geom_y, ctx.rank_tol)[0]

    for rec in ctx.records[:points]:
        ruling = ctx.ruling_space(rec)
        if ruling.dim == 0:
            return CheckResult("d_ruled_leaves", False,
                               details={"reason": "no ruling directions"})
        d_ambient = sub.Subspace(rec.geom.ambient_dim,
                                 ruling.basis @ rec.geom.frame)
        fx = ctx.chart.position(rec.x)
        for v in ruling.basis[:2]:
            y_end = integrate_leaf(ruling_at, v @ rec.geom.frame, rec.x, arc)
            reach = ctx.chart.position(y_end) - fx
            worst_leaf = max(worst_leaf, float(
                np.linalg.norm(d_ambient.reject(reach))
                / max(np.linalg.norm(reach), 1e-12)))
            if rec.nd.s:
                g_end = point_geometry(ctx.chart, y_end, 2, ctx.rank_tol)
                nd_end = nonparallel_data(g_end, phi_pairing(g_end))
                worst_s = max(worst_s, sub.subspace_gap(nd_end.S, rec.nd.S))
    ok = worst_leaf < tol and worst_s < tol
    return CheckResult("d_ruled_leaves", ok, float(max(worst_leaf, worst_s)),
                       tol,
                       description="leaves of D map into affine subspaces "
                                   "and S is constant along them",
                       details={"leaf_residual": worst_leaf,
                                "s_drift": worst_s})


def check_split_exercise(ctx: VerifyContext, index: int) -> CheckResult:
    """Full ruled-extension pipeline for one declared splitting exercise.

    k, r and the lemma angle are read at every sampled point; the extension
    is built and audited at the first three.  The splitting lemma bounds the
    angle between Lambda and the tangent space away from zero, so a small
    angle falsifies the implementation rather than the construction.
    """
    exercise = ctx.entry.split_exercises[index]
    spec = SplittingSpec(ctx.chart, rule=exercise.rule, tol=ctx.rank_tol)
    details: dict = {"exercise": exercise.name}
    failures: list[str] = []

    k_seen, r_seen = set(), set()
    band_ok, rform_ok = True, True
    par_angle_min = np.pi / 2
    for rec in ctx.records:
        split = spec.at(rec.x)
        k, r = split.Gamma.dim, split.Lambda.dim
        k_seen.add(k)
        r_seen.add(r)
        n, d, ell = split.geom.n, split.d, split.ell
        band_ok = band_ok and (n - d <= k <= n - d + ell)
        rform_ok = rform_ok and (r == n - d + ell - k)
        if r:
            par_angle_min = min(par_angle_min, sub.smallest_angle_between(
                split.Lambda, split.geom.tangent))
    details.update(k=sorted(k_seen), r=sorted(r_seen),
                   band_holds=band_ok, r_formula_exact=rform_ok,
                   lambda_tangent_angle=float(par_angle_min))
    if not band_ok:
        failures.append("gamma-band")
    if not rform_ok:
        failures.append("r-formula")
    if k_seen != {exercise.expected["k"]}:
        failures.append(f"k={sorted(k_seen)} expected {exercise.expected['k']}")
    if r_seen != {exercise.expected["r"]}:
        failures.append(f"r={sorted(r_seen)} expected {exercise.expected['r']}")
    if max(r_seen) and par_angle_min < 1e-6:
        failures.append("lambda-meets-tangent")

    base_points = [rec.x for rec in ctx.records[:3]]
    ext = build_extension(spec, exercise.lambda_radius, base_points)
    details["trivial"] = ext.trivial
    details["lambda_radius"] = ext.lambda_radius

    checks = verify_extension(ext, base_points, tol=1e-5, seed=ctx.seed)
    details["extension_checks"] = {c.name: [c.residual, c.tolerance]
                                   for c in checks}
    failures.extend(c.name for c in checks if not c.passed)

    if not ext.trivial:
        _check_extension_ranks(ctx, ext, base_points[0], exercise.expected,
                               details, failures)

    return CheckResult(f"split_exercise:{exercise.name}", not failures,
                       None, None,
                       description="normal-splitting exercise through the "
                                   "ruled-extension pipeline",
                       details={**details, "failures": failures})


def _check_extension_ranks(ctx, ext, x, expected, details, failures):
    """Ranks of the extension's own geometry at one translated point, read at
    the run's rank tolerance."""
    split = ext.data_at(x)
    lamv = ctx.rng(400).uniform(-0.5, 0.5, ext.r) * ext.lambda_radius
    geom = point_geometry(ext.chart, np.concatenate([x, lamv]), 1,
                          ctx.rank_tol)
    nullity, nu_ext = relative_nullity(geom)
    ranks = {"nu_ext": nu_ext, "n1f_rank": geom.first_normal.dim}
    if "script_l_rank" in expected:
        # script L: the complement of P in the extension's normal space
        p_in = sub.span_of(geom.normal_space.project(split.P.basis),
                           ctx.rank_tol, ambient_dim=geom.ambient_dim)
        ranks["script_l_rank"] = geom.normal_space.dim - p_in.dim
    for key, got in ranks.items():
        details[key] = got
        if key in expected and got != expected[key]:
            failures.append(f"{key}={got} expected {expected[key]}")

    if expected.get("delta_in_nullity"):
        resid = sub.containment_residual(split.Delta, sub.Subspace(
            geom.ambient_dim, nullity.basis @ geom.frame))
        details["delta_in_nullity_residual"] = resid
        if resid > 1e-8:
            failures.append("delta-in-nullity")


CHECKS = {
    "first_normal_rank": check_first_normal_rank,
    "s_rank": check_s_rank,
    "d_dim": check_d_dim,
    "nu": check_nu,
    "case_label": check_case_label,
    "flag_dims": check_flag_dims,
    "alpha_zero": check_alpha_zero,
    "phi_zero": check_phi_zero,
    "phi_absent": check_phi_absent,
    "umbilic_sphere": check_umbilic_sphere,
    "ricci_constant": check_ricci_constant,
    "sectional_flat": check_sectional_flat,
    "transport_orthonormality": check_transport_orthonormality,
    "ellipticity": check_ellipticity,
    "minimality": check_minimality,
    "flag_coordinate_planes_at_origin": check_flag_coordinate_planes_at_origin,
    "s_matches_base_stage": check_s_matches_base_stage,
    "osculating_identity": check_osculating_identity,
    "vertical_alpha_span": check_vertical_alpha_span,
    "rulings_alpha_nonzero": check_rulings_alpha_nonzero,
    "nu_s_violation": check_nu_s_violation,
    "s_constancy": check_s_constancy,
}
