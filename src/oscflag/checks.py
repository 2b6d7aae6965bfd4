"""Check implementations behind the catalog's declared expectations.

Every check consumes the shared verification context and returns a uniform
result record (pass/fail, the measured residual, and the tolerance it was
judged against), so reports always print residuals next to the tolerances
that judged them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import subspaces as sub
from .errors import GammaBandError, LRankError, NumericalRankError
from .geometry import (PointGeometry, drift, frame_derivative,
                       kernel_projector, point_geometries, point_geometry,
                       projection_frame, relative_nullity, ricci,
                       sectional_curvature, tangent_jets)
from .jets import signature
from .nonparallel import (CaseClassification, NonparallelData, PhiTensor,
                          codazzi_residual, phi_difference, phi_frame_fd,
                          phi_frame_fds, s_projector)
from .ruled_extension import (SPLIT_ORDER, SplittingSpec, build_extension,
                              verify_extension)

# Step h of the frame-difference oracles, which also difference at h/2.  The
# ratio of their errors at h and h/2 must fall in GATES["phi_convergence"],
# around the 4 of second order.  Across the catalog only steps from about
# 1e-3 to 5e-3 keep every ratio there: rounding takes over below,
# higher-order terms and the edge of the chart's domain above.
FD_STEP = 1e-3

# The translation radius build_extension starts each split exercise from.
LAMBDA_RADIUS = 0.08

# A split exercise builds and audits its extension at its first PROBES
# records; the constancy checks along the rulings read the first
# CONSTANCY_POINTS and the frame-difference phi checks the first FD_POINTS.
PROBES = 3
CONSTANCY_POINTS = 2
FD_POINTS = 3

# Random directions each sampling check spreads over the records.
RICCI_SAMPLES = 50
ELLIPTICITY_SAMPLES = 20

# Working floors, not gates: a convergence ratio is read only where one of
# its two errors exceeds FD_NOISE_FLOOR; s_constancy spans the
# frame-difference phi values at FD_SPAN_TOL.
FD_NOISE_FLOOR = 1e-11
FD_SPAN_TOL = 1e-6

# The gate of every verdict, by name, with its reason: a residual passes
# below its gate, except where a row says it is a lower bound.
# sectional_flat alone takes its gate from the entry, whose entries need
# different ones.  Sub-gates of a verdict are named "verdict.part".
GATES = {
    # an affine chart: alpha vanishes up to rounding
    "alpha_zero": 1e-12,
    # alpha = -<X, Y> f on the unit sphere, up to rounding of sin/cos jets
    "umbilic_sphere": 1e-10,
    # a holomorphic curve is minimal: the trace of alpha at rounding
    "minimality": 1e-10,
    # a holomorphic curve: alpha(z, z) + alpha(Jz, Jz) = 0 at rounding
    "ellipticity": 1e-10,
    # the unit n-sphere's Ricci curvature is n - 1, summed at rounding
    "ricci_constant": 1e-9,
    # a product of circles has parallel first normal bundle: phi = 0
    "phi_zero": 1e-9,
    # Taylor transport steps at relative 1e-16 keep the frames orthonormal
    "transport_orthonormality": 1e-9,
    # the flag at the centre of a holomorphic curve is exact
    "flag_coordinate_planes_at_origin": 1e-9,
    # subspace identities: angles below 1e-6 certify equal spans
    "s_matches_base_stage": 1e-6,
    "osculating_identity": 1e-6,
    "vertical_alpha_span": 1e-6,
    "lemma_parallel_i": 1e-6,
    # lower bound: alpha(v, .) on rulings stays off zero, not in the nullity
    "rulings_alpha_nonzero": 1e-6,
    # the Richardson phi is fourth order at FD_STEP
    "codazzi": 1e-6,
    # drift of an exact projector jet sits at rounding: Pi_P, Pi_S, Pi_D
    "p_parallel_drift": 1e-8,
    "s_constancy": 1e-6,
    "d_ruled_leaves": 1e-8,
    # Ricci along a ruling is at most this, and zero below it
    "ricci_rulings": 1e-8,
    # a ruling of zero Ricci lies in the relative nullity up to this angle
    "ricci_rulings.nullity_angle": 1e-4,
    # the error ratio at h and h/2 around 4 (also s_constancy's fd ratios)
    "phi_convergence": (3.2, 4.8),
    # lower bound: the splitting lemma keeps Lambda off the tangent space
    "split_exercise.lambda_tangent_angle": 1e-6,
    # Delta in the extension's relative nullity, from exact projector jets
    "split_exercise.delta_in_nullity": 1e-8,
}


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
    nd: NonparallelData
    nu_s: list[int]
    k: int | None = None
    classification: CaseClassification | None = None

    @cached_property
    def pi_s(self) -> np.ndarray:
        """Order-1 jet of Pi_S, of rank s, shared by the constancy checks
        along the rulings."""
        return s_projector(self.geom, 1, rank=self.nd.s)[1]

    @cached_property
    def phi_fd(self) -> tuple[PhiTensor, PhiTensor]:
        """The frame-difference phi at steps FD_STEP and FD_STEP / 2, shared
        by the convergence and Codazzi checks."""
        return tuple(phi_frame_fd(self.geom.chart, self.x, h, self.geom.tol,
                                  geom=self.geom)
                     for h in (FD_STEP, FD_STEP / 2.0))


@dataclass
class VerifyContext:
    entry: object               # CatalogEntry
    records: list[PointRecord]
    seed: int
    rank_tol: float

    @property
    def chart(self):
        return self.entry.chart

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    @cached_property
    def base_geometries(self) -> list[PointGeometry]:
        """The base surface's geometry under each record, by record index,
        for entries built over one (``aux["base_entry"]``)."""
        base = self.entry.aux["base_entry"]
        geoms, error = point_geometries(
            base.chart, [rec.x[:2] for rec in self.records],
            base.max_normal_order, self.rank_tol)
        if error is not None:
            raise error
        return geoms

    def ruling_space(self, rec: PointRecord) -> sub.Subspace:
        if self.entry.ruling_from == "D":
            return rec.nd.D
        return rec.nd.nullity

    def ruling_jet(self, rec: PointRecord) -> np.ndarray:
        """Order-1 jet of the ambient projector onto the ruling space: the
        kernel of alpha restricted to U = S (D) or to U = I - Pi_T (the
        relative nullity)."""
        tangent, pi_t = tangent_jets(rec.geom, 2)
        if self.entry.ruling_from == "D":
            pi_u, rank = rec.pi_s, rec.nd.D.dim
        else:
            pi_u, rank = -pi_t, rec.nd.nu
            pi_u[0] += np.eye(rec.geom.ambient_dim)
        return kernel_projector(signature(rec.geom.n, 1), pi_u, pi_t, tangent,
                                rank, rec.geom.tol)[1]


def _chart_directions(geom: PointGeometry, space: sub.Subspace) -> np.ndarray:
    """Chart directions of an orthonormal frame of ``space`` (tangent-frame
    coordinates); the pivoted projection frame depends on the space, not on
    its basis, so residuals at the rounding floor do not move with it."""
    return projection_frame(space)[0] @ geom.frame_in_chart


def _bound(name, value, description="", **details) -> CheckResult:
    tol = GATES[name]
    return CheckResult(name, bool(value < tol), float(value), float(tol),
                       description, details)


def _equal(name, got, expected, description="", **details) -> CheckResult:
    details = {"got": got, "expected": expected, **details}
    return CheckResult(name, bool(got == expected), None, None, description,
                       details)


def _angles(name, pairs, description="") -> CheckResult:
    """Largest principal angle over ``pairs`` of subspaces; the first pair
    whose dimensions differ fails the check, naming its index and both."""
    angles = []
    for i, (a, b) in enumerate(pairs):
        if a.dim != b.dim:
            return CheckResult(name, False, description=description,
                               details={"pair": i, "dims": [a.dim, b.dim]})
        angles.append(np.max(sub.principal_angles(a, b), initial=0.0))
    return _bound(name, sub.worst(angles), description)


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
    labels = sorted({rec.classification.label for rec in ctx.records})
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


def check_alpha_zero(ctx: VerifyContext) -> CheckResult:
    worst = sub.worst(np.max(np.abs(rec.geom.alpha)) for rec in ctx.records)
    return _bound("alpha_zero", worst)


def check_phi_zero(ctx: VerifyContext) -> CheckResult:
    worst = sub.worst(rec.nd.phi.norm() for rec in ctx.records)
    return _bound("phi_zero", worst)


def check_phi_absent(ctx: VerifyContext) -> CheckResult:
    qs = {rec.nd.phi.mu_frame.shape[0] for rec in ctx.records}
    ss = {rec.nd.s for rec in ctx.records}
    return CheckResult(
        "phi_absent", qs == {0} and ss == {0},
        description="not locally substantial beyond the first normal space",
        details={"complement_dims": sorted(qs), "s_values": sorted(ss)})


def check_umbilic_sphere(ctx: VerifyContext) -> CheckResult:
    # alpha(X, Y) = -<X, Y> f on the unit sphere
    worst = sub.worst(np.max(np.abs(
        rec.geom.alpha + np.einsum("ab,N->abN", np.eye(rec.geom.n),
                                   ctx.chart.position(rec.x))))
        for rec in ctx.records)
    return _bound("umbilic_sphere", worst)


def check_ricci_constant(ctx: VerifyContext, expected: float) -> CheckResult:
    rng = ctx.rng(101)
    residuals = []
    per_point = max(1, RICCI_SAMPLES // len(ctx.records))
    for rec in ctx.records:
        for _ in range(per_point):
            xv = rng.standard_normal(rec.geom.n)
            xv /= np.linalg.norm(xv)
            residuals.append(abs(ricci(rec.geom, xv) - expected))
    return _bound("ricci_constant", sub.worst(residuals))


def check_sectional_flat(ctx: VerifyContext, tol: float,
                         count: int) -> CheckResult:
    rng = ctx.rng(102)
    residuals = []
    for rec in ctx.records:
        n = rec.geom.n
        for _ in range(max(1, count // len(ctx.records))):
            q, _ = np.linalg.qr(rng.standard_normal((n, 2)))
            residuals.append(abs(sectional_curvature(
                rec.geom, q[:, 0], q[:, 1])))
    # the gate is the entry's (see GATES)
    worst = sub.worst(residuals)
    return CheckResult("sectional_flat", bool(worst < tol), float(worst),
                       float(tol))


def check_transport_orthonormality(ctx: VerifyContext) -> CheckResult:
    drift = ctx.entry.aux["system"].orthonormality_drift()
    return _bound("transport_orthonormality", drift)


def check_ellipticity(ctx: VerifyContext) -> CheckResult:
    # J rotates the oriented orthonormal tangent frame by a quarter turn.
    rng = ctx.rng(103)
    residuals = []
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for rec in ctx.records:
        for _ in range(max(1, ELLIPTICITY_SAMPLES // len(ctx.records))):
            z = rng.standard_normal(2)
            jz = rot @ z
            val = rec.geom.alpha_of(z, z) + rec.geom.alpha_of(jz, jz)
            residuals.append(np.linalg.norm(val))
    return _bound("ellipticity", sub.worst(residuals))


def check_minimality(ctx: VerifyContext) -> CheckResult:
    worst = sub.worst(np.linalg.norm(np.einsum("aaN->N", rec.geom.alpha))
                      for rec in ctx.records)
    return _bound("minimality", worst)


def check_flag_coordinate_planes_at_origin(ctx: VerifyContext) -> CheckResult:
    geom = point_geometry(ctx.chart, np.zeros(2), ctx.entry.max_normal_order,
                          ctx.rank_tol)
    coords = np.eye(ctx.chart.ambient_dim)  # stage k: coordinates 2k, 2k + 1
    return _angles("flag_coordinate_planes_at_origin",
                   ((space, sub.Subspace(len(coords), coords[2 * k:2 * k + 2]))
                    for k, space
                    in enumerate([geom.tangent, *geom.normal_flag])))


def check_s_matches_base_stage(ctx: VerifyContext) -> CheckResult:
    # S is stage m + 1 of the base flag, normal_flag[m]
    m = ctx.entry.params["m"]
    return _angles("s_matches_base_stage",
                   ((rec.nd.S, ctx.base_geometries[rec.index].normal_flag[m])
                    for rec in ctx.records))


def check_osculating_identity(ctx: VerifyContext) -> CheckResult:
    m = ctx.entry.params["m"]

    def pair(rec):
        base = ctx.base_geometries[rec.index]
        rows = [base.tangent.basis]
        rows.extend(base.normal_flag[j].basis for j in range(m + 1))
        return (sub.direct_sum(rec.geom.tangent, rec.geom.first_normal,
                               ctx.rank_tol),
                sub.span_of(np.vstack(rows), ctx.rank_tol))
    return _angles("osculating_identity", map(pair, ctx.records))


def check_vertical_alpha_span(ctx: VerifyContext) -> CheckResult:
    """Mixed alpha values over the rulings span the expected slice of the
    first normal space: the intersection with (base tangent + stage m)."""
    m = ctx.entry.params["m"]

    def pair(rec):
        vals = np.einsum("va,abN->vbN", rec.nd.D.basis,
                         rec.geom.alpha).reshape(-1, rec.geom.ambient_dim)
        base = ctx.base_geometries[rec.index]
        slab = sub.direct_sum(base.tangent, base.normal_flag[m - 1],
                              ctx.rank_tol)
        return (sub.span_of(vals, ctx.rank_tol,
                            ambient_dim=rec.geom.ambient_dim),
                sub.intersection(slab, rec.geom.first_normal,
                                 angle_tol=GATES["vertical_alpha_span"]))
    return _angles("vertical_alpha_span", map(pair, ctx.records))


def check_rulings_alpha_nonzero(ctx: VerifyContext) -> CheckResult:
    """Smallest singular value of v -> alpha(v, .) on D, so that no unit
    ruling, whichever combination of D's basis it is, lies in the relative
    nullity.  ``np.min`` keeps a NaN, which then fails ``smallest > tol``;
    with no ruling directions at any point nothing is checked, which fails."""
    if not any(rec.nd.D.dim for rec in ctx.records):
        return CheckResult("rulings_alpha_nonzero", False,
                           details={"reason": "no ruling directions"})
    smallest = float(np.min([
        np.linalg.svd(np.einsum("va,abN->vbN", rec.nd.D.basis,
                                rec.geom.alpha).reshape(rec.nd.D.dim, -1),
                      compute_uv=False)[-1]
        for rec in ctx.records if rec.nd.D.dim]))
    tol = GATES["rulings_alpha_nonzero"]
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


def check_lemma_parallel_i(ctx: VerifyContext) -> CheckResult:
    return _angles("lemma_parallel_i",
                   ((rec.nd.phi_kernel, rec.nd.D) for rec in ctx.records),
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


def check_phi_convergence(ctx: VerifyContext) -> CheckResult:
    """Second-order convergence of the frame-difference phi to the pairing
    phi.  Entries whose phi vanishes identically pass at the noise floor."""
    ratios = []
    diffs = []
    for rec in ctx.records[:FD_POINTS]:
        if rec.nd.phi.is_empty:
            continue
        d1, d2 = (phi_difference(rec.nd.phi, fd) for fd in rec.phi_fd)
        diffs.append((d1, d2))
        if max(d1, d2) > FD_NOISE_FLOOR:
            ratios.append(d1 / d2)
    low, high = GATES["phi_convergence"]
    ok = all(low <= r <= high for r in ratios)
    return CheckResult("phi_convergence", ok, None, None,
                       description="frame-difference phi converges at "
                                   "second order to the pairing phi",
                       details={"ratios": ratios, "diffs": diffs,
                                "window": [low, high]})


def check_codazzi(ctx: VerifyContext) -> CheckResult:
    """Codazzi symmetry of the Richardson combination (4 phi(h/2) - phi(h))/3
    of the frame-difference phi, which is fourth-order accurate."""
    def richardson(rec: PointRecord) -> PhiTensor:
        fd_h, fd_h2 = rec.phi_fd
        return replace(fd_h2, values=(4.0 * fd_h2.values - fd_h.values) / 3.0)

    worst = sub.worst(codazzi_residual(rec.geom, richardson(rec),
                                       ctx.rng(104 + rec.index))
                      for rec in ctx.records[:FD_POINTS]
                      if not rec.nd.phi.is_empty)
    return _bound("codazzi", worst,
                  "swapped shape operators of connection derivatives agree")


def check_p_parallel_drift(ctx: VerifyContext) -> CheckResult:
    """P, the sum of S and the complement of the first normal space, is
    constant along D: the largest derivative of Pi_P along a unit D vector.
    Its tangent part vanishes because D is the kernel of alpha restricted to
    P, so what it measures is the forbidden L-component of the derivatives
    of P-sections.  Pi_P is the jet of the default splitting's ``PointSplit``.
    """
    spec = SplittingSpec(ctx.chart, tol=ctx.rank_tol)
    try:
        worst = sub.worst(drift(spec.at(rec.geom, 1).pi_p,
                                _chart_directions(rec.geom, rec.nd.D))
                          for rec in ctx.records[:CONSTANCY_POINTS]
                          if 0 < rec.nd.s < rec.nd.p and rec.nd.D.dim)
    except NumericalRankError as exc:
        return CheckResult("p_parallel_drift", False,
                           details={"error": str(exc)})
    return _bound("p_parallel_drift", worst, "P is parallel along D")


def check_s_constancy(ctx: VerifyContext, ratio: bool) -> CheckResult:
    """Drift of the S-projector along the ruling space.

    The drift is the largest over unit ruling directions.  The exact jet of
    Pi_S (``PointRecord.pi_s``) must show drift at the rounding floor; the
    frame-difference method carries an O(h^2) discretization error whose
    measured drift must shrink by a factor of four when the step halves.
    """
    exact = []
    ratios = []

    def fd_drift(x, directions, step) -> float:
        # as geometry.drift, on central differences of the S-projector of
        # the frame-difference phi: the geometries at the outer stencil
        # points in one batch, their inner stencils in another; a point
        # fails after the inner stencils of the points before it
        def s_projectors_at(points) -> np.ndarray:
            geoms, error = point_geometries(ctx.chart, points, 1,
                                            ctx.rank_tol)
            phis = phi_frame_fds(ctx.chart, geoms, step, ctx.rank_tol)
            if error is not None:
                raise error
            return np.array([sub.span_of(
                phi.ambient_values(), FD_SPAN_TOL,
                ambient_dim=ctx.chart.ambient_dim).projector()
                for phi in phis])
        stacked = frame_derivative(s_projectors_at, x, directions, step)
        return float(np.linalg.norm(
            stacked.reshape(len(directions), -1), 2))

    for rec in ctx.records[:CONSTANCY_POINTS]:
        if ctx.ruling_space(rec).dim == 0 or rec.nd.s == 0:
            continue
        directions = _chart_directions(rec.geom, ctx.ruling_space(rec))
        exact.append(drift(rec.pi_s, directions))
        if ratio:
            d_h = fd_drift(rec.x, directions, FD_STEP)
            d_h2 = fd_drift(rec.x, directions, FD_STEP / 2.0)
            if max(d_h, d_h2) > FD_NOISE_FLOOR:
                ratios.append(d_h / d_h2)
    pairing_worst = sub.worst(exact)
    tol = GATES["s_constancy"]
    ok = pairing_worst < tol
    if ratio:
        low, high = GATES["phi_convergence"]
        ok = ok and bool(ratios) and all(low <= r <= high for r in ratios)
    return CheckResult("s_constancy", ok, pairing_worst, tol,
                       description="S-projector constant along rulings "
                                   "(projector jet at rounding floor; "
                                   "frame-difference drift second order)",
                       details={"fd_ratios": ratios})


def check_ricci_rulings(ctx: VerifyContext) -> CheckResult:
    rng = ctx.rng(105)
    zero_tol = GATES["ricci_rulings"]
    ok = True
    rics, angles = [], []
    per_point = max(1, RICCI_SAMPLES // len(ctx.records))
    for rec in ctx.records:
        ruling = ctx.ruling_space(rec)
        if ruling.dim == 0:
            continue
        for _ in range(per_point):
            xv = ruling.project(rng.standard_normal(rec.geom.n))
            xv /= np.linalg.norm(xv)
            ric = ricci(rec.geom, xv)
            rics.append(ric)
            ok = ok and ric <= zero_tol
            if abs(ric) < zero_tol:
                if rec.nd.nullity.dim == 0:
                    ok = False
                    angles.append(np.pi / 2)
                else:
                    line = sub.Subspace(rec.geom.n, xv[None, :])
                    ang = float(sub.principal_angles(line, rec.nd.nullity)[0])
                    angles.append(ang)
                    ok = ok and ang < GATES["ricci_rulings.nullity_angle"]
    return CheckResult("ricci_rulings", ok, sub.worst(rics, -np.inf),
                       zero_tol,
                       description="Ricci non-positive along rulings, zero "
                                   "only inside the relative nullity",
                       details={"worst_near_zero_angle": sub.worst(angles)})


def check_d_ruled_leaves(ctx: VerifyContext) -> CheckResult:
    """Direct D-ruledness of the base immersion: the ruling space and the
    nonparallelism span are constant along the ruling directions, each the
    largest derivative of its projector along a unit ruling vector
    (``geometry.drift``).  A ruling distribution constant along its own
    leaves maps each of them into an affine subspace."""
    leaf, s_drift = [], []
    for rec in ctx.records[:CONSTANCY_POINTS]:
        if ctx.ruling_space(rec).dim == 0:
            return CheckResult("d_ruled_leaves", False,
                               details={"reason": "no ruling directions"})
        directions = _chart_directions(rec.geom, ctx.ruling_space(rec))
        leaf.append(drift(ctx.ruling_jet(rec), directions))
        if rec.nd.s:
            s_drift.append(drift(rec.pi_s, directions))
    worst_leaf, worst_s = sub.worst(leaf), sub.worst(s_drift)
    return _bound("d_ruled_leaves", sub.worst([worst_leaf, worst_s]),
                  "leaves of D map into affine subspaces and S is constant "
                  "along them", leaf_residual=worst_leaf, s_drift=worst_s)


def check_split_exercise(ctx: VerifyContext, index: int) -> CheckResult:
    """Full ruled-extension pipeline for one declared splitting exercise.

    k, r and the lemma angle are read at every sampled point, split once:
    at ``SPLIT_ORDER`` at the probe points, where the extension is built and
    audited, and at order 1 elsewhere.  The splitting lemma bounds the angle
    between Lambda and the tangent space away from zero, so a small angle
    falsifies the implementation rather than the construction.
    """
    exercise = ctx.entry.split_exercises[index]
    spec = SplittingSpec(ctx.chart, rule=exercise.rule, tol=ctx.rank_tol)
    name = f"split_exercise:{exercise.name}"
    description = ("normal-splitting exercise through the ruled-extension "
                   "pipeline")
    details: dict = {"exercise": exercise.name}
    failures: list[str] = []

    k_seen, r_seen = set(), set()
    rform_ok = True
    angles = []
    splits = []
    for i, rec in enumerate(ctx.records):
        try:
            split = spec.at(rec.geom, SPLIT_ORDER if i < PROBES else 1)
        except NumericalRankError as exc:
            # split_jets raises where rank L leaves 0 < ell < N - n, d = 0
            # or dim Gamma leaves n - d <= k <= n - d + ell: no extension
            failure = ("gamma-band" if isinstance(exc, GammaBandError) else
                       "l-rank" if isinstance(exc, LRankError) else "d-zero")
            details.update(error=str(exc), band_holds=failure != "gamma-band")
            return CheckResult(name, False, description=description,
                               details={**details, "failures": [failure]})
        splits.append(split)
        k, r = split.Gamma.dim, split.Lambda.dim
        k_seen.add(k)
        r_seen.add(r)
        n, d, ell = split.geom.n, split.d, split.ell
        rform_ok = rform_ok and (r == n - d + ell - k)
        if r:
            angles.append(sub.smallest_angle_between(split.Lambda,
                                                     split.geom.tangent))
    par_angle_min = float(np.min(angles, initial=np.pi / 2))
    # every split above passed split_jets' band check
    details.update(k=sorted(k_seen), r=sorted(r_seen),
                   band_holds=True, r_formula_exact=rform_ok,
                   lambda_tangent_angle=float(par_angle_min))
    if not rform_ok:
        failures.append("r-formula")
    if k_seen != {exercise.expected["k"]}:
        failures.append(f"k={sorted(k_seen)} expected {exercise.expected['k']}")
    if r_seen != {exercise.expected["r"]}:
        failures.append(f"r={sorted(r_seen)} expected {exercise.expected['r']}")
    angle_gate = GATES["split_exercise.lambda_tangent_angle"]
    if max(r_seen) and not par_angle_min >= angle_gate:
        failures.append("lambda-meets-tangent")

    ext = build_extension(spec, LAMBDA_RADIUS, splits[:PROBES])
    details["trivial"] = ext.trivial
    details["lambda_radius"] = ext.lambda_radius

    checks = verify_extension(ext, [rec.x for rec in ctx.records[:PROBES]],
                              seed=ctx.seed)
    details["extension_checks"] = {c.name: [c.residual, c.tolerance]
                                   for c in checks}
    failures.extend(c.name for c in checks if not c.passed)

    if not ext.trivial:
        _check_extension_ranks(ctx, ext, splits[0], exercise.expected,
                               details, failures)

    return CheckResult(name, not failures, description=description,
                       details={**details, "failures": failures})


def _check_extension_ranks(ctx, ext, split, expected, details, failures):
    """Ranks of the extension's own geometry at one translation of the
    split's point, read at the run's rank tolerance."""
    lamv = ctx.rng(400).uniform(-0.5, 0.5, ext.r) * ext.lambda_radius
    geom = point_geometry(ext.chart, np.concatenate([split.geom.x, lamv]), 1,
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
        if resid > GATES["split_exercise.delta_in_nullity"]:
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
