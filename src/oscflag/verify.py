"""Verification runs: sampling, the per-point pipeline, and report assembly.

A run samples chart points (rejecting non-1-regular ones), extracts the
pointwise invariants, classifies each point, evaluates the entry's declared
expectations plus the universal lemma checks, and assembles a deterministic
report.  Reports are byte-identical across runs with the same configuration
once timings are stripped.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import checks as chk
from .catalog import CatalogEntry, get_entry
from .errors import (CapabilityError, DegeneracyError, NotImmersionError,
                     OscflagError, RegularityError, UsageError)
from .geometry import point_geometries, s_nullity
from .nonparallel import classify_case

SCHEMA_VERSION = "3"


@dataclass
class RunConfig:
    """Everything a verification run depends on; ``RunConfig(**cfg.to_dict())``
    rebuilds it."""

    entry: str
    params: dict = field(default_factory=dict)
    samples: int = 20
    seed: int = 7
    rank_tol: float = 1e-8
    out: str | None = None

    def __post_init__(self):
        if self.samples < 1:
            raise UsageError("sample count must be at least 1")
        if self.seed < 0:
            raise UsageError("seed must be non-negative")
        if not 0.0 < self.rank_tol < 1.0:
            raise UsageError("rank tolerance must lie in (0, 1)")

    def to_dict(self) -> dict:
        return {**asdict(self), "params": dict(sorted(self.params.items()))}


@dataclass
class Report:
    config: dict
    points: list[dict]
    verdicts: list[dict]
    findings: list[dict]
    timings: dict

    @property
    def passed(self) -> bool:
        return not self.findings

    def to_dict(self, include_timings: bool = True) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "config": self.config,
            "points": self.points,
            "verdicts": self.verdicts,
            "findings": self.findings,
        }
        if include_timings:
            out["timings"] = self.timings
        return out

    def to_json(self, include_timings: bool = True) -> str:
        return json.dumps(self.to_dict(include_timings), indent=2,
                          sort_keys=True, default=_json_safe) + "\n"


def _json_safe(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, tuple):
        return list(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _sample_points(entry: CatalogEntry,
                   config: RunConfig) -> tuple[list, list[str]]:
    """Accepted sample records plus rejection notes.

    Points where the immersion or flag-rank audit fails are rejected and
    resampled, matching the constant-rank assumption of the analysis.  Each
    round draws as many points as are still missing, so the draws are those
    of a loop drawing one point at a time, and audits them with one
    ``point_geometries`` call per run of points up to a rejected one.
    Attempts are numbered in draw order, at most 64 per sample.
    """
    rng = np.random.default_rng(config.seed)
    records: list[chk.PointRecord] = []
    notes: list[str] = []
    attempts = 0
    max_attempts = 64 * config.samples
    while len(records) < config.samples and attempts < max_attempts:
        pending = [entry.sampler(rng) for _ in range(min(
            config.samples - len(records), max_attempts - attempts))]
        done = 0
        while done < len(pending):
            geoms, error = point_geometries(entry.chart, pending[done:],
                                            entry.max_normal_order,
                                            config.rank_tol)
            for geom in geoms:
                done += 1
                try:
                    nd = geom.nd
                except (NotImmersionError, RegularityError) as exc:
                    notes.append(f"rejected sample {attempts + done}: {exc}")
                    continue
                records.append(chk.PointRecord(
                    index=len(records), x=pending[done - 1], geom=geom, nd=nd,
                    nu_s=[]))
            if error is not None:
                if not isinstance(error, (NotImmersionError, RegularityError)):
                    raise error
                done += 1
                notes.append(f"rejected sample {attempts + done}: {error}")
        attempts += len(pending)
    if len(records) < config.samples:
        raise DegeneracyError(
            f"only {len(records)}/{config.samples} usable points after "
            f"{attempts} attempts")
    return records, notes


def _nu_s_table(rec: chk.PointRecord, config: RunConfig) -> list[int]:
    p = rec.nd.p
    if p == 0:
        return []
    table = []
    hints = [rec.nd.S] if rec.nd.s else []
    for s in range(1, p + 1):
        table.append(s_nullity(rec.geom, s, restarts=16,
                               seed=np.random.default_rng(
                                   [config.seed, 7000 + rec.index, s]),
                               hints=hints))
    # each witness plane for s+1 contains an s-plane with at least the same
    # kernel, so cascading keeps every entry a certified lower bound
    for i in range(p - 2, -1, -1):
        table[i] = max(table[i], table[i + 1])
    return table


def _point_dict(rec: chk.PointRecord) -> dict:
    return {
        "index": rec.index,
        "x": [round(float(v), 12) for v in rec.x],
        "p": rec.nd.p,
        "s": rec.nd.s,
        "d": rec.nd.D.dim,
        "nu": rec.nd.nu,
        "nu_s_lower_bounds": rec.nu_s,
        "k": rec.k,
        "case": rec.classification.label,
        "residuals": {key: float(val)
                      for key, val in sorted(rec.nd.diagnostics.items())},
        "consequences": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in rec.classification.checks
        ],
    }


def run_verification(config: RunConfig) -> Report:
    """Execute the full pipeline for one catalog entry."""
    timings: dict[str, float] = {}
    t_start = time.perf_counter()
    entry = get_entry(config.entry, config.params)
    ruled = entry.ruling_from != "none"

    t0 = time.perf_counter()
    records, notes = _sample_points(entry, config)
    timings["sampling_s"] = round(time.perf_counter() - t0, 4)

    t0 = time.perf_counter()
    for rec in records:
        rec.nu_s = _nu_s_table(rec, config)
    timings["nu_s_s"] = round(time.perf_counter() - t0, 4)

    ctx = chk.VerifyContext(entry=entry, records=records, seed=config.seed,
                            rank_tol=config.rank_tol)

    verdicts: list[chk.CheckResult] = []

    # Ruledness first: its verdict feeds the trichotomy sub-label.
    t0 = time.perf_counter()
    d_ruled: bool | None = None
    if ruled and any(rec.nd.s for rec in records):
        result = chk.check_d_ruled_leaves(ctx)
        verdicts.append(result)
        d_ruled = bool(result.passed)
    timings["ruledness_s"] = round(time.perf_counter() - t0, 4)

    # Splitting exercises: the derivative-span rank feeds classification.
    t0 = time.perf_counter()
    k_for_classify: int | None = None
    for i, exercise in enumerate(entry.split_exercises):
        try:
            result = chk.check_split_exercise(ctx, i)
        except CapabilityError as exc:
            # the extension's second derivatives need the chart (and the
            # rule) to more orders than the entry declares
            result = chk.CheckResult(f"split_exercise:{exercise.name}", False,
                                     details={"error": str(exc)})
        verdicts.append(result)
        if exercise.name == "default" and result.details.get("k"):
            k_for_classify = result.details["k"][0]
    timings["extensions_s"] = round(time.perf_counter() - t0, 4)

    for rec in records:
        rec.k = k_for_classify
        rec.classification = classify_case(rec.nd, rec.geom.n,
                                           k=k_for_classify, d_ruled=d_ruled)

    # Declared expectations.
    t0 = time.perf_counter()
    for expectation in entry.expected:
        fn = chk.CHECKS[expectation.check]
        try:
            result = fn(ctx, **expectation.params)
        except OscflagError as exc:
            result = chk.CheckResult(expectation.check, False,
                                     details={"error": str(exc)})
        result.description = result.description or expectation.description
        verdicts.append(result)
    timings["expectations_s"] = round(time.perf_counter() - t0, 4)

    # Universal lemma checks.
    t0 = time.perf_counter()
    verdicts.append(chk.check_trichotomy_consequences(ctx))
    verdicts.append(chk.check_nu_s_monotone(ctx))
    verdicts.append(chk.check_lemma_parallel_i(ctx))
    verdicts.append(chk.check_d_bound(ctx))
    verdicts.append(chk.check_phi_convergence(ctx))
    verdicts.append(chk.check_codazzi(ctx))
    if any(0 < rec.nd.s < rec.nd.p and rec.nd.D.dim for rec in records):
        verdicts.append(chk.check_p_parallel_drift(ctx))
    if ruled:
        verdicts.append(chk.check_ricci_rulings(ctx))
        has_ratio = any(e.check == "s_constancy" for e in entry.expected)
        if not has_ratio and any(rec.nd.s for rec in records):
            verdicts.append(chk.check_s_constancy(ctx, ratio=False))
    timings["universal_s"] = round(time.perf_counter() - t0, 4)

    findings = []
    for v in verdicts:
        if not v.passed:
            findings.append({
                "check": v.name,
                "residual": v.residual,
                "tolerance": v.tolerance,
                "details": v.details,
            })

    timings["total_s"] = round(time.perf_counter() - t_start, 4)
    report = Report(
        config=config.to_dict(),
        points=[_point_dict(rec) for rec in records],
        verdicts=[v.to_dict() for v in verdicts],
        findings=findings,
        timings={**timings, "rejection_notes": notes},
    )
    return report
