"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The per-entry verification reports are produced once with
pinned configurations and shared across criteria.
"""

import importlib.util
import json
import time
from pathlib import Path

import numpy as np
import pytest

from oscflag.catalog import entry_names, get_entry
from oscflag.checks import GATES
from oscflag.geometry import point_geometry, ricci
from oscflag.jets import jet_cos, jet_sin, jet_variable, signature, \
    variables
from oscflag.ruled_extension import EXTENSION_GATES
from oscflag.verify import Report, RunConfig, run_verification
from jet_oracles import substitute_affine
from moore import BilinearForm, moore_check, regular_element

CONFIGS = {
    "section4-ruled": RunConfig("section4-ruled", {"m": 2}, samples=20,
                                seed=7),
    "sphere": RunConfig("sphere", {"n": 2}, samples=5, seed=3),
    "flat": RunConfig("flat", samples=4, seed=3),
    "product-torus": RunConfig("product-torus", samples=4, seed=3),
    "curve-parallel": RunConfig("curve-parallel", samples=5, seed=3),
    "holomorphic-curve": RunConfig("holomorphic-curve", {"m": 2}, samples=5,
                                   seed=3),
    "curve-product": RunConfig("curve-product", samples=4, seed=3),
}


@pytest.fixture(scope="module")
def reports() -> dict[str, Report]:
    out = {}
    for name, config in CONFIGS.items():
        t0 = time.perf_counter()
        out[name] = run_verification(config)
        out[name].timings["fixture_wall_s"] = time.perf_counter() - t0
    return out


def verdict(report: Report, name: str) -> dict:
    matches = [v for v in report.verdicts if v["name"] == name]
    assert matches, f"verdict {name} missing"
    return matches[0]


def announce(number: int, text: str):
    print(f"\nACCEPTANCE {number}: PASS - {text}")


def test_criterion_01_ruled_example_invariants(reports):
    report = reports["section4-ruled"]
    assert len(report.points) == 20
    assert {p["p"] for p in report.points} == {4}
    assert {p["s"] for p in report.points} == {2}
    assert {p["d"] for p in report.points} == {2}
    assert {p["case"] for p in report.points} == {"case-iii-a"}
    match = verdict(report, "s_matches_base_stage")
    assert match["passed"] and match["residual"] < 1e-6
    wall = report.timings["total_s"]
    assert wall < 60.0, f"run took {wall}s"
    announce(1, f"rank 4 / s 2 / d 2 / case iii-a at 20 points; base-stage "
                f"match {match['residual']:.2e} < 1e-6; wall {wall:.1f}s")


def test_criterion_02_ruling_sharpness(reports):
    report = reports["section4-ruled"]
    nz = verdict(report, "rulings_alpha_nonzero")
    assert nz["passed"] and nz["residual"] > 1e-6
    for p in report.points:
        assert p["d"] == 4 - p["s"] == 2
    announce(2, f"alpha on rulings bounded below by {nz['residual']:.2e} "
                f"> 1e-6 and dim D = n - s exactly at every point")


def test_criterion_03_s_constancy_along_rulings(reports):
    report = reports["section4-ruled"]
    sc = verdict(report, "s_constancy")
    assert sc["passed"]
    ratios = sc["details"]["fd_ratios"]
    assert ratios and all(3.2 <= r <= 4.8 for r in ratios)
    assert sc["residual"] < 1e-6  # pointwise method at the rounding floor
    announce(3, f"projector drift ratios {[round(r, 3) for r in ratios]} "
                f"inside 4 +/- 20%; pointwise drift {sc['residual']:.1e}")


def test_criterion_04_phi_cross_validation(reports):
    summary = {}
    for name, report in reports.items():
        conv = verdict(report, "phi_convergence")
        assert conv["passed"], name
        summary[name] = [round(r, 3) for r in conv["details"]["ratios"]]
    announce(4, f"second-order convergence on all entries: {summary}")


def test_criterion_05_moore_property():
    t0 = time.perf_counter()
    checked = 0
    worst = 0.0
    for case in range(1000):
        rng = np.random.default_rng(10_000 + case)
        dims = tuple(rng.integers(1, 7, size=3))
        form = BilinearForm(rng.standard_normal(dims))
        reg = regular_element(form, trials=40, seed=rng)
        sampled_max = max(reg.rank, max(
            form.rank_of(z / np.linalg.norm(z))
            for z in rng.standard_normal((50, dims[0]))))
        if reg.rank == sampled_max:
            checked += 1
            worst = max(worst, moore_check(form, reg.z))
    wall = time.perf_counter() - t0
    assert worst < 1e-10
    assert checked >= 990
    assert wall < 10.0
    announce(5, f"{checked}/1000 forms at sampled max rank, worst image "
                f"residual {worst:.2e} < 1e-10, {wall:.1f}s < 10s")


def test_criterion_06_kernel_lemmas_across_catalog(reports):
    for name, report in reports.items():
        li = verdict(report, "lemma_parallel_i")
        assert li["passed"], name
        assert li["residual"] < 1e-6
        db = verdict(report, "d_bound")
        assert db["passed"], name
    announce(6, "kernel-of-phi equals kernel-of-restricted-alpha to 1e-6 "
                "and dim D >= n - s at every accepted point")


def test_criterion_07_extension_round_trips(reports):
    seen = []
    for name, report in reports.items():
        for v in report.verdicts:
            if not v["name"].startswith("split_exercise:"):
                continue
            assert v["passed"], (name, v["name"], v["details"])
            det = v["details"]
            assert det["band_holds"] and det["r_formula_exact"]
            ext_checks = det["extension_checks"]
            assert ext_checks["roundtrip-zero-section"][0] < 1e-12
            assert ext_checks["delta-is-kernel-of-alpha-p"][0] < 1e-5
            seen.append(f"{name}:{det['exercise']}(k={det['k']},"
                        f"r={det['r']})")
    assert len(seen) >= 4
    announce(7, f"round trip < 1e-12, kernel identity < 1e-5, band and "
                f"r-formula exact for {seen}")


def test_criterion_08_curve_example(reports):
    report = reports["curve-parallel"]
    assert {p["nu"] for p in report.points} == {2}
    flat = verdict(report, "sectional_flat")
    assert flat["passed"] and flat["residual"] < 1e-8
    transport = verdict(report, "transport_orthonormality")
    assert transport["passed"] and transport["residual"] < 1e-9
    announce(8, f"nullity 2 = n - 1; curvature residual "
                f"{flat['residual']:.1e} < 1e-8; transport drift "
                f"{transport['residual']:.1e} < 1e-9")


def test_criterion_09_ricci_corollary(reports):
    for name in ("flat", "curve-parallel", "curve-product",
                 "section4-ruled"):
        rr = verdict(reports[name], "ricci_rulings")
        assert rr["passed"], name
        assert rr["residual"] <= 1e-8
    rc = verdict(reports["sphere"], "ricci_constant")
    assert rc["passed"] and rc["residual"] < 1e-9
    # and the three-sphere directly
    entry = get_entry("sphere", {"n": 3})
    rng = np.random.default_rng(1)
    geom = point_geometry(entry.chart, entry.sampler(rng), 2)
    for _ in range(50):
        xv = rng.standard_normal(3)
        xv /= np.linalg.norm(xv)
        assert abs(ricci(geom, xv) - 2.0) < 1e-9
    announce(9, "Ricci <= 1e-8 along rulings with zeros only inside the "
                "nullity; sphere values n - 1 to 1e-9")


def test_criterion_10_jet_engine(reports):
    # derivatives to order 4 against Richardson-extrapolated central
    # differences at step 1e-4: each order is differenced from the exact
    # jet partials one order below (direct value differences at order one)
    h = 1e-4
    rng = np.random.default_rng(5)
    worst = 0.0
    for name in entry_names():
        entry = get_entry(name)
        chart = entry.chart
        x = entry.sampler(rng)
        top = min(4, chart.max_order - 1)
        center = chart.eval(x, top)
        sig = signature(chart.intrinsic_dim, top)
        for mono in sig.monomials:
            order = sum(mono)
            if order == 0:
                continue
            c = max(i for i, e in enumerate(mono) if e > 0)
            lower = list(mono)
            lower[c] -= 1
            lower = tuple(lower)
            target = center.partial(mono)

            def lower_partial(pt):
                return chart.eval(pt, order - 1).partial(lower)

            step_vec = np.zeros(chart.intrinsic_dim)
            step_vec[c] = 1.0
            est = []
            for step in (h, h / 2):
                est.append((lower_partial(x + step * step_vec)
                            - lower_partial(x - step * step_vec))
                           / (2 * step))
            fd = (4.0 * est[1] - est[0]) / 3.0
            rel = np.linalg.norm(fd - target) \
                / max(1.0, np.linalg.norm(target))
            worst = max(worst, rel)
            assert rel < 1e-6, (name, mono, rel)

    # Leibniz suite: product jets against independent series and direct
    # coefficient convolution
    u = jet_variable(1, 7, 0, 0.4)
    leib = np.max(np.abs((jet_sin(u) * jet_cos(u)).coeffs
                         - (jet_sin(u * 2.0) * 0.5).coeffs))
    assert leib < 1e-13
    rng2 = np.random.default_rng(2)
    for _ in range(20):
        a = rng2.normal(size=5)
        b = rng2.normal(size=4)
        sig1 = signature(1, 6)
        ja = np.zeros(sig1.size)
        ja[:5] = a
        jb = np.zeros(sig1.size)
        jb[:4] = b
        from oscflag.jets import Jet
        prod = Jet(1, 6, ja) * Jet(1, 6, jb)
        direct = np.zeros(7)
        for i in range(5):
            for j in range(4):
                if i + j <= 6:
                    direct[i + j] += a[i] * b[j]
        leib = max(leib, float(np.max(np.abs(prod.coeffs - direct))))
    assert leib < 1e-13

    # chain-rule suite: affine substitution against re-evaluated charts
    mat = np.array([[0.6, -0.3], [0.2, 0.9]])
    shift = np.array([0.05, -0.1])
    w0 = np.array([0.1, 0.2])
    u0 = mat @ w0 + shift

    def fn(v):
        return [jet_sin(v[0]) * jet_cos(v[1]), v[0] * v[1] * v[1]]

    direct = [substitute_affine(j, mat, w0) for j in fn(variables(u0, 4))]
    composed = fn([
        variables(w0, 4)[0] * mat[0, 0] + variables(w0, 4)[1] * mat[0, 1]
        + shift[0],
        variables(w0, 4)[0] * mat[1, 0] + variables(w0, 4)[1] * mat[1, 1]
        + shift[1],
    ])
    chain = max(float(np.max(np.abs(a.coeffs - b.coeffs)))
                for a, b in zip(direct, composed))
    assert chain < 1e-12
    announce(10, f"all catalog derivatives to order 4 within {worst:.1e} "
                 f"of step-1e-4 Richardson differences; Leibniz {leib:.1e} "
                 f"< 1e-13; chain rule {chain:.1e} < 1e-12")


def test_criterion_11_determinism():
    config = RunConfig("section4-ruled", {"m": 2}, samples=4, seed=11)
    first = run_verification(config).to_json(include_timings=False)
    second = run_verification(config).to_json(include_timings=False)
    assert first == second
    config2 = RunConfig("sphere", {"n": 2}, samples=4, seed=2)
    assert run_verification(config2).to_json(include_timings=False) \
        == run_verification(config2).to_json(include_timings=False)
    announce(11, "byte-identical reports (timings stripped) across "
                 "consecutive runs")


def load_perfbench_snapshot():
    """The benchmark's discrete-field comparator and its stored snapshot."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "snapshot.py"
    spec = importlib.util.spec_from_file_location("perfbench_snapshot", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_discrete_fields_match_snapshot(reports):
    snapshot = load_perfbench_snapshot()
    expected = snapshot.load_snapshot()
    moved = [name for name, report in reports.items()
             if snapshot.discrete_fields(json.loads(
                 report.to_json(include_timings=False))) != expected[name]]
    assert not moved, f"discrete fields differ from the snapshot: {moved}"
    announce(12, f"ranks, dims, case labels, verdicts, k/r/nu_ext of "
                 f"{len(reports)} configs equal perfbench/expected.json")


def test_report_tolerances_come_from_the_gate_tables(reports):
    bounded = extension = 0
    for name, report in reports.items():
        config = CONFIGS[name]
        declared = {e.check: e.params for e in
                    get_entry(config.entry, config.params).expected}
        for v in report.verdicts:
            if v["tolerance"] is not None:
                gate = (declared["sectional_flat"]["tol"]
                        if v["name"] == "sectional_flat" else GATES[v["name"]])
                assert v["tolerance"] == gate, (name, v["name"])
                bounded += 1
            for check, (_, tol) in v["details"].get("extension_checks",
                                                    {}).items():
                assert tol == EXTENSION_GATES[check], (name, check)
                extension += 1
    assert bounded and extension
    announce(13, f"{bounded} bounded verdicts judged at checks.GATES (the "
                 f"entry's sectional_flat gate) and {extension} extension "
                 f"audits at EXTENSION_GATES")
