"""The exit-code contract over sampling seeds of the curve entries."""

import pytest

from oscflag.cli import main
from oscflag.verify import RunConfig, run_verification

CURVES = [("curve-parallel", {}), ("curve-product", {}),
          ("curve-parallel", {"n": 4, "N": 8}),
          ("curve-parallel", {"n": 2, "N": 6})]

# seeds at which a leaf walk once left the chart box (exit 3)
WALK_SEEDS = ([("curve-parallel", s) for s in (0, 4, 5, 9, 16, 18)]
              + [("curve-product", s) for s in (0, 10, 14, 15, 16, 19)])


@pytest.mark.parametrize("name,seed", WALK_SEEDS)
def test_curve_runs_pass_at_former_walk_seeds(name, seed):
    report = run_verification(RunConfig(name, samples=3, seed=seed))
    assert report.passed, report.findings


def _known(name, params, seed, reason):
    return pytest.param(name, params, seed, marks=pytest.mark.xfail(
        reason=reason, strict=True))


KNOWN = {
    ("curve-parallel", 4, 8, 1): "the extension's rank audit is ambiguous "
                                 "at a translated point (exit 3)",
    ("curve-parallel", 2, 6, 1): "the extension's rank audit is ambiguous "
                                 "at a translated point (exit 3)",
    ("curve-parallel", 4, 8, 16): "split_exercise:mixed-pair finds nu_ext 2 "
                                  "and n1f_rank 2 (exit 1)",
    ("curve-parallel", 5, 9, 1): "the rank audit is ambiguous at normal "
                                 "stage 1 (8 vs 7) at a sampled point "
                                 "(exit 3)",
}


def _sweep():
    swept = set()
    for name, params in CURVES:
        for seed in range(20):
            key = (name, params.get("n"), params.get("N"), seed)
            swept.add(key)
            if key in KNOWN:
                yield _known(name, params, seed, KNOWN[key])
            else:
                yield pytest.param(name, params, seed)
    # known failures of configs outside the sweep, each at its own seed
    for (name, n, big_n, seed), reason in KNOWN.items():
        if (name, n, big_n, seed) not in swept:
            yield _known(name, {"n": n, "N": big_n}, seed, reason)


@pytest.mark.slow
@pytest.mark.parametrize("name,params,seed", list(_sweep()))
def test_curve_sweep_exits_zero(name, params, seed):
    argv = ["verify", name, "--samples", "3", "--seed", str(seed)]
    for key, value in params.items():
        argv += ["--param", f"{key}={value}"]
    assert main(argv) == 0
