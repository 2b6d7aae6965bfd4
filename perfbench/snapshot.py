"""Discrete fields of a verification report, and the stored snapshot.

A faster program must reproduce these exactly: per point the ranks and
dimensions, the nu_s lower-bound table, k and the case label; per verdict
pass/fail; per splitting exercise k, r, nu_ext and the extension ranks.
``expected.json`` holds them for every acceptance config.

Regenerate the snapshot (only when a change is meant to alter a discrete
result) with::

    python3 perfbench/snapshot.py > perfbench/expected.json
"""

from __future__ import annotations

import json
from pathlib import Path

SNAPSHOT = Path(__file__).resolve().with_name("expected.json")
POINT_FIELDS = ("p", "s", "d", "nu", "nu_s_lower_bounds", "k", "case")
EXERCISE_FIELDS = ("k", "r", "nu_ext", "n1f_rank", "script_l_rank")


def discrete_fields(report: dict) -> dict:
    exercises = {}
    for v in report["verdicts"]:
        if v["name"].startswith("split_exercise:"):
            exercises[v["name"]] = {f: v["details"][f]
                                    for f in EXERCISE_FIELDS
                                    if f in v["details"]}
    return {
        "points": [{f: p[f] for f in POINT_FIELDS} for p in report["points"]],
        "verdicts": {v["name"]: v["passed"] for v in report["verdicts"]},
        "exercises": exercises,
    }


def load_snapshot() -> dict:
    return json.loads(SNAPSHOT.read_text())


def main():
    from run import WORKLOADS, import_program

    import_program()
    from oscflag.verify import run_verification

    out = {}
    for configs in WORKLOADS.values():
        for config in configs:
            report = run_verification(config.run_config())
            out[config.entry] = discrete_fields(
                json.loads(report.to_json(include_timings=False)))
    print(json.dumps(out, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
