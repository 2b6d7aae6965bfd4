"""Per-draw oracle for ``verify._sample_points``.

Draws one point at a time, builds its ``point_geometry`` and nonparallel
data, and rejects it with a note on NotImmersionError or RegularityError.
The batched sampling must accept the same points, write the same notes with
the same attempt numbers and give up with the same message.
"""

import numpy as np

from oscflag import checks as chk
from oscflag.errors import DegeneracyError, NotImmersionError, RegularityError
from oscflag.geometry import point_geometry


def sample_points_loop(entry, config) -> tuple[list, list[str]]:
    rng = np.random.default_rng(config.seed)
    records: list[chk.PointRecord] = []
    notes: list[str] = []
    attempts = 0
    max_attempts = 64 * config.samples
    while len(records) < config.samples and attempts < max_attempts:
        attempts += 1
        x = entry.sampler(rng)
        try:
            geom = point_geometry(entry.chart, x, entry.max_normal_order,
                                  config.rank_tol)
            nd = geom.nd
        except (NotImmersionError, RegularityError) as exc:
            notes.append(f"rejected sample {attempts}: {exc}")
            continue
        records.append(chk.PointRecord(index=len(records), x=x, geom=geom,
                                       nd=nd, nu_s=[]))
    if len(records) < config.samples:
        raise DegeneracyError(
            f"only {len(records)}/{config.samples} usable points after "
            f"{attempts} attempts")
    return records, notes
