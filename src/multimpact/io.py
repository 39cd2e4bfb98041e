"""Lossless CSV/JSON writers for trajectories, sample sets and comparisons.

Every file starts with the format marker (``# multimpact-format v1`` as a
comment line in CSV, a ``"format"`` key in JSON), and every number is
written with ``repr``, the shortest representation that round-trips to the
exact same double.  No timestamps or environment data are written, so
identical inputs produce byte-identical files.

Each output builds its number table once, as an array.  A CSV writer
formats each distinct double of its table once, with ``repr``, and hands
the strings, after their row's leads, to ``csv.writer``: sampled sets
repeat their outcomes, so most values are formatted once for many rows.
The distinct values are found by their bits, so ``-0.0`` and ``0.0`` keep
their own text.  The JSON writers pass rows on as Python floats
(``tolist``), which ``json`` formats with ``repr`` as well.
"""

from __future__ import annotations

import csv
import io as _io
import json
from pathlib import Path

import numpy as np

from .contact import ImpactProblem
from .oracles import DenseTrajectory
from .resolution import Trajectory
from .setapprox import PostImpactSet

__all__ = [
    "FORMAT_MARKER",
    "trajectory_to_csv",
    "trajectory_to_json",
    "set_to_csv",
    "set_to_json",
    "compare_to_csv",
    "compare_to_json",
    "dense_to_csv",
    "dense_to_json",
]

FORMAT_MARKER = "multimpact-format v1"


def _write(path: str | Path | None, text: str) -> str:
    if path is not None:
        Path(path).write_text(text)
    return text


def _repr_table(table: np.ndarray) -> list[list[str]]:
    """``repr`` of every entry of a 2-D float table, row by row, with each
    distinct double formatted once.  Entries are matched by their bits, not
    by value, so ``-0.0`` and ``0.0`` (equal as floats) keep their own text."""
    table = np.ascontiguousarray(table, dtype=float)
    bits, inverse = np.unique(table.view(np.uint64).ravel(), return_inverse=True)
    texts = np.array([repr(x) for x in bits.view(float).tolist()], dtype=object)
    return texts[inverse].reshape(table.shape).tolist()


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = _io.StringIO()
    buf.write(f"# {FORMAT_MARKER}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(payload: dict) -> str:
    return json.dumps({"format": FORMAT_MARKER, **payload}, indent=2) + "\n"


def _impulse_columns(problem: ImpactProblem) -> list[str]:
    cols = [f"lambda_max_{lbl}" for lbl in problem.labels]
    cols += [f"lambda_n_{lbl}" for lbl in problem.labels]
    for lbl in problem.labels:
        cols += [f"beta_{lbl}_pos", f"beta_{lbl}_neg"]
    return cols


def _velocity_columns(n_v: int) -> list[str]:
    return [f"v_{k}" for k in range(n_v)]


def _projection_columns(problem: ImpactProblem) -> list[str]:
    cols = [f"jn_v_{lbl}" for lbl in problem.labels]
    cols += [f"jt_v_{lbl}" for lbl in problem.labels]
    return cols


def _velocity_table(problem: ImpactProblem, velocities) -> np.ndarray:
    """Rows ``[*v, *(jn @ v), *(jt @ v)]``, one per velocity.

    The batched matrix-vector product gives every row the bits of
    ``jn @ v`` on that row alone, which a gemm ``V @ jn.T`` does not."""
    v = np.asarray(velocities, dtype=float).reshape(-1, problem.n_v)
    column = v[:, :, None]
    jn_v = np.matmul(problem.jn, column)[..., 0]
    jt_v = np.matmul(problem.jt, column)[..., 0]
    return np.hstack([v, jn_v, jt_v])


def _velocity_csv(
    problem: ImpactProblem, lead_columns: list[str], leads, velocities, path
) -> str:
    """CSV of the velocity table, each row after its ``leads`` entries."""
    header = lead_columns + _velocity_columns(problem.n_v) + _projection_columns(problem)
    table = _repr_table(_velocity_table(problem, velocities))
    rows = [[*lead, *row] for lead, row in zip(leads, table)]
    return _write(path, _csv_text(header, rows))


# ---------------------------------------------------------------------------
# Trajectories


def trajectory_to_csv(
    traj: Trajectory, problem: ImpactProblem, path: str | Path | None = None
) -> str:
    header = (
        ["step"]
        + _impulse_columns(problem)
        + _velocity_columns(problem.n_v)
        + ["energy"]
    )
    table = np.array(
        [
            np.hstack([s.lambda_max, s.lambda_n, s.beta, s.v_after, s.energy_after])
            for s in traj.steps
        ],
        dtype=float,
    )
    rows = [[k, *row] for k, row in enumerate(_repr_table(table))]
    return _write(path, _csv_text(header, rows))


def trajectory_to_json(
    traj: Trajectory, problem: ImpactProblem, path: str | Path | None = None
) -> str:
    payload = {
        "kind": "trajectory",
        "labels": list(problem.labels),
        "h": traj.h,
        "rng_seed": traj.rng_seed,
        "terminated": traj.terminated,
        "v0": traj.v0.tolist(),
        "v_final": traj.v_final.tolist(),
        "steps": [
            {
                "lambda_max": step.lambda_max.tolist(),
                "lambda_n": step.lambda_n.tolist(),
                "beta": step.beta.tolist(),
                "v_after": step.v_after.tolist(),
                "energy_before": step.energy_before,
                "energy_after": step.energy_after,
            }
            for step in traj.steps
        ],
    }
    return _write(path, _json_text(payload))


# ---------------------------------------------------------------------------
# Post-impact sample sets


def set_to_csv(
    post_set: PostImpactSet, problem: ImpactProblem, path: str | Path | None = None
) -> str:
    leads = zip(post_set.traj_indices.tolist())
    return _velocity_csv(problem, ["traj"], leads, post_set.samples, path)


def set_to_json(
    post_set: PostImpactSet, problem: ImpactProblem, path: str | Path | None = None
) -> str:
    payload = {
        "kind": "post_impact_set",
        "labels": list(problem.labels),
        "params": post_set.params,
        "rejected_count": post_set.rejected_count,
        "traj_indices": post_set.traj_indices.tolist(),
        "samples": post_set.samples.tolist(),
    }
    return _write(path, _json_text(payload))


# ---------------------------------------------------------------------------
# Baseline comparisons: rows of (method, order, v_plus)


def compare_to_csv(
    rows: list[tuple[str, str, np.ndarray]],
    problem: ImpactProblem,
    path: str | Path | None = None,
) -> str:
    leads = [(method, order) for method, order, _ in rows]
    return _velocity_csv(problem, ["method", "order"], leads, [v for *_, v in rows], path)


def compare_to_json(
    rows: list[tuple[str, str, np.ndarray]],
    problem: ImpactProblem,
    path: str | Path | None = None,
) -> str:
    n_v, m = problem.n_v, problem.n_contacts
    table = _velocity_table(problem, [v for *_, v in rows]).tolist()
    payload = {
        "kind": "comparison",
        "labels": list(problem.labels),
        "rows": [
            {
                "method": method,
                "order": order,
                "v_plus": row[:n_v],
                "jn_v": row[n_v : n_v + m],
                "jt_v": row[n_v + m :],
            }
            for (method, order, _), row in zip(rows, table)
        ],
    }
    return _write(path, _json_text(payload))


# ---------------------------------------------------------------------------
# Dense single-contact reference paths


def dense_to_csv(
    dense: DenseTrajectory, problem: ImpactProblem, path: str | Path | None = None
) -> str:
    header = ["impulse"] + _velocity_columns(problem.n_v) + ["mode"]
    table = _repr_table(np.column_stack([dense.s_grid, dense.v_grid]))
    rows = [[*row, mode] for row, mode in zip(table, ["", *dense.modes])]
    return _write(path, _csv_text(header, rows))


def dense_to_json(
    dense: DenseTrajectory, problem: ImpactProblem, path: str | Path | None = None
) -> str:
    payload = {
        "kind": "dense_reference",
        "labels": list(problem.labels),
        "impulse": dense.s_grid.tolist(),
        "velocities": dense.v_grid.tolist(),
        "modes": list(dense.modes),
    }
    return _write(path, _json_text(payload))
