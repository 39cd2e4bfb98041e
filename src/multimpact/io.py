"""Lossless CSV/JSON writers for trajectories, sample sets and comparisons.

Every file starts with the format marker (``# multimpact-format v1`` as a
comment line in CSV, a ``"format"`` key in JSON), and every number is
written as ``repr`` writes it, the shortest text that round-trips to the
exact same double.  No timestamps or environment data are written, so
identical inputs produce byte-identical files.

Each output builds its number table once, as an array, and every CSV
writer hands it to one helper, ``_csv``.  There the compiled kernel
(``lcp.KERNEL``, read at each call) writes the rows' text in chunks of
rows: each double as ``repr`` writes it (Ryu's shortest digits in
``repr``'s layout) and each int lead (a trajectory index or a step) as
``str`` writes it.  String leads and trailers (a comparison's method and
order, a dense path's mode) go through ``csv.writer``, so labels keep
their CSV quoting.  The reference, and the path without the kernel,
formats each distinct double of the table once with ``repr``
(``_repr_table``) and hands every row to ``csv.writer``; both paths give
the same bytes.  The JSON writers pass rows on as Python floats
(``tolist``), which ``json`` formats with ``repr`` as well.

Every file the program writes goes through one writer, ``_write``.  It
encodes the whole text first, as ``open(path, "w")`` would, so a text
that cannot be encoded leaves an existing file untouched and creates no
new one.  It then overwrites the file in place: it opens it without
``O_TRUNC``, writes the bytes from the start and truncates a regular
file at their end.  On ext4 a truncate to zero of an existing file's
blocks made a 12 kB rewrite cost 0.35-0.76 ms, whether the last write of
the file closed a moment or two minutes before; in place it took
0.05-0.12 ms.  A new file has nothing to truncate.  Devices and pipes
(``/dev/null``, ``/dev/stdout``) are written and never truncated.  A
write that fails (a full disk, an interrupt) still truncates the file at
the bytes it wrote, so it leaves a prefix of the new text, as
``O_TRUNC`` did.  The trade-off: a process killed between its first
write and its truncate (a crash, ``SIGKILL``, a power loss) leaves the
new text's head over the old file's tail.  A CSV output can then end
with a garbled line followed by well-formed rows of the previous run,
with the same header and column count, which a CSV reader takes as rows
of the new run; a JSON output, short of a coincidence, no longer parses.
``O_TRUNC`` left only a short file.
"""

from __future__ import annotations

import csv
import io as _io
import json
import os
import stat
from pathlib import Path

import numpy as np

from . import lcp
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

# The most bytes the kernel writes for an int lead (an int64's ``str`` and
# its comma) and for a number (``repr`` of a double, at most 24 bytes, and
# its comma or newline).
_LEAD_BYTES, _NUMBER_BYTES = 21, 25
# The most bytes of text one kernel call writes: a larger table is
# formatted in chunks of rows into one buffer of this size.
_CHUNK_BYTES = 1 << 18


def _write(path: str | Path | None, text: str) -> str:
    """Write ``text`` to ``path``, if it is given, with the bytes
    ``Path.write_text`` writes, overwriting the file in place (see the
    module docstring); returns ``text``."""
    if path is None:
        return text
    # ``"utf-8"`` in UTF-8 mode, else the locale's encoding, which a text
    # wrapper names without importing ``locale``.  ``str.encode`` costs a
    # tenth of a ``TextIOWrapper`` over a buffer on a 3 MB text.
    encoding = _io.text_encoding(None)
    if encoding == "locale":
        encoding = _io.TextIOWrapper(_io.BytesIO(), encoding="locale").encoding
    lines = text if os.linesep == "\n" else text.replace("\n", os.linesep)
    data = memoryview(lines.encode(encoding))
    # O_BINARY (Windows only) keeps the C runtime from translating newlines again.
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    written = 0
    try:
        while written < len(data):
            written += os.write(fd, data[written:])
    finally:
        # Cut a regular file at the bytes written, all of them or, after a
        # failed write, the prefix that ``O_TRUNC`` would have left.
        try:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, written)
        finally:
            os.close(fd)
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


def _field_texts(rows) -> list[str]:
    """``csv.writer``'s text of each row of strings, without its newline."""
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    texts = []
    for fields in rows:
        writer.writerow(fields)
        texts.append(buf.getvalue()[:-1])
        buf.seek(0)
        buf.truncate()
    return texts


def _kernel_rows(kernel, table: np.ndarray, lead: np.ndarray | None) -> str:
    """The CSV lines of a C-contiguous float table from the kernel's
    ``csv_rows``, each row after its ``lead`` entry if ``lead`` is given."""
    n, cols = table.shape
    row_bytes = _NUMBER_BYTES * cols + (0 if lead is None else _LEAD_BYTES)
    step = max(1, _CHUNK_BYTES // row_bytes)
    buf = np.empty(min(n, step) * row_bytes, dtype=np.uint8)
    parts = []
    for first in range(0, n, step):
        rows = table[first : first + step]
        size = kernel.csv_rows(
            len(rows), cols, rows.ctypes.data,
            None if lead is None else lead[first:].ctypes.data, buf.ctypes.data,
        )
        parts.append(buf[:size].tobytes().decode("ascii"))
    return "".join(parts)


def _csv(
    path: str | Path | None,
    header: list[str],
    table: np.ndarray,
    lead: np.ndarray | None = None,
    before: list[tuple[str, ...]] | None = None,
    after: list[tuple[str, ...]] | None = None,
) -> str:
    """The CSV text of a 2-D float ``table`` under ``header``, also
    written to ``path`` if it is given.  Row ``r`` holds ``lead[r]`` (an
    int) if ``lead`` is given, the strings ``before[r]``, the table's row
    ``r`` and the strings ``after[r]``.  The kernel writes the numbers
    and int leads when it is loaded; otherwise ``_repr_table`` and
    ``csv.writer`` write every row, with the same bytes."""
    table = np.ascontiguousarray(table, dtype=float)
    if lead is not None:
        lead = np.ascontiguousarray(lead, dtype=np.int64)
    if lcp.KERNEL is None:
        rows = _repr_table(table)
        if lead is not None:
            rows = [[i, *row] for i, row in zip(lead.tolist(), rows)]
        if before is not None:
            rows = [[*fields, *row] for fields, row in zip(before, rows)]
        if after is not None:
            rows = [[*row, *fields] for row, fields in zip(rows, after)]
        return _write(path, _csv_text(header, rows))
    body = _kernel_rows(lcp.KERNEL, table, lead)
    if before is not None or after is not None:
        # The extra empty field gives each string part its comma and keeps
        # a lone empty string from being quoted as a row of its own.
        lines = body.split("\n")[:-1]
        if before is not None:
            lines = [h + x for h, x in zip(_field_texts([*f, ""] for f in before), lines)]
        if after is not None:
            lines = [x + t for x, t in zip(lines, _field_texts(["", *f] for f in after))]
        body = "".join(line + "\n" for line in lines)
    return _write(path, _csv_text(header, []) + body)


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
    ``jn @ v`` on that row alone, which a gemm ``V @ jn.T`` does not.  A
    row that is not finite projects to NaN or an infinity silently."""
    v = np.asarray(velocities, dtype=float).reshape(-1, problem.n_v)
    column = v[:, :, None]
    with np.errstate(invalid="ignore", over="ignore"):
        jn_v = np.matmul(problem.jn, column)[..., 0]
        jt_v = np.matmul(problem.jt, column)[..., 0]
    return np.hstack([v, jn_v, jt_v])


def _velocity_csv(
    problem: ImpactProblem, lead_columns: list[str], velocities, path, **leads
) -> str:
    """CSV of the velocity table, each row after its leads (see ``_csv``)."""
    header = lead_columns + _velocity_columns(problem.n_v) + _projection_columns(problem)
    return _csv(path, header, _velocity_table(problem, velocities), **leads)


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
    ).reshape(traj.n_steps, len(header) - 1)
    return _csv(path, header, table, lead=np.arange(traj.n_steps))


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
    return _velocity_csv(problem, ["traj"], post_set.samples, path, lead=post_set.traj_indices)


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
    before = [(method, order) for method, order, _ in rows]
    return _velocity_csv(
        problem, ["method", "order"], [v for *_, v in rows], path, before=before
    )


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
    table = np.column_stack([dense.s_grid, dense.v_grid])
    return _csv(path, header, table, after=[(mode,) for mode in ["", *dense.modes]])


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
