"""Dense linear complementarity problems and a lexicographic Lemke solver.

An LCP asks for ``z >= 0`` with ``w = M z + q >= 0`` and ``z . w = 0``.
There is one solver: Lemke complementary pivoting with the all-ones
covering vector and a lexicographic ratio test, so degenerate ties never
cycle.  Problems here are small and dense (at most a few dozen rows), so
each instance carries its full tableau ``[q | I | -M | -1]`` and updates
it by an elementwise rank-one row operation per pivot.

There is one solve path: ``lemke_many`` solves a stack of instances
that share ``M``, one row after another, and ``lemke_solve`` is
``lemke_many`` on a stack of one.  The path is a compiled kernel,
``_lemke.c``, whose ``solve_row`` solves a row and which forms each
row's ``w``; the system ``cc`` builds it on first import into this
package's ``__pycache__`` (see ``_load_kernel``).  Its reference is the
numpy body, ``_lemke_many_numpy``, which runs when no kernel could be
built: its ``_solve_row`` and ``_lex_argmin`` take the kernel's IEEE
operations in the same order, so both give the same ``z``, pivot counts
and statuses, and both sum ``w`` in :func:`ordered_sum`'s order.  A
row's bits never depend on the other rows of the stack.  Both take the
first pivot's row in closed form.

The same library (``KERNEL``) holds more entry points, which other
modules call: ``step_stack`` takes a whole step of a stack of
velocities, this module's solve included (``resolution._step``): a
capped step of the sampler's trajectories, or the baselines' uncapped
resolution; ``sequential_sweep`` runs a whole sweep of the sequential
baseline on ``step_stack`` (``resolution.sequential_resolve``);
``sim_stack`` runs a whole lockstep block of sampled trajectories, its
draws, every step on ``step_stack`` and the finishing step
(``setapprox._run_block``); ``pcg_seed`` and ``pcg_draw`` give its
uniform draws numpy's ``default_rng`` bits
(``setapprox.UniformSampler._kernel_draws``); and ``csv_rows`` writes
the rows of a float table as CSV text, each number as ``repr`` writes
it (``io._csv``).  Each keeps a Python path as its reference and the path
without a kernel (a compiler with 128-bit integers builds it), and
picks its path from ``KERNEL is None`` alone: the kernel decides every
input, and raises the numpy path's errors in their order.  The one
exception is ``sim_stack``, whose reference loop also runs on the
kernel for a caller that watches each step and for a sampler that only
has a ``stream``.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "LcpInstance",
    "LcpSolution",
    "lemke_solve",
    "lemke_many",
    "ordered_sum",
    "ordered_matvec",
    "residuals",
]

# Pivot elements at or below this count as zero (assembled matrices are O(1)).
PIVOT_TOL = 1e-11
# Relative width within which lexicographic ratios count as tied.
LEX_TIE_TOL = 1e-11
# Pivot budget; a solve that exhausts it ends with status "max_pivots".
MAX_PIVOTS = 5000
# Certification bound on the residuals of a solved LCP (see ``residuals``).
RESIDUAL_TOL = 1e-9

# How the compiled kernel is built: no fused multiply-add and no fast
# math, so that it rounds as numpy does.
_CC = ("cc", "-O2", "-ffp-contract=off", "-shared", "-fPIC")
# A compiler that runs longer than this is stopped, and numpy solves.
_BUILD_TIMEOUT_S = 120.0
_STATUSES = np.array(["solved", "ray_termination", "max_pivots"], dtype="<U15")
# Their codes, as ``_lemke.c`` numbers them.
_SOLVED, _RAY_TERMINATION, _OUT_OF_PIVOTS = range(3)
# What a tie walk that a NaN key leaves with no row raises.
_OVERFLOW = "the tableau overflowed: a pivot ratio is not a number"
# The failed outcomes of ``_lemke.c``'s entry points, as it numbers them.
_UNSOLVED, _RESIDUALS, _CONE, _OVER_CAP, _BAD_CAPS = range(1, 6)
_NOT_FINITE, _OVERFLOWED, _NO_MEMORY = range(6, 9)


def _kernel_name(source: bytes, command: tuple) -> str:
    """The cached library's file name, keyed by the source and the
    compile command: a change to either names a new file."""
    key = zlib.crc32(" ".join(command).encode(), zlib.crc32(source))
    return f"_lemke.{key:08x}.so"


def _build(source: Path, target: Path, command: tuple) -> None:
    """Compile ``source`` to a temporary name beside ``target``, append
    the library's crc32 (see ``_open``) and move it into place, so that
    no reader sees a part-written library.  The compiler runs in a
    session of its own, which a timeout kills whole: no compiler process
    outlives the call.  Raises ``OSError`` if the build fails."""
    import signal
    import subprocess  # only a build needs these

    part = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        with subprocess.Popen(
            [*command, "-o", str(part), str(source)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        ) as proc:
            try:
                code = proc.wait(timeout=_BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise OSError(f"{command[0]} ran longer than {_BUILD_TIMEOUT_S} s") from None
        if code != 0:
            raise OSError(f"{command[0]} exited with code {code}")
        with part.open("ab") as lib:
            lib.write(zlib.crc32(part.read_bytes()).to_bytes(4, "little"))
        os.replace(part, target)
    finally:
        part.unlink(missing_ok=True)


def _open(path: Path) -> ctypes.CDLL:
    """Load the library at ``path`` and declare its entry points:
    ``lemke_stack`` (``lemke_many``), ``step_stack``
    (``resolution._step``), ``sequential_sweep``
    (``resolution.sequential_resolve``), ``pcg_seed`` and ``pcg_draw``
    (``sim_stack``'s uniform draws), ``csv_rows`` (``io._csv``) and
    ``sim_stack`` (``resolution._kernel_block``).  A library that does not end
    in the crc32 of the bytes before it raises ``OSError`` unloaded:
    loading a truncated library can kill the process with SIGBUS instead
    of raising.  (The loader ignores the bytes past the library's last
    section.)"""
    data = path.read_bytes()
    if len(data) < 4 or zlib.crc32(data[:-4]) != int.from_bytes(data[-4:], "little"):
        raise OSError(f"{path} is not a whole library")
    lib = ctypes.CDLL(str(path))
    p, i32, i64, f64 = ctypes.c_void_p, ctypes.c_int, ctypes.c_int64, ctypes.c_double
    for name, argtypes in (
        ("lemke_stack", [i32, i32, p, p, p, p, f64, f64, i64]),
        ("step_stack", [i32, i32, i32, p, p, p, i32, p, p, f64, f64, i64, f64, f64, f64]),
        ("sequential_sweep", [i32, i32, p, p, p, i64, p, p, f64, f64, i64, f64, f64, f64]),
        ("pcg_seed", [i64, p, i32, ctypes.c_uint64, p]),
        ("pcg_draw", [i64, p, i64, i32, p, p]),
        ("csv_rows", [i64, i32, p, p, p]),
        ("sim_stack", [i32, i32, i32, p, p, i32, f64, i64, p, i64, i64, p, p, p, p, f64, f64, i64,
                       f64, f64, f64]),
    ):
        entry = getattr(lib, name)
        entry.argtypes = argtypes
        entry.restype = ctypes.c_int
    return lib


def _load_kernel(source: Path, cache: Path, command: tuple = _CC) -> ctypes.CDLL | None:
    """The compiled kernel from ``cache``, built there first if no
    library of this source and command is there or the one there does
    not load (a corrupt or truncated file); ``None`` if it cannot be
    built or loaded: no compiler, one without 128-bit integers, a cache
    that cannot be written.  The numpy bodies then take every path.  A
    build that succeeds removes the other libraries in ``cache``, which
    older sources or commands built; one that fails removes nothing."""
    try:
        target = cache / _kernel_name(source.read_bytes(), command)
        if target.exists():
            try:
                return _open(target)
            except (OSError, AttributeError):
                pass  # not a library with the entry point: build it again
        cache.mkdir(exist_ok=True)
        _build(source, target, command)
        for stale in cache.glob("_lemke.*.so"):
            if stale != target:
                with contextlib.suppress(OSError):
                    stale.unlink()
        return _open(target)
    except (OSError, AttributeError):
        return None


# The loaded kernel library (its repr names the file), or ``None``.
KERNEL = _load_kernel(Path(__file__).with_name("_lemke.c"), Path(__file__).with_name("__pycache__"))


def _check_finite(m: np.ndarray, q: np.ndarray) -> None:
    """Raise ``ValueError`` if ``m`` or ``q`` holds a NaN or an infinity."""
    if not (np.isfinite(m).all() and np.isfinite(q).all()):
        raise ValueError("M and q must be finite")


def _raise_outcome(outcome: int) -> None:
    """Raise the error of a kernel outcome that needs no detail: as
    :func:`_check_finite` and :func:`_lex_argmin` raise, or out of memory."""
    if outcome == _NOT_FINITE:
        raise ValueError("M and q must be finite")
    if outcome == _OVERFLOWED:
        raise ValueError(_OVERFLOW)
    if outcome == _NO_MEMORY:
        raise MemoryError("the compiled kernel could not allocate its workspace")


@dataclass(eq=False)
class LcpInstance:
    """A square complementarity problem ``w = M z + q``, or a stack of
    them sharing ``M`` when ``q`` has shape (k, n)."""

    m: np.ndarray
    q: np.ndarray

    def __post_init__(self) -> None:
        self.m = np.asarray(self.m, dtype=float)
        self.q = np.asarray(self.q, dtype=float)
        if self.m.ndim != 2 or self.m.shape[0] != self.m.shape[1]:
            raise ValueError(f"M must be square, got shape {self.m.shape}")
        if self.q.ndim not in (1, 2) or self.q.shape[-1] != self.m.shape[0]:
            raise ValueError(
                f"q has shape {self.q.shape}, expected ({self.m.shape[0]},) "
                f"or (k, {self.m.shape[0]})"
            )
        _check_finite(self.m, self.q)

    @property
    def n(self) -> int:
        return self.m.shape[0]


@dataclass(eq=False)
class LcpSolution:
    """A candidate solution with the pivot count and termination status.
    For a stack, ``z`` and ``w`` have one row per instance, and
    ``pivot_count`` and ``status`` are arrays with one entry per row."""

    z: np.ndarray
    w: np.ndarray
    pivot_count: int | np.ndarray
    status: str | np.ndarray  # "solved" | "ray_termination" | "max_pivots"


def ordered_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis, with the terms grouped by index alone:
    each round adds the second half of the axis onto the first.  numpy
    reductions and BLAS products may group a sum by the shape of the
    whole array, so one row's bits could depend on its neighbours; here
    they cannot, and a single vector sums as a row of a stack.  An empty
    axis sums to 0."""
    if not x.shape[-1]:
        return np.zeros(x.shape[:-1])
    while x.shape[-1] > 1:
        half = x.shape[-1] // 2
        total = x[..., :half] + x[..., half : 2 * half]
        if x.shape[-1] % 2:
            total[..., :1] += x[..., 2 * half :]
        x = total
    return x[..., 0]


def ordered_matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a @ x`` for a vector ``x``, or for each row of a stack ``x``,
    with the sums taken by :func:`ordered_sum`."""
    return ordered_sum(x[..., None, :] * a)


def _tableau(m: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The full tableau ``[q | I | -M | -1]`` (n, 2n + 2) of the
    homogeneous system ``w - M z - 1 z0 = q``.  Column 0 holds the basic
    values, columns 1..n the basis inverse (the lexicographic key) and
    column 1 + id the variable with that id: ids 0..n-1 are the w_i,
    n..2n-1 the z_i and 2n the covering variable."""
    n = q.size
    table = np.empty((n, 2 * n + 2))
    table[:, 0] = q
    table[:, 1 : n + 1] = np.eye(n)
    table[:, n + 1 : 2 * n + 1] = -m
    table[:, 2 * n + 1] = -1.0
    return table


def _tie_limit(x: float | np.ndarray) -> float | np.ndarray:
    """Largest value that ties ``x`` in the lexicographic ratio test, for
    a float or elementwise for an array."""
    return x + LEX_TIE_TOL * (1.0 + abs(x))


def _lex_argmin(table: np.ndarray, cand: np.ndarray, d: np.ndarray) -> int:
    """The lexicographic ratio test on one tableau: among the rows
    ``cand`` (increasing indices), the one minimizing ``table[r, :n + 1]
    / d[r]`` lexicographically.  Column by column, from the ratios
    through the basis-inverse columns, it keeps the candidates that tie
    with the column's smallest key (``_tie_limit``) until one is left,
    and the lowest surviving row wins.  A column that keeps no row,
    because a key or its tie limit is NaN, raises ``ValueError``: a row
    picked then need not be a candidate."""
    for col in range(len(table) + 1):
        keys = table[cand, col] / d[cand]
        cand = cand[keys <= _tie_limit(keys.min())]
        if cand.size < 2:
            break
    if not cand.size:
        raise ValueError(_OVERFLOW)
    return int(cand[0])


def _first_pivot_row(values: np.ndarray) -> np.ndarray:
    """The row on which the covering variable enters, for each tableau
    whose basic values are ``values`` (over the last axis).  Its column
    is all -1 and the basis inverse is I, so every row is a candidate
    with denominator 1 and row r's key is the unit vector e_r: the tie
    walk would drop the rows tied at the minimum in index order, so the
    last of them wins."""
    tied = values <= _tie_limit(values.min(axis=-1, keepdims=True))
    return values.shape[-1] - 1 - tied[..., ::-1].argmax(axis=-1)


def lemke_many(m: np.ndarray, q: np.ndarray) -> LcpSolution:
    """Solve the stack of LCPs ``w = M z + q[i]`` that share ``M``.

    Each row pivots on a full tableau of its own (see ``_tableau``) with
    the all-ones covering vector, the lexicographic ratio test,
    ``PIVOT_TOL`` and ``MAX_PIVOTS``, and ends with its own status and
    pivot count.  The compiled kernel (``KERNEL``) solves the stack when
    it is loaded, else :func:`_lemke_many_numpy`, its reference, with the
    same bits; ``w`` is summed in :func:`ordered_sum`'s order on either
    path.  Returns an :class:`LcpSolution` with one row (or entry) per
    instance.  An ``M`` or ``q`` that holds a NaN or an infinity raises
    ``ValueError``, as :class:`LcpInstance` does, and so does a row whose
    tie walk keeps no row (``_OVERFLOW``).
    """
    m = np.asarray(m, dtype=float)
    q = np.asarray(q, dtype=float)
    k, n = q.shape
    if m.shape != (n, n):
        raise ValueError(f"M has shape {m.shape}, expected ({n}, {n}) for q of shape {q.shape}")
    _check_finite(m, q)
    return _lemke_many(m, q)


def _lemke_many(m: np.ndarray, q: np.ndarray) -> LcpSolution:
    """:func:`lemke_many` of a float ``M`` and ``q`` whose shapes and
    finiteness are already checked, on the kernel or on numpy."""
    if KERNEL is None:
        z, pivot_count, codes = _lemke_many_numpy(m, q)
        w = ordered_matvec(m, z) + q
    else:
        z, w, pivot_count, codes = _kernel_many(m, q)
    return LcpSolution(z=z, w=w, pivot_count=pivot_count, status=_STATUSES[codes])


def _kernel_many(m: np.ndarray, q: np.ndarray) -> tuple:
    """``z``, ``w``, pivot counts and status codes of the stack from the
    compiled kernel, which runs the operations of :func:`lemke_many`'s
    numpy path one row at a time and raises its errors.  The outputs
    come in two blocks, so the call converts four pointers, which cost
    more than the solve itself on a small LCP."""
    k, n = q.shape
    m = np.ascontiguousarray(m)
    q = np.ascontiguousarray(q)
    zw = np.empty((2, k, n))
    counts = np.empty((2, k), dtype=np.int64)
    _raise_outcome(KERNEL.lemke_stack(
        k, n, m.ctypes.data, q.ctypes.data, zw.ctypes.data, counts.ctypes.data,
        PIVOT_TOL, LEX_TIE_TOL, MAX_PIVOTS,
    ))
    return zw[0], zw[1], counts[0], counts[1]


def _lemke_many_numpy(m: np.ndarray, q: np.ndarray) -> tuple:
    """``z``, pivot counts and status codes (indices into ``_STATUSES``)
    of :func:`lemke_many`, in numpy: :func:`_solve_row` on each row that
    some ``q_i < 0`` makes infeasible at ``z = 0``.  The compiled
    kernel's reference, and the path taken without it."""
    k, n = q.shape
    z = np.zeros((k, n))
    pivot_count = np.zeros(k, dtype=np.int64)
    codes = np.zeros(k, dtype=np.int64)
    for r in np.flatnonzero(~np.all(q >= 0.0, axis=1)):
        z[r], pivot_count[r], codes[r] = _solve_row(m, q[r])
    return z, pivot_count, codes


def _solve_row(m: np.ndarray, q: np.ndarray) -> tuple:
    """``z``, the pivot count and the status code of ``w = M z + q`` for
    one ``q``, by Lemke pivoting on its tableau (see ``_tableau``), as
    ``_lemke.c``'s ``solve_row`` takes it."""
    n = q.size
    z0_id = 2 * n  # the covering variable's id
    table = _tableau(m, q)
    basis = np.arange(n)
    entering = z0_id
    row = _first_pivot_row(q)
    count = 0
    while True:
        d = table[:, entering + 1]
        if count:
            cand = np.flatnonzero(d > PIVOT_TOL)
            if not cand.size:
                code = _RAY_TERMINATION
                break
            row = _lex_argmin(table, cand, d)
        pivot_row = table[row] / d[row]
        # The broadcast product keeps the sign of a zero product; a fused
        # np.einsum forms 0.0 plus the product, so -0.0 would come out +0.0
        # and reach z (M = [[0, -1], [2, 0]], q = [-1e-13, 0]).
        table -= d[:, None] * pivot_row
        table[row] = pivot_row
        leaving = basis[row]
        basis[row] = entering
        count += 1
        if leaving == z0_id:
            code = _SOLVED
            break
        if count >= MAX_PIVOTS:
            code = _OUT_OF_PIVOTS
            break
        # Complementary rule: the partner of the leaving variable enters
        # (the covering variable, id 2n, leaves only as the solve ends).
        entering = (leaving + n) % z0_id
    # A basic z_i takes its row's value, every other z_i is 0.
    by_id = np.zeros(2 * n + 1)
    by_id[basis] = table[:, 0]
    return by_id[n:z0_id], count, code


def lemke_solve(lcp: LcpInstance) -> LcpSolution:
    """Solve one LCP by Lemke complementary pivoting: :func:`lemke_many`
    on a stack of one, whose row it returns, with an ``int`` pivot count
    and a ``str`` status.  The instance checked its shapes and finiteness
    when it was built, so they are not checked again.  For the
    copositive matrices produced by the impact assembly (whose
    homogeneous solutions satisfy the required feasibility side
    condition) termination with ``status="solved"`` is guaranteed up to
    floating-point degeneracy; instances outside that class may end in
    ``ray_termination``.
    """
    if lcp.q.ndim != 1:
        raise ValueError("lemke_solve takes one instance; solve a stack with lemke_many")
    sol = _lemke_many(lcp.m, lcp.q[None])
    return LcpSolution(
        z=sol.z[0], w=sol.w[0], pivot_count=int(sol.pivot_count[0]), status=str(sol.status[0])
    )


def residuals(lcp: LcpInstance, z: np.ndarray) -> tuple:
    """Audit a candidate ``z``: returns (complementarity gap, worst negative
    z entry, worst negative w entry), all as nonnegative magnitudes.  For
    a stack (``z`` and ``lcp.q`` of shape (k, n)) each is an array with
    one entry per row."""
    z = np.asarray(z, dtype=float)
    return _residuals(z, ordered_matvec(lcp.m, z) + lcp.q)


def _residuals(z: np.ndarray, w: np.ndarray) -> tuple:
    """:func:`residuals` of a candidate ``z`` whose ``w = M z + q`` is
    already formed, as a solver returns it."""
    comp_gap = np.abs(ordered_sum(z * w))
    neg_z = np.maximum(0.0, -z.min(axis=-1, initial=0.0))
    neg_w = np.maximum(0.0, -w.min(axis=-1, initial=0.0))
    if z.ndim == 1:
        return float(comp_gap), float(neg_z), float(neg_w)
    return comp_gap, neg_z, neg_w
