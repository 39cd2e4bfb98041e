"""Simultaneous impact resolution by complementarity stepping.

One step of the stochastic impact integrator solves a mixed LCP coupling
normal impulses (capped per step by a drawn budget), doubled tangential
friction impulses, and two groups of auxiliary slack variables: per-contact
budget slacks and tangential slip speeds.  Iterating steps until no contact
is approaching yields one sampled resolution of a simultaneous impact; the
per-step impulse caps are what make distinct outcomes reachable.

The stepping runs in lockstep: ``sim_block`` advances a stack of
trajectories together, and each step of the stack is one call of the
compiled kernel (``lcp.KERNEL``), which assembles, solves, certifies,
applies and audits every row's step and tests each stepped row for
impact.  Its reference, and the path without the kernel, is numpy
(``_numpy_step``): the stack's step LCPs, which share one matrix, are
solved in one ``lemke_many`` call, and every check then runs on the
stack.  Each call picks its path from ``lcp.KERNEL is None`` alone: both
give the same bits and the same errors in the same order, and
``step_block`` takes the same path.  ``sim_step`` and ``sim`` are the
same engine on a stack of one, and a row's bits do not depend on the
stack around it.  ``sim_block``'s loop, which draws from the sampler's
``stream`` in numpy, is itself the reference of ``_kernel_block``, which
takes a whole block of sampled trajectories, their draws, steps and
finishing step, in one kernel call.

Also provided: two deterministic baselines, an impulse-progress
certificate ``r`` obtained from a small linear program, and the integer
constant turning that certificate into a geometric tail bound on the
number of steps.  The baselines are an uncapped one-shot resolution and
a one-contact-at-a-time sweep of such resolutions.  The uncapped
resolution is the step without its budget rows and columns, taken by
the same ``_step`` on a stack of one, so it has the step's kernel call,
numpy reference, certification and cone audit.  A whole sweep is one
kernel call, which takes that resolution of one contact at each visit
that finds it approaching; ``_numpy_sweep`` is its reference.  Its step
records are built from the call's record buffer on the first read of
``steps``.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from . import contact as _contact, lcp as _lcp
from .contact import ImpactProblem, in_linear_cone, is_impacting, kinetic_energy
from .errors import (
    ConeViolationError,
    LcpSolveError,
    NonDegeneracyViolation,
    SequentialCapExceeded,
)
from .lcp import (
    RESIDUAL_TOL,
    LcpInstance,
    _residuals,
    lemke_many,
    lemke_solve,
    ordered_matvec,
    ordered_sum,
)
from .lcp import residuals  # noqa: F401  (stays importable from here)

__all__ = [
    "ImpactLcpLayout",
    "StepRecord",
    "Trajectory",
    "assemble_impact_lcp",
    "step_block",
    "sim_block",
    "sim_step",
    "sim",
    "anitescu_resolve",
    "sequential_resolve",
    "baselines",
    "restrict_contacts",
    "compute_r",
    "termination_constant",
    "tail_bound",
]

# Slack allowed when verifying the certificate's progress ``(M^-1 F) . r >= 1``.
CERT_SLACK = 1e-7
# Single-contact resolutions a ``sequential_resolve`` sweep may take.
SEQUENTIAL_CAP = 100


@dataclass(frozen=True)
class ImpactLcpLayout:
    """Index bookkeeping for the assembled step LCP.

    Variable order is [budget slacks; normal impulses; doubled friction
    impulses; slip speeds], sized m + m + 2m + m for m contacts.
    """

    n_contacts: int

    @property
    def size(self) -> int:
        return 5 * self.n_contacts

    @property
    def gamma_f(self) -> slice:
        return slice(0, self.n_contacts)

    @property
    def lambda_n(self) -> slice:
        return slice(self.n_contacts, 2 * self.n_contacts)

    @property
    def beta(self) -> slice:
        return slice(2 * self.n_contacts, 4 * self.n_contacts)

    @property
    def gamma_v(self) -> slice:
        return slice(4 * self.n_contacts, 5 * self.n_contacts)


@dataclass(eq=False)
class StepRecord:
    """Everything about one resolved step: the drawn caps, the impulses
    taken, and the velocity/energy before and after."""

    lambda_max: np.ndarray
    lambda_n: np.ndarray
    beta: np.ndarray
    v_before: np.ndarray
    v_after: np.ndarray
    energy_before: float
    energy_after: float


@dataclass(eq=False)
class Trajectory:
    """A full impact resolution: the step records plus run metadata.
    ``terminated`` is True exactly when the final velocity no longer has
    any approaching contact."""

    steps: Sequence[StepRecord]
    terminated: bool
    h: float
    rng_seed: int | None
    v0: np.ndarray
    v_final: np.ndarray

    @property
    def n_steps(self) -> int:
        return len(self.steps)


class _Workspace:
    """Per-problem cached assembly blocks (constant across steps): those
    of the capped step and of the uncapped resolution, which the
    compiled kernel reads from ``packed`` and the sequential sweep
    gathers per contact from (:class:`_OneContact`).  Blocks that are
    not finite (an overflowing Delassus matrix) raise ``ValueError``."""

    def __init__(self, problem: ImpactProblem):
        m = problem.n_contacts
        jbar = problem.jbar  # (3m, n_v)
        self.jbar = jbar
        self.minv_jbar_t = problem.mass_solve(jbar.T)  # (n_v, 3m)
        # Rows 2i and 2i+1, contact i's two tangent directions, sum into contact i.
        e_mat = np.repeat(np.eye(m), 2, axis=0)  # (2m, m)

        size = 5 * m
        full = np.zeros((size, size))
        # budget rows: slack w = lambda_max - lambda_n
        full[0:m, m : 2 * m] = -np.eye(m)
        # normal rows: separation rate after the step
        full[m : 2 * m, 0:m] = np.eye(m)
        # normal and doubled tangential rows over the impulses: the Delassus
        # matrix Jbar M^-1 Jbar^T
        full[m : 4 * m, m : 4 * m] = jbar @ self.minv_jbar_t
        # doubled tangential rows: slip rate plus slip-speed slack
        full[2 * m : 4 * m, 4 * m : 5 * m] = e_mat
        # cone rows: friction budget mu * lambda_n - sum(beta)
        full[4 * m : 5 * m, m : 2 * m] = np.diag(problem.mu)
        full[4 * m : 5 * m, 2 * m : 4 * m] = -e_mat.T
        self.full_matrix = full
        # Uncapped variant: drop the budget slack rows/columns.
        keep = np.arange(m, size)
        self.uncapped_matrix = full[np.ix_(keep, keep)]
        # The blocks a compiled step reads, one after another in one
        # array: jbar's rows are jn's and then jd's.
        self.packed = np.concatenate(
            [jbar.ravel(), self.minv_jbar_t.ravel(), full.ravel(), problem.mu,
             self.uncapped_matrix.ravel()]
        )
        if not np.isfinite(self.packed).all():
            raise ValueError("the problem's step LCP blocks must be finite")
        # ``setapprox.psi``, set on its first call: an SVD that only
        # sampling needs.
        self.psi: float | None = None


def _workspace(problem: ImpactProblem) -> _Workspace:
    """The problem's step LCP blocks, built on first use and cached on the
    (frozen, so never stale) problem."""
    ws = getattr(problem, "_workspace", None)
    if ws is None:
        ws = _Workspace(problem)
        object.__setattr__(problem, "_workspace", ws)
    return ws


def assemble_impact_lcp(
    problem: ImpactProblem, v: np.ndarray, lambda_max: np.ndarray
) -> tuple[LcpInstance, ImpactLcpLayout]:
    """Build the capped step LCP at velocity ``v`` with per-contact normal
    impulse caps ``lambda_max``.  Given a stack of velocities and caps
    (one per row) it builds the stack of step LCPs, which share ``M``."""
    v = np.asarray(v, dtype=float)
    lambda_max = np.asarray(lambda_max, dtype=float)
    _check_caps(problem, v, lambda_max)
    ws = _workspace(problem)
    q = np.concatenate(
        [lambda_max, ordered_matvec(ws.jbar, v), np.zeros(lambda_max.shape)], axis=-1
    )
    return LcpInstance(ws.full_matrix, q), ImpactLcpLayout(problem.n_contacts)


def _check_caps(problem: ImpactProblem, v: np.ndarray, lambda_max: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``lambda_max`` holds one finite,
    nonnegative cap per contact for each velocity of ``v``."""
    if lambda_max.shape != v.shape[:-1] + (problem.n_contacts,):
        raise ValueError("lambda_max must have one cap per contact")
    if not np.isfinite(lambda_max).all() or np.any(lambda_max < 0.0):
        raise ValueError("impulse caps must be finite and nonnegative")


def _certified_solve(m: np.ndarray, q: np.ndarray, context: str) -> np.ndarray:
    """Solve ``w = m z + q`` for each row of ``q`` (one ``q`` is a stack
    of one) with ``lemke_many`` and certify the residuals of every row
    from the solver's ``(z, w)``; the first row that fails raises
    :class:`LcpSolveError`.  Returns ``z`` in the shape of ``q``."""
    sol = lemke_many(m, q.reshape(-1, q.shape[-1]))
    unsolved = sol.status != "solved"
    if unsolved.any():
        raise LcpSolveError(str(sol.status[unsolved.argmax()]), context)
    z, w = sol.z, sol.w
    comp_gap, neg_z, neg_w = _residuals(z, w)
    scale = 1.0 + np.sqrt(ordered_sum(z * z) * ordered_sum(w * w))
    # Each residual passes only at or below its bound, so a NaN fails; an
    # infinite scale would let any gap pass, so it fails too.
    ok = np.isfinite(scale) & (neg_z <= RESIDUAL_TOL) & (neg_w <= RESIDUAL_TOL)
    ok &= comp_gap <= RESIDUAL_TOL * scale
    if not ok.all():
        i = ok.argmin()
        raise _residual_error(context, comp_gap[i], neg_z[i], neg_w[i])
    return z.reshape(q.shape)


def _residual_error(context: str, gap: float, neg_z: float, neg_w: float) -> LcpSolveError:
    """The error of a solve whose residuals exceed tolerance."""
    return LcpSolveError(
        "solved",
        f"{context}: residuals exceed tolerance "
        f"(gap={gap:.3e}, neg_z={neg_z:.3e}, neg_w={neg_w:.3e})",
    )


def step_block(
    problem: ImpactProblem, v: np.ndarray, lambda_max: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resolve one capped impulse step for each row of a stack of
    velocities ``v`` (k, n_v) with caps ``lambda_max`` (k, m).

    Returns ``(v_after, lambda_n, beta)``, one row per input row.  A row
    with no approaching contact, or with every cap zero, keeps its
    velocity and takes no impulse.  Every row's caps are checked first,
    as :func:`assemble_impact_lcp` checks them.  The other rows' step LCPs
    are solved together; the first row whose LCP does not certify raises
    :class:`LcpSolveError`, and the first whose post-step state fails the
    friction-cone audit raises :class:`ConeViolationError`.  A ``v`` that
    is not a stack of shape (k, n_v) raises ``ValueError``.
    """
    v = np.asarray(v, dtype=float)
    lambda_max = np.asarray(lambda_max, dtype=float)
    _check_caps(problem, v, lambda_max)
    return _step(problem, v, lambda_max)[:3]


def _step(
    problem: ImpactProblem,
    v: np.ndarray,
    lambda_max: np.ndarray | None,
    impacting: bool | None = None,
) -> tuple:
    """:func:`step_block` on float arrays, plus the stacked impact test
    of every row of ``v_after``: returns ``(v_after, lambda_n, beta,
    impacting_after)``.  ``impacting`` is ``True`` when every row is
    known to impact, or ``None`` to test each row.

    ``lambda_max`` ``None`` takes the uncapped resolution instead, the
    step LCP without its budget rows and columns: a row steps when some
    rate ``jn_i . v`` is below zero, and ``impacting`` is not read.

    With the compiled kernel the whole step is one call
    (:func:`_kernel_step`); without it :func:`_numpy_step`, its
    reference.  A ``v`` that is not (k, n_v), or caps that are not (k, m),
    as a sampler may draw them, raise ``ValueError``."""
    if v.ndim != 2 or v.shape[1] != problem.n_v:
        raise ValueError(f"v must have shape (k, {problem.n_v}), got {v.shape}")
    if lambda_max is not None and lambda_max.shape != (len(v), problem.n_contacts):
        raise ValueError("lambda_max must have one cap per contact")
    if _lcp.KERNEL is None:
        return _numpy_step(problem, v, lambda_max, impacting)
    return _kernel_step(problem, v, lambda_max, impacting is None)


def _numpy_step(
    problem: ImpactProblem, v: np.ndarray, lambda_max: np.ndarray | None, impacting
) -> tuple:
    """:func:`_step` in numpy: the live rows' step LCPs are assembled and
    certified as a stack, and the stepped rows audited together."""
    m = problem.n_contacts
    ws = _workspace(problem)
    if lambda_max is None:
        rates = ordered_matvec(ws.jbar, v)
        live = np.flatnonzero(~np.all(rates[:, :m] >= 0.0, axis=1))
        matrix = ws.uncapped_matrix
        q = np.concatenate([rates[live], np.zeros((live.size, m))], axis=1)
    else:
        if impacting is None:
            impacting = is_impacting(problem, v)
        live = np.flatnonzero(impacting & np.any(lambda_max > 0.0, axis=1))
        stack, _ = assemble_impact_lcp(problem, v[live], lambda_max[live])
        matrix, q = stack.m, stack.q
    v_after = v.copy()
    lambda_n = np.zeros((len(v), m))
    beta = np.zeros((len(v), 2 * m))
    if live.size:
        context, cone_failure = _UNCAPPED if lambda_max is None else _CAPPED
        z = _certified_solve(matrix, q, context)
        # The impulses [lambda_n; beta] follow the budget slacks, if any.
        impulses = z[:, len(matrix) - 4 * m : len(matrix) - m]
        stepped = v[live] + ordered_matvec(ws.minv_jbar_t, impulses)
        lam, bet = impulses[:, :m], impulses[:, m:]
        if not np.all(in_linear_cone(problem, stepped, lam, bet)):
            raise ConeViolationError(cone_failure)
        v_after[live], lambda_n[live], beta[live] = stepped, lam, bet
    return v_after, lambda_n, beta, is_impacting(problem, v_after)


# The context of a failed solve and the message of a failed cone audit,
# of a capped step and of the uncapped resolution.
_CAPPED = ("capped impact step", "post-step state failed the friction-cone feasibility audit")
_UNCAPPED = ("uncapped resolution", "uncapped resolution failed the friction-cone feasibility audit")


def _kernel_step(
    problem: ImpactProblem, v: np.ndarray, lambda_max: np.ndarray | None, test_rows: bool
) -> tuple:
    """:func:`_step` in one call of the compiled kernel, which takes
    :func:`_numpy_step`'s operations row by row with its bits, the
    tolerances read here at each call.  It raises the error that
    :func:`_numpy_step` raises first, in the order that ``_lemke.c``'s
    ``step_stack`` states.  Without caps the kernel takes the uncapped
    resolution."""
    m, n_v = problem.n_contacts, problem.n_v
    k = len(v)
    v = np.ascontiguousarray(v, dtype=float)
    caps = None if lambda_max is None else np.ascontiguousarray(lambda_max, dtype=float)
    out = np.empty(k * (n_v + 3 * m) + 10 * m)
    impacting = np.empty(k, dtype=bool)
    outcome = _lcp.KERNEL.step_stack(
        k, n_v, m, _workspace(problem).packed.ctypes.data, v.ctypes.data,
        None if caps is None else caps.ctypes.data, test_rows, out.ctypes.data,
        impacting.ctypes.data, _lcp.PIVOT_TOL, _lcp.LEX_TIE_TOL, _lcp.MAX_PIVOTS, RESIDUAL_TOL,
        _contact.CONE_TOL, _contact.APPROACH_TOL,
    )
    # Slices, not ``np.split``, whose own cost is most of a small step's.
    a, b, c = k * n_v, k * (n_v + m), k * (n_v + 3 * m)
    v_after, lambda_n, beta, detail = out[:a], out[a:b], out[b:c], out[c:]
    _raise_failure(outcome, detail, 4 * m if caps is None else 5 * m, caps is None)
    return v_after.reshape(k, n_v), lambda_n.reshape(k, m), beta.reshape(k, 2 * m), impacting


def _kernel_block(
    problem: ImpactProblem, v0: np.ndarray, h: float, n_max: int, count: int, draws: tuple,
    finishing: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`sim_block` of ``count`` trajectories from ``v0`` and then the
    :func:`_step` of each with the caps ``finishing``, in one call of the
    compiled kernel, ``sim_stack``; returns that step's ``v_after`` and
    the impact test of each of its rows.  ``draws`` is what the sampler's
    ``_kernel_draws`` gives: a Sobol byte table, the first index and the
    stride, then PCG64 states (the table ``None``, or the states).  The
    kernel takes :func:`sim_block`'s steps, each a ``step_stack`` call,
    with their bits and their errors: the first step that fails raises
    as :func:`_kernel_step` would.  Nothing it holds grows with
    ``n_max``."""
    m, n_v = problem.n_contacts, problem.n_v
    sobol, start, stride, states = draws
    v0 = np.ascontiguousarray(v0, dtype=float)
    finishing = np.ascontiguousarray(finishing, dtype=float)
    out = np.empty(count * (n_v + 3 * m) + 10 * m)
    impacting = np.empty(count, dtype=bool)
    outcome = _lcp.KERNEL.sim_stack(
        count, n_v, m, _workspace(problem).packed.ctypes.data, v0.ctypes.data, v0.ndim == 2, h,
        # No trajectory takes 2**63 steps.
        min(n_max, 2**63 - 1), None if sobol is None else sobol.ctypes.data, start, stride,
        None if states is None else states.ctypes.data, finishing.ctypes.data, out.ctypes.data,
        impacting.ctypes.data, _lcp.PIVOT_TOL, _lcp.LEX_TIE_TOL, _lcp.MAX_PIVOTS, RESIDUAL_TOL,
        _contact.CONE_TOL, _contact.APPROACH_TOL,
    )
    _raise_failure(outcome, out[count * (n_v + 3 * m) :], 5 * m, False)
    return out[: count * n_v].reshape(count, n_v), impacting


def _raise_failure(outcome: int, detail: np.ndarray, n: int, uncapped: bool) -> None:
    """Raise the error of a ``step_stack`` outcome other than a step
    taken, from its ``detail``, for an LCP of ``n`` rows."""
    context, cone_failure = _UNCAPPED if uncapped else _CAPPED
    _lcp._raise_outcome(outcome)
    if outcome == _lcp._BAD_CAPS:
        raise ValueError("impulse caps must be finite and nonnegative")
    if outcome == _lcp._UNSOLVED:
        raise LcpSolveError(str(_lcp._STATUSES[int(detail[0])]), context)
    if outcome == _lcp._RESIDUALS:
        gap, neg_z, neg_w = _residuals(*detail[: 2 * n].reshape(2, 1, n))
        raise _residual_error(context, gap[0], neg_z[0], neg_w[0])
    if outcome == _lcp._CONE:
        raise ConeViolationError(cone_failure)


def sim_block(
    problem: ImpactProblem,
    v0: np.ndarray,
    h: float,
    n_max: int,
    sampler,
    first: int,
    count: int,
    on_step: Callable | None = None,
) -> np.ndarray:
    """Run the stochastic impact integrator for trajectories ``first ..
    first+count-1`` in lockstep.

    ``v0`` is one start velocity or one per trajectory.  Step ``j`` draws
    the caps in [0, 1) of the trajectories that still have an approaching
    contact from ``sampler.stream(first, count, n_max, m)``, scales them by
    ``h`` and applies :func:`step_block` to them; a trajectory stops as
    soon as no contact approaches, or after ``n_max`` steps.
    ``on_step(lambda_max, v_before, v_after, lambda_n, beta)``, if given,
    sees each step of the rows it stepped.  Returns the final velocities,
    one row per trajectory.  ``n_max``, ``first`` and ``count`` must be
    nonnegative integers (not bools), and ``v0`` finite, of shape
    (n_v,) or (count, n_v); anything else raises ``ValueError``.
    """
    _check_budget(h)
    _check_integers(n_max=n_max, first=first, count=count)
    if n_max < 0:
        raise ValueError("step cap must be nonnegative")
    if first < 0 or count < 0:
        raise ValueError(f"first and count must be nonnegative, got {first} and {count}")
    v0 = _start_velocity(problem, v0, count)
    v = np.array(np.broadcast_to(v0, (count, problem.n_v)))
    rows = np.flatnonzero(is_impacting(problem, v))
    draw = sampler.stream(first, count, n_max, problem.n_contacts)
    for j in range(n_max):
        if not rows.size:
            break
        caps = h * draw(rows, j)
        v_before = v[rows]
        # Every row in ``rows`` impacts: the last step (or the start) tested it.
        v_after, lambda_n, beta, impacting = _step(problem, v_before, caps, True)
        if on_step is not None:
            on_step(caps, v_before, v_after, lambda_n, beta)
        v[rows] = v_after
        rows = rows[impacting]
    return v


def _check_budget(h: float) -> None:
    """Raise ``ValueError`` unless the per-step budget ``h`` is positive and finite."""
    if not 0.0 < h < math.inf:
        raise ValueError(f"per-step impulse budget h must be positive and finite, got {h!r}")


def _check_integers(**values) -> None:
    """Raise ``ValueError`` naming the first argument that is a bool or
    not an integer."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _start_velocity(
    problem: ImpactProblem, v: np.ndarray, count: int | None = None
) -> np.ndarray:
    """``v`` as a float array, or ``ValueError`` unless it is one finite
    velocity of shape (n_v,) or, given ``count``, one per trajectory,
    of shape (count, n_v)."""
    v = np.asarray(v, dtype=float)
    shapes = [(problem.n_v,)] if count is None else [(problem.n_v,), (count, problem.n_v)]
    if v.shape not in shapes:
        raise ValueError(
            f"start velocity must have shape {' or '.join(map(str, shapes))}, got {v.shape}"
        )
    if not np.isfinite(v).all():
        raise ValueError("start velocity must be finite")
    return v


def _record(problem: ImpactProblem, lambda_max, v_before, v_after, lambda_n, beta) -> StepRecord:
    """The record of row 0 of a stepped stack, with both energies; the
    arguments are those ``sim_block`` hands ``on_step``."""
    return StepRecord(
        lambda_max=lambda_max[0],
        lambda_n=lambda_n[0],
        beta=beta[0],
        v_before=v_before[0],
        v_after=v_after[0],
        energy_before=kinetic_energy(problem, v_before[0]),
        energy_after=kinetic_energy(problem, v_after[0]),
    )


def sim_step(
    problem: ImpactProblem,
    v: np.ndarray,
    lambda_max: np.ndarray,
) -> tuple[np.ndarray, StepRecord]:
    """Resolve one capped impulse step; returns ``(v_after, record)``.

    This is :func:`step_block` on a stack of one.  If no contact is
    approaching, or every cap is zero, the velocity is returned unchanged
    with a zero-impulse record.  A non-solved LCP status raises
    :class:`LcpSolveError`; a post-step state failing the friction-cone
    audit raises :class:`ConeViolationError`.
    """
    v = np.array(v, dtype=float)[None]
    lambda_max = np.array(lambda_max, dtype=float)[None]
    v_after, lambda_n, beta = step_block(problem, v, lambda_max)
    return v_after[0].copy(), _record(problem, lambda_max, v, v_after, lambda_n, beta)


def sim(
    problem: ImpactProblem,
    v0: np.ndarray,
    h: float,
    n_max: int,
    sampler,
    traj_index: int = 0,
) -> Trajectory:
    """Run the stochastic impact integrator from ``v0``: :func:`sim_block`
    on trajectory ``traj_index`` alone, with a record of every step.

    Each step draws the trajectory's next per-contact caps in [0, 1) from
    ``sampler.stream(traj_index, 1, n_max, m)``, scales them by ``h`` and
    applies one capped step, stopping as soon as no contact approaches or
    after ``n_max`` steps.  A ``n_max`` or ``traj_index`` that is not a
    nonnegative integer (a bool is not), or a ``v0`` that is not one
    finite velocity, raises ``ValueError``.
    """
    v0 = _start_velocity(problem, v0)
    steps: list[StepRecord] = []
    v = sim_block(
        problem, v0, h, n_max, sampler, traj_index, 1,
        on_step=lambda *step: steps.append(_record(problem, *step)),
    )
    return Trajectory(
        steps=steps,
        terminated=not is_impacting(problem, v)[0],
        h=h,
        rng_seed=getattr(sampler, "seed", None),
        v0=v0.copy(),
        v_final=v[0],
    )


def _uncapped_resolve(
    problem: ImpactProblem, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-shot resolution of the float velocity ``v`` with no impulse
    caps, audited against the friction cone: :func:`_step` without its
    budget rows, on a stack of one.  Returns (v_after, lambda_n, beta);
    a state with no negative rate ``jn_i . v`` comes back unchanged."""
    v_after, lambda_n, beta, _ = _step(problem, v[None], None)
    return v_after[0], lambda_n[0], beta[0]


def anitescu_resolve(problem: ImpactProblem, v: np.ndarray) -> np.ndarray:
    """Deterministic one-shot baseline: resolve all contacts simultaneously
    with unbounded normal impulses (the classical time-stepping impact law).
    A ``v`` that is not one finite velocity raises ``ValueError``."""
    return _uncapped_resolve(problem, _start_velocity(problem, v))[0]


def _contact_index(problem: ImpactProblem, entry: int | str) -> int:
    """The index of the contact that ``entry`` names: a label, or an
    integer index in range that is not a bool.  Anything else raises
    ``ValueError``."""
    if isinstance(entry, str):
        if entry not in problem.labels:
            raise ValueError(f"no contact labeled {entry!r}; labels: {', '.join(problem.labels)}")
        return problem.labels.index(entry)
    if isinstance(entry, bool) or not isinstance(entry, numbers.Integral):
        raise ValueError(f"contact entry {entry!r} is neither a label nor an index")
    if not 0 <= entry < problem.n_contacts:
        raise ValueError(f"contact index {entry} out of range")
    return int(entry)


def restrict_contacts(problem: ImpactProblem, contacts: list[int | str]) -> ImpactProblem:
    """A copy of the problem keeping only the selected contacts, each
    named by a label or an index (any other entry raises ``ValueError``)."""
    indices = [_contact_index(problem, entry) for entry in contacts]
    return ImpactProblem(
        mass=problem.mass,
        jn=problem.jn[indices],
        jt=problem.jt[indices],
        mu=problem.mu[indices],
        labels=tuple(problem.labels[i] for i in indices),
    )


def sequential_resolve(
    problem: ImpactProblem,
    v: np.ndarray,
    order: list[int | str],
) -> Trajectory:
    """One-contact-at-a-time baseline.

    Contacts are visited round-robin in the cycle given by ``order``
    (labels, or integer indices that are not bools; any other entry
    raises ``ValueError``) followed by the remaining contacts in index order;
    each visit fully resolves that single contact if it is approaching.
    Terminates when a full sweep finds no approaching contact; more than
    ``SEQUENTIAL_CAP`` single-contact resolutions raises
    :class:`SequentialCapExceeded`.  A ``v`` that is not one finite
    velocity raises ``ValueError``.

    A visit takes its contact alone, on the contact's rows and columns of
    the problem's step LCP blocks (:class:`_OneContact`): the impact test
    of its one rate, then the uncapped resolution of :func:`_step`.  With
    the compiled kernel the whole sweep is one call
    (:func:`_kernel_sweep`); without it :func:`_numpy_sweep`, its
    reference, runs it.  The step records are built on the first read of
    ``steps`` (:class:`_SweepSteps`), their energies ``kinetic_energy``'s,
    one per resolution.
    """
    v = np.array(_start_velocity(problem, v))
    m = problem.n_contacts
    cycle: list[int] = []
    for entry in order:
        idx = _contact_index(problem, entry)
        if idx in cycle:
            raise ValueError("resolution order must not repeat contacts")
        cycle.append(idx)
    cycle.extend(i for i in range(m) if i not in cycle)

    sweep = _numpy_sweep if _lcp.KERNEL is None else _kernel_sweep
    records, terminated = sweep(problem, v, cycle)
    # A record is the contact resolved, v_after, lambda_n and beta.
    return Trajectory(
        steps=_SweepSteps(problem, v.copy(), records),
        terminated=terminated,
        h=math.inf,
        rng_seed=None,
        v0=v,
        v_final=(records[-1, 1 : problem.n_v + 1] if len(records) else v).copy(),
    )


class _SweepSteps(Sequence):
    """A sequential sweep's :class:`StepRecord` list, built from its
    record buffer and its own copy of the start velocity on the first
    read of an item, so a caller that reads only ``v_final`` builds
    none; its length is the record count."""

    def __init__(self, problem: ImpactProblem, v0: np.ndarray, records: np.ndarray):
        self._problem, self._v0, self._records = problem, v0, records
        self._steps: list[StepRecord] | None = None

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, index):
        return self._built()[index]

    def __iter__(self):
        return iter(self._built())

    def __repr__(self) -> str:
        return repr(self._built())

    def _built(self) -> list[StepRecord]:
        if self._steps is None:
            self._steps = self._build()
        return self._steps

    def _build(self) -> list[StepRecord]:
        problem, v, records = self._problem, self._v0, self._records
        count, n_v, m = len(records), problem.n_v, problem.n_contacts
        contacts, rows = records[:, 0].astype(int), np.arange(count)
        v_after = records[:, 1 : n_v + 1]
        v_before = np.vstack([v, v_after[:-1]])
        lambda_max, lambda_n, beta = np.zeros((count, m)), np.zeros((count, m)), np.zeros((count, m, 2))
        lambda_max[rows, contacts] = np.inf
        lambda_n[rows, contacts] = records[:, n_v + 1]
        beta[rows, contacts] = records[:, n_v + 2 :]
        beta = beta.reshape(count, 2 * m)
        energy = kinetic_energy(problem, v)
        steps: list[StepRecord] = []
        for j in range(count):
            # The energy after this resolution is the energy before the next.
            energy_before, energy = energy, kinetic_energy(problem, v_after[j])
            steps.append(
                StepRecord(
                    lambda_max=lambda_max[j],
                    lambda_n=lambda_n[j],
                    beta=beta[j],
                    v_before=v_before[j],
                    v_after=v_after[j],
                    energy_before=energy_before,
                    energy_after=energy,
                )
            )
        return steps


class _OneContact:
    """Contact ``i`` of a problem alone, its blocks gathered from the
    problem's :class:`_Workspace`: rows ``i``, ``m + 2i`` and
    ``m + 2i + 1`` of ``jbar`` and the same columns of ``minv_jbar_t``,
    ``mu[i]``, and rows and columns ``i``, ``m + 2i``, ``m + 2i + 1`` and
    ``3m + i`` of the uncapped matrix, as ``_lemke.c`` gathers them for
    ``sequential_sweep``.  It holds what :func:`_numpy_step`,
    ``is_impacting`` and ``in_linear_cone`` read of a one-contact problem
    and of its workspace, and stands in for both."""

    n_contacts = 1

    def __init__(self, problem: ImpactProblem, i: int):
        m = problem.n_contacts
        ws = _workspace(problem)
        rows = [i, m + 2 * i, m + 2 * i + 1]
        keep = rows + [3 * m + i]
        self.jbar = ws.jbar[rows]
        self.jn, self.jd = self.jbar[:1], self.jbar[1:]
        self.mu = problem.mu[i : i + 1]
        self.minv_jbar_t = ws.minv_jbar_t[:, rows]
        self.uncapped_matrix = ws.uncapped_matrix[np.ix_(keep, keep)]
        self._workspace = self


def _cap_exceeded() -> SequentialCapExceeded:
    """The error of a sweep that is due a resolution beyond ``SEQUENTIAL_CAP``."""
    return SequentialCapExceeded(
        f"more than {SEQUENTIAL_CAP} single-contact resolutions without settling"
    )


def _numpy_sweep(problem: ImpactProblem, v: np.ndarray, cycle: list[int]) -> tuple:
    """:func:`sequential_resolve`'s sweep from ``v`` in numpy, the
    compiled sweep's reference: returns its records, one row per
    resolution of the contact's index, ``v_after``, ``lambda_n`` and
    ``beta``, and whether it ends settled.  Each visit tests its
    contact as a stack of one and resolves it with :func:`_numpy_step`."""
    m = problem.n_contacts
    contacts = [_OneContact(problem, i) for i in range(m)]
    records = []
    position = idle_sweeps = 0
    while idle_sweeps < m:
        idx = cycle[position % m]
        position += 1
        if not is_impacting(contacts[idx], v):
            idle_sweeps += 1
            continue
        idle_sweeps = 0
        if len(records) >= SEQUENTIAL_CAP:
            raise _cap_exceeded()
        v_after, lambda_n, beta, _ = _numpy_step(contacts[idx], v[None], None, None)
        v = v_after[0]
        records.append(np.concatenate([[idx], v, lambda_n[0], beta[0]]))
    return np.array(records).reshape(-1, problem.n_v + 4), not is_impacting(problem, v)


def _kernel_sweep(problem: ImpactProblem, v: np.ndarray, cycle: list[int]) -> tuple:
    """:func:`_numpy_sweep` in one call of the compiled kernel, with its
    bits and its errors, the cap and the tolerances read here at each
    call.  The records are at most ``SEQUENTIAL_CAP`` rows of n_v + 4."""
    n_v, width = problem.n_v, problem.n_v + 4
    cap = SEQUENTIAL_CAP
    # Named, so that each buffer outlives the call that reads its address.
    order = np.array(cycle, dtype=np.intc)
    out = np.empty(max(cap, 0) * width + 10)
    tally = np.empty(2, dtype=np.int64)
    outcome = _lcp.KERNEL.sequential_sweep(
        n_v, problem.n_contacts, _workspace(problem).packed.ctypes.data, v.ctypes.data,
        order.ctypes.data, cap, out.ctypes.data, tally.ctypes.data,
        _lcp.PIVOT_TOL, _lcp.LEX_TIE_TOL, _lcp.MAX_PIVOTS, RESIDUAL_TOL, _contact.CONE_TOL,
        _contact.APPROACH_TOL,
    )
    if outcome == _lcp._OVER_CAP:
        raise _cap_exceeded()
    count, approaching = tally.tolist()
    _raise_failure(outcome, out[count * width :], 4, True)
    return out[: count * width].reshape(count, width), not approaching


def baselines(
    problem: ImpactProblem, v: np.ndarray
) -> list[tuple[str, str, np.ndarray]]:
    """The deterministic outcomes at ``v`` as ``(method, order, v_plus)``
    rows: the uncapped resolution, then a sequential sweep started at each
    contact in label order.  A ``v`` that is not one finite velocity
    raises ``ValueError`` before any is resolved."""
    rows = [("anitescu", "", anitescu_resolve(problem, v))]
    for label in problem.labels:
        rows.append(("sequential", label, sequential_resolve(problem, v, [label]).v_final))
    return rows


def compute_r(problem: ImpactProblem) -> np.ndarray:
    """Impulse-progress certificate: a vector ``r`` with
    ``(M^-1 F) . r >= 1`` for every extreme impulse ray ``F`` (normal plus
    friction at either tangential extreme), minimizing the 1-norm.

    Solved as the KKT system of the linear program in split-variable form,
    which is itself an LCP with a skew-symmetric matrix; infeasibility
    (termination on a ray) certifies that the contact geometry admits a
    jamming impulse combination and raises
    :class:`NonDegeneracyViolation`.
    """
    m = problem.n_contacts
    n_v = problem.n_v
    rays = np.repeat(problem.jn, 2, axis=0) + np.repeat(problem.mu, 2)[:, None] * problem.jd
    gmat = problem.mass_solve(rays.T).T  # (2m, n_v): rows are M^-1 F

    size = 2 * n_v + 2 * m
    lcp_m = np.zeros((size, size))
    lcp_m[: n_v, 2 * n_v :] = -gmat.T
    lcp_m[n_v : 2 * n_v, 2 * n_v :] = gmat.T
    lcp_m[2 * n_v :, :n_v] = gmat
    lcp_m[2 * n_v :, n_v : 2 * n_v] = -gmat
    lcp_q = np.concatenate([np.ones(2 * n_v), -np.ones(2 * m)])

    sol = lemke_solve(LcpInstance(lcp_m, lcp_q))
    if sol.status != "solved":
        raise NonDegeneracyViolation(
            "no impulse-progress certificate exists: the extreme impulse rays "
            "admit a jamming combination"
        )
    r = sol.z[:n_v] - sol.z[n_v : 2 * n_v]
    worst = float((gmat @ r).min())
    if worst < 1.0 - CERT_SLACK:
        raise NonDegeneracyViolation(
            f"certificate failed verification: min ray progress {worst:.6f} < 1"
        )
    return r


def termination_constant(
    problem: ImpactProblem,
    h: float,
    r: np.ndarray | None = None,
) -> tuple[int, Callable[[float], float]]:
    """Step-count tail bound: the integer constant ``c`` and the tail
    probability function.

    With certificate ``r``, contact count ``m`` and the smallest mass
    eigenvalue ``sigma``, ``c = 4 * ceil((m+1) |r|_2 / (h sqrt(sigma)))``,
    and the chance a trajectory runs more than ``k`` steps past the
    energy-determined prefix ``c * ceil(|v0|_M)`` is at most the returned
    ``tail(k)``.  A given ``r`` must be one finite, nonzero vector of
    shape ``(n_v,)`` whose ``c`` is finite, else ``ValueError``.
    """
    _check_budget(h)
    if r is None:
        r = compute_r(problem)
    r = np.asarray(r, dtype=float)
    if r.shape != (problem.n_v,) or not np.isfinite(r).all() or not r.any():
        raise ValueError(
            f"r must be one finite, nonzero vector of shape ({problem.n_v},), got {r!r}"
        )
    m = problem.n_contacts
    sigma = float(np.linalg.eigvalsh(problem.mass)[0])
    with np.errstate(over="ignore"):
        ratio = (m + 1) * float(np.linalg.norm(r)) / (h * math.sqrt(sigma))
    if not math.isfinite(ratio):
        raise ValueError(f"r = {r!r} gives no finite termination constant at h = {h!r}")
    return 4 * math.ceil(ratio), functools.partial(tail_bound, problem)


def tail_bound(problem: ImpactProblem, k: float) -> float:
    """Geometric tail factor ``exp(-k / (m+1)^2)`` for ``k`` steps beyond
    the energy-determined prefix."""
    m = problem.n_contacts
    return math.exp(-k / (m + 1) ** 2)
