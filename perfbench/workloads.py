"""The benchmark's workloads: inputs made from the seed, timed rounds of
operations with one process and with ``nproc`` processes, and the checks
on what the program returned.

A run cycles through ``CYCLE`` rounds with different inputs (``round_fn(k)``
for ``k = 0 .. CYCLE-1``; ``BASELINE_CYCLE`` on ``baselines``) and always
ends on a whole cycle.  One round is too few trajectories or cases for its
mean cost not to depend on the seed; a cycle is enough, so runs with
different seeds measure the same cost.

Every call into ``multimpact`` goes through a module attribute
(``setapprox.approximate``, ``mio.set_to_csv``, ...) looked up at call
time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from multimpact import io as mio
from multimpact import resolution, scenes, setapprox

import checker

NPROC = len(os.sched_getaffinity(0))
CYCLE = 8
SMOKE_CYCLE = 2

# Scene and draw source of each sampling workload.
SAMPLING = {
    "compass_sobol": ("compass", "sobol"),
    "disk_stack_uniform": ("disk_stack", "uniform"),
}
# Trajectories per round with jobs=1 and with jobs=nproc, and how many
# trajectories the step checker re-runs.  A jobs=1 round takes about 0.1 s.
SIZES = {
    "compass_sobol": (128, 512, 8),
    "disk_stack_uniform": (64, 256, 8),
}
SMOKE_SIZES = (8, 8, 2)

BASELINE_SCENES = ("ball", "phone", "compass", "box_wall", "disk_stack")
# disk_stack enters the baselines at its bundled pose and velocity: about one
# perturbed disk_stack case in 400 makes the program fail (see CHANGES.md),
# and a benchmark op must not fail on some seeds only.
UNPERTURBED = ("disk_stack",)
# Two cases of each scene per round, so that the two disk_stack cases,
# nine tenths of a round's time, go to different workers of a jobs=2 round.
# About one perturbed compass case in nine takes 15 to 40 times its usual
# 4 or 5 Lemke solves.  A cycle has 16 rounds, so that rounds holding such
# a case stay short of half of a cycle (at most 7 of 16 on seeds 0-99), and
# the median round does not depend on how many of them a seed draws.
BASELINE_CASES_PER_SCENE = 2  # per round
BASELINE_CYCLE = 16
POSE_JITTER = 0.01  # rad or m per coordinate
VELOCITY_JITTER = 0.2  # share of |v0|


class SamplingWorkload:
    """``approximate`` on one bundled scene plus the CSV export that
    ``multimpact approximate`` does.  An op is one trajectory.

    Round ``k`` of a ``disk_stack_uniform`` run draws from
    ``UniformSampler(1000 * seed + k)``.  The Sobol stream has no seed:
    every ``compass_sobol`` round runs trajectories ``0 .. m-1`` and the
    seed only picks the trajectories the checker re-runs.
    """

    def __init__(self, name: str, seed: int, out_dir: Path, smoke: bool):
        scene_name, draws = SAMPLING[name]
        self.name = name
        self.seed = seed
        self.cycle = SMOKE_CYCLE if smoke else CYCLE
        self.scene = scenes.load_scene(scene_name)
        self.problem, self.v0, meta = scenes.build_problem(self.scene)
        self.h = float(meta["h"])
        self.n_max = int(meta["n_steps"])
        self.epsilon = self.h / 10.0
        self.psi = setapprox.psi(self.problem)
        if draws == "sobol":
            self.samplers = [setapprox.SobolSampler(seed)] * self.cycle
        else:
            self.samplers = [setapprox.UniformSampler(1000 * seed + k) for k in range(self.cycle)]
        self.serial_ops, self.jobs_ops, self.n_rechecked = SMOKE_SIZES if smoke else SIZES[name]
        self.path = out_dir / f"{name}.csv"
        self.serial_sets = {}
        self.jobs_sets = {}
        self.coverage_share = 0.0

    def _approximate(self, k: int, m: int, jobs: int):
        post = setapprox.approximate(
            self.problem, self.v0, self.h, self.epsilon, self.n_max, m, self.samplers[k], jobs=jobs
        )
        mio.set_to_csv(post, self.problem, self.path)
        return post

    def serial_round(self, k: int) -> None:
        self.serial_sets[k] = self._approximate(k, self.serial_ops, 1)

    def start_jobs(self) -> None:
        self.jobs_round(0)  # warm-up

    def jobs_round(self, k: int) -> None:
        self.jobs_sets[k] = self._approximate(k, self.jobs_ops, NPROC)

    def fanout_round(self) -> None:
        """``approximate(jobs=nproc)`` on ``nproc`` trajectories: its fixed cost."""
        self._approximate(0, NPROC, NPROC)

    def close(self) -> None:
        pass

    def rejected(self) -> int:
        return sum(post.rejected_count for post in self.serial_sets.values())

    def check(self) -> list[str]:
        problem, v0 = self.problem, self.v0
        faults = []
        for sets, m, what in (
            (self.serial_sets, self.serial_ops, "jobs=1"),
            (self.jobs_sets, self.jobs_ops, f"jobs={NPROC}"),
        ):
            for k, post in sets.items():
                if post.samples.shape[0] + post.rejected_count != m:
                    faults.append(f"round {k} {what}: kept + rejected != {m}")
                faults += checker.check_outcomes(problem, v0, post.samples, f"round {k} {what}")
        for k in self.serial_sets.keys() & self.jobs_sets.keys():
            serial, wide = self.serial_sets[k], self.jobs_sets[k]
            head = wide.traj_indices < self.serial_ops
            if not (
                np.array_equal(wide.traj_indices[head], serial.traj_indices)
                and np.array_equal(wide.samples[head], serial.samples)
            ):
                faults.append(f"round {k}: jobs=1 and jobs={NPROC} sets differ")

        sampler, serial = self.samplers[0], self.serial_sets[0]
        kept = dict(zip(serial.traj_indices.tolist(), serial.samples))
        finishing = self.epsilon / (3.0 * self.psi) * np.ones(problem.n_contacts)
        rng = np.random.default_rng([self.seed, 1])
        for idx in rng.choice(self.serial_ops, size=self.n_rechecked, replace=False):
            idx = int(idx)
            traj = resolution.sim(problem, v0, self.h, self.n_max, sampler, traj_index=idx)
            faults += checker.check_trajectory(problem, traj, f"trajectory {idx}")
            v_fin, record = resolution.sim_step(problem, traj.v_final, finishing)
            faults += checker.check_step(problem, record, f"trajectory {idx} finishing step")
            if idx in kept and not np.array_equal(kept[idx], v_fin):
                faults.append(f"trajectory {idx}: set sample differs from a re-run")

        baselines = [("anitescu", resolution.anitescu_resolve(problem, v0))]
        for label in problem.labels:
            traj = resolution.sequential_resolve(problem, v0, [label])
            baselines.append((f"sequential {label} first", traj.v_final))
        samples = np.vstack([post.samples for post in self.jobs_sets.values()])
        coverage_faults, self.coverage_share = checker.check_coverage(
            problem, v0, samples, baselines
        )
        return faults + coverage_faults


@dataclass
class BaselineCase:
    scene_name: str
    scene: object  # a Scene, or None for the ball, which has no scene
    pose: np.ndarray | None
    v: np.ndarray


def baseline_cases(seed: int, k: int, per_scene: int) -> list[BaselineCase]:
    """Round ``k``: seeded perturbations of every bundled scene's pose and
    velocity, ``per_scene`` of each."""
    rng = np.random.default_rng([seed, 2, k])
    loaded = {name: scenes.load_scene(name) for name in BASELINE_SCENES if name != "ball"}
    cases = []
    for _ in range(per_scene):
        for name in BASELINE_SCENES:
            scene = loaded.get(name)
            if scene is None:
                pose, v0 = None, scenes.build_ball()[1]
            else:
                pose = scene.initial_pose() + POSE_JITTER * rng.standard_normal(scene.n_v)
                v0 = scene.v0
            spread = VELOCITY_JITTER * np.linalg.norm(v0) / np.sqrt(v0.size)
            v = v0 + spread * rng.standard_normal(v0.size)
            if name in UNPERTURBED:
                pose, v = scene.initial_pose(), v0.copy()
            cases.append(BaselineCase(name, scene, pose, v))
    return cases


def baseline_op(case: BaselineCase, path: Path):
    """Build the problem, run both baselines and the certificate, export."""
    if case.scene is None:
        problem, _, meta = scenes.build_ball()
    else:
        problem, _, meta = scenes.build_problem(case.scene, case.pose)
    rows = [("anitescu", "", resolution.anitescu_resolve(problem, case.v))]
    for label in problem.labels:
        traj = resolution.sequential_resolve(problem, case.v, [label])
        rows.append(("sequential", label, traj.v_final))
    r = resolution.compute_r(problem)
    c, _ = resolution.termination_constant(problem, float(meta["h"]), r)
    mio.compare_to_csv(rows, problem, path)
    return problem, np.array([v for _, _, v in rows]), r, c


# State of a baseline worker, set once by its initializer.
_worker: dict = {}


def _init_worker(seed: int, cycle: int, per_scene: int, out_dir: str) -> None:
    _worker["rounds"] = [baseline_cases(seed, k, per_scene) for k in range(cycle)]
    _worker["path"] = Path(out_dir) / f"baselines_compare_{os.getpid()}.csv"


def _worker_op(task: tuple[int, int]):
    k, i = task
    _, outcomes, r, c = baseline_op(_worker["rounds"][k][i], _worker["path"])
    return outcomes, r, c


class BaselinesWorkload:
    """Each op builds a fresh problem for one perturbed scene, so the
    per-problem caches start cold, and solves the uncapped,
    single-contact and skew-symmetric LCPs of the baselines."""

    name = "baselines"

    def __init__(self, seed: int, out_dir: Path, smoke: bool):
        self.seed = seed
        self.out_dir = out_dir
        self.cycle = SMOKE_CYCLE if smoke else BASELINE_CYCLE
        self.per_scene = BASELINE_CASES_PER_SCENE
        self.rounds = [baseline_cases(seed, k, self.per_scene) for k in range(self.cycle)]
        self.serial_ops = self.jobs_ops = len(self.rounds[0])
        self.path = out_dir / "baselines_compare.csv"
        self.results = {}
        self.jobs_results = {}
        self.pool = None
        self.coverage_share = 0.0

    def serial_round(self, k: int) -> None:
        self.results[k] = [baseline_op(case, self.path) for case in self.rounds[k]]

    def rejected(self) -> int:
        return 0

    def start_jobs(self) -> None:
        # Forked, as the program's own pool is: a spawned pool also starts
        # multiprocessing's resource tracker, which only ends after the
        # benchmark has exited.
        # The pool is started and warmed before timing, so ops_per_s_jobs
        # holds no start-up cost.
        self.pool = ProcessPoolExecutor(
            max_workers=NPROC,
            mp_context=get_context("fork"),
            initializer=_init_worker,
            initargs=(self.seed, self.cycle, self.per_scene, str(self.out_dir)),
        )
        self.jobs_round(0)

    def jobs_round(self, k: int) -> None:
        # One case per task: case costs differ widely, so fixed
        # chunks would leave one worker idle for a seed-dependent time.
        tasks = [(k, i) for i in range(self.jobs_ops)]
        self.jobs_results[k] = list(self.pool.map(_worker_op, tasks))

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=True)
            self.pool = None
        for path in self.out_dir.glob("baselines_compare_*.csv"):
            path.unlink()

    def check(self) -> list[str]:
        faults = []
        for k, results in self.results.items():
            for i, (case, (problem, outcomes, r, c)) in enumerate(zip(self.rounds[k], results)):
                what = f"round {k} case {i} ({case.scene_name})"
                faults += checker.check_outcomes(problem, case.v, outcomes, what)
                faults += [f"{what}: {f}" for f in checker.check_certificate(problem, r)]
                if not (isinstance(c, int) and c > 0):
                    faults.append(f"{what}: termination constant {c!r} is not a positive integer")
                if k in self.jobs_results:
                    o_j, r_j, c_j = self.jobs_results[k][i]
                    if not (np.array_equal(o_j, outcomes) and np.array_equal(r_j, r) and c_j == c):
                        faults.append(f"{what}: worker result differs from the serial one")
        return faults
