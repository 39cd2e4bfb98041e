"""Command-line frontend for the impact-resolution toolkit.

Subcommands
-----------
simulate     run one stochastic resolution trajectory and export it
approximate  sample the post-impact velocity set and export the samples
compare      tabulate deterministic baselines next to sampled outcomes
oracle       integrate the dense single-contact reference path
example      print or save a bundled scene description

Scenes are referenced by bundled name (``phone``, ``compass``,
``box_wall``, ``disk_stack``, ``ball``) or by a JSON file path.  Exit
codes: 1 for configuration errors, 2 for solver failures, 3 for I/O
failures.  Outputs contain no timestamps: the same invocation always
produces byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io as mio
from .contact import ImpactProblem
from .errors import MultimpactError, SceneFormatError
from .oracles import routh_dense_reference
from .resolution import baselines, restrict_contacts, sim
from .scenes import EXAMPLE_NAMES, build_example, build_problem, load_scene
from .setapprox import (
    MAXBIT,
    PostImpactSet,
    SobolSampler,
    UniformSampler,
    approximate,
    classify_outcomes,
)

__all__ = ["main", "run", "RunConfig", "ConfigError"]

DESK_SCALE_TRAJECTORIES = 4096  # default sample count without --paper-scale


class ConfigError(Exception):
    """Invalid command-line configuration."""


@dataclass
class RunConfig:
    """Validated parameters for one CLI invocation."""

    command: str
    scene: str
    h: float | None = None
    epsilon: float | None = None
    n: int | None = None
    m: int | None = None
    seed: int = 0
    sampler: str = "sobol"
    jobs: int = 1
    paper_scale: bool = False
    output: str | None = None
    fmt: str = "csv"
    traj_index: int = 0
    contact: str | None = None
    ds: float = 1e-5

    def validate(self) -> None:
        if self.command not in ("simulate", "approximate", "compare", "oracle", "example"):
            raise ConfigError(f"unknown command {self.command!r}")
        if self.h is not None and self.h <= 0:
            raise ConfigError("h must be positive")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        if self.h is not None and self.epsilon is not None and self.epsilon >= self.h:
            raise ConfigError("epsilon must be smaller than h")
        if self.n is not None and self.n < 1:
            raise ConfigError("n must be at least 1")
        if self.m is not None and self.m < 1:
            raise ConfigError("m must be at least 1")
        if self.sampler not in ("sobol", "uniform"):
            raise ConfigError(f"unknown sampler {self.sampler!r}")
        if self.jobs < 1:
            raise ConfigError("jobs must be at least 1")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"unknown format {self.fmt!r}")
        if self.ds <= 0:
            raise ConfigError("ds must be positive")
        if self.traj_index < 0:
            raise ConfigError("traj-index must be nonnegative")


def _load(config: RunConfig) -> tuple[ImpactProblem, np.ndarray, dict]:
    name = config.scene
    if name in EXAMPLE_NAMES or name == "ball":
        return build_example(name)
    path = Path(name)
    if not path.exists():
        if "/" in name or name.endswith(".json"):
            raise FileNotFoundError(f"scene file not found: {name}")
        raise ConfigError(
            f"unknown scene {name!r}; bundled scenes: {', '.join(EXAMPLE_NAMES)}, ball"
        )
    return build_problem(load_scene(path))


def _make_sampler(config: RunConfig):
    if config.sampler == "uniform":
        return UniformSampler(config.seed)
    return SobolSampler(config.seed)


def _fill_defaults(config: RunConfig, meta: dict) -> None:
    if config.h is None:
        config.h = float(meta.get("h", 1.0))
    if config.n is None:
        config.n = int(meta.get("n_steps", 10))
    if config.m is None:
        if config.paper_scale:
            config.m = int(meta.get("m_trajectories", DESK_SCALE_TRAJECTORIES))
        else:
            config.m = DESK_SCALE_TRAJECTORIES
    if config.epsilon is None:
        config.epsilon = config.h / 10.0
    if config.epsilon >= config.h:
        raise ConfigError("epsilon must be smaller than h")
    if config.sampler == "sobol":
        # Trajectory i draws Sobol indices [1 + i*n, 1 + (i+1)*n).
        count = config.traj_index + 1 if config.command == "simulate" else config.m
        if 1 + count * config.n >= 1 << MAXBIT:
            raise ConfigError(
                f"Sobol draws would reach index {count * config.n}, beyond "
                f"the {MAXBIT}-bit sequence; lower --n, --m or --traj-index"
            )


def _output_path(config: RunConfig, meta: dict) -> Path:
    if config.output is not None:
        return Path(config.output)
    return Path(f"{meta['name']}_{config.command}.{config.fmt}")


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _summary(payload: dict) -> None:
    _emit(json.dumps(payload, indent=2))


# ---------------------------------------------------------------------------
# Subcommand implementations


def _cmd_simulate(config: RunConfig) -> int:
    problem, v0, meta = _load(config)
    _fill_defaults(config, meta)
    traj = sim(
        problem, v0, config.h, config.n, _make_sampler(config),
        traj_index=config.traj_index,
    )
    path = _output_path(config, meta)
    if config.fmt == "csv":
        mio.trajectory_to_csv(traj, problem, path)
    else:
        mio.trajectory_to_json(traj, problem, path)
    _summary(
        {
            "scene": meta["name"],
            "h": config.h,
            "steps": traj.n_steps,
            "terminated": traj.terminated,
            "energy_initial": traj.steps[0].energy_before if traj.steps else None,
            "energy_final": traj.steps[-1].energy_after if traj.steps else None,
            "output": str(path),
        }
    )
    return 0


def _approximate_set(
    config: RunConfig, problem: ImpactProblem, v0: np.ndarray
) -> PostImpactSet:
    return approximate(
        problem,
        v0,
        h=config.h,
        epsilon=config.epsilon,
        n_max=config.n,
        m_trajectories=config.m,
        sampler=_make_sampler(config),
        jobs=config.jobs,
    )


def _cmd_approximate(config: RunConfig) -> int:
    problem, v0, meta = _load(config)
    _fill_defaults(config, meta)
    post_set = _approximate_set(config, problem, v0)
    path = _output_path(config, meta)
    if config.fmt == "csv":
        mio.set_to_csv(post_set, problem, path)
    else:
        mio.set_to_json(post_set, problem, path)
    _summary(
        {
            "scene": meta["name"],
            "params": post_set.params,
            "kept": int(post_set.samples.shape[0]),
            "rejected_count": post_set.rejected_count,
            "outcome_classes": classify_outcomes(post_set, problem)
            if post_set.samples.size
            else {},
            "output": str(path),
        }
    )
    return 0


def _cmd_compare(config: RunConfig) -> int:
    problem, v0, meta = _load(config)
    _fill_defaults(config, meta)
    rows = baselines(problem, v0)
    post_set = _approximate_set(config, problem, v0)
    for idx, v in zip(post_set.traj_indices, post_set.samples):
        rows.append(("sampled", str(int(idx)), v))
    path = _output_path(config, meta)
    if config.fmt == "csv":
        mio.compare_to_csv(rows, problem, path)
    else:
        mio.compare_to_json(rows, problem, path)
    _summary(
        {
            "scene": meta["name"],
            "baselines": 1 + problem.n_contacts,
            "sampled": int(post_set.samples.shape[0]),
            "rejected_count": post_set.rejected_count,
            "output": str(path),
        }
    )
    return 0


def _cmd_oracle(config: RunConfig) -> int:
    problem, v0, meta = _load(config)
    if config.contact is not None:
        if config.contact not in problem.labels:
            raise ConfigError(
                f"scene has no contact labeled {config.contact!r}; "
                f"labels: {', '.join(problem.labels)}"
            )
        problem = restrict_contacts(problem, [problem.labels.index(config.contact)])
    if problem.n_contacts != 1:
        raise ConfigError(
            "the dense reference needs a single contact; pick one with --contact"
        )
    dense = routh_dense_reference(problem, v0, config.ds)
    path = _output_path(config, meta)
    if config.fmt == "csv":
        mio.dense_to_csv(dense, problem, path)
    else:
        mio.dense_to_json(dense, problem, path)
    _summary(
        {
            "scene": meta["name"],
            "contact": problem.labels[0],
            "ds": config.ds,
            "grid_points": int(len(dense.s_grid)),
            "total_impulse": float(dense.s_grid[-1]),
            "v_final": [float(x) for x in dense.v_final],
            "modes": sorted(set(dense.modes)),
            "output": str(path),
        }
    )
    return 0


def _cmd_example(config: RunConfig) -> int:
    name = config.scene
    if name not in EXAMPLE_NAMES:
        raise ConfigError(
            f"unknown bundled scene {name!r}; available: {', '.join(EXAMPLE_NAMES)}"
        )
    from .scenes import scene_to_dict

    text = json.dumps(scene_to_dict(load_scene(name)), indent=2) + "\n"
    if config.output is not None:
        Path(config.output).write_text(text)
        _summary({"scene": name, "output": config.output})
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="multimpact", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser, sampling: bool) -> None:
        p.add_argument("--scene", required=True, help="bundled scene name or JSON path")
        p.add_argument("--output", help="output file (default: <scene>_<command>.<ext>)")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        if sampling:
            p.add_argument("--h", type=float, help="per-step impulse budget")
            p.add_argument("--n", type=int, help="step cap per trajectory")
            p.add_argument("--seed", type=int, default=0)
            p.add_argument(
                "--sampler", choices=("sobol", "uniform"), default="sobol"
            )

    p = sub.add_parser("simulate", help="run one stochastic resolution trajectory")
    common(p, sampling=True)
    p.add_argument("--traj-index", type=int, default=0, dest="traj_index")

    for name in ("approximate", "compare"):
        p = sub.add_parser(
            name,
            help="sample the post-impact set"
            if name == "approximate"
            else "baselines vs sampled outcomes",
        )
        common(p, sampling=True)
        p.add_argument("--epsilon", type=float, help="coverage radius (default h/10)")
        p.add_argument("--m", type=int, help="trajectory count (default 4096)")
        p.add_argument(
            "--jobs", type=int, default=os.cpu_count() or 1,
            help="processes that sample, this one included (default: all cores)",
        )
        p.add_argument(
            "--paper-scale", action="store_true", dest="paper_scale",
            help="use the scene's full-scale trajectory count",
        )

    p = sub.add_parser("oracle", help="dense single-contact reference path")
    common(p, sampling=False)
    p.add_argument("--contact", help="contact label to isolate")
    p.add_argument("--ds", type=float, default=1e-5, help="impulse increment")

    p = sub.add_parser("example", help="print a bundled scene description")
    p.add_argument("--scene", required=True)
    p.add_argument("--output")
    return parser


_COMMANDS = {
    "simulate": _cmd_simulate,
    "approximate": _cmd_approximate,
    "compare": _cmd_compare,
    "oracle": _cmd_oracle,
    "example": _cmd_example,
}


def run(config: RunConfig) -> int:
    """Execute a validated configuration; returns the process exit code."""
    config.validate()
    return _COMMANDS[config.command](config)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        namespace = parser.parse_args(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)

    fields = {
        key: value
        for key, value in vars(namespace).items()
        if key != "command" and value is not None
    }
    config = RunConfig(command=namespace.command, **fields)
    try:
        return run(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MultimpactError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, SceneFormatError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
