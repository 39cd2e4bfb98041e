"""Command-line frontend for the impact-resolution toolkit.

Subcommands
-----------
simulate     run one stochastic resolution trajectory and export it
approximate  sample the post-impact velocity set and export the samples
compare      tabulate deterministic baselines next to sampled outcomes
oracle       sample the exact single-contact (Routh) reference path
example      print or save a bundled scene description

Scenes are referenced by bundled name (``phone``, ``compass``,
``box_wall``, ``disk_stack``, ``ball``) or by a JSON file path.  Exit
codes: 1 for configuration errors, 2 for solver failures, 3 for I/O
failures.  Outputs contain no timestamps: the same invocation always
produces byte-identical files.  Each flag is declared once, with its
default, choices and check, and the parsed namespace goes to the subcommand.
Values that are only wrong together, or wrong for the scene, are left to
the library, and a ``ValueError`` it raises is a configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import io as mio
from .contact import ImpactProblem
from .errors import MultimpactError, SceneFormatError
from .oracles import routh_dense_reference
from .resolution import baselines, restrict_contacts, sim
from .scenes import MAX_MAGNITUDE, _bundled_text, build_example
from .setapprox import PostImpactSet, SobolSampler, UniformSampler, approximate, classify_outcomes

__all__ = ["main"]

DESK_SCALE_TRAJECTORIES = 4096  # default sample count without --paper-scale


def _make_sampler(args: argparse.Namespace):
    return (UniformSampler if args.sampler == "uniform" else SobolSampler)(args.seed)


def _sampling_scene(args: argparse.Namespace) -> tuple:
    """The scene's problem, start velocity and meta, with the flags left
    unset taken from it (:func:`_fill_defaults`).  A CSV output names
    every contact label, so one that the output's encoding cannot write
    raises ``UnicodeEncodeError`` here, before any work, as the export
    would after it.  (JSON escapes every label.)"""
    problem, v0, meta = build_example(args.scene)
    _fill_defaults(args, meta)
    if args.fmt == "csv":
        ",".join(problem.labels).encode(mio._encoding())
    return problem, v0, meta


def _fill_defaults(args: argparse.Namespace, meta: dict) -> None:
    """Take the flags left unset from the scene.  Each flag alone was
    checked when it was parsed, and the scene's defaults when the scene
    was read; the library checks the values that are only wrong together."""
    # The Sobol sequence has no seed: a seed it ignored would look like a
    # second, independent run with byte-identical output.
    if args.sampler == "sobol" and args.seed:
        raise ValueError("--seed has no effect on the Sobol sampler; use --sampler uniform")
    if args.h is None:
        args.h = meta["h"]
    if args.n is None:
        args.n = meta["n_steps"]
    if args.command != "simulate":
        if args.m is None:
            args.m = DESK_SCALE_TRAJECTORIES
            if args.paper_scale:
                args.m = meta["m_trajectories"]
        if args.epsilon is None:
            args.epsilon = args.h / 10.0


def _export(args: argparse.Namespace, meta: dict, kind: str, record, problem) -> Path:
    """Write ``record`` with the ``io`` writer named ``<kind>_to_<format>``."""
    if args.output is not None:
        path = Path(args.output)
    else:
        path = Path(f"{meta['name']}_{args.command}.{args.fmt}")
    getattr(mio, f"{kind}_to_{args.fmt}")(record, problem, path)
    return path


def _summary(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Subcommand implementations


def _cmd_simulate(args: argparse.Namespace) -> None:
    problem, v0, meta = _sampling_scene(args)
    traj = sim(
        problem, v0, args.h, args.n, _make_sampler(args), traj_index=args.traj_index
    )
    path = _export(args, meta, "trajectory", traj, problem)
    _summary(
        {
            "scene": meta["name"],
            "h": args.h,
            "steps": traj.n_steps,
            "terminated": traj.terminated,
            "energy_initial": traj.steps[0].energy_before if traj.steps else None,
            "energy_final": traj.steps[-1].energy_after if traj.steps else None,
            "output": str(path),
        }
    )


def _approximate_set(
    args: argparse.Namespace, problem: ImpactProblem, v0: np.ndarray
) -> PostImpactSet:
    return approximate(
        problem, v0, h=args.h, epsilon=args.epsilon, n_max=args.n,
        m_trajectories=args.m, sampler=_make_sampler(args), jobs=args.jobs,
    )


def _cmd_approximate(args: argparse.Namespace) -> None:
    problem, v0, meta = _sampling_scene(args)
    post_set = _approximate_set(args, problem, v0)
    path = _export(args, meta, "set", post_set, problem)
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


def _cmd_compare(args: argparse.Namespace) -> None:
    problem, v0, meta = _sampling_scene(args)
    # Sampling first: an argument it rejects fails before the baselines run.
    post_set = _approximate_set(args, problem, v0)
    rows = baselines(problem, v0)
    for idx, v in zip(post_set.traj_indices, post_set.samples):
        rows.append(("sampled", str(int(idx)), v))
    path = _export(args, meta, "compare", rows, problem)
    _summary(
        {
            "scene": meta["name"],
            "baselines": 1 + problem.n_contacts,
            "sampled": int(post_set.samples.shape[0]),
            "rejected_count": post_set.rejected_count,
            "output": str(path),
        }
    )


def _cmd_oracle(args: argparse.Namespace) -> None:
    problem, v0, meta = build_example(args.scene)
    if args.contact is not None:
        problem = restrict_contacts(problem, [args.contact])
    if problem.n_contacts != 1:
        raise ValueError(
            "the dense reference needs a single contact; pick one with --contact"
        )
    dense = routh_dense_reference(problem, v0, args.ds)
    path = _export(args, meta, "dense", dense, problem)
    _summary(
        {
            "scene": meta["name"],
            "contact": problem.labels[0],
            "ds": args.ds,
            "grid_points": int(len(dense.s_grid)),
            "total_impulse": float(dense.s_grid[-1]),
            "v_final": [float(x) for x in dense.v_final],
            "modes": sorted(set(dense.modes)),
            "output": str(path),
        }
    )


def _cmd_example(args: argparse.Namespace) -> None:
    text = _bundled_text(args.scene) + "\n"
    if args.output is not None:
        mio._write(args.output, text)
        _summary({"scene": args.scene, "output": args.output})
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Argument parsing and entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise ValueError(message)


def _positive_float(text: str) -> float:
    """``type=`` for a number above 0 and at most ``MAX_MAGNITUDE``, the
    bound on scene numbers."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value <= MAX_MAGNITUDE:
        raise argparse.ArgumentTypeError(
            f"expected a number above 0 and at most {MAX_MAGNITUDE:g}, got {text!r}"
        )
    return value


def _int_at_least(low: int):
    """``type=`` for an integer of at least ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer of at least {low}, got {text!r}"
            )
        return value

    return parse


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _build_parser() -> _Parser:
    parser = _Parser(prog="multimpact", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help: str, export: bool = True) -> _Parser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--scene", required=True, help="bundled scene name or JSON path")
        if export:
            p.add_argument("--output", help="output file (default: <scene>_<command>.<ext>)")
            p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        return p

    def sampling(p: _Parser) -> None:
        p.add_argument("--h", type=_positive_float, help="per-step impulse budget")
        p.add_argument("--n", type=_int_at_least(1), help="step cap per trajectory")
        p.add_argument("--seed", type=_int_at_least(0), default=0)
        p.add_argument("--sampler", choices=("sobol", "uniform"), default="sobol")

    p = command("simulate", _cmd_simulate, "run one stochastic resolution trajectory")
    sampling(p)
    p.add_argument("--traj-index", type=_int_at_least(0), default=0, dest="traj_index")

    for name, run, help in (
        ("approximate", _cmd_approximate, "sample the post-impact set"),
        ("compare", _cmd_compare, "baselines vs sampled outcomes"),
    ):
        p = command(name, run, help)
        sampling(p)
        p.add_argument(
            "--epsilon", type=_positive_float, help="coverage radius (default h/10)"
        )
        p.add_argument(
            "--m", type=_int_at_least(1),
            help=f"trajectory count (default {DESK_SCALE_TRAJECTORIES})",
        )
        p.add_argument(
            "--jobs", type=_int_at_least(1), default=_usable_cpus(),
            help="threads that sample on the compiled kernel, this one included; "
            "one without it (default: the CPUs this process may run on)",
        )
        p.add_argument(
            "--paper-scale", action="store_true", dest="paper_scale",
            help="use the scene's full-scale trajectory count",
        )

    p = command("oracle", _cmd_oracle, "dense single-contact reference path")
    p.add_argument("--contact", help="contact label to isolate")
    p.add_argument("--ds", type=_positive_float, default=1e-5, help="impulse increment")

    p = command("example", _cmd_example, "print a bundled scene description", export=False)
    p.add_argument("--output", help="file to write (default: standard output)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one ``multimpact`` invocation; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        args.run(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except MultimpactError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, SceneFormatError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    # After the I/O clause: a scene file's format errors are ValueErrors too.
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
