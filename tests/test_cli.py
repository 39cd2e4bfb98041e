"""End-to-end tests for the command-line frontend."""

from __future__ import annotations

import copy
import csv
import io as stdio
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multimpact import (
    MultimpactError,
    UniformSampler,
    approximate,
    build_ball,
    classify_outcomes,
)
from multimpact import cli
from multimpact.scenes import EXAMPLE_NAMES, MAX_MAGNITUDE

from conftest import bundled_scene


def _read_csv(path):
    lines = path.read_text().splitlines()
    rows = list(csv.reader(stdio.StringIO("\n".join(lines[1:]))))
    return rows[0], rows[1:]


def test_example_prints_scene_json(capsys, tmp_path):
    for name in EXAMPLE_NAMES:
        assert cli.main(["example", "--scene", name]) == 0
        printed = capsys.readouterr().out
        bundled = (resources.files("multimpact") / "data" / f"{name}.json").read_bytes()
        assert printed.encode() == bundled + b"\n"
        path = tmp_path / f"{name}.json"
        assert cli.main(["example", "--scene", name, "--output", str(path)]) == 0
        assert path.read_bytes() == printed.encode()
        assert json.loads(capsys.readouterr().out) == {"scene": name, "output": str(path)}


def test_example_rejects_unknown_scene(capsys):
    assert cli.main(["example", "--scene", "mystery"]) == 1
    assert "error:" in capsys.readouterr().err


def test_example_names_an_unknown_scene_as_every_command_does(tmp_path, capsys):
    assert cli.main(["example", "--scene", "nosuch"]) == 1
    example = capsys.readouterr().err
    out = tmp_path / "x.csv"
    assert cli.main(["approximate", "--scene", "nosuch", "--m", "8", "--output", str(out)]) == 1
    assert capsys.readouterr().err == example == (
        "error: unknown scene 'nosuch'; bundled scenes: "
        "phone, compass, box_wall, disk_stack, ball\n"
    )
    # ``ball`` is built in code: there is no bundled file to print.
    assert cli.main(["example", "--scene", "ball"]) == 1


def test_simulate_is_bytewise_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--scene", "disk_stack", "--sampler", "uniform", "--seed", "7"]
    assert cli.main(args + ["--output", str(out1)]) == 0
    assert cli.main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_approximate_rejects_epsilon_at_or_above_h(tmp_path, capsys):
    code = cli.main([
        "approximate", "--scene", "phone", "--epsilon", "0.5", "--h", "0.3",
        "--output", str(tmp_path / "x.csv"), "--m", "4", "--jobs", "1",
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_scene_name_is_a_config_error(tmp_path, capsys):
    assert cli.main(["simulate", "--scene", "nope",
                     "--output", str(tmp_path / "x.csv")]) == 1


def test_missing_scene_file_is_an_io_error(tmp_path, capsys):
    assert cli.main(["simulate", "--scene", str(tmp_path / "missing.json"),
                     "--output", str(tmp_path / "x.csv")]) == 3
    assert "i/o error:" in capsys.readouterr().err


def test_a_count_flag_that_is_not_a_number_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert cli.main(["approximate", "--scene", "phone", "--n", "abc", "--output", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: argument --n: expected an integer of at least 1, got 'abc'\n"
    )
    assert not out.exists()


def test_the_default_output_is_named_after_scene_and_command(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["simulate", "--scene", "phone"]) == 0
    assert json.loads(capsys.readouterr().out)["output"] == "phone_simulate.csv"
    assert cli.main(["oracle", "--scene", "ball", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["output"] == "ball_oracle.json"
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "ball_oracle.json", "phone_simulate.csv"
    ]


def test_a_scene_name_cannot_place_the_default_output(tmp_path, monkeypatch, capsys):
    # The default output is ``<name>_<command>.<ext>``: a name with a path
    # in it would write outside the working directory.
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    data = bundled_scene("phone")
    data["name"] = "../escaped"
    (work / "f.json").write_text(json.dumps(data))
    assert cli.main(["approximate", "--scene", "f.json", "--m", "8"]) == 3
    assert capsys.readouterr().err.startswith("i/o error:")
    assert sorted(path.name for path in tmp_path.rglob("*")) == ["f.json", "work"]


def test_a_set_that_keeps_no_sample_reports_no_outcome_classes(tmp_path, capsys):
    # A budget of 1e-6 cannot stop the phone in one step and one finishing
    # step, so every trajectory is rejected.
    out = tmp_path / "x.json"
    assert cli.main(["approximate", "--scene", "phone", "--h", "1e-6", "--n", "1", "--m", "4",
                     "--jobs", "1", "--format", "json", "--output", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["kept"] == 0 and summary["rejected_count"] == 4
    assert summary["outcome_classes"] == {}
    assert out.exists()


def _set(path, value):
    """An edit of a scene dict that sets the entry at ``path`` to ``value``."""
    def edit(data):
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return edit


def _drop(path):
    """An edit of a scene dict that deletes the entry at ``path``."""
    def edit(data):
        target = data
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
    return edit


@pytest.mark.parametrize(
    "scene, edit, message",
    [
        (None, None, "Expecting"),
        ("phone", _set(("contacts", 0, "vertex"), 4), "vertex index 4 out of range"),
        ("phone", _set(("contacts", 1, "body"), 1), "body index 1 out of range"),
        ("disk_stack", _set(("contacts", 0, "against"), 3), "body index 3 out of range"),
        ("phone", _set(("contacts", 0, "kind"), "edge-plane"), "unknown contact kind"),
        ("phone", _set(("bodies", 0, "mass"), 0.0), "mass and inertia must be positive"),
        ("phone", _set(("contacts", 0, "mu"), 0.0), "mu must be positive"),
        ("disk_stack", _set(("bodies", 1, "pose"), [-1.0, 1.0, 0.0]),
         "disk centres of contact 'E' coincide"),
        ("phone", _set(("environment", 0, "normal"), [0.0, 0.0]), "nonzero 2-D normal"),
        ("compass", _set(("pose",), [0.0, 0.2, 1.4]), "expected (4,)"),
        ("phone", _set(("contacts", 0, "kind"), "disk-plane"),
         "contact 'A': body 0 is not a disk"),
        ("disk_stack", _set(("contacts", 2, "kind"), "vertex-plane"),
         "contact 'C': body 0 has no vertices"),
        ("phone", _drop(("contacts", 0, "mu")), "missing field 'mu'"),
        ("phone", _set(("contacts", 1, "label"), "A"), "labels must be distinct"),
        ("phone", _set(("v0", 1), math.nan), "v0 must be finite"),
        ("phone", _set(("v0", 1), -math.inf), "v0 must be finite"),
        ("phone", _set(("bodies", 0, "pose", 0), math.nan), "body 0 pose must be finite"),
        ("phone", _set(("bodies", 0, "shape", "vertices", 2), [0.0]),
         "body 0 vertex 2 has shape (1,), expected (2,)"),
        ("phone", _set(("environment", 0, "point", 1), math.nan), "point must be finite"),
        ("phone", _set(("environment", 0, "point"), [0.0]), "has shape (1,), expected (2,)"),
        ("compass", _set(("pose", 3), math.inf), "pose must be finite"),
        ("compass", _set(("linkage", "mass_offset"), 1.0), "smaller than leg_length"),
        ("phone", _set(("contacts",), []), "at least one contact"),
        ("phone", _set(("defaults", "h"), "x"), "default h must be a finite number"),
        ("phone", _set(("defaults", "h"), -1), "default h must be a finite number"),
        ("phone", _set(("defaults", "n_steps"), 0), "default n_steps must be an integer"),
        ("phone", _set(("defaults", "n_steps"), 2.5), "default n_steps must be an integer"),
        ("phone", _set(("bodies", 0, "shape", "vertices", 0, 1), 1e300),
         "body 0 vertex 0 must not exceed 1e+08 in magnitude"),
        ("phone", _set(("contacts", 0, "mu"), 1e300), "contact 'A': mu must not exceed"),
        ("phone", _set(("v0", 0), -1e300), "v0 must not exceed 1e+08 in magnitude"),
        ("phone", _set(("bodies", 0, "mass"), 1e300), "body 0 mass and inertia must not exceed"),
        ("disk_stack", _set(("bodies", 2, "shape", "radius"), 1e300),
         "body 2 radius must not exceed"),
        ("compass", _set(("linkage", "leg_length"), 1e300), "leg_length must not exceed"),
        ("phone", _set(("defaults", "h"), 1e300), "default h must not exceed"),
        ("phone", _set(("defaults", "h"), True), "default h must be a finite number"),
        ("phone", _set(("defaults", "n_steps"), True), "default n_steps must be an integer"),
        ("phone", _set(("defaults", "m_trajectories"), True),
         "default m_trajectories must be an integer"),
        ("phone", _set(("contacts", 1, "body"), 0.7),
         "contact 'B': body index must be an integer"),
        ("compass", _set(("contacts", 0, "leg"), 0.9),
         "contact 'trailing': leg must be an integer"),
        ("phone", _set(("contacts", 0, "vertex"), True), "vertex index must be an integer"),
        ("disk_stack", _set(("contacts", 0, "body"), True), "body index must be an integer"),
        ("disk_stack", _set(("contacts", 0, "against"), True), "body index must be an integer"),
        ("phone", _set(("contacts", 0, "mu"), True), "contact 'A': mu must be a finite number"),
        ("phone", _set(("bodies", 0, "mass"), True), "mass and inertia must be a finite number"),
        ("phone", _set(("bodies", 0, "inertia"), True),
         "mass and inertia must be a finite number"),
        ("phone", _set(("bodies", 0, "pose", 2), True), "body 0 pose must be a finite number"),
        ("phone", _set(("v0", 0), True), "v0 must be a finite number"),
        ("disk_stack", _set(("bodies", 2, "shape", "radius"), True),
         "body 2 radius must be a finite number above 0"),
        ("phone", _set(("name",), None), "name must be a nonempty string"),
        ("phone", _set(("name",), ""), "name must be a nonempty string"),
        ("phone", _set(("name",), ["a"]), "name must be a nonempty string"),
        ("phone", _set(("name",), 7), "name must be a nonempty string"),
        ("phone", _set(("name",), "../escaped"), "must be a nonempty string and file-name stem"),
        ("phone", _set(("name",), "a\\b"), "must be a nonempty string and file-name stem"),
        ("phone", _set(("name",), "a\0b"), "must be a nonempty string and file-name stem"),
        ("phone", _set(("name",), "."), "must be a nonempty string and file-name stem"),
        ("phone", _set(("name",), ".."), "must be a nonempty string and file-name stem"),
        ("box_wall", _set(("environment", 1, "name"), "floor"), "plane 'floor' is named twice"),
        ("phone", _set(("format",), "multimpact-scene v2"),
         "scene format must be 'multimpact-scene v1', got 'multimpact-scene v2'"),
        ("phone", _set(("format",), 1), "scene format must be 'multimpact-scene v1', got 1"),
        ("phone", _set(("bodies", 0, "shape", "type"), "ellipse"),
         "body 0 shape type must be 'disk' or 'polygon', got 'ellipse'"),
    ],
    ids=["not-json", "vertex-index", "body-index", "against-index", "contact-kind",
         "body-mass", "mu", "coincident-centres", "zero-normal", "linkage-pose",
         "disk-kind-on-polygon", "vertex-kind-on-disk", "missing-field", "duplicate-label",
         "v0-nan", "v0-inf", "body-pose-nan", "short-vertex", "plane-point-nan",
         "short-plane-point", "linkage-pose-inf", "linkage-mass-at-hip", "no-contacts",
         "default-h-text", "default-h-negative", "default-n-steps-zero",
         "default-n-steps-fraction", "vertex-huge", "mu-huge", "v0-huge", "mass-huge",
         "radius-huge", "leg-length-huge", "default-h-huge", "default-h-bool",
         "default-n-steps-bool", "default-m-trajectories-bool", "body-fraction",
         "leg-fraction", "vertex-bool", "body-bool", "against-bool", "mu-bool", "mass-bool",
         "inertia-bool", "pose-bool", "v0-bool", "radius-bool", "name-null", "name-empty",
         "name-list", "name-number", "name-parent-path", "name-backslash", "name-nul",
         "name-dot", "name-dot-dot", "plane-name-twice", "format-other", "format-number",
         "shape-type"],
)
def test_corrupt_scene_file_is_an_io_error(tmp_path, capsys, scene, edit, message):
    bad = tmp_path / "bad.json"
    if scene is None:
        bad.write_text("{ not json")
    else:
        assert cli.main(["example", "--scene", scene, "--output", str(bad)]) == 0
        data = json.loads(bad.read_text())
        edit(data)
        bad.write_text(json.dumps(data))
    capsys.readouterr()
    assert cli.main(["simulate", "--scene", str(bad),
                     "--output", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and err.count("\n") == 1
    assert message in err


def test_scene_numbers_at_the_magnitude_bound_are_read(tmp_path, capsys):
    scene = tmp_path / "phone.json"
    data = bundled_scene("phone")
    data["bodies"][0]["mass"] = MAX_MAGNITUDE
    data["environment"][0]["point"][1] = -MAX_MAGNITUDE
    scene.write_text(json.dumps(data))
    assert cli.main(["simulate", "--scene", str(scene),
                     "--output", str(tmp_path / "x.csv")]) == 0
    # A plane normal gives only a direction: any finite nonzero size is read.
    for normal, name in (([0.0, 1e300], "huge"), ([0.0, 1.0], "unit")):
        data = bundled_scene("phone")
        data["environment"][0]["normal"] = normal
        scene.write_text(json.dumps(data))
        assert cli.main(["simulate", "--scene", str(scene),
                         "--output", str(tmp_path / f"{name}.csv")]) == 0
    assert (tmp_path / "huge.csv").read_bytes() == (tmp_path / "unit.csv").read_bytes()
    assert capsys.readouterr().err == ""


def test_short_v0_in_a_scene_file_is_an_io_error(tmp_path, capsys):
    scene = tmp_path / "phone.json"
    assert cli.main(["example", "--scene", "phone", "--output", str(scene)]) == 0
    data = json.loads(scene.read_text())
    data["v0"] = data["v0"][:2]
    scene.write_text(json.dumps(data))
    capsys.readouterr()
    assert cli.main(["simulate", "--scene", str(scene),
                     "--output", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and "v0" in err
    assert "Traceback" not in err


def test_sobol_index_beyond_the_sequence_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert cli.main(["simulate", "--scene", "phone", "--n", "10",
                     "--traj-index", str(10**15), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    # 1 + m*n must stay below 2**52; m = 2**49, n = 8 gives exactly 2**52 + 1.
    assert cli.main(["approximate", "--scene", "phone", "--n", "8",
                     "--m", str(2**49), "--jobs", "1", "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


def test_solver_failures_map_to_exit_code_two(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise MultimpactError("boom")

    monkeypatch.setattr(cli, "sim", fail)
    assert cli.main(["simulate", "--scene", "phone",
                     "--output", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("solver error:") and err.count("\n") == 1


def test_help_exits_cleanly(capsys):
    assert cli.main(["--help"]) == 0
    assert "simulate" in capsys.readouterr().out


def test_missing_subcommand_is_a_config_error(capsys):
    assert cli.main([]) == 1


def test_compare_tabulates_baselines_and_samples(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    code = cli.main([
        "compare", "--scene", "phone", "--m", "64", "--jobs", "1",
        "--sampler", "uniform", "--output", str(out),
    ])
    assert code == 0
    header, rows = _read_csv(out)
    methods = [row[0] for row in rows]
    assert methods[0] == "anitescu"
    assert methods[1:3] == ["sequential", "sequential"]
    assert methods.count("sampled") == 64
    v_cols = [header.index(f"v_{i}") for i in range(3)]
    rate_cols = [header.index("jn_v_A"), header.index("jn_v_B")]
    # The simultaneous baseline pins the phone: velocity is numerically zero.
    assert all(abs(float(rows[0][c])) <= 1e-8 for c in v_cols)
    # Each sequential order launches exactly one corner.
    for row in rows[1:3]:
        positive = [c for c in rate_cols if float(row[c]) > 1e-6]
        assert len(positive) == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["sampled"] == 64


def test_oracle_runs_on_single_contact_scenes(tmp_path, capsys):
    out = tmp_path / "dense.csv"
    assert cli.main(["oracle", "--scene", "ball", "--output", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header[0] == "impulse"
    assert len(rows) > 10
    summary = json.loads(capsys.readouterr().out)
    assert summary["v_final"] == [0.0]


def test_oracle_needs_an_isolated_contact(tmp_path, capsys):
    assert cli.main(["oracle", "--scene", "phone",
                     "--output", str(tmp_path / "x.csv")]) == 1
    assert cli.main(["oracle", "--scene", "phone", "--contact", "Z",
                     "--output", str(tmp_path / "x.csv")]) == 1
    assert cli.main(["oracle", "--scene", "phone", "--contact", "A",
                     "--output", str(tmp_path / "ok.csv")]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--h", "-1"],
        ["simulate", "--h", "nan"],
        ["simulate", "--h", "x"],
        ["simulate", "--n", "0"],
        ["simulate", "--traj-index", "-1"],
        ["simulate", "--seed", "-1", "--sampler", "uniform"],
        ["simulate", "--seed", "7"],  # the default sampler is Sobol
        ["compare", "--seed", "1", "--sampler", "sobol"],
        ["approximate", "--h", "0.3", "--epsilon", "0.3"],
        ["approximate", "--epsilon", "0.5"],  # at least the scene's h = 0.3
        ["approximate", "--m", "0"],
        ["approximate", "--jobs", "0"],
        ["compare", "--epsilon", "inf"],
        ["oracle", "--ds", "0"],
        ["approximate", "--format", "xml"],
        ["warp"],
        ["oracle", "--contact", "A", "--ds", "1e-300"],
        ["simulate", "--h", "1e300"],
        ["compare", "--epsilon", "1e300"],
        ["oracle", "--contact", "A", "--ds", "1e300"],
    ],
    ids=["h-negative", "h-nan", "h-text", "n-zero", "traj-index-negative",
         "seed-negative", "seed-with-sobol", "seed-with-explicit-sobol",
         "epsilon-at-h", "epsilon-above-scene-h", "m-zero",
         "jobs-zero", "epsilon-inf", "ds-zero", "unknown-format", "unknown-command",
         "ds-too-fine", "h-huge", "epsilon-huge", "ds-huge"],
)
def test_bad_flag_is_a_config_error(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    if argv != ["warp"]:
        argv = argv[:1] + ["--scene", "phone", "--output", str(out)] + argv[1:]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["compare", "--scene", "phone", "--h"],
    ["compare", "--scene", "phone", "--epsilon"],
    ["oracle", "--scene", "ball", "--ds"],
])
def test_positive_flags_share_the_bound_on_scene_numbers(argv):
    parse = cli._build_parser().parse_args
    assert getattr(parse(argv + [repr(MAX_MAGNITUDE)]), argv[-1][2:]) == MAX_MAGNITUDE
    with pytest.raises(ValueError, match=r"at most 1e\+08"):
        parse(argv + [repr(float(np.nextafter(MAX_MAGNITUDE, math.inf)))])


def test_paper_scale_gates_the_full_trajectory_count():
    meta = {"name": "phone", "h": 0.3, "n_steps": 10, "m_trajectories": 16384}
    parse = cli._build_parser().parse_args
    desk = parse(["approximate", "--scene", "phone"])
    cli._fill_defaults(desk, meta)
    assert desk.m == 4096
    paper = parse(["approximate", "--scene", "phone", "--paper-scale"])
    cli._fill_defaults(paper, meta)
    assert paper.m == 16384


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--scene", "phone", "--n", "1099511627776"],
        ["approximate", "--scene", "phone", "--n", "100000", "--sampler", "uniform", "--m", "16"],
        ["simulate", "--scene", "disk_stack", "--n", str(2**25 // 5 + 1)],
        ["approximate", "--scene", "disk_stack", "--m", "3", "--n", str(2**25 // 15 + 1)],
        ["compare", "--scene", "disk_stack", "--m", "16", "--n", str(2**25 // 1280 + 1)],
    ],
    ids=["n-huge", "n-huge-for-a-block", "simulate", "approximate", "compare"],
)
def test_a_large_step_cap_needs_no_memory_per_step(tmp_path, argv):
    # Draws are made step by step for the trajectories still impacting,
    # so a step cap far beyond the steps taken costs nothing.
    assert cli.main(argv + ["--output", str(tmp_path / "x.csv")]) == 0


def test_jobs_default_counts_the_cpus_this_process_may_run_on(monkeypatch):
    def jobs():
        return cli._build_parser().parse_args(["approximate", "--scene", "phone"]).jobs

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert jobs() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 3, 5}, raising=False)
    assert jobs() == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert jobs() == 8


_BUNDLED = {name: bundled_scene(name) for name in EXAMPLE_NAMES}
_BAD_VALUES = [math.nan, math.inf, -math.inf, 0, -1, 0.5, 2**62, 1e300, -1e300,
               MAX_MAGNITUDE, -MAX_MAGNITUDE, "x", None, True, [], {}, [0.0],
               [math.nan, 0.0], [1e300, 0.0], [0.0] * 5]


def _entries(node, path=()):
    """Every path into a scene dict, the root included."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _entries(child, path + (key,))


def _at(data, path):
    """The entry at ``path`` in a scene dict."""
    for key in path:
        data = data[key]
    return data


@st.composite
def _fuzzed_scenes(draw):
    data = json.loads(json.dumps(_BUNDLED[draw(st.sampled_from(EXAMPLE_NAMES))]))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_entries(data))[1:]))
        parent = _at(data, path[:-1])
        key, old = path[-1], parent[path[-1]]
        action = draw(st.sampled_from(["drop", "set", "shorten", "lengthen"]))
        if action == "drop":
            del parent[key]
        elif action == "set" or not (isinstance(old, list) and old):
            # A copy: a later edit inside it must not change ``_BAD_VALUES``.
            parent[key] = copy.deepcopy(draw(st.sampled_from(_BAD_VALUES)))
        else:
            parent[key] = old[:-1] if action == "shorten" else old + old[-1:]
    return data


_LARGE_VALUES = [1e300, -1e300, MAX_MAGNITUDE, -MAX_MAGNITUDE, 2**62]


@st.composite
def _scaled_scenes(draw):
    """A bundled scene with one to three of its real numbers set huge or
    to the magnitude bound, and nothing else changed: most edits that
    ``_fuzzed_scenes`` makes stop the scene from being read before any
    such number is used."""
    data = json.loads(json.dumps(_BUNDLED[draw(st.sampled_from(EXAMPLE_NAMES))]))
    paths = [path for path in _entries(data) if path and isinstance(_at(data, path), float)]
    for path in draw(st.lists(st.sampled_from(paths), min_size=1, max_size=3, unique=True)):
        _at(data, path[:-1])[path[-1]] = draw(st.sampled_from(_LARGE_VALUES))
    return data


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.one_of(_fuzzed_scenes(), _scaled_scenes()))
def test_fuzzed_scene_files_end_in_a_documented_exit_code(capsys, data):
    # Dropped, mistyped, non-finite, huge, emptied and resized fields, and
    # values at the magnitude bound.  pytest turns a RuntimeWarning (an
    # overflow downstream) into an error, so none may be met either.
    with tempfile.TemporaryDirectory() as tmp:
        scene = os.path.join(tmp, "scene.json")
        with open(scene, "w") as handle:
            json.dump(data, handle)
        code = cli.main(["simulate", "--scene", scene,
                         "--output", os.path.join(tmp, "out.csv")])
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert code == 0 or err.count("\n") == 1


def test_classify_outcomes_on_the_ball_is_all_stick():
    ball, v0, _ = build_ball()
    post = approximate(ball, v0, h=1.0, epsilon=0.5, n_max=12, m_trajectories=32,
                       sampler=UniformSampler(seed=0))
    histogram = classify_outcomes(post, ball)
    assert histogram == {"ball": {"lift": 0, "slide": 0, "stick": 32}}
    # A bare sample array is accepted as well.
    histogram = classify_outcomes(np.zeros((4, 1)), ball)
    assert histogram["ball"]["stick"] == 4
    with pytest.raises(ValueError):
        classify_outcomes(np.zeros((0, 1)), ball)


def test_library_rejections_map_to_exit_code_one(tmp_path, monkeypatch, capsys):
    def reject(*args, **kwargs):
        raise ValueError("no good")

    monkeypatch.setattr(cli, "approximate", reject)
    out = tmp_path / "x.csv"
    for command in ("approximate", "compare"):
        assert cli.main([command, "--scene", "phone", "--output", str(out)]) == 1
        assert capsys.readouterr().err == "error: no good\n"
    assert not out.exists()


def test_an_unknown_contact_label_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert cli.main(["oracle", "--scene", "phone", "--contact", "Z", "--output", str(out)]) == 1
    assert capsys.readouterr().err == "error: no contact labeled 'Z'; labels: A, B\n"
    assert not out.exists()


def test_more_contacts_than_sobol_dimensions_is_a_config_error(tmp_path, capsys):
    data = bundled_scene("phone")
    data["contacts"] = [
        {**data["contacts"][i % 2], "label": f"C{i}"} for i in range(33)
    ]
    scene = tmp_path / "many.json"
    scene.write_text(json.dumps(data))
    out = tmp_path / "x.csv"
    for command in ("approximate", "compare"):
        assert cli.main([command, "--scene", str(scene), "--m", "4", "--jobs", "2",
                         "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "at most 32 dimensions, got 33" in err
    assert not out.exists()


def test_an_output_that_cannot_be_encoded_leaves_the_file_as_it_was(tmp_path):
    # Under an ASCII locale without UTF-8 mode the scene reader takes the
    # label "é", but no output can write it.
    data = bundled_scene("phone")
    data["contacts"][0]["label"] = "\u00e9"
    scene = tmp_path / "accented.json"
    scene.write_text(json.dumps(data))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "PYTHONUTF8": "0",
           "LC_ALL": "C"}
    probe = [sys.executable, "-c", "import io; print(io.TextIOWrapper(io.BytesIO()).encoding)"]
    if subprocess.run(probe, env=env, capture_output=True, text=True).stdout.strip() not in (
        "ascii", "ANSI_X3.4-1968"
    ):
        pytest.skip("LC_ALL=C is not an ASCII locale here")
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_bytes(b"earlier output\n")
    for out in (old, new):
        run = subprocess.run(
            [sys.executable, "-m", "multimpact", "compare", "--scene", str(scene), "--m", "8",
             "--jobs", "1", "--output", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert run.returncode == 1
        assert "can't encode character" in run.stderr
    assert old.read_bytes() == b"earlier output\n"
    assert not new.exists()


def test_a_label_that_utf_8_cannot_encode_fails_before_any_work(tmp_path, capsys, monkeypatch):
    # A lone surrogate is valid JSON, but no output could write it: the
    # scene is rejected before sampling, not at export.
    data = bundled_scene("phone")
    data["contacts"][0]["label"] = "\udc80"
    scene = tmp_path / "surrogate.json"
    scene.write_text(json.dumps(data))

    def sampled(*args, **kwargs):
        raise AssertionError("sampling ran")

    monkeypatch.setattr(cli, "approximate", sampled)
    out = tmp_path / "out.csv"
    assert cli.main(["approximate", "--scene", str(scene), "--m", "8", "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and err.count("\n") == 1
    assert "contact label '\\udc80' cannot be written as UTF-8" in err
    assert not out.exists()


def test_dev_null_is_an_output(capsys):
    for fmt in ("csv", "json"):
        assert cli.main(["approximate", "--scene", "phone", "--m", "8", "--jobs", "1",
                         "--format", fmt, "--output", os.devnull]) == 0
        assert json.loads(capsys.readouterr().out)["output"] == os.devnull
    assert cli.main(["example", "--scene", "phone", "--output", os.devnull]) == 0


@pytest.mark.skipif(not os.path.exists("/dev/stdout") or not shutil.which("cat"),
                    reason="needs /dev/stdout and cat")
def test_dev_stdout_piped_into_cat_is_an_output(tmp_path, capsys):
    args = ["approximate", "--scene", "phone", "--m", "8", "--jobs", "1"]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    for fmt in ("csv", "json"):
        out = tmp_path / f"file.{fmt}"
        assert cli.main([*args, "--format", fmt, "--output", str(out)]) == 0
        capsys.readouterr()
        writer = subprocess.Popen(
            [sys.executable, "-m", "multimpact", *args, "--format", fmt, "--output", "/dev/stdout"],
            stdout=subprocess.PIPE, env=env,
        )
        reader = subprocess.run(["cat"], stdin=writer.stdout, stdout=subprocess.PIPE)
        writer.stdout.close()
        assert writer.wait() == 0 and reader.returncode == 0
        text = out.read_bytes()
        assert reader.stdout.startswith(text)
        assert json.loads(reader.stdout[len(text):])["output"] == "/dev/stdout"
