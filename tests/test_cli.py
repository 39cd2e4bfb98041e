"""End-to-end tests for the command-line frontend."""

from __future__ import annotations

import csv
import io as stdio
import json

import numpy as np
import pytest

from multimpact import (
    MultimpactError,
    RunConfig,
    UniformSampler,
    approximate,
    build_ball,
    classify_outcomes,
)
from multimpact import cli


def _read_csv(path):
    lines = path.read_text().splitlines()
    rows = list(csv.reader(stdio.StringIO("\n".join(lines[1:]))))
    return rows[0], rows[1:]


def test_example_prints_scene_json(capsys):
    assert cli.main(["example", "--scene", "phone"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == "phone"
    assert [c["label"] for c in payload["contacts"]] == ["A", "B"]


def test_example_rejects_unknown_scene(capsys):
    assert cli.main(["example", "--scene", "mystery"]) == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_is_bytewise_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--scene", "disk_stack", "--seed", "7"]
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
    ],
    ids=["not-json", "vertex-index", "body-index", "against-index", "contact-kind",
         "body-mass", "mu", "coincident-centres", "zero-normal", "linkage-pose",
         "disk-kind-on-polygon", "vertex-kind-on-disk", "missing-field", "duplicate-label"],
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


def test_solver_failures_map_to_exit_code_two(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run", lambda config: (_ for _ in ()).throw(
        MultimpactError("boom")))
    assert cli.main(["example", "--scene", "phone"]) == 2
    assert "solver error:" in capsys.readouterr().err


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


def test_run_config_validation():
    with pytest.raises(cli.ConfigError):
        RunConfig(command="simulate", scene="phone", h=-1.0).validate()
    with pytest.raises(cli.ConfigError):
        RunConfig(command="approximate", scene="phone", h=1.0, epsilon=1.0).validate()
    with pytest.raises(cli.ConfigError):
        RunConfig(command="warp", scene="phone").validate()
    RunConfig(command="simulate", scene="phone").validate()


def test_paper_scale_gates_the_full_trajectory_count():
    meta = {"name": "phone", "h": 0.3, "n_steps": 10, "m_trajectories": 16384}
    desk = RunConfig(command="approximate", scene="phone")
    cli._fill_defaults(desk, meta)
    assert desk.m == 4096
    paper = RunConfig(command="approximate", scene="phone", paper_scale=True)
    cli._fill_defaults(paper, meta)
    assert paper.m == 16384


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
