"""Geometry tests: bundled scenes, Jacobians, symmetry maps, scene files."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from multimpact import (
    SceneFormatError,
    anitescu_resolve,
    build_ball,
    build_example,
    contact_jacobians,
    gap,
    is_impacting,
    list_examples,
    load_scene,
    reflect_map,
)
from multimpact.scenes import (
    RUN_DEFAULTS,
    SCENE_FORMAT,
    _bundled_text,
    build_problem,
    mass_matrix,
    scene_from_dict,
)

from conftest import bundled_scene

ALL_SCENES = ("phone", "compass", "box_wall", "disk_stack")


def test_bundled_catalog():
    assert tuple(list_examples()) == ALL_SCENES
    for name in ALL_SCENES:
        problem, v0, meta = build_example(name)
        assert meta["name"] == name
        assert {"h", "n_steps", "m_trajectories"} <= meta.keys()
        assert is_impacting(problem, v0)
    with pytest.raises(ValueError):
        build_example("nonexistent")


def test_initial_gaps_are_closed():
    for name in ALL_SCENES:
        scene = load_scene(name)
        np.testing.assert_allclose(
            gap(scene, scene.initial_pose()), 0.0, atol=1e-9, err_msg=name
        )


@pytest.mark.parametrize("name", ALL_SCENES)
def test_normal_jacobian_is_gap_gradient(name, rng):
    scene = load_scene(name)
    q0 = scene.initial_pose()
    for trial in range(5):
        q = q0 + 0.05 * rng.standard_normal(q0.shape)
        jn, _ = contact_jacobians(scene, q)
        u = rng.standard_normal(q0.shape)
        tau = 1e-6
        fd = (gap(scene, q + tau * u) - gap(scene, q - tau * u)) / (2.0 * tau)
        np.testing.assert_allclose(jn @ u, fd, atol=1e-7)


def test_phone_jacobian_rows_frozen():
    problem, _, _ = build_example("phone")
    a, b = 0.07444, 0.16094
    np.testing.assert_allclose(problem.jn[0], [0.0, 1.0, a / 2.0], atol=1e-12)
    np.testing.assert_allclose(problem.jn[1], [0.0, 1.0, -a / 2.0], atol=1e-12)
    np.testing.assert_allclose(problem.jd[0], [-1.0, 0.0, -b / 2.0], atol=1e-12)
    np.testing.assert_allclose(problem.jd[2], [-1.0, 0.0, -b / 2.0], atol=1e-12)
    np.testing.assert_array_equal(problem.jd[1], -problem.jd[0])
    np.testing.assert_allclose(problem.mass, np.diag([0.19, 0.19, 0.0004978474556666667]))


def test_box_wall_contact_directions():
    problem, v0, _ = build_example("box_wall")
    # Contact A rests on the floor, contact B presses against the wall.
    np.testing.assert_allclose(problem.jn[0][:2], [0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(problem.jn[1][:2], [-1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(problem.jd[0][:2], [-1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(problem.jd[2][:2], [0.0, -1.0], atol=1e-12)
    # The initial slide approaches the wall but not the floor.
    rates = problem.jn @ v0
    assert rates[0] == pytest.approx(0.0, abs=1e-12)
    assert rates[1] < -0.5


def test_ball_problem_is_minimal():
    ball, v0, meta = build_ball()
    np.testing.assert_array_equal(ball.mass, [[1.0]])
    np.testing.assert_array_equal(ball.jn, [[1.0]])
    np.testing.assert_array_equal(ball.jd, [[0.0], [0.0]])
    np.testing.assert_array_equal(v0, [-1.0])
    assert meta["h"] == 1.0


def test_phone_reflection_symmetry():
    problem, v0, _ = build_example("phone")
    r = reflect_map("phone")
    np.testing.assert_allclose(r, np.diag([-1.0, 1.0, -1.0]))
    np.testing.assert_allclose(r @ v0, v0, atol=1e-15)
    np.testing.assert_allclose(r.T @ problem.mass @ r, problem.mass, atol=1e-15)
    # Reflection swaps the two corner contacts and flips tangents.
    np.testing.assert_allclose(problem.jn[0] @ r, problem.jn[1], atol=1e-12)
    np.testing.assert_allclose(problem.jd[0] @ r, -problem.jd[2], atol=1e-12)


def test_disk_stack_reflection_symmetry():
    problem, v0, _ = build_example("disk_stack")
    r = reflect_map("disk_stack")
    perm = [1, 0, 3, 2, 4]
    np.testing.assert_allclose(r.T @ problem.mass @ r, problem.mass, atol=1e-12)
    np.testing.assert_allclose(r @ v0, v0, atol=1e-15)
    np.testing.assert_allclose(problem.jn @ r, problem.jn[perm], atol=1e-12)
    np.testing.assert_allclose(
        problem.jd[0::2] @ r, -problem.jd[0::2][perm], atol=1e-12
    )


def test_reflection_rejects_asymmetric_scenes():
    for name in ("compass", "box_wall"):
        with pytest.raises(ValueError):
            reflect_map(name)


def test_reflected_resolution_commutes_on_the_phone():
    problem, v0, _ = build_example("phone")
    r = reflect_map("phone")
    v_perturbed = v0 + np.array([0.02, 0.0, 0.1])
    left = anitescu_resolve(problem, r @ v_perturbed)
    right = r @ anitescu_resolve(problem, v_perturbed)
    np.testing.assert_allclose(left, right, atol=1e-10)


def test_linkage_mass_matches_point_mass_reconstruction():
    scene = load_scene("compass")
    q = scene.initial_pose() + np.array([0.01, -0.02, 0.05, -0.03])
    length = float(scene.linkage["leg_length"])
    offset = length - float(scene.linkage["mass_offset"])
    leg_mass = float(scene.linkage["leg_mass"])
    expected = np.zeros((4, 4))
    for leg in range(2):
        phi = q[2 + leg]
        jac = np.zeros((2, 4))
        jac[:, :2] = np.eye(2)
        jac[:, 2 + leg] = offset * np.array([np.cos(phi), np.sin(phi)])
        expected += leg_mass * jac.T @ jac
    np.testing.assert_allclose(mass_matrix(scene, q), expected, atol=1e-12)
    eigenvalues = np.linalg.eigvalsh(mass_matrix(scene, q))
    assert eigenvalues.min() > 0.0


def test_load_scene_from_file(tmp_path):
    scene = load_scene("phone")
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(bundled_scene("phone")))
    clone = load_scene(path)
    np.testing.assert_allclose(clone.v0, scene.v0)


def test_scene_with_duplicate_labels_is_a_format_error():
    data = bundled_scene("phone")
    data["contacts"][1]["label"] = "A"
    with pytest.raises(SceneFormatError, match="labels must be distinct"):
        scene_from_dict(data)


def test_a_label_that_utf_8_cannot_encode_is_a_format_error():
    data = bundled_scene("phone")
    data["contacts"][1]["label"] = "B\udc80"
    message = r"contact label 'B\\udc80' cannot be written as UTF-8"
    with pytest.raises(SceneFormatError, match=message):
        scene_from_dict(data)
    data["contacts"][1]["label"] = "Bé→"
    assert scene_from_dict(data).contacts[1].label == "Bé→"


def test_scene_missing_a_field_is_a_format_error_naming_it():
    data = bundled_scene("phone")
    del data["contacts"][0]["mu"]
    with pytest.raises(SceneFormatError, match="missing field 'mu'"):
        scene_from_dict(data)
    data = bundled_scene("compass")
    del data["linkage"]["leg_mass"]
    with pytest.raises(SceneFormatError, match="missing field 'leg_mass'"):
        scene_from_dict(data)


def test_contact_kind_must_fit_the_body_shape():
    data = bundled_scene("phone")
    data["contacts"][0]["kind"] = "disk-plane"
    with pytest.raises(SceneFormatError, match="not a disk"):
        scene_from_dict(data)
    data = bundled_scene("disk_stack")
    floor = data["contacts"][2]
    assert floor["kind"] == "disk-plane"
    floor.update(kind="vertex-plane", vertex=0)
    with pytest.raises(SceneFormatError, match="has no vertices"):
        scene_from_dict(data)


def test_a_scene_is_a_json_object():
    with pytest.raises(SceneFormatError, match="a scene is a JSON object, got list"):
        scene_from_dict([])


def test_defaults_cannot_rename_the_scene():
    data = bundled_scene("phone")
    data["defaults"]["name"] = "../elsewhere"
    _, _, meta = build_problem(scene_from_dict(data))
    assert meta["name"] == "phone"


def test_a_scene_file_without_defaults_runs_with_the_run_defaults(tmp_path):
    data = bundled_scene("phone")
    del data["defaults"]
    path = tmp_path / "phone.json"
    path.write_text(json.dumps(data))
    _, _, meta = build_example(path)
    assert meta == {**RUN_DEFAULTS, "name": "phone"} == {**build_ball()[2], "name": "phone"}
    # A partial set is filled key by key, and an integer h is read as a float.
    data["defaults"] = {"h": 2, "m_trajectories": 8}
    _, _, meta = build_problem(scene_from_dict(data))
    assert meta == {"h": 2.0, "n_steps": 10, "m_trajectories": 8, "name": "phone"}
    assert type(meta["h"]) is float


def test_parallel_linkage_legs_are_a_format_error():
    # Parallel legs make the walker's mass matrix singular; Cholesky lets
    # it through in rounding, the LU behind ``mass_solve`` does not.
    data = bundled_scene("compass")
    data["pose"] = [0.0, 1.0, 0.2, 0.2]
    with pytest.raises(SceneFormatError, match="mass matrix must be positive definite"):
        build_problem(scene_from_dict(data))


def test_build_example_reads_a_scene_file(tmp_path):
    path = tmp_path / "box.json"
    path.write_text(json.dumps(bundled_scene("box_wall")))
    for source in (path, str(path)):
        problem, v0, meta = build_example(source)
        want, want_v0, want_meta = build_problem(load_scene(path))
        for attr in ("mass", "jn", "jt", "jd", "mu"):
            np.testing.assert_array_equal(getattr(problem, attr), getattr(want, attr))
        assert problem.labels == want.labels
        np.testing.assert_array_equal(v0, want_v0)
        assert meta.keys() == want_meta.keys() and meta["name"] == "box_wall"
    with pytest.raises(FileNotFoundError, match="scene file not found"):
        build_example(str(tmp_path / "missing.json"))


def test_unknown_scene_names_are_value_errors():
    with pytest.raises(ValueError, match=re.escape(
        "unknown scene 'nosuch'; bundled scenes: phone, compass, box_wall, disk_stack, ball"
    )):
        build_example("nosuch")
    # ``ball`` is built in code: there is no bundled file to print.
    with pytest.raises(ValueError, match=re.escape(
        "unknown bundled scene 'ball'; available: phone, compass, box_wall, disk_stack"
    )):
        _bundled_text("ball")


@pytest.mark.parametrize("entry", [reflect_map, load_scene, build_example],
                         ids=["reflect_map", "load_scene", "build_example"])
def test_every_entry_point_rejects_an_unknown_scene_name_alike(entry, tmp_path):
    with pytest.raises(ValueError, match=re.escape(
        "unknown scene 'nosuch'; bundled scenes: phone, compass, box_wall, disk_stack, ball"
    )):
        entry("nosuch")
    with pytest.raises(FileNotFoundError, match="scene file not found"):
        entry(str(tmp_path / "missing.json"))


def test_a_scene_without_a_format_marker_reads_as_the_current_format():
    data = bundled_scene("phone")
    assert data.pop("format") == SCENE_FORMAT
    problem, v0, meta = build_problem(scene_from_dict(data))
    want, want_v0, want_meta = build_example("phone")
    for attr in ("mass", "jn", "jt", "jd", "mu"):
        np.testing.assert_array_equal(getattr(problem, attr), getattr(want, attr))
    np.testing.assert_array_equal(v0, want_v0)
    assert meta == want_meta
