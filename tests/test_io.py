"""Tests for lossless CSV/JSON export."""

from __future__ import annotations

import csv
import errno
import io as stdio
import json
import math
import os
import sys
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multimpact import (
    PostImpactSet,
    SobolSampler,
    UniformSampler,
    anitescu_resolve,
    approximate,
    baselines,
    build_ball,
    build_example,
    build_problem,
    load_scene,
    routh_dense_reference,
    sequential_resolve,
    sim,
)
from multimpact import cli, lcp
from multimpact import io as mio
from multimpact.oracles import DenseTrajectory
from multimpact.resolution import StepRecord, Trajectory
from multimpact.io import (
    FORMAT_MARKER,
    compare_to_csv,
    compare_to_json,
    dense_to_csv,
    dense_to_json,
    set_to_csv,
    set_to_json,
    trajectory_to_csv,
    trajectory_to_json,
)

from conftest import bundled_scene, kernel_paths


def _parse_csv(text: str) -> tuple[str, list[str], list[list[str]]]:
    lines = text.splitlines()
    marker = lines[0]
    rows = list(csv.reader(stdio.StringIO("\n".join(lines[1:]))))
    return marker, rows[0], rows[1:]


def test_trajectory_csv_round_trips_losslessly(tmp_path):
    problem, v0, meta = build_example("phone")
    traj = sim(problem, v0, h=meta["h"], n_max=20, sampler=UniformSampler(seed=1))
    path = tmp_path / "traj.csv"
    text = trajectory_to_csv(traj, problem, path)
    assert path.read_text() == text
    marker, header, rows = _parse_csv(text)
    assert marker == f"# {FORMAT_MARKER}"
    assert header[0] == "step"
    assert "lambda_n_A" in header and "beta_B_neg" in header
    assert len(rows) == traj.n_steps
    # Every serialized velocity recovers the binary double exactly.
    v_cols = [header.index(f"v_{i}") for i in range(problem.n_v)]
    for row, step in zip(rows, traj.steps):
        for col, value in zip(v_cols, step.v_after):
            assert float(row[col]) == value


def test_trajectory_json_mirrors_the_record(tmp_path):
    problem, v0, meta = build_example("box_wall")
    traj = sim(problem, v0, h=meta["h"], n_max=20, sampler=UniformSampler(seed=2))
    payload = json.loads(trajectory_to_json(traj, problem))
    assert payload["format"] == FORMAT_MARKER
    assert payload["kind"] == "trajectory"
    assert payload["terminated"] == traj.terminated
    np.testing.assert_array_equal(payload["v_final"], traj.v_final)
    assert len(payload["steps"]) == traj.n_steps


def test_set_exports_with_projections(tmp_path):
    problem, v0, _ = build_example("phone")
    post = approximate(problem, v0, h=0.3, epsilon=0.03, n_max=10,
                       m_trajectories=16, sampler=UniformSampler(seed=0))
    marker, header, rows = _parse_csv(set_to_csv(post, problem))
    assert marker == f"# {FORMAT_MARKER}"
    assert header == ["traj", "v_0", "v_1", "v_2", "jn_v_A", "jn_v_B",
                      "jt_v_A", "jt_v_B"]
    assert len(rows) == post.samples.shape[0]
    col = header.index("jn_v_A")
    for row, v in zip(rows, post.samples):
        assert float(row[col]) == float(problem.jn[0] @ v)
    payload = json.loads(set_to_json(post, problem))
    assert payload["rejected_count"] == post.rejected_count
    np.testing.assert_array_equal(payload["samples"], post.samples)


def test_compare_rows_tag_methods(tmp_path):
    problem, v0, _ = build_example("phone")
    rows = [
        ("anitescu", "", anitescu_resolve(problem, v0)),
        ("sequential", "A", sequential_resolve(problem, v0, order=["A"]).v_final),
    ]
    marker, header, body = _parse_csv(compare_to_csv(rows, problem))
    assert [r[0] for r in body] == ["anitescu", "sequential"]
    assert body[1][1] == "A"
    payload = json.loads(compare_to_json(rows, problem))
    assert [r["method"] for r in payload["rows"]] == ["anitescu", "sequential"]


def test_dense_exports_modes(tmp_path):
    ball, v0, _ = build_ball()
    dense = routh_dense_reference(ball, v0, ds=1e-3)
    marker, header, rows = _parse_csv(dense_to_csv(dense, ball))
    assert header == ["impulse", "v_0", "mode"]
    assert len(rows) == len(dense.s_grid)
    payload = json.loads(dense_to_json(dense, ball))
    assert payload["modes"] == list(dense.modes)
    assert float(rows[-1][0]) == dense.s_grid[-1]


# ---------------------------------------------------------------------------
# Byte-level references, built row by row and value by value


def _reference_csv(header: list[str], rows: list[list[str]]) -> str:
    buf = stdio.StringIO()
    buf.write(f"# {FORMAT_MARKER}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _reference_projections(problem, v) -> tuple[list[float], list[float]]:
    # One matrix-vector product per velocity.  A dot of one Jacobian row,
    # ``problem.jn[i] @ v``, can differ from it in the last bit (it does
    # on compass), so it is not the reference.
    jn_v, jt_v = problem.jn @ v, problem.jt @ v
    return [float(x) for x in jn_v], [float(x) for x in jt_v]


def _reference_numbers(problem, v) -> list[str]:
    jn_v, jt_v = _reference_projections(problem, v)
    return [repr(float(x)) for x in [*v, *jn_v, *jt_v]]


def _assert_same_text(actual: str, expected: str) -> None:
    """Equal text, failing on the first differing line rather than on a
    diff of the whole file."""
    got, want = actual.splitlines(keepends=True), expected.splitlines(keepends=True)
    for k, (line, reference) in enumerate(zip(got, want)):
        assert line == reference, f"line {k} differs"
    assert len(got) == len(want)


def _reference_header(problem, lead: list[str]) -> list[str]:
    return (
        lead
        + [f"v_{k}" for k in range(problem.n_v)]
        + [f"jn_v_{lbl}" for lbl in problem.labels]
        + [f"jt_v_{lbl}" for lbl in problem.labels]
    )


def _reference_json(payload: dict) -> str:
    return json.dumps({"format": FORMAT_MARKER, **payload}, indent=2) + "\n"


def _sampled(name, sampler, m=192):
    problem, v0, meta = build_example(name)
    h = float(meta["h"])
    post = approximate(problem, v0, h, h / 10.0, int(meta["n_steps"]), m, sampler)
    return problem, v0, post


SCENES = ("ball", "phone", "compass", "box_wall", "disk_stack")


@pytest.mark.parametrize("sampler", [SobolSampler, UniformSampler])
@pytest.mark.parametrize("name", SCENES)
def test_set_exports_match_the_row_by_row_reference(name, sampler):
    problem, _, post = _sampled(name, sampler())
    assert post.samples.shape[0] > 0
    rows = [
        [str(int(i)), *_reference_numbers(problem, v)]
        for i, v in zip(post.traj_indices, post.samples)
    ]
    _assert_same_text(
        set_to_csv(post, problem), _reference_csv(_reference_header(problem, ["traj"]), rows)
    )
    _assert_same_text(
        set_to_json(post, problem),
        _reference_json(
            {
            "kind": "post_impact_set",
            "labels": list(problem.labels),
            "params": post.params,
            "rejected_count": post.rejected_count,
            "traj_indices": [int(i) for i in post.traj_indices],
            "samples": [[float(x) for x in v] for v in post.samples],
            }
        ),
    )


@pytest.mark.parametrize("sampler", [SobolSampler, UniformSampler])
@pytest.mark.parametrize("name", SCENES)
def test_compare_exports_match_the_row_by_row_reference(name, sampler):
    problem, v0, post = _sampled(name, sampler(), m=64)
    rows = baselines(problem, v0)
    rows += [("sampled", str(int(i)), v) for i, v in zip(post.traj_indices, post.samples)]
    expected = [[method, order, *_reference_numbers(problem, v)] for method, order, v in rows]
    _assert_same_text(
        compare_to_csv(rows, problem),
        _reference_csv(_reference_header(problem, ["method", "order"]), expected),
    )
    records = []
    for method, order, v in rows:
        jn_v, jt_v = _reference_projections(problem, v)
        records.append(
            {"method": method, "order": order, "v_plus": [float(x) for x in v],
             "jn_v": jn_v, "jt_v": jt_v}
        )
    _assert_same_text(
        compare_to_json(rows, problem),
        _reference_json(
            {"kind": "comparison", "labels": list(problem.labels), "rows": records}
        ),
    )


def test_empty_exports_write_marker_and_header_only():
    problem, _, _ = build_example("compass")
    empty = PostImpactSet(
        samples=np.zeros((0, problem.n_v)),
        traj_indices=np.zeros(0, dtype=np.int64),
        rejected_count=5,
        params={},
    )
    text = set_to_csv(empty, problem)
    assert text == _reference_csv(_reference_header(problem, ["traj"]), [])
    assert text.count("\n") == 2
    assert compare_to_csv([], problem) == _reference_csv(
        _reference_header(problem, ["method", "order"]), []
    )
    assert json.loads(compare_to_json([], problem))["rows"] == []
    assert json.loads(set_to_json(empty, problem))["samples"] == []


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_non_finite_velocity_exports_without_a_warning(bad):
    # The ball's normal row is 1 and its tangent row 0: the tangent
    # projection of inf is 0 * inf.
    ball, _, _ = build_ball()
    post = PostImpactSet(samples=np.array([[bad]]), traj_indices=np.array([0]),
                         rejected_count=0, params={})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, rows = _parse_csv(set_to_csv(post, ball))
        assert json.loads(set_to_json(post, ball))["samples"]
    assert rows == [["0", repr(bad), repr(bad), "nan"]]


def test_labels_with_delimiters_and_quotes_parse_back():
    data = bundled_scene("phone")
    label = 'corner, "left"'
    data["contacts"][0]["label"] = label
    problem, v0, meta = build_problem(load_scene(data))
    assert problem.labels == (label, "B")
    h = float(meta["h"])
    post = approximate(problem, v0, h, h / 10.0, int(meta["n_steps"]), 16, UniformSampler())
    _, header, rows = _parse_csv(set_to_csv(post, problem))
    assert header == _reference_header(problem, ["traj"])
    assert f"jn_v_{label}" in header and f"jt_v_{label}" in header
    assert len(rows) == post.samples.shape[0]
    _, header, rows = _parse_csv(compare_to_csv(baselines(problem, v0), problem))
    assert header == _reference_header(problem, ["method", "order"])
    assert [row[1] for row in rows] == ["", label, "B"]
    traj = sim(problem, v0, h=h, n_max=5, sampler=UniformSampler(seed=1))
    _, header, _ = _parse_csv(trajectory_to_csv(traj, problem))
    assert f"beta_{label}_neg" in header


_DOUBLES = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 1e-310, math.inf, -math.inf, math.nan, -math.nan,
         1e300, -1e300, 1e-300, 0.1, 1.0]
    ),
    st.floats(),
)
_TEXTS = st.text(alphabet=' ,"\'ab\t;', max_size=6)


def _four_writers(table: np.ndarray, labels: list[str], leads: list[int]) -> list[str]:
    """Every CSV writer's text for a float table on the one-contact ball:
    its first column as the velocities of a set (indices ``leads``), of a
    comparison (methods and orders ``labels``) and of a dense path (the
    second column as its impulses, modes ``labels``), and each row as a
    trajectory step (the row's entries repeated to the step's width)."""
    ball, _, _ = build_ball()
    v = table[:, :1]
    post = PostImpactSet(samples=v, traj_indices=np.array(leads, dtype=np.int64),
                         rejected_count=0, params={})
    steps = []
    for row in table:
        wide = np.resize(row, 6)
        steps.append(StepRecord(lambda_max=wide[:1], lambda_n=wide[1:2], beta=wide[2:4],
                                v_before=wide[4:5], v_after=wide[4:5], energy_before=0.0,
                                energy_after=float(wide[5])))
    traj = Trajectory(steps=steps, terminated=True, h=1.0, rng_seed=None,
                      v0=np.zeros(1), v_final=np.zeros(1))
    dense = DenseTrajectory(s_grid=table[:, 1], v_grid=v, modes=labels[1:])
    with np.errstate(all="ignore"):  # the projections of ±inf and NaN
        return [
            set_to_csv(post, ball),
            compare_to_csv([(lbl, lbl[::-1], x) for lbl, x in zip(labels, v)], ball),
            dense_to_csv(dense, ball),
            trajectory_to_csv(traj, ball),
        ]


@settings(max_examples=200)
@given(data=st.data())
def test_csv_bytes_equal_a_writer_fed_python_floats(data):
    n_rows, n_cols = data.draw(st.integers(0, 12)), data.draw(st.integers(2, 5))
    # A small pool of values, so that tables repeat them.
    pool = data.draw(st.lists(_DOUBLES, min_size=1, max_size=6))
    cells = data.draw(st.lists(st.sampled_from(pool), min_size=n_rows * n_cols,
                               max_size=n_rows * n_cols))
    table = np.array(cells, dtype=float).reshape(n_rows, n_cols)
    labels = data.draw(st.lists(_TEXTS, min_size=n_rows, max_size=n_rows))
    header = ["label", *data.draw(st.lists(_TEXTS, min_size=n_cols, max_size=n_cols))]
    expected = _reference_csv(header, [[lbl, *row] for lbl, row in zip(labels, table.tolist())])
    assert mio._csv_text(
        header, [[lbl, *row] for lbl, row in zip(labels, mio._repr_table(table))]
    ) == expected

    # The same through a public writer, with the labels as trailing modes.
    ball, _, _ = build_ball()
    dense = DenseTrajectory(s_grid=table[:, 0], v_grid=table[:, 1:2], modes=labels[1:])
    rows = [[*row, mode] for row, mode in zip(table[:, :2].tolist(), ["", *labels[1:]])]
    assert dense_to_csv(dense, ball) == _reference_csv(["impulse", "v_0", "mode"], rows)

    # Every CSV writer gives the reference's bytes on the kernel, also
    # when each kernel call formats a single row.
    leads = data.draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n_rows,
                               max_size=n_rows))
    chunk = data.draw(st.sampled_from([1, 300, mio._CHUNK_BYTES]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mio, "_CHUNK_BYTES", chunk)
        kernel, numpy = [_four_writers(table, labels, leads) for _ in kernel_paths(patch)]
    assert kernel == numpy


def _kernel_text(table, lead=None) -> str:
    if lcp.KERNEL is None:
        pytest.skip("the compiled kernel did not load")
    return mio._kernel_rows(lcp.KERNEL, np.ascontiguousarray(table, dtype=float), lead)


def _repr_rows(table, lead=None) -> str:
    rows = table.tolist()
    if lead is not None:
        rows = [[str(i), *map(repr, row)] for i, row in zip(lead.tolist(), rows)]
    else:
        rows = [list(map(repr, row)) for row in rows]
    return "".join(",".join(row) + "\n" for row in rows)


def _edge_doubles() -> list[float]:
    edges = [
        0.0, math.nan, math.inf, 5e-324,
        float.fromhex("0x0.fffffffffffffp-1022"),  # the largest subnormal
        sys.float_info.min, sys.float_info.max, 0.1, 1 / 3,
    ]
    edges += [2.0**k for k in range(-1074, 1024)]
    # Fixed notation runs from 1e-4 to just below 1e16.
    for k in (-6, -5, -4, -3, 15, 16, 17, 18):
        x = float(f"1e{k}")
        edges += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
    edges += [float(2**53 + d) for d in range(-3, 5)] + [2.0**53 * 10.0, 9007199254740993e1]
    return edges + [-x for x in edges]


def test_kernel_numbers_are_repr_on_the_edges():
    edges = np.array(_edge_doubles())
    for cols in (1, 3, 7):
        table = np.resize(edges, (len(edges) // cols + 1, cols))
        assert _kernel_text(table) == _repr_rows(table)
    lead = np.array([0, -1, 7, 10**18, -(2**63), 2**63 - 1], dtype=np.int64)
    table = np.resize(edges, (len(lead), 2))
    assert _kernel_text(table, lead) == _repr_rows(table, lead)
    assert _kernel_text(np.zeros((0, 3)), np.zeros(0, dtype=np.int64)) == ""


@settings(max_examples=500)
@given(
    bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40),
    cols=st.integers(1, 5),
    lead=st.integers(-(2**63), 2**63 - 1),
)
def test_kernel_numbers_are_repr_for_any_bits(bits, cols, lead):
    table = np.resize(np.array(bits, dtype=np.uint64).view(float), (len(bits) // cols + 1, cols))
    leads = np.full(len(table), lead, dtype=np.int64)
    assert _kernel_text(table) == _repr_rows(table)
    assert _kernel_text(table, leads) == _repr_rows(table, leads)


def test_csv_keeps_the_sign_of_zero():
    table = np.array([[0.0, -0.0], [-0.0, 0.0]])
    assert mio._repr_table(table) == [["0.0", "-0.0"], ["-0.0", "0.0"]]


def test_compare_csv_does_not_depend_on_the_job_count(tmp_path):
    texts = []
    for jobs in (1, 2):
        out = tmp_path / f"compare_{jobs}.csv"
        code = cli.main([
            "compare", "--scene", "compass", "--m", "300", "--jobs", str(jobs),
            "--output", str(out),
        ])
        assert code == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    assert texts[0].count("\nsampled,") > 0


# ---------------------------------------------------------------------------
# The writer overwrites in place


def _every_output(tmp_path) -> list[tuple[str, object, object]]:
    """Name, writer call and path of each of the eight ``io`` writers and
    of ``multimpact example --output``, each writing one file in ``tmp_path``."""
    problem, v0, meta = build_example("phone")
    ball, ball_v0, _ = build_ball()
    records = {
        "trajectory": (sim(problem, v0, meta["h"], 10, UniformSampler(seed=1)), problem),
        "set": (approximate(problem, v0, meta["h"], meta["h"] / 10, 10, 16,
                            UniformSampler(seed=0)), problem),
        "compare": (baselines(problem, v0), problem),
        "dense": (routh_dense_reference(ball, ball_v0, ds=1e-3), ball),
    }
    outputs = [
        (f"{kind}.{fmt}", partial(getattr(mio, f"{kind}_to_{fmt}"), *records[kind]))
        for kind in records
        for fmt in ("csv", "json")
    ]
    outputs.append(("example.json", lambda path: cli.main(
        ["example", "--scene", "phone", "--output", str(path)]
    )))
    return [(name, write, tmp_path / name) for name, write in outputs]


def test_a_shorter_output_over_a_longer_one_equals_a_fresh_write(tmp_path, monkeypatch, capsys):
    for path in kernel_paths(monkeypatch):
        for fmt in ("csv", "json"):
            texts = []
            for m, name in (("64", "over"), ("8", "over"), ("8", "fresh")):
                out = tmp_path / f"{path}-{name}.{fmt}"
                assert cli.main([
                    "approximate", "--scene", "phone", "--m", m, "--jobs", "1",
                    "--format", fmt, "--output", str(out),
                ]) == 0
                texts.append(out.read_bytes())
            long, over, fresh = texts
            assert over == fresh and len(fresh) < len(long)
    capsys.readouterr()


def test_an_existing_output_keeps_its_inode_mode_and_links(tmp_path, monkeypatch, capsys):
    for path in kernel_paths(monkeypatch):
        (tmp_path / path).mkdir()
        for name, write, out in _every_output(tmp_path / path):
            fresh = out.with_suffix(".fresh" + out.suffix)
            write(fresh)
            out.write_bytes(b"stale " * 100_000)
            out.chmod(0o640)
            link = out.with_name("link-" + out.name)
            os.link(out, link)
            before = os.stat(out)
            write(out)
            after = os.stat(out)
            assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode), name
            assert link.read_bytes() == out.read_bytes() == fresh.read_bytes(), name
    capsys.readouterr()


def test_a_new_output_gets_the_mode_open_gives_under_the_umask(tmp_path, monkeypatch, capsys):
    umask = os.umask(0o027)
    try:
        for path in kernel_paths(monkeypatch):
            (tmp_path / path).mkdir()
            for name, write, out in _every_output(tmp_path / path):
                reference = out.with_name("open-" + name)
                open(reference, "w").close()
                write(out)
                assert os.stat(out).st_mode == os.stat(reference).st_mode, name
                assert os.stat(out).st_mode & 0o777 == 0o640, name
    finally:
        os.umask(umask)
    capsys.readouterr()


def test_no_writer_opens_its_output_with_o_trunc(tmp_path, monkeypatch, capsys):
    # Path.write_text opens with O_TRUNC through io.open, which never calls
    # os.open: a writer that went back to it would record no call here.
    flags = []
    real_open = os.open

    def recording_open(path, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    for path in kernel_paths(monkeypatch):
        (tmp_path / path).mkdir()
        outputs = _every_output(tmp_path / path)
        monkeypatch.setattr(os, "open", recording_open)
        for _, write, out in outputs:
            del flags[:]
            write(out)
            assert len(flags) == 1 and flags[0] & os.O_TRUNC == 0
            assert flags[0] & (os.O_WRONLY | os.O_CREAT) == os.O_WRONLY | os.O_CREAT
        monkeypatch.setattr(os, "open", real_open)
    capsys.readouterr()


def test_a_failed_write_leaves_the_prefix_it_wrote(tmp_path, monkeypatch):
    # A disk that fills after the first 1000 bytes: the output must be those
    # bytes alone, as under O_TRUNC, and never end with the old file's rows.
    real_write = os.write
    calls = []

    def full_disk(fd, data):
        calls.append(len(data))
        if len(calls) > 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real_write(fd, data[:1000])

    problem, v0, meta = build_example("phone")
    post = approximate(problem, v0, meta["h"], meta["h"] / 10, 10, 64, UniformSampler(seed=0))
    text = mio.set_to_csv(post, problem)
    out = tmp_path / "set.csv"
    out.write_bytes(b"0.5,0.5,0.5\n" * 10_000)
    monkeypatch.setattr(os, "write", full_disk)
    with pytest.raises(OSError) as err:
        mio.set_to_csv(post, problem, out)
    monkeypatch.setattr(os, "write", real_write)
    assert err.value.errno == errno.ENOSPC and len(calls) == 2
    assert out.read_bytes() == text.encode()[:1000]
