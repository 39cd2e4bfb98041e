"""Shared fixtures, random problem factories, and the acceptance summary.

The terminal summary prints one PASS/FAIL line per acceptance criterion so
the gate can be audited at a glance from the pytest output.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest
from hypothesis import settings

from multimpact import ImpactProblem, LcpInstance, lcp, resolution
from multimpact.scenes import _bundled_text

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

CRITERIA = {
    1: "energy dissipation over randomized capped steps",
    2: "LCP residual audit and brute-force cross-check",
    3: "full activation: cap reached or contact separating",
    4: "simultaneous baseline pins symmetric scenes",
    5: "sequential baseline order-dependence and mirroring",
    6: "sampled set covers baseline outcomes and classes",
    7: "termination tail bound on step counts",
    8: "first-order convergence to the dense reference",
    9: "impulse-progress certificate and jamming detection",
    10: "trajectory-count bound matches reimplementation",
    11: "bytewise determinism across runs and job counts",
}

_NODE = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes: dict[int, str] = {}
    for status, label in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for report in terminalreporter.stats.get(status, []):
            match = _NODE.search(getattr(report, "nodeid", ""))
            if not match:
                continue
            number = int(match.group(1))
            if label == "PASS" and getattr(report, "when", "call") != "call":
                continue
            # A failure in any phase outranks a recorded pass.
            if outcomes.get(number) != "FAIL":
                outcomes[number] = label
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(CRITERIA):
        label = outcomes.get(number, "NOT RUN")
        terminalreporter.write_line(
            f"CRITERION {number:2d}: {label} - {CRITERIA[number]}"
        )


def bundled_scene(name: str) -> dict:
    """A fresh dict of the bundled scene file ``name``, to edit."""
    return json.loads(_bundled_text(name))


def solved_parts(sol) -> list:
    """An ``LcpSolution``'s arrays as (dtype, bytes) pairs, to compare
    two solutions bitwise."""
    return [(part.dtype, part.tobytes()) for part in (sol.z, sol.w, sol.pivot_count, sol.status)]


def kernel_paths(monkeypatch):
    """Run the caller's loop body once on each path: the compiled kernel
    (Lemke, the fused step, the sweep, the sampled block and the CSV
    rows), then the numpy fallback, forced by setting ``lcp.KERNEL`` to
    ``None``.  A sampler's ``stream`` draws in numpy on both.  Yields the
    path's name.  Without a compiler both runs take the fallback (CI
    asserts the kernel loads)."""
    for name, kernel in (("kernel", lcp.KERNEL), ("numpy", None)):
        monkeypatch.setattr(lcp, "KERNEL", kernel)
        yield name


# The numpy engine bodies: the kernel's reference, and the path without it.
NUMPY_BODIES = (
    (lcp, "_lemke_many_numpy"), (resolution, "_numpy_step"), (resolution, "_numpy_sweep")
)


def _numpy_body(*args, **kwargs):
    raise AssertionError("a numpy body ran with the kernel loaded")


def forbid_numpy(monkeypatch):
    """Make every numpy engine body raise ``AssertionError``."""
    for module, body in NUMPY_BODIES:
        monkeypatch.setattr(module, body, _numpy_body)


def deciding_paths(monkeypatch):
    """:func:`kernel_paths`, but on the kernel's run every numpy engine
    body raises, so the kernel must decide each input alone, and on the
    numpy run they are back."""
    originals = [getattr(module, body) for module, body in NUMPY_BODIES]
    for name in kernel_paths(monkeypatch):
        if name == "kernel" and lcp.KERNEL is not None:
            forbid_numpy(monkeypatch)
        else:
            for (module, body), original in zip(NUMPY_BODIES, originals):
                monkeypatch.setattr(module, body, original)
        yield name


def random_spd_matrix(rng: np.random.Generator, n: int, *, shift: float = 0.5) -> np.ndarray:
    root = rng.standard_normal((n, n))
    return root @ root.T + shift * n * np.eye(n)


def random_pd_lcp(rng: np.random.Generator, n: int) -> LcpInstance:
    return LcpInstance(random_spd_matrix(rng, n), rng.standard_normal(n) * 2.0)


def random_single_contact(rng: np.random.Generator) -> tuple[ImpactProblem, np.ndarray]:
    """A random one-contact problem together with an approaching velocity."""
    n_v = int(rng.integers(2, 4))
    mass = random_spd_matrix(rng, n_v)
    while True:
        jn = rng.standard_normal((1, n_v))
        jt = rng.standard_normal((1, n_v))
        if np.linalg.norm(jn) > 0.3 and np.linalg.norm(jt) > 0.3:
            break
    mu = np.array([float(rng.uniform(0.3, 2.0))])
    problem = ImpactProblem(mass=mass, jn=jn, jt=jt, mu=mu)
    # Drive the contact together, with tangential content mixed in.
    v = -rng.uniform(0.5, 2.0) * problem.mass_solve(jn[0])
    v += rng.uniform(-1.0, 1.0) * problem.mass_solve(jt[0])
    if float(jn[0] @ v) >= -1e-6:
        v -= (float(jn[0] @ v) + 1.0) * problem.mass_solve(jn[0]) / float(
            jn[0] @ problem.mass_solve(jn[0])
        )
    assert float(jn[0] @ v) < 0.0
    return problem, v


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260814)
