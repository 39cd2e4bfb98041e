"""Planar rigid-body scenes and their contact-problem assembly.

A scene holds bodies (disks or polygons), environment half-planes, contact
declarations, an initial generalized velocity, and default run parameters.
From a scene and a pose vector this module evaluates signed gap functions
and contact Jacobians, and assembles the :class:`~multimpact.contact.ImpactProblem`
used by the resolution and sampling layers.

Two scene kinds exist:

- ``"rigid"``: free planar bodies, 3 coordinates each ``(x, y, theta)``;
- ``"linkage"``: a two-legged point-mass walker with coordinates
  ``(x_hip, y_hip, phi_leg0, phi_leg1)``; angles measured from the
  downward vertical, feet touch a flat floor.

Sign conventions: positive rotation is counterclockwise; a contact normal
points in the direction of increasing gap for the owning body; the tangent
is the normal rotated a quarter turn counterclockwise.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .contact import ImpactProblem
from .errors import SceneFormatError

__all__ = [
    "PlanarBody",
    "HalfPlane",
    "ContactSpec",
    "Scene",
    "gap",
    "contact_jacobians",
    "build_problem",
    "build_example",
    "build_ball",
    "reflect_map",
    "list_examples",
    "load_scene",
    "mass_matrix",
    "scene_from_dict",
]

EXAMPLE_NAMES = ("phone", "compass", "box_wall", "disk_stack")
SCENE_FORMAT = "multimpact-scene v1"  # a scene file's ``format`` marker
_CONTACT_KINDS = ("vertex-plane", "disk-plane", "disk-disk")
# Largest magnitude of a number in a scene file (a plane normal, which only
# gives a direction, excepted).  The step LCP's tolerances are absolute, so
# a scene must be in units where its numbers are moderate; the bound keeps
# every product the stepping forms inside the double range, where a vertex
# at 1e300 overflows the Delassus product and a velocity at 1e300 its
# kinetic energy.
MAX_MAGNITUDE = 1e8
# Run parameters of a scene whose file leaves them out: per-step impulse
# budget, step cap, trajectory count at paper scale.
RUN_DEFAULTS = {"h": 1.0, "n_steps": 10, "m_trajectories": 4096}


def _rot(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _perp(vec: np.ndarray) -> np.ndarray:
    """Quarter-turn counterclockwise: (x, y) -> (-y, x)."""
    return np.array([-vec[1], vec[0]])


@dataclass
class PlanarBody:
    """A free planar rigid body with a disk or polygon collision shape."""

    name: str
    mass: float
    inertia: float
    shape: dict  # {"type": "disk", "radius": r} | {"type": "polygon", "vertices": [(x, y), ..]}
    pose: np.ndarray  # (3,) initial (x, y, theta)


@dataclass
class HalfPlane:
    """Static environment geometry: points on the allowed side satisfy
    ``normal . (p - point) >= 0``."""

    name: str
    point: np.ndarray
    normal: np.ndarray

    def __post_init__(self) -> None:
        normal = np.asarray(self.normal, dtype=float)
        # ``hypot`` does not overflow where the sum of squares would.
        length = float(np.hypot(*normal))
        if not 0.0 < length < np.inf:
            raise ValueError(f"plane {self.name!r} needs a finite nonzero 2-D normal")
        self.normal = normal / length


@dataclass
class ContactSpec:
    """One declared contact.

    kind: "vertex-plane" (polygon vertex against a half-plane),
    "disk-plane", or "disk-disk" (body against another body).
    """

    label: str
    mu: float
    kind: str
    body: int
    plane: str | None = None
    vertex: int | None = None
    against: int | None = None
    leg: int | None = None  # linkage scenes: which leg's foot


@dataclass
class Scene:
    """A complete scenario: geometry, contacts, initial state, defaults."""

    name: str
    kind: str  # "rigid" | "linkage"
    bodies: list[PlanarBody] = field(default_factory=list)
    environment: list[HalfPlane] = field(default_factory=list)
    contacts: list[ContactSpec] = field(default_factory=list)
    v0: np.ndarray = field(default_factory=lambda: np.zeros(0))
    defaults: dict = field(default_factory=dict)
    linkage: dict | None = None
    pose: np.ndarray | None = None  # linkage initial coordinates

    @property
    def n_v(self) -> int:
        if self.kind == "linkage":
            return 4
        return 3 * len(self.bodies)

    def initial_pose(self) -> np.ndarray:
        if self.kind == "linkage":
            return self.pose.copy()
        return np.concatenate([b.pose for b in self.bodies])


# ---------------------------------------------------------------------------
# Geometry for "rigid" scenes


def _plane(scene: Scene, name: str) -> HalfPlane:
    for plane in scene.environment:
        if plane.name == name:
            return plane
    raise KeyError(f"no environment plane named {name!r}")


def _contact_geometry(
    scene: Scene, spec: ContactSpec, q: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Returns (gap, world contact point, world normal) for one contact.
    The normal points in the separating direction of ``spec.body``."""
    qb = q[3 * spec.body : 3 * spec.body + 3]
    body = scene.bodies[spec.body]
    if spec.kind == "vertex-plane":
        plane = _plane(scene, spec.plane)
        point = qb[:2] + _rot(qb[2]) @ body.shape["vertices"][spec.vertex]
        value = float(plane.normal @ (point - plane.point))
        return value, point, plane.normal.copy()
    if spec.kind == "disk-plane":
        plane = _plane(scene, spec.plane)
        radius = float(body.shape["radius"])
        value = float(plane.normal @ (qb[:2] - plane.point)) - radius
        point = qb[:2] - radius * plane.normal
        return value, point, plane.normal.copy()
    if spec.kind == "disk-disk":
        qa = q[3 * spec.against : 3 * spec.against + 3]
        other = scene.bodies[spec.against]
        r_b = float(body.shape["radius"])
        r_a = float(other.shape["radius"])
        delta = qb[:2] - qa[:2]
        dist = float(np.linalg.norm(delta))
        if dist == 0.0:
            raise SceneFormatError(
                f"scene {scene.name!r}: disk centres of contact {spec.label!r} coincide"
            )
        normal = delta / dist
        value = dist - r_a - r_b
        point = qa[:2] + r_a * normal
        return value, point, normal
    raise ValueError(f"unknown contact kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# Geometry for the "linkage" walker


def _linkage_mass(scene: Scene, q: np.ndarray) -> np.ndarray:
    """Closed-form mass matrix: two point masses, one per leg, at offset
    ``a = leg_length - mass_offset`` below the hip along each leg."""
    length = float(scene.linkage["leg_length"])
    offset = length - float(scene.linkage["mass_offset"])
    leg_mass = float(scene.linkage["leg_mass"])
    phi0, phi1 = q[2], q[3]
    mass = np.zeros((4, 4))
    mass[0, 0] = mass[1, 1] = 2.0 * leg_mass
    for leg, phi in ((0, phi0), (1, phi1)):
        col = 2 + leg
        mass[0, col] = mass[col, 0] = leg_mass * offset * np.cos(phi)
        mass[1, col] = mass[col, 1] = leg_mass * offset * np.sin(phi)
        mass[col, col] = leg_mass * offset**2
    return mass


# ---------------------------------------------------------------------------
# Public geometry API


def _contacts_at(scene: Scene, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(gaps, jn, jt)`` of every declared contact at pose ``q``, each
    contact evaluated once."""
    q = np.asarray(q, dtype=float)
    m = len(scene.contacts)
    gaps = np.empty(m)
    jn = np.zeros((m, scene.n_v))
    jt = np.zeros((m, scene.n_v))

    if scene.kind == "linkage":
        length = float(scene.linkage["leg_length"])
        for i, spec in enumerate(scene.contacts):
            col = 2 + spec.leg
            phi = q[col]
            # foot = hip + length (sin phi, -cos phi); gap = foot_y
            gaps[i] = q[1] - length * np.cos(phi)
            jn[i, 1] = 1.0
            jn[i, col] = length * np.sin(phi)
            # tangent = perp((0,1)) = (-1, 0); slip = -foot_x rate
            jt[i, 0] = -1.0
            jt[i, col] = -length * np.cos(phi)
        return gaps, jn, jt

    for i, spec in enumerate(scene.contacts):
        gaps[i], point, normal = _contact_geometry(scene, spec, q)
        sides = [(spec.body, normal)]
        if spec.kind == "disk-disk":
            sides.append((spec.against, -normal))
        for body, direction in sides:
            arm = _perp(point - q[3 * body : 3 * body + 2])
            tangent = _perp(direction)
            cols = slice(3 * body, 3 * body + 3)
            jn[i, cols] = [direction[0], direction[1], direction @ arm]
            jt[i, cols] = [tangent[0], tangent[1], tangent @ arm]
    return gaps, jn, jt


def gap(scene: Scene, q: np.ndarray) -> np.ndarray:
    """Signed separation distance of every declared contact at pose ``q``."""
    return _contacts_at(scene, q)[0]


def contact_jacobians(scene: Scene, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normal and tangential contact Jacobians at pose ``q``.

    Returns ``(jn, jt)`` of shapes ``(m, n_v)``; row i of ``jn`` is the
    gradient of contact i's gap, and row i of ``jt`` maps velocity to slip
    rate along the counterclockwise-rotated normal.
    """
    return _contacts_at(scene, q)[1:]


def mass_matrix(scene: Scene, q: np.ndarray | None = None) -> np.ndarray:
    """Generalized mass matrix (pose-dependent only for linkage scenes)."""
    if scene.kind == "linkage":
        if q is None:
            q = scene.initial_pose()
        return _linkage_mass(scene, np.asarray(q, dtype=float))
    return np.diag([value for b in scene.bodies for value in (b.mass, b.mass, b.inertia)])


def build_problem(
    scene: Scene, q: np.ndarray | None = None
) -> tuple[ImpactProblem, np.ndarray, dict]:
    """Assemble the impact problem at pose ``q`` (default: the scene pose).

    Returns ``(problem, v0, meta)`` where meta carries the scene name and
    always holds the run parameters ``h`` (per-step impulse budget),
    ``n_steps`` (step cap) and ``m_trajectories`` (trajectory count): the
    scene's own, else ``RUN_DEFAULTS``.
    """
    if q is None:
        q = scene.initial_pose()
    jn, jt = contact_jacobians(scene, q)
    try:
        problem = ImpactProblem(
            mass=mass_matrix(scene, q),
            jn=jn,
            jt=jt,
            mu=np.array([spec.mu for spec in scene.contacts]),
            labels=tuple(spec.label for spec in scene.contacts),
        )
    except (ValueError, OverflowError) as exc:  # e.g. a singular linkage mass
        raise SceneFormatError(f"scene {scene.name!r}: {exc}") from exc
    # The scene keeps its own name, whatever its defaults hold.
    meta = {**RUN_DEFAULTS, **scene.defaults, "name": scene.name}
    return problem, scene.v0.copy(), meta


# ---------------------------------------------------------------------------
# Bundled examples


def _unknown_scene(name: str) -> ValueError:
    """The one error for a scene name that is neither bundled nor a file."""
    return ValueError(f"unknown scene {name!r}; bundled scenes: {', '.join(EXAMPLE_NAMES)}, ball")


def _bundled_text(name: str) -> str:
    """The text of the bundled scene file ``name``.  An unknown name
    raises :func:`_unknown_scene`'s error; ``ball``, built in code, has
    no file."""
    if name == "ball":
        raise ValueError(
            f"unknown bundled scene {name!r}; available: {', '.join(EXAMPLE_NAMES)}"
        )
    if name not in EXAMPLE_NAMES:
        raise _unknown_scene(name)
    return (resources.files("multimpact") / "data" / f"{name}.json").read_text()


def list_examples() -> tuple[str, ...]:
    return EXAMPLE_NAMES


def _scene_file(source: str | Path) -> Path | None:
    """The file scene ``source`` names: ``None`` for a bundled name
    (``ball`` included), else an existing path.  Any other name raises
    ``ValueError`` naming the bundled scenes, or ``FileNotFoundError`` if
    it looks like a path (it holds a ``/`` or ends in ``.json``)."""
    name = str(source)
    if name in EXAMPLE_NAMES or name == "ball":
        return None
    if Path(name).exists():
        return Path(name)
    if "/" in name or name.endswith(".json"):
        raise FileNotFoundError(f"scene file not found: {name}")
    raise _unknown_scene(name)


def load_scene(source: str | Path | dict) -> Scene:
    """Load a scene from a dict, a JSON file path, or a bundled name; an
    unknown name raises as :func:`build_example` says."""
    if isinstance(source, dict):
        return scene_from_dict(source)
    path = _scene_file(source)
    text = _bundled_text(str(source)) if path is None else path.read_text()
    return scene_from_dict(json.loads(text))


def build_example(source: str | Path) -> tuple[ImpactProblem, np.ndarray, dict]:
    """Assemble a bundled scenario by name (``ball`` included) or a scene
    file by path; returns ``(problem, v0, meta)`` as :func:`build_problem`
    does, so meta always holds ``h``, ``n_steps`` and ``m_trajectories``.
    A name that is neither bundled nor an existing file raises
    ``ValueError``, or ``FileNotFoundError`` if it looks like a path (it
    holds a ``/`` or ends in ``.json``)."""
    if str(source) == "ball":
        return build_ball()
    return build_problem(load_scene(source))


def build_ball() -> tuple[ImpactProblem, np.ndarray, dict]:
    """Minimal single-coordinate test case: a unit point mass dropping onto
    the floor at unit speed, with a degenerate (zero) tangential direction
    standing in for the frictionless tangent."""
    problem = ImpactProblem(
        mass=np.array([[1.0]]),
        jn=np.array([[1.0]]),
        jt=np.array([[0.0]]),
        mu=np.array([1.0]),
        labels=("ball",),
    )
    meta = {**RUN_DEFAULTS, "name": "ball"}
    return problem, np.array([-1.0]), meta


def reflect_map(name: str) -> np.ndarray:
    """Velocity-space involution of a mirror-symmetric bundled scene.

    For the flat-falling phone the map negates horizontal and angular
    velocity; for the disk stack it additionally swaps the two bottom
    disks.  Any other scene raises ValueError; unknown names as in :func:`load_scene`.
    """
    flip = np.diag([-1.0, 1.0, -1.0])
    if name == "phone":
        return flip.copy()
    if name == "disk_stack":
        out = np.zeros((9, 9))
        out[0:3, 3:6] = flip  # left <- mirrored right
        out[3:6, 0:3] = flip  # right <- mirrored left
        out[6:9, 6:9] = flip
        return out
    _scene_file(name)
    raise ValueError(f"scene {name!r} is not mirror-symmetric")


# ---------------------------------------------------------------------------
# Reading scene files


def scene_from_dict(data: dict) -> Scene:
    """Build a scene from its JSON form in one pass: ``_number``,
    ``_vector`` and ``_integer`` read every value as JSON gives it (a bool
    is not a number), and each reference is checked as the part that holds
    it is built.  An incomplete or inconsistent description raises
    :class:`SceneFormatError`."""
    if not isinstance(data, dict):
        raise SceneFormatError(f"a scene is a JSON object, got {type(data).__name__}")
    try:
        return _read_scene(data)
    except KeyError as exc:
        raise SceneFormatError(
            f"scene {data.get('name')!r}: missing field {exc.args[0]!r}"
        ) from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise SceneFormatError(f"scene {data.get('name')!r}: {exc}") from exc


def _number(where: str, value, *, positive: bool = False, bound: float = MAX_MAGNITUDE) -> float:
    """``value`` as a float: a JSON number, not a bool, finite, at most
    ``bound`` in magnitude and, if ``positive``, above 0."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or (
        positive and not value > 0.0
    ):
        above = " above 0" if positive else ""
        raise ValueError(f"{where} must be a finite number{above}, got {value!r}")
    # Compared as it is, so a JSON integer too large for a float is not converted.
    if not -math.inf < value < math.inf:
        raise ValueError(f"{where} must be finite, got {value!r}")
    if abs(value) > bound:
        raise ValueError(f"{where} must not exceed {bound:g} in magnitude, got {value!r}")
    return float(value)


def _vector(where: str, value, length: int, *, bound: float = MAX_MAGNITUDE) -> np.ndarray:
    """``value`` as a float array: a JSON list of ``length`` numbers, each
    read by :func:`_number`."""
    if not isinstance(value, list):
        raise ValueError(f"{where} must be a list of {length} numbers, got {value!r}")
    if len(value) != length:
        raise ValueError(f"{where} has shape ({len(value)},), expected ({length},)")
    return np.array([_number(where, entry, bound=bound) for entry in value])


def _integer(where: str, value, start: int, stop: float = math.inf) -> int:
    """``value`` as an int: a JSON integer, not a bool, in ``[start, stop)``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < start:
        raise ValueError(f"{where} must be an integer of at least {start}, got {value!r}")
    if value >= stop:
        raise ValueError(f"{where} {value} out of range")
    return int(value)


def _run_defaults(defaults: dict) -> dict:
    """A scene file's defaults over ``RUN_DEFAULTS``: ``h`` a number above
    0, the counts integers of at least 1."""
    filled = {**RUN_DEFAULTS, **defaults}
    filled["h"] = _number("default h", filled["h"], positive=True)
    for key in ("n_steps", "m_trajectories"):
        filled[key] = _integer(f"default {key}", filled[key], 1)
    return filled


def _read_body(index: int, entry: dict) -> PlanarBody:
    """Entry ``index`` of a rigid scene's ``bodies``."""
    where = f"body {index}"
    mass = _number(f"{where} mass and inertia", entry["mass"])
    inertia = _number(f"{where} mass and inertia", entry["inertia"])
    if not (mass > 0.0 and inertia > 0.0):
        raise ValueError(f"{where} mass and inertia must be positive, got {mass} and {inertia}")
    shape = entry["shape"]
    if shape["type"] == "disk":
        radius = _number(f"{where} radius", shape["radius"], positive=True)
        shape = {"type": "disk", "radius": radius}
    elif shape["type"] == "polygon":
        vertices = [
            _vector(f"{where} vertex {k}", vertex, 2) for k, vertex in enumerate(shape["vertices"])
        ]
        shape = {"type": "polygon", "vertices": vertices}
    else:
        raise ValueError(f"{where} shape type must be 'disk' or 'polygon', got {shape['type']!r}")
    pose = _vector(f"{where} pose", entry["pose"], 3)
    return PlanarBody(name=entry["name"], mass=mass, inertia=inertia, shape=shape, pose=pose)


def _read_contact(entry: dict, kind: str, bodies: list, planes: list) -> ContactSpec:
    """One entry of a scene's ``contacts``, its references checked against
    the bodies and planes already read."""
    label = entry["label"]
    if not isinstance(label, str):
        raise ValueError(f"contact labels must be strings, got {label!r}")
    if any("\ud800" <= c <= "\udfff" for c in label):  # a lone surrogate, which JSON reads
        raise ValueError(f"contact label {label!r} cannot be written as UTF-8")
    where = f"contact {label!r}"
    mu = _number(f"{where}: mu", entry["mu"])
    if not mu > 0.0:
        raise ValueError(f"{where}: mu must be positive, got {mu}")
    if kind == "linkage":
        leg = _integer(f"{where}: leg", entry["leg"], 0, 2)
        return ContactSpec(label=label, mu=mu, kind="foot-plane", body=0, leg=leg)
    kind = entry["kind"]
    if kind not in _CONTACT_KINDS:
        raise ValueError(f"{where}: unknown contact kind {kind!r}")
    body = _integer(f"{where}: body index", entry["body"], 0, len(bodies))
    plane = vertex = against = None
    if kind == "disk-disk":
        against = _integer(f"{where}: body index", entry["against"], 0, len(bodies))
    else:
        plane = entry["plane"]
        if not any(plane == p.name for p in planes):
            raise ValueError(f"{where}: no environment plane named {plane!r}")
    if kind == "vertex-plane":
        vertices = bodies[body].shape.get("vertices")
        if not vertices:
            raise ValueError(f"{where}: body {body} has no vertices")
        vertex = _integer(f"{where}: vertex index", entry["vertex"], 0, len(vertices))
    else:
        for index in (body,) if against is None else (body, against):
            if bodies[index].shape["type"] != "disk":
                raise ValueError(f"{where}: body {index} is not a disk")
    return ContactSpec(
        label=label, mu=mu, kind=kind, body=body, plane=plane, vertex=vertex, against=against
    )


def _read_scene(data: dict) -> Scene:
    # A file without a marker is read as the one format there is.
    marker = data.get("format", SCENE_FORMAT)
    if marker != SCENE_FORMAT:
        raise ValueError(f"scene format must be {SCENE_FORMAT!r}, got {marker!r}")
    name, kind = data["name"], data.get("kind", "rigid")
    # The CLI writes to ``<name>_<command>.<ext>`` by default.
    if not isinstance(name, str) or name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise ValueError(f"scene name must be a nonempty string and file-name stem, got {name!r}")
    if kind not in ("rigid", "linkage"):
        raise ValueError(f"scene kind must be 'rigid' or 'linkage', got {kind!r}")
    scene = Scene(name=name, kind=kind, defaults=_run_defaults(data.get("defaults", {})))
    if kind == "linkage":
        scene.linkage = {
            key: _number(f"linkage {key}", data["linkage"][key], positive=True)
            for key in ("leg_length", "mass_offset", "leg_mass")
        }
        if not scene.linkage["mass_offset"] < scene.linkage["leg_length"]:
            raise ValueError("linkage mass_offset must be smaller than leg_length")
        scene.pose = _vector("pose", data["pose"], 4)
    else:
        scene.bodies = [_read_body(index, entry) for index, entry in enumerate(data["bodies"])]
        for entry in data.get("environment", []):
            where = f"plane {entry['name']!r}"
            if any(plane.name == entry["name"] for plane in scene.environment):
                raise ValueError(f"{where} is named twice")
            point = _vector(f"{where} point", entry["point"], 2)
            # A normal gives only a direction: any finite size is read.
            normal = _vector(f"{where} normal", entry["normal"], 2, bound=math.inf)
            scene.environment.append(HalfPlane(name=entry["name"], point=point, normal=normal))
    scene.contacts = [
        _read_contact(entry, kind, scene.bodies, scene.environment) for entry in data["contacts"]
    ]
    if not scene.contacts:
        raise ValueError("a scene needs at least one contact")
    labels = [spec.label for spec in scene.contacts]
    if len(set(labels)) != len(labels):
        raise ValueError(f"contact labels must be distinct, got {labels}")
    scene.v0 = _vector("v0", data["v0"], scene.n_v)
    return scene
