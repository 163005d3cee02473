"""Robot description format: typed structure, YAML loading, tree validation.

A robot file is a YAML document:

    name: pend1
    gravity: [0.0, 0.0, -9.81]          # optional, defaults to (0, 0, -9.81)
    links:
      - name: arm
        mass: 1.0
        com: [0.5, 0.0, 0.0]            # in link frame
        inertia: [ixx, iyy, izz, ixy, ixz, iyz]   # about the com, link frame
    joints:
      - name: shoulder
        type: revolute                  # revolute | prismatic | fixed | floating
        parent: base
        child: arm
        origin: {xyz: [0, 0, 0], rpy: [0, 0, 0]}
        axis: [0, 1, 0]
        limits: {position: [-3.1, 3.1], velocity: 4.0, effort: 40.0}

The link/joint graph must be a tree rooted at a single base link.  At most one
floating joint is allowed and it must attach the base link to the reserved
parent name ``world``.  All units are SI, angles are radians.
"""

import numpy as np
import yaml

JOINT_TYPES = ("revolute", "prismatic", "fixed", "floating")
WORLD = "world"

_LINK_KEYS = {"name", "mass", "com", "inertia"}
_JOINT_KEYS = {"name", "type", "parent", "child", "origin", "axis", "limits"}
_TOP_KEYS = {"name", "gravity", "links", "joints"}


class DescriptionError(ValueError):
    """Raised for both parse errors (with line/column) and invariant violations."""


class LinkSpec:
    def __init__(self, name, mass, com, inertia):
        self.name = name
        self.mass = float(mass)
        self.com = np.asarray(com, dtype=float)
        self.inertia = np.asarray(inertia, dtype=float)

    @classmethod
    def from_dict(cls, d):
        _reject_unknown(d, _LINK_KEYS, f"links entry {d.get('name', '?')!r}")
        name = _require(d, "name", "links entry")
        mass = d.get("mass", 0.0)
        com = np.asarray(d.get("com", (0.0, 0.0, 0.0)), dtype=float)
        raw = d.get("inertia", (0.0,) * 6)
        if len(raw) != 6:
            raise DescriptionError(
                f"link {name!r}: inertia must be [ixx, iyy, izz, ixy, ixz, iyz]")
        ixx, iyy, izz, ixy, ixz, iyz = (float(x) for x in raw)
        inertia = np.array([
            [ixx, ixy, ixz],
            [ixy, iyy, iyz],
            [ixz, iyz, izz],
        ])
        return cls(name, mass, com, inertia)


class JointSpec:
    def __init__(self, name, jtype, parent, child, origin_xyz, origin_rpy,
                 axis, position_limits=None, velocity_limit=None, effort_limit=None):
        self.name = name
        self.type = jtype
        self.parent = parent
        self.child = child
        self.origin_xyz = np.asarray(origin_xyz, dtype=float)
        self.origin_rpy = np.asarray(origin_rpy, dtype=float)
        self.axis = np.asarray(axis, dtype=float)
        self.position_limits = position_limits  # (lo, hi) or None
        self.velocity_limit = velocity_limit
        self.effort_limit = effort_limit

    @classmethod
    def from_dict(cls, d):
        _reject_unknown(d, _JOINT_KEYS, f"joints entry {d.get('name', '?')!r}")
        name = _require(d, "name", "joints entry")
        jtype = _require(d, "type", f"joint {name!r}")
        if jtype not in JOINT_TYPES:
            raise DescriptionError(
                f"joint {name!r}: unknown type {jtype!r} (expected one of {JOINT_TYPES})")
        parent = _require(d, "parent", f"joint {name!r}")
        child = _require(d, "child", f"joint {name!r}")
        origin = d.get("origin", {})
        _reject_unknown(origin, {"xyz", "rpy"}, f"joint {name!r} origin")
        xyz = origin.get("xyz", (0.0, 0.0, 0.0))
        rpy = origin.get("rpy", (0.0, 0.0, 0.0))
        axis = d.get("axis", (0.0, 0.0, 1.0))
        limits = d.get("limits", {})
        _reject_unknown(limits, {"position", "velocity", "effort"}, f"joint {name!r} limits")
        pos = limits.get("position")
        if pos is not None:
            pos = (float(pos[0]), float(pos[1]))
        vel = limits.get("velocity")
        eff = limits.get("effort")
        return cls(name, jtype, parent, child, xyz, rpy, axis, pos,
                   None if vel is None else float(vel),
                   None if eff is None else float(eff))


class RobotDescription:
    """Validated tree of links and joints plus the world gravity vector."""

    def __init__(self, name, gravity, links, joints):
        self.name = name
        self.gravity = np.asarray(gravity, dtype=float)
        self.links = list(links)
        self.joints = list(joints)
        self._links_by_name = {l.name: l for l in self.links}
        self._joints_by_name = {j.name: j for j in self.joints}
        self._validate()

    # -- lookups ---------------------------------------------------------

    def link(self, name):
        try:
            return self._links_by_name[name]
        except KeyError:
            raise DescriptionError(f"unknown link {name!r}") from None

    def joint(self, name):
        try:
            return self._joints_by_name[name]
        except KeyError:
            raise DescriptionError(f"unknown joint {name!r}") from None

    @property
    def floating_joint(self):
        for j in self.joints:
            if j.type == "floating":
                return j
        return None

    @property
    def floating(self):
        return self.floating_joint is not None

    @property
    def real_joint_names(self):
        return [j.name for j in self.joints if j.type in ("revolute", "prismatic")]

    @property
    def root_link_name(self):
        children = {j.child for j in self.joints}
        roots = [l.name for l in self.links if l.name not in children]
        fj = self.floating_joint
        if fj is not None:
            return fj.child
        if len(roots) != 1:
            raise DescriptionError(
                f"link/joint graph must be a tree rooted at a single base link, "
                f"found roots {sorted(roots)}")
        return roots[0]

    # -- validation ------------------------------------------------------

    def _validate(self):
        names = [l.name for l in self.links]
        dup = _first_duplicate(names)
        if dup is not None:
            raise DescriptionError(f"duplicate link name {dup!r}")
        dup = _first_duplicate([j.name for j in self.joints])
        if dup is not None:
            raise DescriptionError(f"duplicate joint name {dup!r}")

        floats = [j for j in self.joints if j.type == "floating"]
        if len(floats) > 1:
            raise DescriptionError("at most one floating joint is allowed")
        if floats and floats[0].parent != WORLD:
            raise DescriptionError(
                f"floating joint {floats[0].name!r} must have parent {WORLD!r}")

        for j in self.joints:
            if j.parent != WORLD and j.parent not in self._links_by_name:
                raise DescriptionError(
                    f"joint {j.name!r}: unknown parent link {j.parent!r}")
            if j.child not in self._links_by_name:
                raise DescriptionError(
                    f"joint {j.name!r}: unknown child link {j.child!r}")
            if j.type in ("revolute", "prismatic"):
                n = np.linalg.norm(j.axis)
                if abs(n - 1.0) > 1e-9:
                    raise DescriptionError(
                        f"joint {j.name!r}: non-unit axis (norm {n:.12f})")

        parent_joint = {}
        for j in self.joints:
            if j.child in parent_joint:
                raise DescriptionError(
                    f"link {j.child!r} is the child of more than one joint")
            parent_joint[j.child] = j

        # cycle / reachability check: walk to the root from every link
        root = self.root_link_name
        for l in self.links:
            seen = set()
            cur = l.name
            while cur != root and cur != WORLD:
                if cur in seen:
                    raise DescriptionError(
                        f"cycle detected through link {cur!r}")
                seen.add(cur)
                j = parent_joint.get(cur)
                if j is None:
                    raise DescriptionError(
                        f"link {cur!r} is not connected to the base link {root!r}")
                cur = j.parent

        for l in self.links:
            if l.mass < 0.0:
                raise DescriptionError(f"link {l.name!r}: negative mass")
            if np.abs(l.inertia - l.inertia.T).max() > 1e-12:
                raise DescriptionError(f"link {l.name!r}: inertia not symmetric")


# libyaml's safe loader when PyYAML was built with it: the same documents,
# parsed about eight times faster than by the pure-Python one
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def parse_yaml(text, error):
    """The YAML document in ``text``; a parse error raises ``error`` with
    its line and column."""
    try:
        return yaml.load(text, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            raise error(
                f"parse error at line {mark.line + 1}, column {mark.column + 1}: "
                f"{getattr(exc, 'problem', exc)}") from exc
        raise error(f"parse error: {exc}") from exc


def load_description(text):
    """Parse and validate a robot description document."""
    doc = parse_yaml(text, DescriptionError)
    if not isinstance(doc, dict):
        raise DescriptionError("document must be a mapping")
    _reject_unknown(doc, _TOP_KEYS, "document")
    name = doc.get("name", "robot")
    gravity = doc.get("gravity", (0.0, 0.0, -9.81))
    if len(gravity) != 3:
        raise DescriptionError("gravity must be a 3-vector")
    links = [LinkSpec.from_dict(d) for d in doc.get("links", [])]
    joints = [JointSpec.from_dict(d) for d in doc.get("joints", [])]
    if not links:
        raise DescriptionError("description declares no links")
    return RobotDescription(name, gravity, links, joints)


def load_description_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return load_description(fh.read())


def _require(d, key, where):
    if key not in d:
        raise DescriptionError(f"{where}: missing required key {key!r}")
    return d[key]


def _reject_unknown(d, allowed, where):
    if not isinstance(d, dict):
        raise DescriptionError(f"{where}: expected a mapping")
    unknown = set(d) - allowed
    if unknown:
        raise DescriptionError(f"{where}: unknown key(s) {sorted(unknown)}")


def _first_duplicate(names):
    seen = set()
    for n in names:
        if n in seen:
            return n
        seen.add(n)
    return None
