"""Declarative scenario configs: YAML schema, validation, serialization.

A scenario fully determines a run: robot count and coordination edges,
mode, per-robot initial conditions and desired-trajectory profiles, the
diagonal gain vectors, integration step and horizon, and trace sampling.
Gains may be given per robot (3, 2, or 6 numbers broadcast to all robots)
or in full stacked form. See the README for an annotated example.

Loading reads the text, or a file's bytes (decoded by YAML's rules), in
one of two ways, and the document and every error are those of
``yaml.load`` with ``_LOADER``, libyaml's loader when PyYAML has it:

- the block reader (``_block_document``) reads, line by line, the block
  layout ``yaml.safe_dump`` writes for a plain document (maps with word
  keys, sequences, anchors and aliases, and string, decimal integer and
  float scalars), as every scenario formsim writes is, in ASCII;
- ``yaml.load`` takes any other text (flow style, comments, CRLF line
  ends, a boolean, a null, a tag, a parse error), and every text under a
  path resolver.

The block reader declines what it does not read, by the text's form
alone, and passes it on unchanged. Fields are then checked without numpy
when they are flat lists of Python numbers, through numpy otherwise, with
the same errors either way. A bool or a null is never a number: YAML
reads ``yes``, ``on`` and ``true`` as booleans and ``~`` as a null, and
numpy would read them as 1 and nan. Plant masses and inertias are finite
and positive like every other positive number.
"""

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .adaptive import RobotParams
from .graph import GraphError, validate_spanning_tree
from .trajectory import _MAX_STEPS, ConstantTwist, SampledTwist, \
    SingularSpeed

__all__ = [
    "ParseError",
    "SchemaError",
    "ValidationError",
    "RobotSpec",
    "ScenarioConfig",
    "load_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "serialize_scenario",
]


# libyaml's parser when PyYAML was built with it; the constructor, and so
# the parsed document, is the same either way.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_STR, _INT, _FLOAT = (f"tag:yaml.org,2002:{kind}"
                      for kind in ("str", "int", "float"))


# Deeper nesting is left to yaml.load, whose pure-Python composer recurses
# per level and so, well past this depth, raises RecursionError.
_MAX_DEPTH = 100

# One line of the block layout yaml.safe_dump writes: its indent, the
# "- " entries it opens, a key (well inside YAML's 1024 characters for a
# simple key), and then an anchor or alias, or a plain scalar of word
# characters, dots and signs (empty where a block follows).
_BLOCK_LINE = re.compile(r"^(?=.)( *)((?:- )*)(?:(\w{1,128}):(?:$| (?!$)))?"
                         r"(?:([&*])(\w+)|((?!-$)[\w.+-]*))$",
                         re.ASCII | re.MULTILINE)


def _load_yaml(text):
    """``yaml.load(text, Loader=_LOADER)``: the same document, or the same
    exception. The block layout yaml.safe_dump writes is read line by
    line; any other text goes to ``yaml.load``, as all do under a path
    resolver."""
    if not _LOADER.yaml_path_resolvers:
        doc = _block_document(text)
        if doc is not None:
            return doc
    return yaml.load(text, Loader=_LOADER)


def _resolvers():
    """The loader's implicit resolvers, by a plain scalar's first
    character, each list followed by those that take any first one."""
    table = _LOADER.yaml_implicit_resolvers
    wild = tuple(table.get(None, ()))
    return {c: tuple(resolvers) + wild for c, resolvers in table.items()
            if c is not None}, wild


def _plain_scalar(value, key, resolvers):
    """What ``yaml.load`` makes of the plain scalar ``value``, resolved by
    ``resolvers``, when it is plain: a str, or, unless it is a map's
    ``key``, an int (decimal, no leading 0) or a float (one ``float``
    reads, not nan). Else raises ``yaml.YAMLError``."""
    first, wild = resolvers
    for tag, regexp in first.get(value[:1], wild):
        if regexp.match(value):
            break
    else:
        return value
    if tag == _STR:
        return value
    if not key and tag == _FLOAT:
        try:
            obj = float(value)
        except ValueError:          # .inf, sexagesimal, or an error
            raise yaml.YAMLError from None
        if obj == obj:
            return obj
    elif not key and tag == _INT and value.isdecimal() \
            and (value[0] != "0" or value == "0"):
        try:                        # a leading 0 is octal in YAML 1.1
            return int(value)
        except ValueError:          # past the interpreter's digit limit
            pass
    raise yaml.YAMLError


def _block_document(text):
    """What ``yaml.load`` builds from ``text``, a str or ASCII bytes, when
    it is in the block layout ``yaml.safe_dump(..., sort_keys=False)``
    writes for a plain document, nested at most ``_MAX_DEPTH`` deep: a
    root map; word keys; ``key: value``, or ``key:`` and the block that
    follows, a map two columns in or a sequence at the key's column;
    compact ``- - x`` and ``- key: v`` entries; ``&name`` after a key or
    a dash, before the block it names, and ``*name`` for the object that
    block built. Scalars are resolved as ``_plain_scalar`` resolves them.
    Any other text, in any line, is declined: returns None."""
    if text.__class__ is bytes and text.isascii():
        text = text.decode("ascii")
    if text.__class__ is not str or not text.endswith("\n"):
        return None
    rows = _BLOCK_LINE.findall(text)
    if len(rows) != text.count("\n"):      # a line of another form
        return None
    resolvers = _resolvers()
    root, scalars, anchors = {}, {}, {}
    # the open containers, innermost last, each with its column: a map's
    # keys', or a sequence's dashes'
    stack = [(root, 0)]

    def enter(obj, col, opening):
        # the block ``opening`` waits for, as ``obj`` starting at ``col``:
        # the container it goes in, its key there (None in a sequence),
        # the columns it starts at as a sequence and as a map, its anchor
        holder, slot, seq_col, map_col, anchor = opening
        if col != (seq_col if obj.__class__ is list else map_col) \
                or anchor in anchors or len(stack) == _MAX_DEPTH:
            raise yaml.YAMLError
        if slot is None:
            holder.append(obj)
        else:
            holder[slot] = obj
        if anchor:
            anchors[anchor] = obj
        stack.append((obj, col))
        return obj

    opening = None
    try:
        for indent, dashes, key, sigil, name, value in rows:
            col = len(indent)
            if opening is None:
                # close what the line is left of, and a key closes an
                # indentless sequence at its column
                top, at = stack[-1]
                while at > col or (at == col and not dashes
                                   and top.__class__ is list):
                    stack.pop()
                    top, at = stack[-1]
                if at != col or (top.__class__ is list) != bool(dashes):
                    return None
            # a dash is an entry whose block starts two columns on, where
            # a further dash or a key opens it
            for _ in range(len(dashes) // 2):
                if opening is not None:
                    top = enter([], col, opening)
                opening = top, None, col + 2, col + 2, ""
                col += 2
            if key:
                if opening is not None:
                    top = enter({}, col, opening)
                    opening = None
                if scalars.get(key).__class__ is not str:
                    scalars[key] = _plain_scalar(key, True, resolvers)
            elif not dashes:
                return None
            if sigil == "*":
                obj = anchors.get(name)
                if obj is None:
                    return None
            elif value:
                obj = scalars.get(value)
                if obj is None:
                    obj = scalars[value] = _plain_scalar(value, False,
                                                         resolvers)
            elif key:
                opening = top, key, col, col + 2, name
                continue
            elif sigil:
                opening = (*opening[:4], name)
                continue
            else:
                return None
            if key:
                top[key] = obj
            else:
                top.append(obj)
                opening = None
    except yaml.YAMLError:          # a block out of place, or a scalar
        return None                 # that is not plain
    return None if opening is not None else root


class ParseError(ValueError):
    """Input is not well-formed YAML, or not decodable as YAML text."""


class SchemaError(ValueError):
    """Missing or wrongly typed fields."""


class ValidationError(ValueError):
    """Structurally valid config with inconsistent content."""


@dataclass(frozen=True)
class RobotSpec:
    """One robot's initial conditions, plant parameters, and profile."""

    start: tuple
    profile: object
    start_twist: tuple = None
    estimate0: tuple = None
    params: RobotParams = None


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    unit: str
    mode: str
    n: int
    tree: object
    robots: tuple
    formation_gain: tuple
    dt: float
    t_final: float
    sample_every: int
    twist_gain: tuple = None
    adapt_gain: tuple = None
    threshold: float = None

    @property
    def steps(self):
        """The run's step count: t_final in whole steps of dt."""
        return _step_count(self.t_final, self.dt)


def _step_count(t, dt):
    """Whole steps of dt in t; step k of a run starts at k dt."""
    return round(t / dt)


def _need(d, key, context):
    if not isinstance(d, dict):
        raise SchemaError(f"{context}: expected a mapping, got "
                          f"{type(d).__name__}")
    if key not in d:
        raise SchemaError(f"missing field {key!r} in {context}")
    return d[key]


_NUMBER = frozenset((int, float))
_TABLE = ("times", "twists", "rates")


def _plain(value):
    """The numbers of ``value`` as floats when it is a flat list or tuple
    of Python ints and floats (a bool is neither), else None."""
    if (value.__class__ is list or value.__class__ is tuple) \
            and _NUMBER.issuperset(map(type, value)):
        try:
            return list(map(float, value))
        except OverflowError:       # an int beyond float: _array's error
            pass
    return None


def _floats(value, length, context):
    arr = _plain(value)
    if arr is None:
        arr = _array(value, context).reshape(-1).tolist()
    if len(arr) != length:
        raise SchemaError(f"{context}: expected {length} values, "
                          f"got {len(arr)}")
    if not all(map(math.isfinite, arr)):
        raise ValidationError(f"{context}: values must be finite")
    return tuple(arr)


def _scalar(value, context):
    """One finite number: SchemaError when ``value`` is not a number (a
    bool is not one), ValidationError when it is not finite, as an int
    beyond float range is not."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError("a bool is not a number")
        x = float(value)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{context}: expected a number, got {value!r}") \
            from exc
    except OverflowError:
        x = math.inf if value > 0 else -math.inf
    if not math.isfinite(x):
        raise ValidationError(f"{context}: value must be finite, got {x}")
    return x


def _whole(value, context):
    """One whole number (see ``_scalar``); ValidationError for a fraction."""
    x = _scalar(value, context)
    if not x.is_integer():
        raise ValidationError(f"{context}: expected a whole number, "
                              f"got {x:g}")
    return int(x)


def _positive(value, context):
    """One finite, positive number (see ``_scalar``)."""
    x = _scalar(value, context)
    if not x > 0:
        raise ValidationError(f"{context} must be positive, got {x:g}")
    return x


def _gain(value, n, width, context):
    """Accept one per-robot block of ``width`` gains or the full vector."""
    flat = _plain(value)
    if flat is None:
        flat = _array(value, context).reshape(-1).tolist()
    if len(flat) not in (width, width * n):
        raise SchemaError(f"{context}: expected {width} or {width * n} "
                          f"values, got {len(flat)}")
    if not all(0.0 < v < math.inf for v in flat):
        raise ValidationError(f"{context}: gains must be positive")
    # one per-robot block stands for every robot's
    return tuple(flat) * (n if len(flat) == width else 1)


def _array(value, context):
    """``value`` as a float array; SchemaError when it is not numbers,
    or holds a bool or a None, which numpy would read as 0 or 1 or as
    nan, ValidationError when it holds an int beyond float range."""
    try:
        arr = np.asarray(value, dtype=float)
        cause = None
    except (TypeError, ValueError) as exc:
        cause = exc
    except OverflowError as exc:
        raise ValidationError(f"{context}: values must be finite") from exc
    if cause is not None or _holds_bool(value):
        raise SchemaError(f"{context}: expected numbers, got {value!r}") \
            from cause
    return arr


def _holds_bool(value):
    # called on what numpy took for numbers, so its nesting is shallow;
    # a row of plain numbers is passed over at once
    if isinstance(value, (list, tuple)):
        return not _NUMBER.issuperset(map(type, value)) \
            and any(map(_holds_bool, value))
    return value is None or isinstance(value, (bool, np.bool_))


def _profile_from_dict(d, context, tables):
    """The profile ``d`` describes. ``tables`` maps the ids of a sampled
    table's times, twists and rates, which the document holds, to a
    profile built from them: at its grid_dt, its checked arrays serve."""
    kind = _need(d, "kind", context)
    if kind == "constant_twist":
        start = _floats(_need(d, "start", context), 3, f"{context}.start")
        twist = _floats(_need(d, "twist", context), 2, f"{context}.twist")
        make = ConstantTwist
        kwargs = {"pose0": start, "v": twist[0], "omega": twist[1]}
    elif kind == "sampled_twist":
        make = SampledTwist
        kwargs = {"pose0": _floats(_need(d, "start", context), 3,
                                   f"{context}.start")}
        ids = tuple(id(d.get(key)) for key in _TABLE)
        if ids in tables and tables[ids].grid_dt == _scalar(
                d.get("grid_dt", SampledTwist.grid_dt), f"{context}.grid_dt"):
            make = tables[ids].started_at
        else:
            for key in _TABLE:
                kwargs[key] = arr = _array(_need(d, key, context),
                                           f"{context}.{key}").view()
                arr.flags.writeable = False
            if "grid_dt" in d:
                kwargs["grid_dt"] = _scalar(d["grid_dt"],
                                            f"{context}.grid_dt")
    else:
        raise SchemaError(f"{context}: unknown trajectory kind {kind!r}")
    try:
        profile = make(**kwargs)
    except SingularSpeed:
        raise
    except ValueError as exc:
        raise ValidationError(f"{context}: {exc}") from exc
    if make is SampledTwist:
        tables[ids] = profile
    return profile


def _profile_to_dict(p):
    if isinstance(p, ConstantTwist):
        return {"kind": "constant_twist", "start": list(p.pose0),
                "twist": [p.v, p.omega]}
    return {"kind": "sampled_twist", "start": list(p.pose0),
            "times": p.times.tolist(), "twists": p.twists.tolist(),
            "rates": p.rates.tolist(), "grid_dt": p.grid_dt}


def scenario_from_dict(doc):
    if not isinstance(doc, dict):
        raise SchemaError(f"top level must be a mapping, got "
                          f"{type(doc).__name__}")
    mode = _need(doc, "mode", "config")
    if mode not in ("kinematic", "dynamic"):
        raise SchemaError(f"mode must be kinematic or dynamic, got {mode!r}")
    robots_doc = _need(doc, "robots", "config")
    if not isinstance(robots_doc, list) or not robots_doc:
        raise SchemaError("robots must be a non-empty list")
    n = len(robots_doc)
    if "n" in doc and _whole(doc["n"], "n") != n:
        raise ValidationError(f"n={doc['n']} but {n} robots listed")
    edges_doc = doc.get("edges", [])
    if not isinstance(edges_doc, (list, tuple)):
        raise SchemaError("edges must be a list of [parent, child] pairs")
    edges = []
    for idx, e in enumerate(edges_doc, start=1):
        ctx = f"edges[{idx}]"
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise SchemaError(f"{ctx}: expected a [parent, child] pair, "
                              f"got {e!r}")
        edges.append((_whole(e[0], ctx), _whole(e[1], ctx)))

    try:
        tree = validate_spanning_tree(n, edges)
    except GraphError as exc:
        raise ValidationError(f"bad coordination graph: {exc}") from exc

    dt = _positive(_need(doc, "dt", "config"), "dt")
    t_final = _positive(_need(doc, "t_final", "config"), "t_final")
    if not t_final / dt < _MAX_STEPS:
        raise ValidationError(f"dt {dt:g} takes t_final / dt = "
                              f"{t_final / dt:g} steps, not below 2**53")
    if _step_count(t_final, dt) < 1:
        raise ValidationError(f"t_final {t_final:g} rounds to no whole "
                              f"step of dt {dt:g}")
    sample_every = _whole(doc.get("sample_every", 10), "sample_every")
    if sample_every < 1:
        raise ValidationError(f"sample_every must be at least 1, "
                              f"got {sample_every}")
    threshold = doc.get("threshold")
    if threshold is not None:
        threshold = _positive(threshold, "threshold")

    gains = _need(doc, "gains", "config")
    formation_gain = _gain(_need(gains, "formation", "gains"), n, 3,
                           "gains.formation")
    twist_gain = adapt_gain = None
    if mode == "dynamic":
        twist_gain = _gain(_need(gains, "twist", "gains"), n, 2,
                           "gains.twist")
        adapt_gain = _gain(_need(gains, "adaptation", "gains"), n, 6,
                           "gains.adaptation")

    # A table must reach the run's last step, round(t_final / dt) dt. Meant
    # to end there, it is parted from that product by three roundings, of
    # dt, of the product and of its own last time, each within u of it.
    end = _step_count(t_final, dt) * dt
    reach = end * (1 - 3 * 2.0 ** -53)
    robots, tables = [], {}
    for idx, rd in enumerate(robots_doc, start=1):
        ctx = f"robots[{idx}]"
        try:
            profile = _profile_from_dict(_need(rd, "trajectory", ctx),
                                         f"{ctx}.trajectory", tables)
        except SingularSpeed as exc:
            raise SingularSpeed(f"{ctx}: {exc}") from exc
        if isinstance(profile, SampledTwist) and profile.span < reach:
            raise ValidationError(
                f"{ctx}.trajectory: sampled trajectory spans "
                f"{profile.span:g} < {end:g}, t_final {t_final:g} rounded "
                f"to whole steps of dt {dt:g}")
        start = _floats(_need(rd, "start", ctx), 3, f"{ctx}.start")
        if mode == "kinematic":
            robots.append(RobotSpec(start=start, profile=profile))
            continue
        twist0 = _floats(rd.get("start_twist", (0.0, 0.0)), 2,
                         f"{ctx}.start_twist")
        est0 = _floats(rd.get("estimate0", (0.0,) * 6), 6,
                       f"{ctx}.estimate0")
        pd = _need(rd, "params", ctx)
        mass, inertia, damping = (_need(pd, key, f"{ctx}.params")
                                  for key in ("mass", "inertia", "damping"))
        mass = _positive(mass, f"{ctx}.params.mass")
        inertia = _positive(inertia, f"{ctx}.params.inertia")
        damping = _array(damping, f"{ctx}.params.damping")
        try:
            params = RobotParams(mass=mass, inertia=inertia, damping=damping)
        except ValueError as exc:
            raise ValidationError(f"{ctx}.params: {exc}") from exc
        robots.append(RobotSpec(start=start, profile=profile,
                                start_twist=twist0, estimate0=est0,
                                params=params))

    return ScenarioConfig(
        name=str(doc.get("name", "scenario")), unit=str(doc.get("unit", "m")),
        mode=mode, n=n, tree=tree, robots=tuple(robots),
        formation_gain=formation_gain, twist_gain=twist_gain,
        adapt_gain=adapt_gain, dt=dt, t_final=t_final,
        sample_every=sample_every, threshold=threshold,
    )


def scenario_to_dict(config):
    doc = {
        "name": config.name,
        "unit": config.unit,
        "mode": config.mode,
        "n": config.n,
        "edges": [list(e) for e in config.tree.edges],
        "dt": config.dt,
        "t_final": config.t_final,
        "sample_every": config.sample_every,
        "gains": {"formation": list(config.formation_gain)},
        "robots": [],
    }
    if config.threshold is not None:
        doc["threshold"] = config.threshold
    if config.mode == "dynamic":
        doc["gains"]["twist"] = list(config.twist_gain)
        doc["gains"]["adaptation"] = list(config.adapt_gain)
    for spec in config.robots:
        rd = {"start": list(spec.start),
              "trajectory": _profile_to_dict(spec.profile)}
        if config.mode == "dynamic":
            rd["start_twist"] = list(spec.start_twist)
            rd["estimate0"] = list(spec.estimate0)
            rd["params"] = {"mass": spec.params.mass,
                            "inertia": spec.params.inertia,
                            "damping": spec.params.damping.tolist()}
        doc["robots"].append(rd)
    return doc


def serialize_scenario(config):
    return yaml.safe_dump(scenario_to_dict(config), sort_keys=False)


def load_scenario(source, overrides=None):
    """Load a config from a file, given as a ``Path``, or from YAML text,
    given as a ``str`` (a string is never taken for a file name).
    ``overrides`` maps top-level fields (say ``t_final``) to values that
    replace the text's before the config is validated. A file is decoded
    as YAML is (UTF-8, or UTF-16 with a BOM), whatever the locale. Faults
    raise ParseError, SchemaError, ValidationError or SingularSpeed."""
    text = source.read_bytes() if isinstance(source, Path) else source
    try:
        doc = _load_yaml(text)
    except yaml.YAMLError as exc:
        raise ParseError(f"config is not valid YAML: {exc}") from exc
    except (ValueError, LookupError, AttributeError) as exc:
        # PyYAML's constructors raise these untyped for a tagged scalar
        # they cannot build, such as !!int abc or !!float ""
        raise ParseError(f"config has a value YAML cannot construct: "
                         f"{type(exc).__name__}: {exc}") from exc
    if overrides and isinstance(doc, dict):
        doc = {**doc, **overrides}
    return scenario_from_dict(doc)
