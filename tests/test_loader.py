"""The scenario loader's YAML construction against ``yaml.load``.

``scenario._load_yaml`` builds a document whose nodes are all plain (maps
with string keys, sequences, and string, decimal integer and float
scalars) straight from the parser's events, resolving untagged scalars
by the loader's own resolver table, and gives any other text to
``yaml.load``. For every text it must return what ``yaml.load`` returns,
with the same types, the same aliasing and the same recursion, or raise
the same exception with the same message, under the pure-Python and the
libyaml loaders alike. Every scenario formsim writes is plain, so each is
parsed once and none reaches the constructor.
"""

import importlib.util
import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import formsim as fs
import formsim.scenario as scenario

LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader]
                               if hasattr(yaml, "CSafeLoader") else [])

# Plain, quoted and tagged scalars whose YAML 1.1 reading is easy to get
# wrong: underscores, sexagesimals, infinities and nans, hex and octal,
# booleans, nulls, dates, the value key, and explicit tags, some of which
# fail to construct.
SCALARS = [
    "1_000.5", "1:30", "-1:30", "190:20:30.15", ".inf", "-.Inf", "+.INF",
    "-.NaN", ".nan", "0x1F", "-0x1f", "017", "-017", "0", "-0", "0b101",
    "+12", "-3", "12_345", "1.5", "-0.0", "1e5", "1.5e+3", "6.8523015e-5",
    "yes", "on", "No", "OFF", "true", "~", "null", "", "''", '"1.5"',
    "'017'", '"yes"', "!!float 1", "!!float '-.5'", "!!float abc",
    "!!float ''", "!!float -nan", "!!float 1__0", "!!float ' 2'",
    "!!str 3", "!!str", "!!int '12'", "!!int abc", "!!int ''",
    "!!int '-0_17'", "!!int ' 7'", "!!bool yes", "!!null ''", "2001-12-14",
    "=", "abc", "start", "!!binary aGk=", "!!python/tuple [1]",
    "!!set {a, b}", "!!omap [a: 1, b: 2]", "!!pairs [a: 1, a: 2]",
    "!custom x", "&x 5", "*x", "<<",
]
KEYS = ["a", "b", "start", "1", "1.0", "yes", "~", "<<", "=", "'a'",
        "!!str 7", "!!int 7"]
ANCHORS = ["a0", "a1", "a2"]


def _nodes(anchors):
    """Flow-style YAML node texts: scalars, aliases of ``anchors``,
    sequences and maps (merge keys, duplicate keys, and alias and
    collection keys, which are unhashable unless they alias a scalar)."""
    aliases = [f"*{a} " for a in anchors]
    leaves = st.sampled_from(SCALARS + aliases)

    def grow(children):
        keys = st.one_of(st.sampled_from(KEYS + aliases), children)
        seqs = st.lists(children, max_size=4).map(
            lambda items: "[" + ", ".join(items) + "]")
        maps = st.lists(st.tuples(keys, children), max_size=4).map(
            lambda pairs: "{" + ", ".join(f"{k}: {v}" for k, v in pairs)
            + "}")
        return st.one_of(seqs, maps)

    return st.recursive(leaves, grow, max_leaves=10)


@st.composite
def texts(draw):
    """Empty text, one node (bare or opened with ---), two documents, or
    a block mapping whose first values define the anchors in turn, each
    aliasing itself and the ones before it, and whose later values
    alias any of them."""
    form = draw(st.sampled_from(["empty", "node", "marked", "two",
                                 "anchored", "anchored"]))
    if form == "empty":
        return draw(st.sampled_from(["", "\n", "# nothing\n", "---\n"]))
    if form == "node":
        return draw(_nodes([])) + "\n"
    if form == "marked":
        return f"--- {draw(_nodes([]))}\n"
    if form == "two":
        return f"{draw(_nodes([]))}\n---\n{draw(_nodes([]))}\n"
    keys = st.sampled_from(KEYS)
    lines = [f"{draw(keys)}: &{a} {draw(_nodes(ANCHORS[:i + 1]))}"
             for i, a in enumerate(ANCHORS)]
    lines += [f"{draw(keys)}: {value}"
              for value in draw(st.lists(_nodes(ANCHORS), max_size=3))]
    return "\n".join(lines) + "\n"


def _same(a, b, pairs):
    """Whether a and b are equal with equal types, nans equal, and the
    same aliasing: each container of a pairs with one container of b."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if not isinstance(a, (list, tuple, dict, set)):
        return a == b
    if id(a) in pairs:
        return pairs[id(a)] is b
    pairs[id(a)] = b
    if len(a) != len(b):
        return False
    if isinstance(a, dict):
        return all(_same(ka, kb, pairs) and _same(va, vb, pairs)
                   for (ka, va), (kb, vb) in zip(a.items(), b.items()))
    if isinstance(a, set):
        return all(any(_same(x, y, {}) for y in b) for x in a)
    return all(_same(x, y, pairs) for x, y in zip(a, b))


def _outcome(load, text):
    """("ok", document) or ("raised", type, message)."""
    try:
        return ("ok", load(text))
    except Exception as exc:     # every exception yaml.load can raise
        return ("raised", type(exc), str(exc))


def _assert_agrees(text, loader):
    want = _outcome(lambda t: yaml.load(t, Loader=loader), text)
    scenario._LOADER = loader
    got = _outcome(scenario._load_yaml, text)
    if want[0] == "raised":
        assert got == want, text
    else:
        assert got[0] == "ok" and _same(want[1], got[1], {}), text


@pytest.fixture
def restore_loader(monkeypatch):
    monkeypatch.setattr(scenario, "_LOADER", scenario._LOADER)


@pytest.mark.usefixtures("restore_loader")
@pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
@settings(max_examples=300, deadline=None)
@given(text=texts())
def test_loader_agrees_with_yaml_load(loader, text):
    _assert_agrees(text, loader)


@pytest.mark.usefixtures("restore_loader")
@pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("text", [
    "&r [1, *r]",                              # a recursive sequence
    "&r {a: *r, b: [*r]}",                     # a recursive map
    "&r {*r: 1}",                              # ... as its own key
    "&r {<<: *r, a: 1}",                       # ... merged into itself
    "base: &b {x: 1, y: 2}\nmore: {<<: *b, y: 3}\n",
    "m: {<<: [&p {a: 1}, {b: 2}], c: 3}\n",
    "m: {<<: 5}\n",                            # not a map to merge
    "a: 1\na: 2\n1: x\n1.0: y\n",              # duplicate keys
    "{[1, 2]: x}\n",                           # an unhashable key
    "a: 1\n---\nb: 2\n",                       # two documents
    "a: *missing\n",
    "[!!int abc, !!float '']\n",               # errors, first one wins
    "{a: [!!float ''], b: !!int abc}\n",       # in the loader's order
    "x: = \n",
], ids=repr)
def test_loader_agrees_on_edge_cases(loader, text):
    _assert_agrees(text, loader)


@pytest.mark.usefixtures("restore_loader")
@pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
def test_loader_keeps_custom_resolvers(loader):
    # a path resolver sends the text to yaml.load, and an implicit
    # resolver added to a loader class is honoured by the event builder
    # as by the composer; either tag has no constructor
    class PathLoader(loader):
        pass

    class ColorLoader(loader):
        pass

    PathLoader.add_path_resolver("!port", [(dict, "port")], str)
    ColorLoader.add_implicit_resolver("!color", re.compile(r"^rgb\(\d+\)$"),
                                      ["r"])
    for custom, text in [(PathLoader, "port: abc\n"),
                         (PathLoader, "other: abc\n"),
                         (ColorLoader, "a: rgb(1)\n"),
                         (ColorLoader, "a: red\n")]:
        _assert_agrees(text, custom)
    for custom, text, tag in [(PathLoader, "port: abc\n", "!port"),
                              (ColorLoader, "a: rgb(1)\n", "!color")]:
        scenario._LOADER = custom
        with pytest.raises(yaml.YAMLError, match=tag):
            scenario._load_yaml(text)


def _sampled_text(robots):
    # robots sharing one anchored table, as yaml.safe_dump writes a list
    # object that several robots hold
    ts = [0.0, 0.3, 0.6, 1.0]
    table = {"times": ts, "twists": [[1.0, 0.2]] * 4,
             "rates": [[0.0, 0.0]] * 4}
    return yaml.safe_dump({
        "mode": "kinematic",
        "edges": [[1, k] for k in range(2, robots + 1)],
        "dt": 0.01, "t_final": 0.5,
        "gains": {"formation": [1.0, 1.0, 1.0]},
        "robots": [{"start": [0.1 * k, 0.0, 0.0],
                    "trajectory": {"kind": "sampled_twist",
                                   "start": [0.1 * k, 0.0, 0.0], **table}}
                   for k in range(robots)]})


@pytest.mark.usefixtures("restore_loader")
@pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
def test_loader_agrees_on_scenarios(loader):
    texts = [fs.serialize_scenario(fs.get_preset(name))
             for name in fs.preset_names()]
    texts.append(_sampled_text(4))
    assert "*id001" in texts[-1]
    for text in texts:
        _assert_agrees(text, loader)


def _arrays(engine):
    cfg = engine.config
    for spec in cfg.robots:
        p = spec.profile
        if isinstance(p, fs.SampledTwist):
            yield from (p.times, p.twists, p.rates)
        if spec.params is not None:
            yield spec.params.damping
    for _, _, path, starts in engine.profiles._groups:
        yield from (path, starts)


def test_two_loads_share_no_arrays():
    # nothing is kept from one load to the next: the same text loads into
    # equal configs that hold no array in common
    for text in [_sampled_text(4),
                 fs.serialize_scenario(fs.get_preset("adaptive-pentagon"))]:
        first, second = (fs.Engine(fs.load_scenario(text)) for _ in range(2))
        assert fs.scenario_to_dict(first.config) \
            == fs.scenario_to_dict(second.config)
        ours = list(_arrays(first))
        assert ours
        for a in ours:
            for b in _arrays(second):
                assert not np.shares_memory(a, b)


def _tree_text(robots):
    # a random recursive tree sharing one constant twist, as the
    # benchmark's tree-200 workload writes it
    rng = np.random.default_rng(0)
    return yaml.safe_dump({
        "mode": "kinematic", "n": robots,
        "edges": [[int(rng.integers(1, j)), j]
                  for j in range(2, robots + 1)],
        "dt": 0.01, "t_final": 0.05, "sample_every": 10,
        "gains": {"formation": [1.0, 1.0, 2.0]},
        "robots": [{"start": rng.normal(size=3).tolist(),
                    "trajectory": {"kind": "constant_twist",
                                   "start": rng.normal(size=3).tolist(),
                                   "twist": [1.0, 0.2]}}
                   for _ in range(robots)]}, sort_keys=False)


@pytest.mark.usefixtures("restore_loader")
@pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
def test_only_documents_with_other_nodes_reach_the_constructor(
        loader, monkeypatch):
    calls = []
    construct = loader.construct_document

    def counted(self, node):
        calls.append(node)
        return construct(self, node)

    monkeypatch.setattr(loader, "construct_document", counted)
    scenario._LOADER = loader
    kinematic = fs.serialize_scenario(fs.get_preset("kinematic-pentagon"))
    plain = [fs.serialize_scenario(fs.get_preset(name))
             for name in fs.preset_names()]
    plain += [_sampled_text(4), _tree_text(200)]
    for text in plain:
        scenario._load_yaml(text)
    assert calls == []
    # !!int 7 would be plain: the tag is the one 7 resolves to
    for extra in ["note: yes\n", "note: ~\n", "note: {<<: {a: 1}}\n",
                  "note: !!int 0x1F\n"]:
        calls.clear()
        doc = scenario._load_yaml(kinematic + extra)
        assert len(calls) == 1, extra
        assert doc == yaml.load(kinematic + extra, Loader=loader)


def _workloads():
    """The benchmark's scenario generators, perfbench/workloads.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.usefixtures("restore_loader")
@pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
def test_plain_texts_are_parsed_once(loader, monkeypatch):
    # a plain text takes one parser and no yaml.load; any other text
    # falls back to yaml.load once, which parses it again
    workloads = _workloads()
    plain = [workloads.scenario_text(name, seed)
             for name in workloads.GENERATORS for seed in range(3)]
    plain += [fs.serialize_scenario(fs.get_preset(name))
              for name in fs.preset_names()]
    plain.append(_sampled_text(4))
    other = ["note: yes\n", "a: 1\n---\nb: 2\n", "a: *missing\n",
             "[" * 5000 + "]" * 5000 + "\n"]
    parsers, loads = [], []

    class Counted(loader):
        def __init__(self, stream):
            parsers.append(stream)
            super().__init__(stream)

    load = yaml.load

    def counted_load(stream, Loader):
        loads.append(stream)
        return load(stream, Loader)

    monkeypatch.setattr(yaml, "load", counted_load)
    scenario._LOADER = Counted
    for text, counts in [(t, (1, 0)) for t in plain] \
            + [(t, (2, 1)) for t in other]:
        parsers.clear()
        loads.clear()
        _outcome(scenario._load_yaml, text)
        assert (len(parsers), len(loads)) == counts, text[:40]


def _depth(load, text):
    """How deep the nested lists ``load`` returns go and the innermost
    one, walked without recursion, or the type of what it raised."""
    try:
        data = load(text)
    except Exception as exc:     # every exception yaml.load can raise
        return type(exc)
    depth = 0
    while type(data) is list and len(data) == 1:
        data, = data
        depth += 1
    return depth, data


@pytest.mark.usefixtures("restore_loader")
@pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
def test_deep_nesting_loads_as_yaml_load(loader):
    # deeper than the interpreter's recursion limit: the pure-Python
    # composer raises RecursionError, libyaml's composes it, and the
    # constructor builds it without recursing
    text = "[" * 5000 + "]" * 5000 + "\n"
    want = _depth(lambda t: yaml.load(t, Loader=loader), text)
    scenario._LOADER = loader
    assert _depth(scenario._load_yaml, text) == want
