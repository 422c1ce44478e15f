"""Tests for RFC 2254-style filter parsing and evaluation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ldap import FilterError, parse_filter

ENTRY = {
    "objectclass": ["collection"],
    "model": ["NCAR_CSM"],
    "variable": ["tas", "pr"],
    "year": ["1998"],
    "size": ["2048"],
}


def matches(expr, attrs=ENTRY):
    return parse_filter(expr)(attrs)


def test_equality_case_insensitive():
    assert matches("(model=ncar_csm)")
    assert matches("(MODEL=NCAR_CSM)")
    assert not matches("(model=other)")


def test_multivalued_equality():
    assert matches("(variable=pr)")
    assert matches("(variable=tas)")
    assert not matches("(variable=slp)")


def test_presence():
    assert matches("(year=*)")
    assert not matches("(missing=*)")


def test_substring_wildcards():
    assert matches("(model=NCAR*)")
    assert matches("(model=*CSM)")
    assert matches("(model=N*_*M)")
    assert not matches("(model=*GFDL*)")


def test_ordering_numeric():
    assert matches("(size>=1000)")
    assert matches("(size<=4096)")
    assert not matches("(size>=1000000)")


def test_ordering_lexicographic_fallback():
    assert matches("(model>=M)")
    assert not matches("(model>=Z)")


def test_and_or_not():
    assert matches("(&(model=NCAR_CSM)(year=1998))")
    assert not matches("(&(model=NCAR_CSM)(year=1999))")
    assert matches("(|(year=1999)(year=1998))")
    assert matches("(!(year=1999))")
    assert matches("(&(|(variable=tas)(variable=slp))(!(model=GFDL)))")


def test_nested_depth():
    expr = "(&(&(&(objectclass=collection)(year=*))(size>=1))(model=N*))"
    assert matches(expr)


def test_missing_attribute_is_false():
    assert not matches("(ghost=1)")
    assert not matches("(ghost>=1)")


def test_parse_errors():
    for bad in ["", "model=x", "(model=x", "(&)", "(model=)",
                "(model=x)(y=z)", "((model=x))", "(>=x)", "(!)"]:
        with pytest.raises(FilterError):
            parse_filter(bad)


def test_attr_with_dots_and_dashes():
    attrs = {"x-file.size": ["9"]}
    assert parse_filter("(x-file.size=9)")(attrs)


@given(st.text(alphabet="abcdef", min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_property_equality_matches_itself(value):
    pred = parse_filter(f"(attr={value})")
    assert pred({"attr": [value]})
    assert not pred({"attr": [value + "x"]})


@given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=0, max_size=4))
@settings(max_examples=50, deadline=None)
def test_property_not_is_complement(values):
    attrs = {"attr": values}
    pos = parse_filter("(attr=a)")(attrs)
    neg = parse_filter("(!(attr=a))")(attrs)
    assert pos != neg


# -- compiled predicates vs a naive evaluator ------------------------------------

ATTRS = ["objectclass", "filename", "hostname"]
VALUES = ["location", "Location", "ua.1998.01.nc", "UA.1998.01.NC",
          "sprite", "x"]


def naive(tree, attrs):
    """Evaluate a filter tree straight from the RFC 2254 definitions."""
    kind = tree[0]
    if kind == "&":
        return all(naive(t, attrs) for t in tree[1])
    if kind == "|":
        return any(naive(t, attrs) for t in tree[1])
    if kind == "!":
        return not naive(tree[1], attrs)
    _, attr, value = tree
    values = attrs.get(attr.lower(), [])
    if value == "*":
        return bool(values)
    return any(v.lower() == value.lower() for v in values)


def render(tree):
    kind = tree[0]
    if kind in "&|":
        return f"({kind}{''.join(render(t) for t in tree[1])})"
    if kind == "!":
        return f"(!{render(tree[1])})"
    return f"({tree[1]}={tree[2]})"


_items = st.tuples(
    st.just("="),
    st.sampled_from(ATTRS + ["FileName", "ObjectClass", "ghost"]),
    st.sampled_from(VALUES + ["*"]))
_trees = st.recursive(
    _items,
    lambda sub: st.one_of(
        st.tuples(st.sampled_from("&|"), st.lists(sub, min_size=1,
                                                 max_size=4)),
        st.tuples(st.just("!"), sub)),
    max_leaves=12)
_entries = st.dictionaries(st.sampled_from(ATTRS),
                           st.lists(st.sampled_from(VALUES), max_size=3),
                           max_size=3)


@given(_trees, _entries)
@settings(max_examples=300, deadline=None)
def test_property_compiled_filter_matches_naive_evaluator(tree, attrs):
    """Nested &/|/! with mixed-case values and absent attributes."""
    assert parse_filter(render(tree))(attrs) == naive(tree, attrs)


def test_find_replicas_scan_count_and_cost():
    """A replica lookup scans every child of the collection once and
    costs base latency plus one scan step per child."""
    from repro.replica import ReplicaCatalog
    from repro.sim import Environment

    env = Environment()
    rc = ReplicaCatalog(env, name="climate")
    files = [f"ua.1998.{m:02d}.nc" for m in range(1, 13)]
    rc.create_collection("c98")
    rc.register_location("c98", "jupiter", protocol="gsiftp",
                         hostname="jupiter", port=2811, path="/a",
                         files=files[:6])
    rc.register_location("c98", "sprite", protocol="gsiftp",
                         hostname="sprite", port=2811, path="/b",
                         files=files)
    for f in files:
        rc.register_logical_file("c98", f, 1_000)
    directory = rc.directory
    scanned, ops = directory.entries_scanned, directory.operations

    def main():
        locs = yield from rc.find_replicas("c98", "UA.1998.03.NC")
        return sorted(l.name for l in locs)

    p = env.process(main())
    env.run()
    assert p.value == ["jupiter", "sprite"]
    children = 2 + len(files)
    assert directory.entries_scanned - scanned == children
    assert directory.operations - ops == 1
    assert env.now == directory.base_latency + directory.scan_cost * children
