"""Bit-for-bit oracle for the allocator's progressive filling.

``FluidNetwork._fill`` groups flows by route, keeps one constraint (the
tightest link) per distinct set of routes, and fills each connected
component on its own. ``reference_fill`` below is the plain algorithm it
replaced: every link of every flow is scanned in every round, with no
grouping. Applied to one connected component at a time, the two must
agree exactly (``==``) on every rate. (Applied to several components at
once it shares rounds among them, which can move a rate by an ulp, so
it is run per component.)

``mode="reference"`` cannot serve as this oracle: both modes share
``_fill``.
"""

import math
import random

import pytest

from repro.net import FluidNetwork, Topology, mbps
from repro.sim import Environment

_EPS_RATE = 1e-9


def reference_fill(flows):
    """Progressive filling over every link of every flow (the original)."""
    rates = dict.fromkeys(flows, 0.0)
    residual, link_unfrozen, link_shares = {}, {}, {}
    for f in flows:
        for link in f.path:
            if link not in residual:
                residual[link] = link.capacity
                link_unfrozen[link] = set()
                link_shares[link] = 0
    unfrozen = set()
    for f in flows:
        if f.cap <= _EPS_RATE or any(
                residual[l] <= _EPS_RATE for l in f.path):
            continue
        unfrozen.add(f)
        for link in f.path:
            link_unfrozen[link].add(f)
            link_shares[link] += f._nshares
    guard = 0
    while unfrozen:
        guard += 1
        assert guard <= 10 * len(flows) + 10, "no convergence"
        delta = math.inf
        for link, users in link_unfrozen.items():
            if users:
                delta = min(delta, residual[link] / link_shares[link])
        for f in unfrozen:
            delta = min(delta, (f.cap - rates[f]) / f._nshares)
        if not math.isfinite(delta):
            break
        delta = max(delta, 0.0)
        for f in unfrozen:
            rates[f] += delta * f._nshares
        for link, users in link_unfrozen.items():
            if users:
                residual[link] -= delta * link_shares[link]
        newly_frozen = set()
        for link, users in link_unfrozen.items():
            if users and residual[link] <= _EPS_RATE:
                newly_frozen |= users
        for f in unfrozen:
            if rates[f] >= f.cap - _EPS_RATE:
                newly_frozen.add(f)
        if not newly_frozen and delta <= _EPS_RATE:
            newly_frozen = set(unfrozen)
        for f in newly_frozen:
            unfrozen.discard(f)
            for link in f.path:
                link_unfrozen[link].discard(f)
                link_shares[link] -= f._nshares
    return rates


def components(flows):
    """Flows partitioned by shared links (a linkless flow stands alone)."""
    parent = {f: f for f in flows}

    def find(f):
        while parent[f] is not f:
            f = parent[f]
        return f

    first = {}
    for f in flows:
        for link in f.path:
            other = first.setdefault(link, f)
            parent[find(f)] = find(other)
    groups = {}
    for f in flows:
        groups.setdefault(find(f), []).append(f)
    return list(groups.values())


def assert_matches_oracle(net):
    """Every active flow's rate equals the oracle's, component-wise."""
    flows = net.flows
    parts = components(flows)
    for part in parts:
        expected = reference_fill(part)
        for f in part:
            assert f.rate == expected[f], (f.name, f.rate, expected[f])
    return parts


def _capacity(rng):
    return rng.choice([
        mbps(100), mbps(100), mbps(622), mbps(1000),
        mbps(rng.uniform(1, 1000)), mbps(rng.uniform(1, 1000)),
        rng.uniform(1e5, 1e9), math.inf, 0.0,
    ])


def _cap(rng):
    return rng.choice([
        math.inf, math.inf, 0.0, mbps(20), mbps(20),
        mbps(rng.uniform(1, 800)), rng.uniform(1e4, 1e9),
    ])


def random_scenario(seed):
    """Random disjoint trees ("islands") with random flows among them.

    Tree paths make chains of links that carry the same set of routes
    but different capacities; several islands put several components in
    one scope. Some flows reuse a path by value in a fresh list (same
    links, a different route object), some run host-local (no links),
    and with a threshold set, same-path arrivals become aggregates.
    """
    rng = random.Random(seed)
    env = Environment()
    topo = Topology()
    hosts = []
    for i in range(rng.randint(1, 4)):
        nodes = [f"i{i}n{j}" for j in range(rng.randint(2, 7))]
        for j in range(1, len(nodes)):
            topo.duplex_link(nodes[rng.randrange(j)], nodes[j],
                             _capacity(rng), 0.001)
        hosts.append(nodes)
    net = FluidNetwork(env, topo,
                       aggregation_threshold=rng.choice([None, 2, 3]))
    for _ in range(rng.randint(1, 16)):
        island = rng.choice(hosts)
        src, dst = rng.choice(island), rng.choice(island)
        path = None
        if rng.random() < 0.2:
            path = list(topo.path(src, dst))
        net.transfer(src, dst, 1e12, cap=_cap(rng), path=path)
    if rng.random() < 0.3:
        # A link dies (or comes back unbounded) under live flows.
        link = rng.choice(list(topo.links.values()))
        link.capacity = rng.choice([0.0, math.inf])
    net.reallocate()
    return net


def test_fill_matches_oracle_on_random_topologies():
    multi_component = aggregates = dead = 0
    for seed in range(400):
        net = random_scenario(seed)
        parts = assert_matches_oracle(net)
        multi_component += len(parts) > 1
        aggregates += any(f._nshares > 1 for f in net.flows)
        dead += any(link.capacity == 0.0 and link._flows
                    for link in net.topology.links.values())
    # The draw covers what the oracle is for.
    assert multi_component > 100
    assert aggregates > 20
    assert dead > 20


def _shared_and_duplicate_routes(net):
    # a->c and b->c share the c-side links; three a->c flows share a
    # route (with a threshold of 2, the last two are one aggregate).
    net.transfer("a", "c", 1e12, cap=mbps(30))
    net.transfer("a", "c", 1e12, cap=mbps(300))
    net.transfer("a", "c", 1e12, cap=mbps(30))
    net.transfer("b", "c", 1e12)
    net.transfer("a", "b", 1e12, cap=mbps(7))


def _chain_topology():
    topo = Topology()
    # a - x - y - c chain with a b - x spur: the x-y-c links carry the
    # same routes at different capacities.
    topo.duplex_link("a", "x", mbps(1000), 0.001)
    topo.duplex_link("b", "x", mbps(155), 0.001)
    topo.duplex_link("x", "y", mbps(622), 0.001)
    topo.duplex_link("y", "c", mbps(100), 0.001)
    topo.duplex_link("p", "q", mbps(45), 0.001)
    topo.duplex_link("q", "r", mbps(10), 0.001)
    return topo


@pytest.mark.parametrize("threshold", [None, 2])
def test_fill_matches_oracle_on_shared_routes_and_components(threshold):
    env = Environment()
    net = FluidNetwork(env, _chain_topology(),
                       aggregation_threshold=threshold)
    _shared_and_duplicate_routes(net)
    # A second component in the same scope, and a host-local flow.
    net.transfer("p", "r", 1e12, cap=mbps(3))
    net.transfer("p", "r", 1e12, cap=mbps(4))
    net.transfer("r", "q", 1e12)
    net.transfer("c", "c", 1e12, cap=mbps(9))
    net.reallocate()
    parts = assert_matches_oracle(net)
    assert len(parts) >= 3
    if threshold is not None:
        assert any(f._nshares > 1 for f in net.flows)


def test_fill_matches_oracle_with_dead_link_zero_and_infinite_caps():
    env = Environment()
    topo = _chain_topology()
    net = FluidNetwork(env, topo)
    _shared_and_duplicate_routes(net)
    net.transfer("b", "c", 1e12, cap=0.0)
    net.transfer("p", "r", 1e12)
    topo.links["q<->r:fwd"].capacity = 0.0      # dead link
    topo.links["a<->x:fwd"].capacity = math.inf  # unbounded link
    net.reallocate()
    assert_matches_oracle(net)
    assert all(f.rate == 0.0 for f in net.flows_on(topo.links["q<->r:fwd"]))

