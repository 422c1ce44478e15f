"""The sorted-children cache stays equal to a fresh sort under mutation.

``DirectoryServer`` keeps each parent's children as a sorted list built
on first use and dropped by ``add``/``delete``. A Hypothesis
interleaving of add / delete / re-add / modify checks, after every step,
that listings and searches equal a from-scratch reference and that the
timed ``query`` charges exactly the same simulated scan as before.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ldap import DirectoryError, DirectoryServer, DN, Scope
from repro.sim import Environment

ROOT = DN.parse("o=esg")


def text(dn):
    """DN display text, rebuilt from the RDNs (independent of DN.__str__)."""
    return ",".join(f"{a}={v}" for a, v in dn.rdns)


def kids_of(model, parent):
    return sorted((d for d in model if d.parent == parent), key=text)


def subtree_of(model, base):
    return [d for d in model if d == base or d.is_under(base)]


def check(env, d, model):
    assert len(d) == len(model)
    for dn in model:
        ref = [text(k) for k in kids_of(model, dn)]
        assert [text(e.dn) for e in d.children(dn)] == ref
        assert [text(e.dn) for e in d.search(dn, Scope.ONELEVEL)] == ref
        sub = sorted(text(x) for x in subtree_of(model, dn))
        assert sorted(text(e.dn) for e in d.search(dn, Scope.SUBTREE)) == sub
        for scope, n in ((Scope.BASE, 1),
                         (Scope.ONELEVEL, len(ref)),
                         (Scope.SUBTREE, len(sub))):
            ops, scanned, t0 = d.operations, d.entries_scanned, env.now
            p = env.process(d.query(dn, scope))
            env.run(until=p)
            assert env.now == t0 + (d.base_latency + d.scan_cost * n)
            assert d.entries_scanned == scanned + n
            assert d.operations == ops + 1
            assert [e.dn for e in p.value] == [
                e.dn for e in d.search(dn, scope)]


names = st.sampled_from(["a", "B", "b", "c", "Dd", "e1", "z"])
steps = st.lists(st.tuples(st.sampled_from(["add", "delete", "readd",
                                            "modify"]),
                           st.integers(0, 30), names),
                 min_size=1, max_size=25)


@settings(max_examples=60, deadline=None)
@given(steps=steps)
def test_cache_matches_fresh_sort_under_interleaving(steps):
    env = Environment()
    d = DirectoryServer(env, "t", base_latency=0.005, scan_cost=1e-6)
    d.add(ROOT, {"objectclass": "organization"})
    model = {ROOT: {}}
    deleted = []
    for kind, pick, name in steps:
        nodes = sorted(model, key=text)
        node = nodes[pick % len(nodes)]
        if kind == "add":
            dn = node.child("cn", name)
            if dn in model:
                with pytest.raises(DirectoryError):
                    d.add(dn, {"objectclass": "x"})
            else:
                d.add(dn, {"objectclass": "x"})
                model[dn] = {}
        elif kind == "delete" and node != ROOT:
            gone = subtree_of(model, node)
            d.delete(node, recursive=True)
            for dn in gone:
                del model[dn]
            deleted.extend(gone)
        elif kind == "readd" and deleted:
            dn = deleted.pop(pick % len(deleted))
            if dn.parent in model and dn not in model:
                d.add(dn, {"objectclass": "x"})
                model[dn] = {}
        elif kind == "modify":
            d.modify(node, replace={"note": name})
            assert d.lookup(node).first("note") == name
        check(env, d, model)


def test_mutating_children_result_does_not_leak():
    env = Environment()
    d = DirectoryServer(env, "t")
    for dn in ("o=esg", "lc=b,o=esg", "lc=a,o=esg"):
        d.add(dn, {"objectclass": "x"})
    kids = d.children("o=esg")
    kids.clear()
    kids.append("junk")
    assert [str(e.dn) for e in d.children("o=esg")] == ["lc=a,o=esg",
                                                          "lc=b,o=esg"]
    assert len(d.search("o=esg", Scope.ONELEVEL)) == 2
