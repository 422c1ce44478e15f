"""Per-layer work counts, read from the counters the layers already keep.

:func:`snapshot` reads cumulative public counters off a testbed;
:func:`layer_metrics` turns the difference of two snapshots, the
tracer's call counts and self times into the per-layer metrics named
in ``BENCHMARK.json``.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.metrics import quantile_from_counts

from perfbench.layertrace import LAYERS

MiB = 2**20

#: Functions whose calls the tracer counts: qualified name ->
#: (counter, size of each result to add to the counter's total, or None).
COUNTED = {
    "repro.replica.catalog.ReplicaCatalog.find_replicas":
        ("replica.lookups", None),
    "repro.metadata.catalog.MetadataCatalog.query_files":
        ("metadata.queries", None),
    "repro.metadata.catalog.MetadataCatalog.query_dataset":
        ("metadata.queries", None),
    "repro.data.ncformat.SdbfReader.read_slab":
        ("data.slab_reads", lambda arr: arr.nbytes),
    "repro.data.ncformat.SdbfReader.read_variable":
        ("data.variable_reads", lambda arr: arr.nbytes),
    "repro.nws.service.NetworkWeatherService.forecast":
        ("nws.forecasts", None),
}


def _directories(tb):
    dirs = [tb.replica_catalog.directory, tb.metadata_catalog.directory,
            tb.mds.directory]
    return list({id(d): d for d in dirs}.values())


def _hrms(tb):
    return [site.hrm for site in tb.sites.values() if site.hrm is not None]


def _median_of_histogram(tb, name: str) -> float:
    """Median over every label set of one simulated-time histogram."""
    hist = tb.obs.metrics.get(name)
    if hist is None:
        return 0.0
    row: Optional[list] = None
    for key in hist.labelsets():
        part = hist.bucket_row(**dict(key))
        row = part if row is None else [a + b for a, b in zip(row, part)]
    if row is None:
        return 0.0
    value = quantile_from_counts(hist.bounds, row, 0.5)
    return float(value) if value is not None else 0.0


def snapshot(tb, campaign=None) -> Dict[str, float]:
    """Cumulative counters at one instant."""
    kernel = tb.env.kernel_stats
    net = tb.network
    servers = list(tb.registry.values())
    caches = [s.derived_cache for s in servers if s.derived_cache]
    retries = tb.obs.metrics.get("rm.retries_total")
    snap = {
        "sim.events": kernel["events_dispatched"],
        "sim.events_cancelled": kernel["events_cancelled"],
        "net.reallocations": net.reallocations,
        "net.flows_recomputed": net.flows_recomputed,
        "net.aggregate_joins": net.aggregate_joins,
        "ldap.operations": sum(d.operations for d in _directories(tb)),
        "ldap.entries_scanned": sum(d.entries_scanned
                                    for d in _directories(tb)),
        "gsi.handshakes": tb.gsi.handshakes,
        "gridftp.bytes_served": sum(s.bytes_served for s in servers),
        "gridftp.eret_decoded": sum(s.eret_decoded_bytes for s in servers),
        "gridftp.derived_hits": sum(c.hits for c in caches),
        "gridftp.derived_misses": sum(c.misses for c in caches),
        "gridftp.derived_evictions": sum(c.evictions for c in caches),
        "gridftp.rejected_connections": sum(s.rejected_connections
                                            for s in servers),
        "rm.retries": retries.total() if retries is not None else 0.0,
        "rm.grants": (tb.scheduler.granted
                      if tb.scheduler is not None else 0),
        "storage.stages": sum(h.mss.stage_count for h in _hrms(tb)),
        "storage.mounts": sum(d.mounts for h in _hrms(tb)
                              for d in h.mss.tape.drives),
        "storage.mount_reuses": sum(h.mss.tape.mount_reuses
                                    for h in _hrms(tb)),
        "storage.tape_jobs": sum(h.mss.tape.jobs_done for h in _hrms(tb)),
        "storage.cache_hits": sum(h.mss.cache.hits for h in _hrms(tb)),
        "storage.cache_misses": sum(h.mss.cache.misses for h in _hrms(tb)),
        "obs.log_records": tb.logger.emitted,
        # simulated-time medians over the whole run so far (not diffed)
        "rm.queue_wait_p50_s": _median_of_histogram(tb, "rm.queue_seconds"),
        "storage.stage_wait_p50_s": _median_of_histogram(
            tb, "hrm.stage_seconds"),
    }
    if campaign is not None:
        snap.update({
            "campaign.journal_records": len(campaign.journal),
            "campaign.retransfer": campaign.bytes_retransferred,
            "campaign.corruptions_caught": campaign.corruptions_caught,
        })
    return snap


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(before: Dict[str, float], after: Dict[str, float],
                  calls: Dict[str, int], totals: Dict[str, float],
                  self_time: Dict[str, float], requests: int,
                  untraced_wall: float) -> Dict[str, float]:
    """The per-layer metrics of one traced timed phase."""
    d = {k: after[k] - before.get(k, 0) for k in after}
    m: Dict[str, float] = {f"{layer}.self_s": self_time.get(layer, 0.0)
                           for layer in LAYERS}
    m.update({
        "sim.events": d["sim.events"],
        "sim.events_per_s": _ratio(d["sim.events"], untraced_wall),
        "sim.events_per_request": _ratio(d["sim.events"], requests),
        "sim.events_cancelled": d["sim.events_cancelled"],
        "net.reallocations": d["net.reallocations"],
        "net.flows_recomputed": d["net.flows_recomputed"],
        "net.flows_recomputed_per_reallocation": _ratio(
            d["net.flows_recomputed"], d["net.reallocations"]),
        "net.aggregate_joins": d["net.aggregate_joins"],
        "ldap.operations": d["ldap.operations"],
        "ldap.entries_scanned": d["ldap.entries_scanned"],
        "ldap.entries_scanned_per_op": _ratio(d["ldap.entries_scanned"],
                                              d["ldap.operations"]),
        "replica.lookups": calls.get("replica.lookups", 0),
        "metadata.queries": calls.get("metadata.queries", 0),
        "gsi.handshakes": d["gsi.handshakes"],
        "gridftp.bytes_served_mib": d["gridftp.bytes_served"] / MiB,
        "gridftp.eret_decoded_mib": d["gridftp.eret_decoded"] / MiB,
        "gridftp.derived_hit_ratio": _ratio(
            d["gridftp.derived_hits"],
            d["gridftp.derived_hits"] + d["gridftp.derived_misses"]),
        "gridftp.derived_evictions": d["gridftp.derived_evictions"],
        "gridftp.rejected_connections": d["gridftp.rejected_connections"],
        "rm.retries": d["rm.retries"],
        "rm.grants": d["rm.grants"],
        "rm.queue_wait_p50_s": after["rm.queue_wait_p50_s"],
        "storage.stages": d["storage.stages"],
        "storage.mounts": d["storage.mounts"],
        "storage.mount_reuse_ratio": _ratio(d["storage.mount_reuses"],
                                            d["storage.tape_jobs"]),
        "storage.stage_wait_p50_s": after["storage.stage_wait_p50_s"],
        "storage.cache_hit_ratio": _ratio(
            d["storage.cache_hits"],
            d["storage.cache_hits"] + d["storage.cache_misses"]),
        "data.slab_reads": calls.get("data.slab_reads", 0),
        "data.decoded_mib": (totals.get("data.slab_reads", 0.0)
                             + totals.get("data.variable_reads", 0.0)) / MiB,
        "campaign.journal_records": d.get("campaign.journal_records", 0),
        "campaign.retransfer_mib": d.get("campaign.retransfer", 0.0) / MiB,
        "campaign.corruptions_caught": d.get("campaign.corruptions_caught",
                                             0),
        "obs.log_records": d["obs.log_records"],
        "nws.forecasts": calls.get("nws.forecasts", 0),
    })
    return {k: float(v) for k, v in m.items()}
