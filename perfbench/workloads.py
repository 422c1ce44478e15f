"""The three benchmark workloads, driven through the public API only.

Each workload has a ``setup(seed)`` that builds the testbed and the
seeded inputs (timed as ``setup_s``) and a ``run(state)`` that plays the
inputs (timed as ``wall_s``) and returns an :class:`Outcome`. The
outcome carries the simulated results, one fingerprint record per
request, and the violations the workload's own output checks found.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.campaign import CampaignJournal, ReplicationCampaign, plan_campaign
from repro.data import GridSpec, SdbfReader
from repro.data.digest import marks_of
from repro.gridftp.protocol import GridFtpConfig
from repro.net import FaultSchedule, mbps
from repro.rm.request import FileState
from repro.rm.scheduler import SchedulerConfig
from repro.scenarios import EsgTestbed
from repro.scenarios.esg import fleet_config

MiB = 2**20


@dataclass
class Outcome:
    """What one timed run produced, in simulated terms."""

    tb: EsgTestbed
    operations: int
    failed_ops: int
    latencies: List[float]
    makespan: float
    wan_bytes: float
    records: List[tuple]
    violations: List[str] = field(default_factory=list)
    # Output checks too costly for the timed phase: run after it, they
    # return more violations (and may add fingerprint records).
    check: Optional[Callable[[], List[str]]] = None


class WanMeter:
    """Counts the bytes every WAN-crossing flow delivered.

    Wraps ``FluidNetwork.transfer`` on the one network instance and sums
    ``transferred`` over the flows it returned, so aborted and repeated
    transfers count for the bytes they actually moved.
    """

    def __init__(self, network):
        self.flows: list = []
        start = network.transfer

        def transfer(*args, **kwargs):
            flow = start(*args, **kwargs)
            if any(link.name.startswith("wan-") for link in flow.path):
                self.flows.append(flow)
            return flow

        network.transfer = transfer

    @property
    def bytes(self) -> float:
        return sum(flow.transferred for flow in self.flows)


# -- fleet_wave ---------------------------------------------------------------

FLEET_USERS = 1200
FLEET_USERS_PER_POP = 64
FLEET_FILE_SIZE = 8 * MiB
FLEET_FILES = 12             # the first dataset's monthly "tas" files


def fleet_setup(seed: int) -> dict:
    tb = EsgTestbed(seed=seed, file_size_override=FLEET_FILE_SIZE,
                    with_tape=False, aggregation_threshold=2,
                    log_capacity=4096)
    tb.warm_nws(90.0)
    rms = tb.add_fleet(FLEET_USERS, users_per_pop=FLEET_USERS_PER_POP,
                       config=fleet_config())
    ds = tb.dataset_ids()[0]
    names = tb.metadata_catalog.resolve(ds, "tas")[:FLEET_FILES]
    rng = random.Random(f"fleet_wave/{seed}")
    # Arrival list: every user arrives in the same instant (one
    # open-loop burst) and asks for one seeded file.
    plan = [(ds, rng.choice(names)) for _ in range(FLEET_USERS)]
    return {"tb": tb, "rms": rms, "plan": plan}


def fleet_run(state: dict) -> Outcome:
    tb, rms, plan = state["tb"], state["rms"], state["plan"]
    env = tb.env
    meter = WanMeter(tb.network)
    start = env.now
    tickets = [rm.submit([wanted]) for rm, wanted in zip(rms, plan)]
    for ticket in tickets:
        env.run(until=ticket.done)
    latencies, records, violations = [], [], []
    failed = 0
    for i, ticket in enumerate(tickets):
        f = ticket.files[0]
        if f.state is not FileState.DONE:
            failed += 1
            violations.append(f"user {i}: {f.logical_file} {f.state.value}")
            continue
        latencies.append(f.finished_at - start)
        records.append((i, f.logical_file, f.state.value,
                        f.finished_at - start, float(ticket.bytes_done)))
    done_bytes = sum(float(t.bytes_done) for t in tickets)
    if done_bytes != FLEET_USERS * float(FLEET_FILE_SIZE):
        violations.append(f"bytes done {done_bytes:.0f} != users x size "
                          f"{FLEET_USERS * FLEET_FILE_SIZE}")
    return Outcome(tb=tb, operations=len(tickets), failed_ops=failed,
                   latencies=latencies,
                   makespan=max(latencies, default=0.0),
                   wan_bytes=meter.bytes, records=records,
                   violations=violations)


# -- portal_series ------------------------------------------------------------

PORTAL_YEARS = 3
PORTAL_GRID = GridSpec(nlat=64, nlon=128, months=12)
PORTAL_CHUNKS = {"time": 1, "lat": 8, "lon": 16}
PORTAL_REQUESTS = 100
PORTAL_CACHE_BYTES = 1 * MiB   # per server: far below the working set
PORTAL_THINK = (4.0, 6.0)      # s, uniform analyst think time
PORTAL_FANOUT = 4
PORTAL_ZIPF = 1.1
PORTAL_SAMPLE = 6              # requests decoded directly and compared
PORTAL_VARIABLES = ("tas", "pr", "clt")
PORTAL_MIX = {"subset": 0.5, "extract": 0.25, "time_mean": 0.25}
PORTAL_REGIONS = (
    {"lat": (-10.0, 10.0)},
    {"lat": (30.0, 60.0), "lon": (0.0, 90.0)},
    {"lat": (-60.0, -30.0)},
    {"lon": (180.0, 270.0)},
)


def portal_setup(seed: int) -> dict:
    tb = EsgTestbed(seed=seed, materialize=True, with_tape=False,
                    years=PORTAL_YEARS, grid=PORTAL_GRID,
                    sdbf_chunks=PORTAL_CHUNKS,
                    derived_cache_bytes=PORTAL_CACHE_BYTES)
    tb.warm_nws(90.0)
    for server in tb.registry.values():
        cache = server.derived_cache
        if cache.hits or cache.misses or cache.bytes_used:
            raise RuntimeError(f"{server.hostname}: derived cache not empty")
    rng = random.Random(f"portal_series/{seed}")
    # Query stream: a fixed operation mix in seeded order; within each
    # operation, Zipf popularity over seeded-ranked targets, so
    # products repeat and the distinct ones overflow the cache budget.
    targets = {op: [] for op in PORTAL_MIX}
    for ds in tb.dataset_ids():
        lo, hi = tb.metadata_catalog.time_extent(ds)
        for var in PORTAL_VARIABLES:
            for year in range(lo, hi + 1):
                targets["extract"].append((ds, var, year, "extract", None))
                targets["time_mean"].append((ds, var, year, "time_mean",
                                             None))
                for r in range(len(PORTAL_REGIONS)):
                    targets["subset"].append((ds, var, year, "subset", r))
    ops = [op for op, share in PORTAL_MIX.items()
           for _ in range(round(share * PORTAL_REQUESTS))]
    rng.shuffle(ops)
    for ranked in targets.values():
        rng.shuffle(ranked)
    queries = []
    for op in ops:
        ranked = targets[op]
        weights = [1.0 / (rank + 1) ** PORTAL_ZIPF
                   for rank in range(len(ranked))]
        queries.append(rng.choices(ranked, weights=weights)[0])
    think = [rng.uniform(*PORTAL_THINK) for _ in queries]
    sample = sorted(rng.sample(range(PORTAL_REQUESTS), PORTAL_SAMPLE))
    return {"tb": tb, "queries": queries, "think": think, "sample": sample}


def _expected_product(tb, ds: str, var: str, year: int, op: str,
                      region) -> np.ndarray:
    """The product decoded straight from the source files."""
    names = tb.metadata_catalog.resolve(ds, var, years=(year, year))
    content = {str(f["logical_name"]): f["content"]
               for f in tb.datasets[ds]}
    parts = []
    for name in names:
        reader = SdbfReader(content[name])
        dims = tuple(reader.variable_meta(var)["dims"])
        data = reader.read_variable(var)
        if op == "time_mean":
            return data.mean(axis=dims.index("time"))
        if op == "subset":
            ranges = PORTAL_REGIONS[region]
            index = []
            for dim in dims:
                coord = reader.coord(dim)
                if dim in ranges:
                    lo, hi = ranges[dim]
                    index.append(np.nonzero((coord >= lo)
                                            & (coord <= hi))[0])
                else:
                    index.append(np.arange(len(coord)))
            data = data[np.ix_(*index)]
        parts.append((data, dims.index("time")))
    return np.concatenate([p for p, _ in parts], axis=parts[0][1])


def portal_run(state: dict) -> Outcome:
    tb, queries, think = state["tb"], state["queries"], state["think"]
    env = tb.env
    meter = WanMeter(tb.network)
    start = env.now
    latencies, records = [], []
    sampled: Dict[int, np.ndarray] = {}
    failures = []

    def analyst():
        for i, (ds, var, year, op, region) in enumerate(queries):
            issued = env.now
            ranges = PORTAL_REGIONS[region] if region is not None else {}
            try:
                series = yield from tb.portal.open_series(ds)
                resp = yield from series.fetch(var, operation=op,
                                               years=(year, year),
                                               fanout=PORTAL_FANOUT,
                                               **ranges)
            except Exception as exc:  # counted, and the analyst moves on
                failures.append(f"request {i}: {type(exc).__name__}: {exc}")
            else:
                latencies.append(env.now - issued)
                records.append((i, "done", env.now - start,
                                float(resp.bytes_shipped),
                                float(resp.server_decoded_bytes),
                                resp.cache_hits))
                if i in state["sample"]:
                    sampled[i] = resp.dataset[var].data
            yield env.timeout(think[i])

    tb.run_process(analyst())
    end = env.now - start

    def check() -> List[str]:
        violations = []
        for i, got in sampled.items():
            want = _expected_product(tb, *queries[i])
            if (got.dtype != want.dtype or got.shape != want.shape
                    or got.tobytes() != want.tobytes()):
                violations.append(f"request {i} {queries[i]}: product "
                                  f"differs from a direct SdbfReader decode")
        caches = [s.derived_cache for s in tb.registry.values()]
        if not sum(c.hits for c in caches):
            violations.append("derived-product cache never hit")
        if not sum(c.evictions for c in caches):
            violations.append("derived-product cache never evicted: the "
                              "working set fits the budget")
        return violations

    return Outcome(tb=tb, operations=len(queries), failed_ops=len(failures),
                   latencies=latencies, makespan=end,
                   wan_bytes=meter.bytes, records=records,
                   violations=failures, check=check)


# -- mirror_campaign ----------------------------------------------------------

MIRROR_YEARS = 10            # 2 datasets x 12 monthly files per year
MIRROR_FILE_SIZE = 1 * MiB
MIRROR_DOWNLINK = mbps(622)
MIRROR_READS = 1000          # interactive single-file reads
MIRROR_READERS = 4           # closed-loop interactive sessions
MIRROR_THINK = (10.0, 14.0)  # s, uniform think time between reads
MIRROR_AT_REST_SHARE = 0.01  # of campaign files, corrupted at rest


def mirror_setup(seed: int) -> dict:
    tb = EsgTestbed(seed=seed, years=MIRROR_YEARS, with_tape=True,
                    file_size_override=MIRROR_FILE_SIZE,
                    scheduler=SchedulerConfig(per_server_cap=4,
                                              max_queue_depth=2048,
                                              aging_rounds=64))
    tb.warm_nws(60.0)
    manifest, replicas = plan_campaign(tb.replica_catalog)
    rm = tb.add_client("mirror", downlink=MIRROR_DOWNLINK, latency=0.012,
                       config=GridFtpConfig(parallelism=2,
                                            verify_checksum=True))
    camp = ReplicationCampaign(tb.env, rm, manifest, replicas,
                               max_inflight=6, batch_size=32,
                               max_file_attempts=8, obs=tb.obs)
    rng = random.Random(f"mirror_campaign/{seed}")
    # Fault schedule: three in-flight corruption windows on the mirror's
    # WAN path, at-rest corruption of a seeded 1% of files (each keeps a
    # clean replica), and one engine crash followed by a resume.
    estimate = manifest.total_bytes * 8 / MIRROR_DOWNLINK
    faults = FaultSchedule()
    for share in (0.15, 0.50, 0.65):
        faults.corrupt_transfer("wan-mirror:rev", share * estimate,
                                max(1.0, 0.02 * estimate))
    healable = [e for e in manifest.entries
                if len(replicas[(e.collection, e.logical_file)]) >= 2]
    count = max(1, int(MIRROR_AT_REST_SHARE * len(manifest.entries)))
    for entry in rng.sample(healable, count):
        first = replicas[(entry.collection, entry.logical_file)][0]
        faults.corrupt_replica(first.hostname, entry.logical_file, 1.0, 1.0)
    faults.rm_crash("campaign", 0.30 * estimate, max(5.0, 0.05 * estimate))
    tb.fault_injector(crashables={"campaign": camp}).install(faults)
    ds = tb.dataset_ids()[0]
    names = [str(f["logical_name"]) for f in tb.datasets[ds]]
    reads = [((ds, rng.choice(names)), rng.uniform(*MIRROR_THINK))
             for _ in range(MIRROR_READS)]
    return {"tb": tb, "rm": rm, "camp": camp, "manifest": manifest,
            "reads": reads}


def _journal_replays_idempotently(journal: CampaignJournal) -> bool:
    once = {f: (e.state, e.delivered_bytes)
            for f, e in journal.replay().items()}
    twice = {f: (e.state, e.delivered_bytes)
             for f, e in journal.replay(
                 journal.records + journal.records).items()}
    round_trip = CampaignJournal.parse(journal.serialize())
    return once == twice and round_trip.states() == journal.states()


def mirror_run(state: dict) -> Outcome:
    tb, camp, reads = state["tb"], state["camp"], state["reads"]
    rm, manifest = state["rm"], state["manifest"]
    env = tb.env
    meter = WanMeter(tb.network)
    start = env.now
    queue = list(enumerate(reads))
    queue.reverse()
    latencies, read_records, failed_reads = [], [], []

    def reader():
        while queue:
            i, (wanted, think) = queue.pop()
            issued = env.now
            ticket = tb.request_manager.submit([wanted])
            yield ticket.done
            f = ticket.files[0]
            if f.state is FileState.DONE:
                latencies.append(env.now - issued)
                read_records.append((f"read{i}", f.state.value,
                                     env.now - start, float(f.size)))
            else:
                failed_reads.append(f"read {i}: {f.state.value}")
            yield env.timeout(think)

    readers = [env.process(reader()) for _ in range(MIRROR_READERS)]
    camp.start()
    finished = env.process(camp.wait())
    env.run(until=env.all_of(readers + [finished]))
    report = finished.value
    makespan = env.now - start

    records = list(read_records)

    def check() -> List[str]:
        violations = []
        states = report["states"]
        if states != {"verified": report["files"]}:
            violations.append(f"campaign files not all VERIFIED: {states}")
        undetected = sum(
            1 for e in manifest
            if rm.dest_fs.exists(e.logical_file)
            and marks_of(rm.dest_fs.stat(e.logical_file)))
        if undetected:
            violations.append(f"{undetected} undetected corruptions on the "
                              f"mirror")
        if (report["crashes"], report["resumes"]) != (1, 1):
            violations.append(f"crashes/resumes {report['crashes']}/"
                              f"{report['resumes']}, expected 1/1")
        if report["verified_retransfers"]:
            violations.append(f"{report['verified_retransfers']} VERIFIED "
                              f"files re-transferred")
        if not _journal_replays_idempotently(camp.journal):
            violations.append("journal replay is not idempotent")
        records.extend((key, entry.state.value, entry.delivered_bytes,
                        entry.last_seq)
                       for key, entry in sorted(camp.journal.replay().items()))
        return violations

    campaign_failed = report["files"] - report["states"].get("verified", 0)
    return Outcome(tb=tb, operations=report["files"] + len(reads),
                   failed_ops=campaign_failed + len(failed_reads),
                   latencies=latencies, makespan=makespan,
                   wan_bytes=meter.bytes, records=records,
                   violations=failed_reads, check=check)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], dict]
    run: Callable[[dict], Outcome]
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("fleet_wave", fleet_setup, fleet_run,
             "many users in one burst: sim kernel and fluid network"),
    Workload("portal_series", portal_setup, portal_run,
             "closed-loop analyst on the reduced-data path: catalogs, "
             "SDBF decode, ERET, derived-product cache (every cache "
             "starts empty; set-up checks it)"),
    Workload("mirror_campaign", mirror_setup, mirror_run,
             "verified tape-sourced mirror with faults next to "
             "interactive reads: storage, campaign, net reallocation"),
)}
