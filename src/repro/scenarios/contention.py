"""Many-tenant contention over the ESG testbed.

The abstract's scaling concern — "potentially thousands of users"
against a handful of storage sites — turns into a stampede problem the
moment every request manager opens connections greedily: servers refuse
connects (421), retries back off, and one bulk user can crowd out many
interactive ones.  :func:`run_contention` builds that workload in both
configurations:

- **unscheduled** — every RM races for the servers; server-side
  connection caps are the only brake, visible as 421 rejections and
  retry rounds;
- **scheduled** — every RM shares one
  :class:`~repro.rm.scheduler.TransferScheduler`; admission happens in
  the scheduler's fair queues, the servers never see more than the
  per-server cap, and parallel streams split a server-wide budget.

The workload mixes *small* interactive tickets (one file) with *bulk*
tickets (several files) round-robined across many user desktops, which
is exactly the mix where deficit-round-robin fairness should show up as
a p95 latency win for the small tickets without costing aggregate
goodput.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.gridftp.protocol import GridFtpConfig
from repro.rm.resilience import ResiliencePolicy, RetryPolicy
from repro.rm.scheduler import SchedulerConfig
from repro.scenarios.esg import EsgTestbed

# The workload: every BULK_EVERY-th ticket asks for BULK_FILES files of
# FILE_SIZE bytes, the rest for one.
BULK_EVERY = 4
BULK_FILES = 6
FILE_SIZE = 4 * 2**20
# Both configurations: GridFTP streams per transfer, and the servers'
# connection cap (421 beyond it).
PARALLELISM = 4
MAX_SERVER_CONNECTIONS = 24
# The scheduled configuration's SchedulerConfig.
PER_SERVER_CAP = 20
AGING_ROUNDS = 64
STREAM_BUDGET = 32


@dataclass
class ContentionResult:
    """Outcome of one contention run."""

    n_tickets: int
    scheduled: bool
    duration: float                      # sim seconds, submit -> last done
    total_bytes: float                   # bytes landed by DONE files
    failed_files: int
    small_latencies: List[float] = field(default_factory=list)
    bulk_latencies: List[float] = field(default_factory=list)
    server_rejections: int = 0           # 421s across all servers
    scheduler_stats: Optional[Dict[str, float]] = None

    @property
    def goodput(self) -> float:
        """Aggregate delivered bytes/s over the whole run."""
        return self.total_bytes / self.duration if self.duration > 0 else 0.0

    @property
    def p95_small_latency(self) -> float:
        """95th-percentile completion latency of the 1-file tickets."""
        return percentile(self.small_latencies, 95.0)


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile; 0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      int(round(pct / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


def run_contention(n_tickets: int = 16, *, scheduled: bool = True,
                   seed: int = 0, n_users: int = 8) -> ContentionResult:
    """Run ``n_tickets`` mixed tickets through the testbed.

    Every ``BULK_EVERY``-th ticket is a bulk one (``BULK_FILES`` files);
    the rest request a single file.  Tickets are round-robined across
    ``n_users`` user desktops plus the built-in client.  Both
    configurations get the same seed, workload, server-side connection
    caps, and a patient resilience policy (the unscheduled stampede
    needs retry rounds to survive its own 421s).
    """
    sched_cfg = None
    if scheduled:
        # Deep queues: priority classes + DRR do the ordering.
        sched_cfg = SchedulerConfig(
            per_server_cap=PER_SERVER_CAP,
            max_queue_depth=max(128, 4 * n_tickets * BULK_FILES),
            aging_rounds=AGING_ROUNDS,
            stream_budget=STREAM_BUDGET)
    # Stock backoff curve, but patient: the unscheduled stampede needs
    # many rounds to drain its own 421s, and breakers must not convert
    # overload into permanent failures.
    resilience = ResiliencePolicy(retry=RetryPolicy(max_rounds=20),
                                  breaker_failure_threshold=50)
    tb = EsgTestbed(seed=seed, with_tape=False,
                    file_size_override=FILE_SIZE,
                    config=GridFtpConfig(parallelism=PARALLELISM),
                    resilience=resilience,
                    scheduler=sched_cfg,
                    max_server_connections=MAX_SERVER_CONNECTIONS,
                    log_capacity=10_000)
    rms = [tb.request_manager]
    for i in range(n_users - 1):
        rms.append(tb.add_client(f"user{i}", resilience=resilience))

    # Deterministic ticket plan: cycle over the catalog's files.
    catalog: List[tuple] = []
    for dataset in tb.dataset_ids():
        for f in tb.datasets[dataset]:
            catalog.append((dataset, str(f["logical_name"])))
    plans = []
    cursor = 0
    for t in range(n_tickets):
        count = BULK_FILES if (t + 1) % BULK_EVERY == 0 else 1
        wanted = [catalog[(cursor + j) % len(catalog)]
                  for j in range(count)]
        cursor += count
        plans.append(wanted)

    tickets = []

    def tenant(plan, rm):
        ticket = rm.submit(plan)
        tickets.append((len(plan), ticket, tb.env.now))
        yield ticket.done

    procs = [tb.env.process(tenant(plan, rms[t % len(rms)]))
             for t, plan in enumerate(plans)]
    t0 = tb.env.now
    tb.env.run(until=tb.env.all_of(procs))
    duration = tb.env.now - t0

    result = ContentionResult(n_tickets=n_tickets, scheduled=scheduled,
                              duration=duration, total_bytes=0.0,
                              failed_files=0)
    for nfiles, ticket, submitted in tickets:
        latency = max(f.finished_at for f in ticket.files
                      if f.finished_at is not None) - submitted \
            if any(f.finished_at is not None for f in ticket.files) \
            else duration
        (result.bulk_latencies if nfiles > 1
         else result.small_latencies).append(latency)
        result.total_bytes += ticket.bytes_done
        result.failed_files += len(ticket.failed_files)
    result.server_rejections = sum(s.rejected_connections
                                   for s in tb.registry.values())
    if tb.scheduler is not None:
        result.scheduler_stats = tb.scheduler.stats()
    return result
