"""Restart bookkeeping and user-written fault-recovery policies.

§7: "A reliability plug-in was written that monitored performance and if
data transfer rates dropped below a certain, user configurable, point,
an alternate replica would be selected." :class:`ReliabilityPolicy` is
that plug-in's decision logic; the request manager consults it while
polling transfer progress and, when it fires, aborts the current GridFTP
get and re-issues it against the next-best replica.

:class:`RestartMarkers` models GridFTP's extended-mode restart markers
("111 Range Marker 0-29,40-89"): the set of byte ranges safely written
so far, kept canonical (sorted, disjoint, adjacent ranges coalesced) so
a restarting client resends exactly the complement. The block pump in
:mod:`repro.gridftp.client` records one per transfer.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple


class RestartMarkers:
    """Canonical set of transferred byte ranges for one transfer.

    Ranges are half-open ``[lo, hi)`` floats (the simulator moves
    fractional bytes). The invariant after every mutation: ranges are
    sorted, non-empty, pairwise disjoint, and never merely adjacent —
    touching or overlapping ranges are coalesced into one.
    """

    __slots__ = ("_ranges",)

    def __init__(self, ranges: Iterable[Tuple[float, float]] = ()):
        self._ranges: List[Tuple[float, float]] = []
        for lo, hi in ranges:
            self.add(lo, hi)

    # -- mutation ---------------------------------------------------------
    def add(self, lo: float, hi: float) -> None:
        """Record ``[lo, hi)`` as transferred; merges and coalesces."""
        if hi < lo:
            raise ValueError(f"inverted range [{lo}, {hi})")
        if hi == lo:
            return  # empty ranges carry no information
        ranges = self._ranges
        out: List[Tuple[float, float]] = []
        placed = False
        for a, b in ranges:
            if b < lo or (placed and a > hi):
                out.append((a, b))
            elif a > hi and not placed:
                out.append((lo, hi))
                out.append((a, b))
                placed = True
            else:
                # overlaps or touches [lo, hi): absorb into it
                lo, hi = min(lo, a), max(hi, b)
        if not placed:
            out.append((lo, hi))
        out.sort()
        self._ranges = out

    def merge(self, other: "RestartMarkers") -> "RestartMarkers":
        """Union of two marker sets (e.g. stripes reporting separately)."""
        merged = RestartMarkers(self._ranges)
        for lo, hi in other._ranges:
            merged.add(lo, hi)
        return merged

    # -- queries ----------------------------------------------------------
    @property
    def ranges(self) -> Tuple[Tuple[float, float], ...]:
        """The canonical (sorted, disjoint, coalesced) range tuple."""
        return tuple(self._ranges)

    @property
    def bytes_done(self) -> float:
        """Total bytes covered by the markers."""
        return sum(hi - lo for lo, hi in self._ranges)

    def contiguous_prefix(self) -> float:
        """Bytes safely delivered from offset 0 (a REST-able offset)."""
        if self._ranges and self._ranges[0][0] == 0.0:
            return self._ranges[0][1]
        return 0.0

    def missing(self, total: float) -> List[Tuple[float, float]]:
        """The complement within ``[0, total)`` — what a restart resends."""
        gaps: List[Tuple[float, float]] = []
        cursor = 0.0
        for lo, hi in self._ranges:
            if lo >= total:
                break
            if lo > cursor:
                gaps.append((cursor, min(lo, total)))
            cursor = max(cursor, hi)
        if cursor < total:
            gaps.append((cursor, total))
        return gaps

    def covers(self, total: float) -> bool:
        """True when ``[0, total)`` is fully marked."""
        return not self.missing(total)

    # -- wire format ------------------------------------------------------
    def serialize(self) -> str:
        """The marker text a Range Marker reply carries (``0-29,40-89``).

        17 significant digits make the float round-trip exact, so
        ``parse(serialize(m)) == m`` holds for any marker set.
        """
        return ",".join(f"{lo:.17g}-{hi:.17g}" for lo, hi in self._ranges)

    @classmethod
    def parse(cls, text: str) -> "RestartMarkers":
        """Parse :meth:`serialize` output back into canonical markers."""
        markers = cls()
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            # Split on the separating dash only — not the minus sign of
            # a scientific-notation exponent ("0-1.5e-05").
            bits = re.split(r"(?<![eE])-", part)
            if len(bits) != 2 or not bits[0] or not bits[1]:
                raise ValueError(f"malformed range marker {part!r}")
            markers.add(float(bits[0]), float(bits[1]))
        return markers

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RestartMarkers):
            return NotImplemented
        return self._ranges == other._ranges

    def __len__(self) -> int:
        return len(self._ranges)

    def __repr__(self) -> str:
        return f"RestartMarkers({self.serialize()!r})"


@dataclass
class ReliabilityPolicy:
    """User-configurable low-rate detection.

    Attributes
    ----------
    min_rate:
        Bytes/s below which the transfer counts as underperforming.
    grace_period:
        Seconds after transfer start before the policy may fire (lets
        slow start and staging finish).
    consecutive_samples:
        How many consecutive underperforming samples trigger a switch.
    """

    min_rate: float
    grace_period: float = 15.0
    consecutive_samples: int = 3

    def __post_init__(self) -> None:
        if self.min_rate <= 0:
            raise ValueError("min_rate must be positive")
        if self.grace_period < 0 or self.consecutive_samples < 1:
            raise ValueError("bad policy configuration")
        self._low_count = 0

    def observe(self, elapsed: float, rate: float) -> bool:
        """Feed one progress sample; True = switch replicas now."""
        if elapsed < self.grace_period:
            return False
        if rate < self.min_rate:
            self._low_count += 1
        else:
            self._low_count = 0
        if self._low_count >= self.consecutive_samples:
            self._low_count = 0
            return True
        return False

    def reset(self) -> None:
        """Forget accumulated low samples (new attempt started)."""
        self._low_count = 0

    def clone(self) -> "ReliabilityPolicy":
        """A pristine copy of this policy (no accumulated samples).

        Each transfer attempt gets its own instance so concurrent file
        threads never share low-rate counters; ``dataclasses.replace``
        copies every field, so policies grown new attributes clone
        correctly without call-site updates.
        """
        return dataclasses.replace(self)
