"""Storage substrates: filesystems, caches, tape, HPSS, and the HRM.

The ESG prototype stores climate files on ordinary disk filesystems at
most sites, and on an HPSS mass-storage system at LBNL. HPSS is "not Grid
enabled": GridFTP cannot read tape directly, so LBNL's **Hierarchical
Resource Manager (HRM)** sits in front of it and stages files from tape
to its local disk cache; only then does the request manager start a WAN
transfer (paper §4).

- :class:`FileSystem` — a namespace with capacity accounting and seek
  costs, attached to a host's disk array.
- :class:`DiskCache` — LRU cache with pinning, used as the HRM staging
  area.
- :class:`TapeLibrary` — drives (contended), cartridge mounts, seeks,
  and sequential read rates.
- :class:`MassStorageSystem` — HPSS-like: tape namespace + staging cache.
- :class:`HierarchicalResourceManager` — queues stage requests,
  deduplicates concurrent requests for one file, pins files while they
  are being transferred.
"""

from repro.storage.filesystem import (
    FileExistsError_,
    FileNotFoundError_,
    FileObject,
    FileSystem,
    NoSpaceError,
)
from repro.storage.cache import DiskCache
from repro.storage.tape import (
    NotOnTapeError,
    StageProgress,
    TapeDrive,
    TapeJob,
    TapeLibrary,
    TapeSpec,
)
from repro.storage.hpss import MassStorageSystem
from repro.storage.hrm import HierarchicalResourceManager, StageRequest

__all__ = [
    "DiskCache",
    "FileExistsError_",
    "FileNotFoundError_",
    "FileObject",
    "FileSystem",
    "HierarchicalResourceManager",
    "MassStorageSystem",
    "NoSpaceError",
    "NotOnTapeError",
    "StageProgress",
    "StageRequest",
    "TapeDrive",
    "TapeJob",
    "TapeLibrary",
    "TapeSpec",
]
