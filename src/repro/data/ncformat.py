"""SDBF: a self-describing binary format in the netCDF-classic spirit.

Layout::

    bytes 0-3   magic  b"SDBF"
    bytes 4-7   version (u32 little-endian)
    bytes 8-11  header length H (u32)
    bytes 12-.. UTF-8 JSON header: dataset name/attrs, coordinates
                (name, length, dtype, offset), variables (name, dims,
                shape, dtype, attrs, offset)
    then        raw little-endian array payloads at the stated offsets

Version 1 stores every array as one contiguous run ("flat"). Version 2
("chunked") tiles each variable over a per-variable chunk grid: the
header carries the chunk shape plus a row-major ``chunk_index`` of
``[offset, nbytes]`` extents, one per chunk, and each chunk is the
C-order bytes of its sub-block. Version 2 requires the canonical
packing :func:`encode` writes: chunks back to back in row-major grid
order, chunk ``i`` at the first chunk's offset plus the sizes of the
chunks before it, each exactly ``8 * prod(extents)`` bytes. A reader
checks this once per header and rejects any other index. Coordinates
stay whole in both versions — they are the first payloads after the
header, so any reader can map coordinate ranges to chunk sets from a
short file prefix.

The header is readable without the payload — :func:`decode_header` is
what a metadata scanner (or a DODS-style subsetting server) uses to
answer structural queries cheaply. :class:`SdbfReader` goes one step
further: it decodes only the chunks a requested index slab touches, so
a server-side subsetting plug-in pays for the bytes it reads, not the
bytes the file stores. Because the packing is canonical, a chunk's
offset is a closed form of its grid index, and a slab is read as a few
strided views (one per run of equal-extent chunks; one for a regular
grid) without walking the chunk grid.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
from typing import (Dict, List, Mapping, NamedTuple, Optional, Sequence,
                    Tuple, Union)

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.data.variables import Dataset, Variable

MAGIC = b"SDBF"
VERSION = 1
CHUNKED_VERSION = 2
HEADER_FIXED = 12  # magic + version + header length

#: Inclusive (lo, hi) index bounds per axis; None = the whole axis.
IndexBounds = Sequence[Optional[Tuple[int, int]]]


class FormatError(Exception):
    """Not an SDBF byte stream, or a corrupt one."""


def _chunk_shape_for(shape: Sequence[int],
                     chunks: Mapping[str, int],
                     dims: Sequence[str]) -> Tuple[int, ...]:
    """Per-axis chunk lengths for one variable (full extent if unset)."""
    out = []
    for dim, size in zip(dims, shape):
        c = int(chunks.get(dim, size))
        if c < 1:
            raise FormatError(f"chunk length for {dim!r} must be >= 1")
        out.append(min(c, size) if size else 1)
    return tuple(out)


def _iter_chunks(shape: Sequence[int], chunk_shape: Sequence[int]):
    """Yield ``(starts, extents)`` per chunk, row-major over the grid."""
    counts = [max(1, -(-s // c)) for s, c in zip(shape, chunk_shape)]
    for grid in itertools.product(*(range(n) for n in counts)):
        starts = tuple(g * c for g, c in zip(grid, chunk_shape))
        extents = tuple(min(c, s - st)
                        for c, s, st in zip(chunk_shape, shape, starts))
        yield starts, extents


def encode(dataset: Dataset,
           chunks: Optional[Union[int, Mapping[str, int]]] = None) -> bytes:
    """Serialize a :class:`Dataset` to SDBF bytes.

    With ``chunks`` (dim name → chunk length, or one int for every
    dim), variables are tiled into the version-2 chunked layout so a
    reader can decode an index slab without touching the rest of the
    payload. Without it the flat version-1 layout is produced,
    byte-identical to earlier releases.
    """
    if isinstance(chunks, int):
        chunks = {dim: chunks for dim in dataset.coords}
    payload_parts: List[bytes] = []
    offset = 0

    def _append(arr: np.ndarray) -> Tuple[int, int]:
        nonlocal offset
        raw = np.ascontiguousarray(arr).astype("<f8").tobytes()
        payload_parts.append(raw)
        start = offset
        offset += len(raw)
        return start, len(raw)

    coords_hdr = {}
    for name, coord in dataset.coords.items():
        start, _ = _append(coord)
        coords_hdr[name] = {"length": int(len(coord)), "dtype": "<f8",
                            "offset": start}
    vars_hdr = {}
    for name, var in dataset.variables.items():
        meta = {"dims": list(var.dims),
                "shape": [int(s) for s in var.shape],
                "dtype": "<f8"}
        if chunks is None:
            start, _ = _append(var.data)
            meta["offset"] = start
            meta["attrs"] = dict(var.attrs)
        else:
            chunk_shape = _chunk_shape_for(var.shape, chunks, var.dims)
            index = []
            for starts, extents in _iter_chunks(var.shape, chunk_shape):
                block = var.data[tuple(slice(s, s + e)
                                       for s, e in zip(starts, extents))]
                start, nbytes = _append(block)
                index.append([start, nbytes])
            meta["chunks"] = list(chunk_shape)
            meta["chunk_index"] = index
            meta["attrs"] = dict(var.attrs)
        vars_hdr[name] = meta
    version = VERSION if chunks is None else CHUNKED_VERSION
    header = json.dumps({
        "name": dataset.name,
        "attrs": dict(dataset.attrs),
        "coords": coords_hdr,
        "variables": vars_hdr,
    }).encode()
    return (MAGIC + struct.pack("<II", version, len(header))
            + header + b"".join(payload_parts))


def decode_header(blob: bytes) -> Dict:
    """Parse only the JSON header (cheap structural inspection)."""
    if len(blob) < HEADER_FIXED or blob[:4] != MAGIC:
        raise FormatError("not an SDBF stream")
    version, hlen = struct.unpack("<II", blob[4:HEADER_FIXED])
    if version not in (VERSION, CHUNKED_VERSION):
        raise FormatError(f"unsupported SDBF version {version}")
    if len(blob) < HEADER_FIXED + hlen:
        raise FormatError("truncated header")
    try:
        return json.loads(blob[HEADER_FIXED:HEADER_FIXED + hlen].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"corrupt header: {exc}") from exc


def decode(blob: bytes) -> Dataset:
    """Deserialize SDBF bytes (either layout) back into a Dataset."""
    reader = SdbfReader(blob)
    ds = Dataset(reader.name, dict(reader.attrs))
    for name in reader.header.get("coords", {}):
        ds.add_coord(name, reader.coord(name))
    for name, meta in reader.header.get("variables", {}).items():
        ds.add_variable(Variable(name, tuple(meta["dims"]),
                                 reader.read_variable(name),
                                 meta.get("attrs", {})))
    return ds


def _ints(values, what: str, minimum: int = 0,
          length: Optional[int] = None) -> Tuple[int, ...]:
    """``values`` as a tuple of ints >= ``minimum``, or FormatError."""
    if (not isinstance(values, list)
            or (length is not None and len(values) != length)
            or not all(type(v) is int and v >= minimum for v in values)):
        raise FormatError(f"corrupt header: {what} {values!r}")
    return tuple(values)


def _packed_base(name: str, shape: Tuple[int, ...],
                 chunk_shape: Tuple[int, ...], index) -> int:
    """Payload offset of a variable's first chunk.

    Checks that ``index`` is the canonical packing :func:`encode`
    writes — chunks back to back in row-major grid order, each exactly
    ``8 * prod(extents)`` bytes — which closed-form addressing relies on.
    """
    nbytes = np.array(8, dtype=np.int64)
    for size, c in zip(shape, chunk_shape):
        starts = np.arange(0, max(size, 1), c)
        nbytes = np.multiply.outer(nbytes, np.minimum(c, size - starts))
    nbytes = nbytes.ravel()
    first = index[0] if isinstance(index, list) and index else None
    base = _ints(first, f"chunk_index of {name!r}", length=2)[0]
    ends = base + np.cumsum(nbytes)
    if index != np.stack([ends - nbytes, nbytes], axis=1).tolist():
        raise FormatError(f"variable {name!r}: chunk_index is not "
                          f"canonically packed")
    return base


class _VarLayout(NamedTuple):
    shape: Tuple[int, ...]
    chunks: Optional[Tuple[int, ...]]  # None for a flat variable
    offset: int  # payload offset of the (first chunk of the) array


class _Layout:
    """A parsed and checked SDBF header: everything a reader needs
    before it touches the payload. Built once per stored file."""

    def __init__(self, blob: bytes):
        header = decode_header(blob)
        self.version, hlen = struct.unpack("<II", blob[4:HEADER_FIXED])
        self.data_offset = HEADER_FIXED + hlen
        if not isinstance(header, dict):
            raise FormatError("corrupt header: not a JSON object")
        coords = header.get("coords", {})
        variables = header.get("variables", {})
        if not (isinstance(header.get("name"), str)
                and isinstance(coords, dict)
                and isinstance(variables, dict)):
            raise FormatError("corrupt header: bad name, coords or "
                              "variables")
        self.header = header
        self.coords_end = 0
        for name, meta in coords.items():
            where = meta if isinstance(meta, dict) else {}
            offset, length = _ints([where.get("offset"), where.get("length")],
                                   f"extent of coordinate {name!r}")
            self.coords_end = max(self.coords_end, offset + 8 * length)
        self.variables: Dict[str, _VarLayout] = {}
        for name, meta in variables.items():
            where = meta if isinstance(meta, dict) else {}
            shape = _ints(where.get("shape"), f"shape of {name!r}")
            dims = where.get("dims")
            if not (isinstance(dims, list) and len(dims) == len(shape)
                    and all(isinstance(d, str) for d in dims)):
                raise FormatError(f"corrupt header: dims of {name!r} "
                                  f"{dims!r}")
            if "chunk_index" not in where:
                chunks = None
                offset, = _ints([where.get("offset")], f"offset of {name!r}")
            else:
                chunks = _ints(where.get("chunks"), f"chunks of {name!r}",
                               minimum=1, length=len(shape))
                # Once checked, the index says nothing the chunk grid
                # does not; a memoised layout does not keep it.
                offset = _packed_base(name, shape, chunks,
                                      where.pop("chunk_index"))
            self.variables[name] = _VarLayout(shape, chunks, offset)


def file_reader(file) -> "SdbfReader":
    """A reader over a stored :class:`FileObject`'s content.

    The header is parsed and its packing checked once per stored file
    and kept on the object in ``_sdbf_layout``: ``content`` is never
    reassigned, and overwriting a file stores a new object, so the memo
    cannot go stale. Each call still returns a fresh reader with its
    own :attr:`SdbfReader.bytes_decoded`.
    """
    layout = file._sdbf_layout
    if layout is None:
        layout = file._sdbf_layout = _Layout(file.content)
    return SdbfReader(file.content, layout)


def _boxes(var: _VarLayout, lo_hi: Sequence[Tuple[int, int]]):
    """The part of the chunk grid an index slab touches, as boxes.

    On each axis the touched chunks ``lo // c .. hi // c`` split into at
    most two runs: full-length interior chunks, and the ragged trailing
    edge chunk. A box picks one run per axis, so every chunk in it has
    the same extents. Yields one ``(first, count, extent)`` triple per
    axis for each of the at most ``2**ndim`` boxes; a regular grid
    always gives exactly one.
    """
    runs = []
    for size, c, (lo, hi) in zip(var.shape, var.chunks, lo_hi):
        g_lo, g_hi, full = lo // c, hi // c, size // c
        axis = []
        if g_lo < full:
            axis.append((g_lo, min(g_hi, full - 1) - g_lo + 1, c))
        if g_hi >= full:
            axis.append((full, 1, size - full * c))
        runs.append(axis)
    return itertools.product(*runs)


def _box_nbytes(box) -> int:
    """Payload bytes of all the chunks in a box."""
    return 8 * math.prod(count * extent for _, count, extent in box)


def _box_strides(var: _VarLayout, box) -> Tuple[int, List[int]]:
    """Start and interleaved (grid, local) strides of a box, in elements.

    Chunks are packed in row-major grid order, so element ``x`` (chunk
    ``g = x // c``, position ``l = x % c``, chunk extent ``e``) sits at
    ``sum_k g_k c_k prod_{j<k} e_j prod_{j>k} S_j
    + sum_k l_k prod_{j>k} e_j`` from the first chunk. Within a box the
    extents are constant, so that offset is affine in ``(g, l)``.
    """
    start, strides = 0, []
    extents = [e for _, _, e in box]
    for k, (first, _, _) in enumerate(box):
        grid = (var.chunks[k] * math.prod(extents[:k])
                * math.prod(var.shape[k + 1:]))
        start += first * grid
        strides += [grid, math.prod(extents[k + 1:])]
    return start, strides


class SdbfReader:
    """Random access into one SDBF blob, flat or chunked.

    Tracks :attr:`bytes_decoded` — every payload byte actually turned
    into an array — so callers can cost-model partial reads. The JSON
    header is parsed at construction and not counted; pass the
    ``layout`` of an earlier reader of the same bytes to skip even that
    (see :func:`file_reader`). :attr:`header` is that JSON without the
    chunk indexes: each is checked once and then replaced by
    closed-form addressing (:func:`decode_header` returns it whole).
    """

    def __init__(self, blob: bytes, layout: Optional[_Layout] = None):
        self._layout = layout = layout or _Layout(blob)
        self.header = layout.header
        self.version = layout.version
        self.data_offset = layout.data_offset
        self._payload = memoryview(blob)[self.data_offset:]
        self.bytes_decoded = 0.0
        self._coord_cache: Dict[str, np.ndarray] = {}

    # -- structure ---------------------------------------------------------
    @property
    def name(self) -> str:
        return self.header["name"]

    @property
    def attrs(self) -> Dict:
        return self.header.get("attrs", {})

    @property
    def is_chunked(self) -> bool:
        return self.version == CHUNKED_VERSION

    def variable_meta(self, name: str) -> Dict:
        meta = self.header.get("variables", {}).get(name)
        if meta is None:
            raise FormatError(f"no variable {name!r} in SDBF header")
        return meta

    def _var(self, name: str) -> _VarLayout:
        var = self._layout.variables.get(name)
        if var is None:
            raise FormatError(f"no variable {name!r} in SDBF header")
        return var

    # -- payload access ------------------------------------------------------
    def _array_at(self, offset: int, count: int) -> np.ndarray:
        nbytes = count * 8
        if offset + nbytes > len(self._payload):
            raise FormatError("truncated payload")
        self.bytes_decoded += nbytes
        return np.frombuffer(self._payload, dtype="<f8", count=count,
                             offset=offset).copy()

    def _box_view(self, var: _VarLayout, box) -> np.ndarray:
        """One box of chunks as a strided view, merged to array axes.

        The box's last byte is bounds-checked before the view is built:
        ``as_strided`` itself checks nothing.
        """
        start, strides = _box_strides(var, box)
        shape = [n for _, count, extent in box for n in (count, extent)]
        span = 1 + sum((n - 1) * st for n, st in zip(shape, strides))
        offset = var.offset + 8 * start
        if offset + 8 * span > len(self._payload):
            raise FormatError("truncated payload")
        self.bytes_decoded += _box_nbytes(box)
        flat = np.frombuffer(self._payload, dtype="<f8", count=span,
                             offset=offset)
        view = as_strided(flat, shape, [8 * st for st in strides],
                          writeable=False)
        return view.reshape([count * extent for _, count, extent in box])

    def coord(self, name: str) -> np.ndarray:
        """One coordinate axis, decoded whole (cached per reader)."""
        cached = self._coord_cache.get(name)
        if cached is not None:
            return cached
        meta = self.header.get("coords", {}).get(name)
        if meta is None:
            raise FormatError(f"no coordinate {name!r} in SDBF header")
        arr = self._array_at(meta["offset"], meta["length"])
        self._coord_cache[name] = arr
        return arr

    def read_variable(self, name: str) -> np.ndarray:
        """One variable, decoded whole (both layouts)."""
        var = self._var(name)
        if var.chunks is None:
            return self._array_at(var.offset,
                                  math.prod(var.shape)).reshape(var.shape)
        return self.read_slab(name, [(0, s - 1) for s in var.shape])

    def read_slab(self, name: str, bounds: IndexBounds) -> np.ndarray:
        """The bounding-box slab covering inclusive index ``bounds``.

        Decodes only the chunks the slab touches (chunked layout), one
        strided copy per box of equal-extent chunks; a flat variable
        falls back to decoding the whole array and slicing, charging
        the full variable to :attr:`bytes_decoded`.
        """
        var = self._var(name)
        lo_hi = self._clip_bounds(var.shape, bounds)
        if var.chunks is None:
            sel = tuple(slice(lo, hi + 1) for lo, hi in lo_hi)
            return np.ascontiguousarray(self.read_variable(name)[sel])
        out = np.empty(tuple(hi - lo + 1 for lo, hi in lo_hi),
                       dtype=np.float64)
        for box in _boxes(var, lo_hi):
            src, dst = [], []
            for (first, count, extent), c, (lo, hi) in zip(
                    box, var.chunks, lo_hi):
                origin = first * c
                a, b = max(lo, origin), min(hi, origin + count * extent - 1)
                src.append(slice(a - origin, b - origin + 1))
                dst.append(slice(a - lo, b - lo + 1))
            out[tuple(dst)] = self._box_view(var, box)[tuple(src)]
        return out

    def touched_chunk_bytes(self, name: str, bounds: IndexBounds) -> float:
        """Payload bytes of the chunks an index slab intersects."""
        var = self._var(name)
        lo_hi = self._clip_bounds(var.shape, bounds)
        if var.chunks is None:
            return float(8 * math.prod(var.shape))
        return float(sum(_box_nbytes(box) for box in _boxes(var, lo_hi)))

    def needed_prefix(self, name: str, bounds: IndexBounds
                      ) -> Optional[float]:
        """Absolute byte prefix of the blob that covers the request.

        The header, every coordinate, and every chunk the slab touches
        all end at or before the returned offset, so staging that many
        bytes suffices to serve the slab. The last touched chunk is the
        one with the highest grid index on every axis. ``None`` for
        flat layouts — a flat variable is one run and offers no
        partial-read savings beyond its own extent, which the
        whole-file path handles.
        """
        var = self._var(name)
        if var.chunks is None:
            return None
        lo_hi = self._clip_bounds(var.shape, bounds)
        last = []
        for size, c, (_, hi) in zip(var.shape, var.chunks, lo_hi):
            g = hi // c
            last.append((g, 1, min(c, size - g * c)))
        start, _ = _box_strides(var, last)
        end = var.offset + 8 * (start + math.prod(e for _, _, e in last))
        return float(self.data_offset + max(self._layout.coords_end, end))

    # -- internals -----------------------------------------------------------
    @staticmethod
    def _clip_bounds(shape: Tuple[int, ...],
                     bounds: IndexBounds) -> List[Tuple[int, int]]:
        if len(bounds) != len(shape):
            raise FormatError(f"{len(bounds)} bounds for "
                              f"{len(shape)}-D variable")
        out = []
        for size, b in zip(shape, bounds):
            lo, hi = (0, size - 1) if b is None else (int(b[0]), int(b[1]))
            if not (0 <= lo <= hi < size):
                raise FormatError(f"bad index bounds {b} for axis of "
                                  f"length {size}")
            out.append((lo, hi))
        return out

    def __repr__(self) -> str:
        kind = "chunked" if self.is_chunked else "flat"
        return (f"SdbfReader({self.name!r}, {kind}, "
                f"{len(self._layout.variables)} vars)")
