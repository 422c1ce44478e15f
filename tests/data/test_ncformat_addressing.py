"""Closed-form chunk addressing in the SDBF reader.

The chunked reader computes which chunks a slab touches, and where they
sit, from the chunk grid alone. These tests pin it to brute-force
oracles: the flat (version 1) decode of the same dataset for values,
and a walk over every chunk of the grid for bytes and prefixes.
"""

import json
import math
import struct

import numpy as np
import pytest

from repro.data import (FormatError, SdbfReader, decode, decode_header,
                        encode)
from repro.data import ncformat
from repro.data.ncformat import (HEADER_FIXED, MAGIC, _iter_chunks,
                                  file_reader)
from repro.data.variables import Dataset, Variable
from repro.sim import Environment
from repro.storage import FileObject, FileSystem

DIMS = ("t", "y", "x")


def random_case(rng):
    """A 1-3-D dataset with two variables, ragged chunking and bounds."""
    ndim = int(rng.integers(1, 4))
    dims = DIMS[:ndim]
    shape = tuple(int(rng.integers(1, 10)) for _ in dims)
    ds = Dataset("diff")
    for dim, size in zip(dims, shape):
        ds.add_coord(dim, np.arange(size, dtype=float))
    for name in ("u", "v"):
        ds.add_variable(Variable(name, dims, rng.normal(size=shape)))
    chunks = {dim: int(rng.integers(1, size + 2))
              for dim, size in zip(dims, shape)}
    return ds, chunks


def random_bounds(rng, shape):
    out = []
    for size in shape:
        lo = int(rng.integers(0, size))
        out.append((lo, int(rng.integers(lo, size))))
    return out


def brute_force(blob, name, bounds):
    """(touched bytes, prefix end) by walking every chunk of the grid."""
    header = decode_header(blob)
    meta = header["variables"][name]
    touched, end = 0, 0
    for coord in header["coords"].values():
        end = max(end, coord["offset"] + 8 * coord["length"])
    for (offset, nbytes), (starts, extents) in zip(
            meta["chunk_index"],
            _iter_chunks(meta["shape"], meta["chunks"])):
        if all(s <= hi and s + e - 1 >= lo
               for s, e, (lo, hi) in zip(starts, extents, bounds)):
            assert nbytes == 8 * math.prod(extents)
            touched += nbytes
            end = max(end, offset + nbytes)
    _, hlen = struct.unpack("<II", blob[4:HEADER_FIXED])
    return float(touched), float(HEADER_FIXED + hlen + end)


def with_header(blob, edit):
    """``blob`` with its JSON header rewritten by ``edit(header)``."""
    _, hlen = struct.unpack("<II", blob[4:HEADER_FIXED])
    header = json.loads(blob[HEADER_FIXED:HEADER_FIXED + hlen])
    edit(header)
    raw = json.dumps(header).encode()
    return (MAGIC + struct.pack("<II", 2, len(raw)) + raw
            + blob[HEADER_FIXED + hlen:])


@pytest.mark.parametrize("seed", range(8))
def test_closed_form_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        ds, chunks = random_case(rng)
        flat = decode(encode(ds))
        blob = encode(ds, chunks=chunks)
        for name in ("u", "v"):
            shape = ds[name].shape
            bounds = random_bounds(rng, shape)
            reader = SdbfReader(blob)
            slab = reader.read_slab(name, bounds)
            want = flat[name].data[tuple(slice(lo, hi + 1)
                                         for lo, hi in bounds)]
            assert slab.shape == want.shape
            assert slab.dtype == np.float64
            assert slab.flags["C_CONTIGUOUS"]
            assert slab.tobytes() == np.ascontiguousarray(want).tobytes()
            touched, end = brute_force(blob, name, bounds)
            assert reader.bytes_decoded == touched
            assert reader.touched_chunk_bytes(name, bounds) == touched
            assert reader.needed_prefix(name, bounds) == end


@pytest.mark.parametrize("seed", range(4))
def test_truncated_prefix_serves_only_what_it_covers(seed):
    rng = np.random.default_rng(100 + seed)
    for _ in range(30):
        ds, chunks = random_case(rng)
        blob = encode(ds, chunks=chunks)
        full = SdbfReader(blob)
        shape = ds["u"].shape
        prefix = int(full.needed_prefix("u", random_bounds(rng, shape)))
        short = SdbfReader(blob[:prefix])
        for name in ("u", "v"):
            bounds = random_bounds(rng, shape)
            if full.needed_prefix(name, bounds) <= prefix:
                assert (short.read_slab(name, bounds).tobytes()
                        == full.read_slab(name, bounds).tobytes())
            else:
                with pytest.raises(FormatError, match="truncated"):
                    short.read_slab(name, bounds)


def shift_second_chunk(header):
    header["variables"]["u"]["chunk_index"][1][0] += 8


def swap_first_chunks(header):
    index = header["variables"]["u"]["chunk_index"]
    index[0], index[1] = index[1], index[0]


def misstate_chunk_size(header):
    header["variables"]["u"]["chunk_index"][0][1] -= 8


def drop_last_chunk(header):
    header["variables"]["u"]["chunk_index"].pop()


@pytest.mark.parametrize("edit", [shift_second_chunk, swap_first_chunks,
                                  misstate_chunk_size, drop_last_chunk])
def test_non_canonical_chunk_index_rejected(edit):
    ds = Dataset("nc")
    ds.add_coord("x", np.arange(6.0))
    ds.add_variable(Variable("u", ("x",), np.arange(6.0)))
    blob = encode(ds, chunks=4)
    SdbfReader(with_header(blob, lambda h: None))  # the rewrite is sound
    with pytest.raises(FormatError, match="chunk_index"):
        SdbfReader(with_header(blob, edit))


def test_malformed_shape_rejected():
    ds = Dataset("nc")
    ds.add_coord("x", np.arange(4.0))
    ds.add_variable(Variable("u", ("x",), np.arange(4.0)))

    def negative(header):
        header["variables"]["u"]["shape"] = [-1]

    blob = with_header(encode(ds, chunks=2), negative)
    with pytest.raises(FormatError, match="shape"):
        SdbfReader(blob)


def year(scale, nx):
    ds = Dataset(f"run{nx}")
    ds.add_coord("time", np.arange(3.0))
    ds.add_coord("lon", np.arange(float(nx)))
    ds.add_variable(Variable("tas", ("time", "lon"),
                             scale * np.arange(3.0 * nx).reshape(3, nx)))
    return ds


def test_overwritten_file_never_serves_the_old_layout():
    fs = FileSystem(Environment(seed=1), "fs")
    old = encode(year(1.0, 8), chunks={"time": 1, "lon": 4})
    fs.create("a.nc", len(old), old)
    first = file_reader(fs.stat("a.nc"))
    assert first.read_slab("tas", [None, None]).shape == (3, 8)
    new = encode(year(-2.0, 5), chunks={"time": 2, "lon": 2})
    fs.create("a.nc", len(new), new, overwrite=True)
    reader = file_reader(fs.stat("a.nc"))
    assert reader.name == "run5"
    np.testing.assert_array_equal(reader.read_slab("tas", [None, (1, 4)]),
                                  year(-2.0, 5)["tas"].data[:, 1:5])


def test_layout_is_parsed_once_per_file_and_replicas_match():
    blob = encode(year(1.0, 8), chunks={"time": 2, "lon": 3})
    file = FileObject("a.nc", len(blob), blob)
    a, b = file_reader(file), file_reader(file)
    assert a._layout is b._layout is file._sdbf_layout
    a.read_slab("tas", [None, (0, 2)])
    assert b.bytes_decoded == 0.0  # readers keep their own accounting
    replica = file.with_name("b.nc")
    c = file_reader(replica)
    assert (c.read_slab("tas", [(1, 2), (2, 7)]).tobytes()
            == b.read_slab("tas", [(1, 2), (2, 7)]).tobytes())
    assert c.bytes_decoded == b.bytes_decoded
    np.testing.assert_array_equal(decode(replica.content)["tas"].data,
                                  decode(blob)["tas"].data)


def test_strided_views_per_slab_do_not_grow_with_chunk_count(monkeypatch):
    """A regular grid is read with one strided view however many chunks
    the slab touches; a ragged one with at most one per box."""
    views = []
    real = ncformat.as_strided

    def counting(*args, **kwargs):
        views.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(ncformat, "as_strided", counting)
    ds = Dataset("grid")
    for dim, size in zip(DIMS, (4, 64, 128)):
        ds.add_coord(dim, np.arange(float(size)))
    data = np.arange(4.0 * 64 * 128).reshape(4, 64, 128)
    ds.add_variable(Variable("u", DIMS, data))
    regular = SdbfReader(encode(ds, chunks={"t": 1, "y": 8, "x": 16}))
    np.testing.assert_array_equal(regular.read_variable("u"), data)
    assert len(views) == 1  # 256 chunks, one view
    ragged = SdbfReader(encode(ds, chunks={"t": 3, "y": 10, "x": 50}))
    views.clear()
    np.testing.assert_array_equal(ragged.read_variable("u"), data)
    assert len(views) == 8  # 2**3 boxes for 2 * 7 * 3 chunks
