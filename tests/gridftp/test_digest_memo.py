"""The per-file digest memo agrees with a from-scratch digest.

``file_digest`` hashes a file's name, size and content once and keeps
that state on the ``FileObject``; integrity marks are appended to a copy
on every call. These tests pin it to :func:`content_digest`, which
always hashes from scratch.
"""

from hypothesis import given, settings, strategies as st

from repro.data import ClimateModelRun, GridSpec
from repro.data.digest import add_mark, content_digest, file_digest, marks_of
from repro.gridftp import DerivedProductCache
from repro.gridftp.plugins import install_standard_plugins
from repro.storage import FileObject


def reference(f):
    return content_digest(f.name, f.size, f.content, marks_of(f))


names = st.text(min_size=1, max_size=12)
contents = st.one_of(st.none(), st.binary(max_size=256))
marks = st.lists(st.text(max_size=8), max_size=4)


@settings(max_examples=200, deadline=None)
@given(name=names, content=contents, size=st.integers(0, 2**40),
       tags=marks, new_name=names)
def test_memo_matches_from_scratch_digest(name, content, size, tags,
                                          new_name):
    f = FileObject(name, float(len(content) if content is not None
                               else size), content)
    assert file_digest(f) == reference(f)
    assert file_digest(f) == reference(f)          # repeated call
    pristine = file_digest(f)
    for tag in tags:
        add_mark(f, tag)
        assert file_digest(f) == reference(f)
    if tags:
        assert file_digest(f) != pristine
    copy = f.with_name(new_name)
    assert file_digest(copy) == reference(copy)
    assert file_digest(f) == reference(f)          # original untouched


def test_with_name_copy_does_not_share_the_memo():
    f = FileObject("a.nc", 3.0, b"abc")
    file_digest(f)
    copy = f.with_name("b.nc")
    assert file_digest(copy) == content_digest("b.nc", 3.0, b"abc")
    assert file_digest(copy) != file_digest(f)


def test_memo_field_is_invisible_to_equality_and_repr():
    a = FileObject("a.nc", 3.0, b"abc", _serial=1)
    b = FileObject("a.nc", 3.0, b"abc", _serial=1)
    file_digest(a)
    assert a == b
    assert repr(a) == repr(b)


def chunked_file(name="year.nc"):
    run = ClimateModelRun(grid=GridSpec(16, 32, 12), seed=4)
    blob = run.encode_year(1995, chunks={"time": 1, "lat": 8, "lon": 16})
    return FileObject(name, len(blob), content=blob)


ARGS = {"variable": "tas", "lat": (-30.0, 30.0)}


def eret_get(grid, dest):
    def main():
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov")
        return (yield from session.get("year.nc", grid.client_fs,
                                       grid.client_host, dest_name=dest,
                                       eret="subset", eret_args=ARGS))
    return grid.run_process(main())


def test_corrupt_file_changes_digest_and_cache_key(grid):
    """A repeated ERET after corruption misses the derived-product
    cache: the memo must not freeze the marks into the key."""
    install_standard_plugins(grid.server)
    src = grid.server_fs.store(chunked_file())
    for _ in range(2):
        assert file_digest(src) == reference(src)
    key_before = DerivedProductCache.make_key(file_digest(src), "subset",
                                              ARGS)
    assert not eret_get(grid, "a.nc").eret_cache_hit
    assert eret_get(grid, "b.nc").eret_cache_hit

    grid.server.corrupt_file("year.nc")
    assert file_digest(src) == reference(src)
    key_after = DerivedProductCache.make_key(file_digest(src), "subset",
                                             ARGS)
    assert key_after != key_before

    misses = grid.server.derived_cache.misses
    redo = eret_get(grid, "c.nc")
    assert not redo.eret_cache_hit
    assert grid.server.derived_cache.misses == misses + 1
    assert len(grid.server.derived_cache) == 2
    assert grid.server.derived_cache.get(key_after) is not None
