"""Zero-copy buffer adoption: ``MemoryStore.adopt_column_buffers`` and the
``ColumnView`` columns it installs — equivalence with a copying load,
aliasing (true zero copy), private delta tails, the byteswap fallback,
memory accounting, and release-on-close hygiene."""

import sys
from array import array

import pytest

from repro.model.triple import TripleKind
from repro.store.base import ID_BYTES, ID_TYPECODE, ColumnView
from repro.store.memory import MemoryStore


FOREIGN = "big" if sys.byteorder == "little" else "little"


def _columns(rows):
    """rows -> (s_bytes, p_bytes, o_bytes) native 4-byte id blobs."""
    blobs = []
    for index in range(3):
        column = array(ID_TYPECODE, (row[index] for row in rows))
        blobs.append(column.tobytes())
    return tuple(blobs)


def _rows(count, salt=0):
    return [(i % 17 + salt, i % 5, i * 3 + salt) for i in range(count)]


def _adopted(rows, kind=TripleKind.DATA):
    store = MemoryStore()
    s_bytes, p_bytes, o_bytes = _columns(rows)
    adopted = store.adopt_column_buffers(kind, s_bytes, p_bytes, o_bytes)
    assert adopted == len(rows)
    return store


class TestColumnView:
    def test_sequence_protocol(self):
        base = array(ID_TYPECODE, range(10)).tobytes()
        view = ColumnView(memoryview(base))
        view.extend([100, 101])
        assert len(view) == 12
        assert view[0] == 0 and view[9] == 9 and view[10] == 100
        assert view[-1] == 101 and view[-3] == 9
        assert list(view) == list(range(10)) + [100, 101]
        assert view[2:12:3] == array(ID_TYPECODE, [2, 5, 8, 101])
        assert view[8:11] == array(ID_TYPECODE, [8, 9, 100])
        assert view.tobytes() == array(ID_TYPECODE, list(range(10)) + [100, 101]).tobytes()
        assert ID_BYTES == 4
        assert view.base_nbytes == 40 and view.tail_nbytes == 8
        view.release()
        assert len(view) == 2  # only the private tail survives a release

    def test_empty_base(self):
        view = ColumnView(memoryview(b""))
        assert len(view) == 0
        view.append(7)
        assert list(view) == [7]


class TestAdoption:
    def test_matches_copying_load(self):
        rows = _rows(200)
        adopted = _adopted(rows)
        copied = MemoryStore()
        copied.load_column_bytes(TripleKind.DATA, *_columns(rows))
        got = [
            row for batch in adopted.scan_batches(TripleKind.DATA) for row in batch
        ]
        want = [
            row for batch in copied.scan_batches(TripleKind.DATA) for row in batch
        ]
        assert got == want
        # index behaviour is identical: posting runs agree on every predicate
        fast, slow = adopted._tables[TripleKind.DATA], copied._tables[TripleKind.DATA]
        fast._ensure_indexed()
        slow._ensure_indexed()
        for predicate in {row[1] for row in rows}:
            for runs in ("ps_runs", "po_runs"):
                fast_keys, fast_positions = getattr(fast, runs)[predicate].merged()
                slow_keys, slow_positions = getattr(slow, runs)[predicate].merged()
                assert list(fast_keys) == list(slow_keys)
                assert list(fast_positions) == list(slow_positions)
                assert [fast.o_col[p] for p in fast_positions] == [
                    slow.o_col[p] for p in slow_positions
                ]
        assert sorted(adopted.select_many(TripleKind.DATA, subjects=[3], predicate=1)) == sorted(
            copied.select_many(TripleKind.DATA, subjects=[3], predicate=1)
        )
        adopted.close()
        copied.close()

    def test_is_zero_copy(self):
        """The store reads through the caller's buffer — no private copy."""
        rows = _rows(8)
        s_bytes, p_bytes, o_bytes = _columns(rows)
        shared = bytearray(s_bytes)  # mutable so aliasing is observable
        store = MemoryStore()
        store.adopt_column_buffers(TripleKind.DATA, shared, p_bytes, o_bytes)
        before = [batch for batch in store.scan_batches(TripleKind.DATA)][0][0]
        shared[0:ID_BYTES] = array(ID_TYPECODE, [999]).tobytes()
        after = [batch for batch in store.scan_batches(TripleKind.DATA)][0][0]
        assert before[0] == rows[0][0] and after[0] == 999
        store.close()

    def test_fetches_read_the_borrowed_buffer_not_the_view(self, monkeypatch):
        """select / select_many index ``ColumnView.cells()``: no Python call
        per cell while the view has no private tail — and the same rows
        through the view itself once it has one."""
        rows = _rows(60)
        store = _adopted(rows)
        expected = sorted(row for row in set(rows) if row[1] == 1 and row[0] == 3)

        def per_cell(self, index):
            raise AssertionError("a fetch read an adopted column one Python call per cell")

        with monkeypatch.context() as patched:
            patched.setattr(ColumnView, "__getitem__", per_cell)
            assert sorted(store.select_many(TripleKind.DATA, subjects=[3], predicate=1)) == expected
            assert sorted(map(tuple, store.select(TripleKind.DATA, 3, 1, None))) == expected
            assert len(store.select_many(TripleKind.DATA, predicate=1)) == len(
                [row for row in rows if row[1] == 1]
            )
        store.insert_encoded_rows([(TripleKind.DATA, (3, 1, 7777))])
        assert sorted(store.select_many(TripleKind.DATA, subjects=[3], predicate=1)) == sorted(
            expected + [(3, 1, 7777)]
        )
        store.close()

    def test_private_tail_takes_deltas(self):
        rows = _rows(50)
        store = _adopted(rows)
        store.insert_encoded_rows([(TripleKind.DATA, (1000, 1, 1001))])
        got = {row for batch in store.scan_batches(TripleKind.DATA) for row in batch}
        assert (1000, 1, 1001) in got and len(got) == len(set(rows)) + 1
        memory = store.column_memory()
        assert memory["private_bytes"] > 0  # the tail
        store.close()

    def test_memory_accounting(self):
        rows = _rows(100)
        store = _adopted(rows)
        memory = store.column_memory()
        assert memory["adopted_bytes"] == 100 * 12  # three 4-byte ids per row
        assert memory["private_bytes"] == 0
        plain = MemoryStore()
        plain.load_column_bytes(TripleKind.DATA, *_columns(rows))
        assert plain.column_memory() == {
            "private_bytes": 100 * 12,
            "adopted_bytes": 0,
        }
        store.close()
        plain.close()

    def test_rejects_ragged_buffers(self):
        s_bytes, p_bytes, o_bytes = _columns(_rows(4))
        store = MemoryStore()
        with pytest.raises(ValueError):
            store.adopt_column_buffers(TripleKind.DATA, s_bytes[:-ID_BYTES], p_bytes, o_bytes)
        with pytest.raises(ValueError):
            store.adopt_column_buffers(TripleKind.DATA, s_bytes[:-1], p_bytes, o_bytes)
        # failed adoptions leave the table empty and usable
        assert store.adopt_column_buffers(TripleKind.DATA, s_bytes, p_bytes, o_bytes)
        store.close()

    def test_rejects_non_empty_table(self):
        store = _adopted(_rows(4))
        with pytest.raises(ValueError):
            store.adopt_column_buffers(TripleKind.DATA, *_columns(_rows(4)))
        store.close()


class TestByteswapFallback:
    """Foreign-endian buffers cannot alias — they degrade to a copying
    load that byteswaps, and must produce identical rows."""

    def _foreign_columns(self, rows):
        blobs = []
        for index in range(3):
            column = array(ID_TYPECODE, (row[index] for row in rows))
            column.byteswap()
            blobs.append(column.tobytes())
        return tuple(blobs)

    def test_load_column_bytes_byteswaps(self):
        rows = _rows(32)
        store = MemoryStore()
        loaded = store.load_column_bytes(
            TripleKind.DATA, *self._foreign_columns(rows), byteorder=FOREIGN
        )
        assert loaded == len(rows)
        got = [row for batch in store.scan_batches(TripleKind.DATA) for row in batch]
        assert got == rows
        store.close()

    def test_adopt_falls_back_to_copy(self):
        rows = _rows(32)
        store = MemoryStore()
        adopted = store.adopt_column_buffers(
            TripleKind.DATA, *self._foreign_columns(rows), byteorder=FOREIGN
        )
        assert adopted == len(rows)
        got = [row for batch in store.scan_batches(TripleKind.DATA) for row in batch]
        assert got == rows
        # a byteswapped load owns its columns: nothing adopted
        assert store.column_memory()["adopted_bytes"] == 0
        store.close()


class TestRelease:
    def test_close_releases_adopted_views(self):
        rows = _rows(16)
        s_bytes, p_bytes, o_bytes = _columns(rows)
        shared = bytearray(s_bytes)
        store = MemoryStore()
        store.adopt_column_buffers(TripleKind.DATA, shared, p_bytes, o_bytes)
        with pytest.raises(BufferError):
            shared.extend(b"\x00" * 8)  # exported views pin the buffer
        store.close()
        shared.extend(b"\x00" * 8)  # released: the owner may resize again

    def test_close_is_idempotent(self):
        store = _adopted(_rows(4))
        store.close()
        store.close()
