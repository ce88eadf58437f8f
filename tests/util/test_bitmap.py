"""Tests for the deletion bitmap."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.bitmap import Bitmap


class TestBasics:
    def test_new_bitmap_all_clear(self):
        bm = Bitmap(10)
        assert len(bm) == 10
        assert bm.count() == 0

    def test_set_get_clear(self):
        bm = Bitmap(16)
        bm.set(3)
        assert bm.get(3)
        assert not bm.get(4)
        assert bm.count() == 1

    def test_negative_index(self):
        bm = Bitmap(8)
        bm.set(-1)
        assert bm.get(7)

    def test_out_of_range(self):
        bm = Bitmap(8)
        with pytest.raises(IndexError):
            bm.set(8)
        with pytest.raises(IndexError):
            bm.get(-9)

    def test_zero_size(self):
        bm = Bitmap(0)
        assert len(bm) == 0
        assert bm.count() == 0
        assert bm.to_bytes() == b""

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Bitmap(-1)

    def test_all(self):
        bm = Bitmap(9)
        for i in range(9):
            bm.set(i)
        assert bm.count() == len(bm)
        assert bm.to_bytes() == b"\xff\x01"

    def test_equality_and_copy(self):
        a = Bitmap(12)
        a.set(5)
        b = a.copy()
        assert a == b
        b.set(6)
        assert a != b

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Bitmap(4))


class TestSerialization:
    @given(st.integers(0, 200), st.data())
    def test_roundtrip(self, size, data):
        bm = Bitmap(size)
        if size:
            for idx in data.draw(
                st.lists(st.integers(0, size - 1), max_size=size, unique=True)
            ):
                bm.set(idx)
        restored = Bitmap.from_bytes(bm.to_bytes(), size)
        assert restored == bm

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            Bitmap.from_bytes(b"\x00\x00", 3)

    def test_padding_garbage_rejected(self):
        # size 4 uses the low nibble only; a high bit set is invalid.
        with pytest.raises(ValueError):
            Bitmap.from_bytes(b"\xf0", 4)
