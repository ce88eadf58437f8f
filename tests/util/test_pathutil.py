"""Tests for dataset path canonicalization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util import pathutil

segment = st.text(
    alphabet=st.characters(blacklist_characters="/", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=8,
).filter(lambda s: s not in (".", ".."))


def reference_normalize(path):
    """``normalize`` as it was before its fast path: the loop alone."""
    if not isinstance(path, str):
        raise TypeError(f"path must be str, got {type(path).__name__}")
    parts = []
    for part in path.split("/"):
        if part in ("", "."):
            continue
        if part == "..":
            raise ValueError(f"path may not contain '..': {path!r}")
        parts.append(part)
    return "/" + "/".join(parts)


#: Arbitrary text assembled from the pieces normalisation cares about.
messy_path = st.lists(
    st.sampled_from(
        ["/", "//", ".", "..", "/.", "/..", "./", "a", "b.c", ".git", "..b",
         "c..", "é", "文", " ", ""]
    ),
    max_size=8,
).map("".join)


class TestNormalize:
    @settings(max_examples=400)
    @given(messy_path)
    def test_matches_the_reference_loop(self, raw):
        try:
            expected = reference_normalize(raw)
        except ValueError:
            with pytest.raises(ValueError):
                pathutil.normalize(raw)
            return
        assert pathutil.normalize(raw) == expected

    @pytest.mark.parametrize(
        "raw", ["/.git", "/a/..b", "/a/.hidden/c", "/a/b..", "/...", "/é/文"]
    )
    def test_dotted_names_are_names(self, raw):
        assert pathutil.normalize(raw) == raw == reference_normalize(raw)

    def test_canonical_input_comes_back_as_is(self):
        path = "/train/class0/img.jpg"
        assert pathutil.normalize(path) is path

    @pytest.mark.parametrize("raw", ["/a/..", "..", "/../a", "a/../b", "/a/../"])
    def test_dotdot_rejected_wherever_it_sits(self, raw):
        with pytest.raises(ValueError):
            pathutil.normalize(raw)

    @pytest.mark.parametrize("raw", [None, 7, b"/a", ["/a"]])
    def test_non_str_rejected_whatever_it_is(self, raw):
        with pytest.raises(TypeError):
            pathutil.normalize(raw)

    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("/a/b/c", "/a/b/c"),
            ("a/b/c", "/a/b/c"),
            ("a//b///c", "/a/b/c"),
            ("/a/./b", "/a/b"),
            ("/", "/"),
            ("", "/"),
            (".", "/"),
            ("/a/b/", "/a/b"),
        ],
    )
    def test_cases(self, raw, expected):
        assert pathutil.normalize(raw) == expected

    def test_dotdot_rejected(self):
        with pytest.raises(ValueError):
            pathutil.normalize("/a/../b")

    def test_non_str_rejected(self):
        with pytest.raises(TypeError):
            pathutil.normalize(123)

    @given(st.lists(segment, max_size=6))
    def test_idempotent(self, parts):
        p = pathutil.normalize("/".join(parts))
        assert pathutil.normalize(p) == p


class TestComponents:
    def test_dirname_basename(self):
        assert pathutil.dirname("/a/b/c") == "/a/b"
        assert pathutil.dirname("/a") == "/"
        assert pathutil.dirname("/") == "/"

    @given(st.lists(segment, min_size=1, max_size=6))
    def test_dirname_is_ancestor(self, parts):
        p = pathutil.normalize("/".join(parts))
        parent = pathutil.dirname(p)
        assert p.startswith(parent) and p != parent
        assert "/" not in p[len(parent):].lstrip("/")

    @given(st.lists(segment, min_size=1, max_size=6))
    def test_dirname_basename_identities_on_canonical_input(self, parts):
        p = pathutil.normalize("/".join(parts))
        parent = pathutil.dirname(p)
        assert pathutil.normalize(parent + "/" + parts[-1]) == p
        assert parent == pathutil.normalize("/".join(parts[:-1]))

    @given(messy_path)
    def test_dirname_basename_normalise_their_input(self, raw):
        try:
            canonical = reference_normalize(raw)
        except ValueError:
            return
        assert pathutil.dirname(raw) == pathutil.dirname(canonical)
