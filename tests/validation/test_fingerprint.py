"""Streamed section digests equal ``sha256(repr(value).encode())``.

``fingerprint_digests`` never builds the ``repr`` of a whole section; these
tests pin that what it feeds the hash is nevertheless byte-for-byte the
``repr`` — on random nested tuples and on every section of real runs.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.parallel import execute_task
from repro.core.policies import POLICIES_BY_KEY
from repro.memory.image import MemoryImage
from repro.service.specs import build_task, spec_for_pair
from repro.validation import fingerprint
from repro.validation.fingerprint import (
    feed_repr,
    fingerprint_digests,
    fingerprint_sections,
    summarize_result,
)


def _streamed(value) -> bytes:
    pieces = []
    feed_repr(pieces.append, value)
    return b"".join(pieces)


_leaves = st.one_of(
    st.none(),
    st.text(max_size=12),
    st.binary(max_size=40),
    # every quoting/escaping case of bytes.__repr__, densely
    st.lists(st.sampled_from(list(b"'\"\\\n\t\r a\x00\x7f\xff")), max_size=24).map(bytes),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
)
_values = st.recursive(
    _leaves, lambda children: st.lists(children, max_size=4).map(tuple), max_leaves=30
)


@settings(max_examples=300, deadline=None)
@given(value=_values, chunk=st.integers(min_value=1, max_value=9))
def test_streamed_repr_of_random_nested_tuples(value, chunk):
    # A tiny chunk puts chunk boundaries inside every bytes leaf.
    previous = fingerprint._BYTES_CHUNK
    fingerprint._BYTES_CHUNK = chunk
    try:
        assert _streamed(value) == repr(value).encode("utf-8")
    finally:
        fingerprint._BYTES_CHUNK = previous


Point = collections.namedtuple("Point", "x y")


@pytest.mark.parametrize(
    "value",
    [
        (),
        ((),),
        (None,),
        ((((b"",),),),),
        (1, (2.5, ("three", (b"four", (None, ()))))),
        b"it's",
        b'say "hi"',
        b"both ' and \"",
        (b"'" * 5 + b"x" * 70000 + b'"',),  # quote chosen from the whole value
        bytes(range(256)) * 600,  # > 2 default chunks
        ("naïve ☃", float("inf"), -0.0, 10**30),
        (Point(1, b"'"), [b"'", (1,)], {"k": (b"v",)}),  # not plain tuples: repr'd whole
    ],
    ids=[
        "empty",
        "nested-empty",
        "one-tuple",
        "depth-4",
        "depth-5-mixed",
        "single-quote",
        "double-quote",
        "both-quotes",
        "quote-across-chunks",
        "three-chunks",
        "non-ascii-and-floats",
        "non-tuple-containers",
    ],
)
def test_streamed_repr_of_edge_cases(value):
    assert _streamed(value) == repr(value).encode("utf-8")


@pytest.fixture(scope="module", params=sorted(POLICIES_BY_KEY))
def real_run(request):
    spec = spec_for_pair("spec", 20, 17, policy=request.param, scale=0.05)
    return execute_task(build_task(spec))


def test_every_section_of_a_real_run_digests_as_its_repr(real_run):
    sections = fingerprint_sections(real_run)
    digests = fingerprint_digests(real_run)
    assert list(digests) == list(sections)
    for name, value in sections.items():
        expected = hashlib.sha256(repr(value).encode("utf-8")).hexdigest()
        assert digests[name] == expected, name
    summary = summarize_result(real_run, key="k")
    assert summary == {
        "policy": real_run.policy_key,
        "total_cycles": real_run.total_cycles,
        "core_cycles": list(real_run.core_cycles),
        "key": "k",
        "fingerprint": digests,
        "profile": dataclasses.asdict(real_run.profile),
    }
    assert summary["profile"]["total_cycles"] == real_run.total_cycles


def _image(*arrays):
    image = MemoryImage()
    for index, data in enumerate(arrays):
        image.add_array(f"a{index}", data)
    return image


#: float32 data whose bytes hold both quote characters.
_QUOTED = np.frombuffer(b"'\"ab" * 3 + b"\\\n\"\x00", dtype=np.float32)


@pytest.mark.parametrize(
    "images",
    [
        [None, _image(np.arange(5.0))],
        [_image(_QUOTED)],
        [_image(), None, _image(np.ones(3), _QUOTED)],
        [None],
        [],
    ],
    ids=["none-and-one-array", "one-core", "empty-image", "one-none", "no-images"],
)
def test_memory_images_digest_as_their_section_repr(real_run, images):
    """The image section is fed one array at a time, never built whole;
    its digest is still that of the section's ``repr``."""
    result = dataclasses.replace(real_run, images=images)
    section = fingerprint_sections(result)["memory_images"]
    expected = hashlib.sha256(repr(section).encode("utf-8")).hexdigest()
    assert fingerprint_digests(result)["memory_images"] == expected
