"""Absolute pins of every catalog workload's reference stream.

One SHA-256 digest per workload of the chunk stream at length scale
0.01 and seed 0: the little-endian bytes of the interleaved ``kind,
vaddr`` pairs, concatenated across chunks, so the digest does not
depend on chunk size.  A change to any generator, scheduler or chunk
re-cutting moves a digest, even if it moves every simulation path
together.  A deliberate stream change must update these digests and
bump ``CACHE_FORMAT``, since cached results were computed from the old
streams.
"""

import hashlib
import sys
from array import array

import pytest

from repro.machine.config import scaled_config
from repro.workloads.devsystems import (
    DEV_SYSTEM_PROFILES,
    DevSystemWorkload,
)
from repro.workloads.scripted import ScriptedWorkload
from repro.workloads.slc import SlcWorkload
from repro.workloads.workload1 import Workload1

LENGTH = 0.01
SEED = 0
PAGE_BYTES = scaled_config().page_bytes

SCRIPT_SPEC = {
    "name": "tiny-script",
    "quantum": 256,
    "processes": [
        {"name": "p0", "code_pages": 4, "heap_pages": 32,
         "file_pages": 8,
         "phases": [{"duration": 2500, "ws_pages": 12,
                     "write_frac": 0.4, "alloc_pages": 4}]},
        {"name": "p1", "weight": 0.5, "code_pages": 2,
         "heap_pages": 16,
         "phases": [{"duration": 1500, "ws_pages": 8,
                     "write_frac": 0.2}]},
    ],
}

#: Name -> (references, digest).  ``dev<i>`` is
#: ``DEV_SYSTEM_PROFILES[i]``.
STREAM_PINS = {
    "slc": (21525, "2797bf86e4ffc70b1191a1a98b05b488"
                   "b70deca5bf5611eb57d89e90bf463bce"),
    "workload1": (32397, "d848352978bd99bc4102bc8c95a1b180"
                         "050521fceb45ed25b3bf86d67eaa48a2"),
    "dev0": (25260, "1df8f2dd621ecf5f4e9fefdee42f87c0"
                    "dd5442ff859d5d917d99a7ae293ca53f"),
    "dev1": (20683, "520f5530525da97908a7985a8ff48d97"
                    "bada6680452495a8fc592d4f2d7c614c"),
    "dev2": (29938, "47a737026e54b1a407d8c76410da8f52"
                    "4dd44cf627daed2bb8479b2e55048caf"),
    "dev3": (20765, "d1486bfb50c80be89c35d9c51ba0136e"
                    "92e9784846eda656858c8dcc4c2af762"),
    "dev4": (20562, "2a83b127bacb30cca2d61bdb8701080d"
                    "61921d6805494d4f73430a80f36dd5e8"),
    "dev5": (29739, "35b877dfac927a581f3a06f904aad06f"
                    "420d8bcc42d1cfbdaf3fbfe19faeeed0"),
    "scripted": (4229, "1a7f58b79427f8913d1b12e15988cfab"
                       "5a1f4394b37fbb73547c8fd6561c8c60"),
}


def catalog_workload(name):
    if name == "slc":
        return SlcWorkload(length_scale=LENGTH)
    if name == "workload1":
        return Workload1(length_scale=LENGTH)
    if name == "scripted":
        return ScriptedWorkload(SCRIPT_SPEC)
    return DevSystemWorkload(
        DEV_SYSTEM_PROFILES[int(name[3:])], length_scale=LENGTH
    )


def stream_digest(chunks):
    """``(references, sha256 hex)`` of a chunk stream's byte content."""
    digest = hashlib.sha256()
    references = 0
    for chunk in chunks:
        if sys.byteorder != "little":
            chunk = array("q", chunk)
            chunk.byteswap()
        digest.update(chunk.tobytes())
        references += len(chunk) >> 1
    return references, digest.hexdigest()


def test_every_dev_system_is_pinned():
    assert len(DEV_SYSTEM_PROFILES) == 6
    assert {f"dev{i}" for i in range(6)} <= set(STREAM_PINS)


@pytest.mark.parametrize("name", sorted(STREAM_PINS))
@pytest.mark.parametrize("chunk_refs", [4096, 333])
def test_stream_matches_pin(name, chunk_refs):
    instance = catalog_workload(name).instantiate(PAGE_BYTES, seed=SEED)
    assert stream_digest(instance.access_chunks(chunk_refs)) == (
        STREAM_PINS[name]
    )
