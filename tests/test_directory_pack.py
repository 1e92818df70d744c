"""Byte identity of the packed directory form (checkpoint version 3).

``tests/fixtures/packed-directories.json`` holds the packed directories
that the list-based directory (one Python list per set) wrote for the
boards built by :func:`build_directory`.  The array-backed directory
must pack the same boards to the same bytes, and unpacking the fixture
must restore equal directories.
"""

import json
from pathlib import Path

import pytest

from repro.memories.cache_model import TagStateDirectory
from repro.memories.config import CacheNodeConfig

FIXTURE = Path(__file__).parent / "fixtures" / "packed-directories.json"
POLICIES = ("lru", "fifo", "plru")


def _resident_tags(directory, set_index):
    """One set's resident tags, read through the rows alone."""
    row = [int(tag) for tag in directory._tags[set_index]]
    return row[:directory.ways_in_set(set_index)]


def build_directory(replacement):
    """Eight 4-way sets: set 0 empty, sets 1 and 5 partial, 2 and 6 full
    after evictions, 3 full and 4 partial with a flipped duplicate tag,
    set 7 full with tags wide enough for a 4-byte pack."""
    config = CacheNodeConfig(size=8 * 4 * 128, assoc=4, line_size=128,
                             replacement=replacement)
    directory = TagStateDirectory(config)
    num_sets = config.num_sets

    def access(set_index, tag, state):
        address = directory.amap.rebuild(tag, set_index)
        _set, _tag, way = directory.probe(address)
        if way < 0:
            directory.install(set_index, tag, state)
        else:
            directory.set_state(set_index, way, state)
            directory.touch(set_index, way)

    script = {
        1: [(3, 1), (17, 2)],
        2: [(1, 1), (2, 2), (3, 3), (4, 4), (5, 1), (2, 3), (6, 2)],
        3: [(8, 1), (9, 2), (10, 3), (11, 4), (9, 1)],
        4: [(20, 2), (21, 3), (22, 1)],
        5: [(30, 4), (31, 1), (30, 2)],
        6: [(40, 1), (41, 1), (42, 2), (43, 3), (44, 4), (45, 2), (41, 3)],
        7: [(1 << 24, 1), ((1 << 30) + 7, 2), (5 << 20, 3), (99, 4)],
    }
    for set_index, steps in script.items():
        assert set_index < num_sets
        for tag, state in steps:
            access(set_index, tag, state)
    for set_index in (3, 4):
        tags = _resident_tags(directory, set_index)
        diff = tags[0] ^ tags[1]
        for bit in range(diff.bit_length()):
            if diff >> bit & 1:
                directory.inject_bit_flip(set_index, 1, bit)
    return directory


def load_fixture():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("replacement", POLICIES)
def test_pack_matches_the_list_directory_bytes(replacement):
    packed = build_directory(replacement).state_dict()
    assert packed == load_fixture()[replacement]
    assert json.dumps(packed, sort_keys=True) == json.dumps(
        load_fixture()[replacement], sort_keys=True
    )


@pytest.mark.parametrize("replacement", POLICIES)
def test_unpacking_the_fixture_restores_an_equal_directory(replacement):
    built = build_directory(replacement)
    restored = TagStateDirectory(built.config)
    restored.load_state_dict(load_fixture()[replacement])
    assert restored._tags.tolist() == built._tags.tolist()
    assert restored._states.tolist() == built._states.tolist()
    assert restored._meta.tolist() == built._meta.tolist()
    assert list(restored.iter_lines()) == list(built.iter_lines())
    # The duplicates really are in the fixture.
    for set_index in (3, 4):
        tags = restored.set_tags(set_index)
        assert tags[0] == tags[1]
    assert restored.ways_in_set(0) == 0
    assert restored.ways_in_set(2) == 4


def test_malformed_packs_are_refused():
    import base64

    import numpy as np

    from repro.common.errors import EmulationError

    packed = load_fixture()["lru"]
    two_way = TagStateDirectory(
        CacheNodeConfig(size=8 * 2 * 128, assoc=2, line_size=128)
    )
    with pytest.raises(EmulationError, match="lines in one set of 2 ways"):
        two_way.load_state_dict(packed)
    wide = dict(packed)
    tags = np.frombuffer(
        base64.b64decode(packed["tags"]["data"]),
        dtype=f"<u{packed['tags']['width']}",
    ).astype(np.uint64)
    tags[0] = 1 << 63
    wide["tags"] = {"width": 8,
                    "data": base64.b64encode(tags.astype("<u8").tobytes())
                    .decode("ascii")}
    with pytest.raises(EmulationError, match="beyond 63 bits"):
        build_directory("lru").load_state_dict(wide)
