"""Slot routing, MGET reassembly and shard-failure tests for the cluster.

The pure pieces (CRC16 slots, hash tags, :class:`SlotMap`,
:class:`SlotRouter`, reply reassembly) are tested without a machine; the
failure path runs the real cluster on the simulator and asserts the
router fail-stops a dead shard with typed errors instead of hanging.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import ShardDown
from repro.workloads.redis import (
    RedisServer,
    ResponseError,
    resp_decode_reply,
    resp_encode_command,
)
from repro.workloads.redis_cluster import (
    HASH_SLOTS,
    LoadGenerator,
    RoutePlan,
    SlotMap,
    SlotRouter,
    _Pending,
    crc16,
    hash_tag,
    key_slot,
)


def _key_for_shard(slot_map: SlotMap, shard: int) -> bytes:
    """Brute-force a key owned by ``shard`` (deterministic search)."""
    for i in range(100_000):
        key = b"k%d" % i
        if slot_map.shard_of_key(key) == shard:
            return key
    raise AssertionError(f"no key found for shard {shard}")


# ---------------------------------------------------------------------------
# key -> slot mapping
# ---------------------------------------------------------------------------


class TestKeySlot:
    def test_crc16_xmodem_check_value(self):
        # The CRC16/XMODEM check vector, and the slot Redis documents
        # for "123456789" (0x31C3 == 12739).
        assert crc16(b"123456789") == 0x31C3
        assert key_slot(b"123456789") == 12739

    def test_crc16_matches_a_bitwise_xmodem_reference(self):
        def xmodem(data: bytes) -> int:
            crc = 0
            for byte in data:
                crc ^= byte << 8
                for _ in range(8):
                    crc = (crc << 1 ^ 0x1021 if crc & 0x8000 else crc << 1) & 0xFFFF
            return crc

        assert xmodem(b"123456789") == 0x31C3
        rng = random.Random(16)
        keys = [b"", b"\x00", b"\xff" * 3, b"key:1234", b"{user1000}.following"]
        keys += [rng.randbytes(rng.randrange(1, 48)) for _ in range(300)]
        keys += [b"key:%d" % i for i in range(300)]
        for key in keys:
            assert crc16(key) == xmodem(key), key

    def test_empty_key_is_slot_zero(self):
        assert key_slot(b"") == 0

    def test_slot_range(self):
        for key in (b"foo", b"bar", b"key:1234", b"\x00\xff"):
            assert 0 <= key_slot(key) < HASH_SLOTS

    def test_hash_tag_pins_related_keys(self):
        # The documented use case: both keys hash only "user1000".
        assert hash_tag(b"{user1000}.following") == b"user1000"
        assert key_slot(b"{user1000}.following") == \
            key_slot(b"{user1000}.followers") == key_slot(b"user1000")

    def test_empty_tag_hashes_whole_key(self):
        # "{}" is empty: the whole key is hashed (Redis rule 2).
        assert hash_tag(b"foo{}{bar}") == b"foo{}{bar}"
        assert key_slot(b"foo{}{bar}") == crc16(b"foo{}{bar}") % HASH_SLOTS

    def test_nested_braces_take_first_closing(self):
        # Only the text between the first "{" and the first "}" after
        # it counts: "{bar" (Redis rule 3).
        assert hash_tag(b"foo{{bar}}zap") == b"{bar"

    def test_first_tag_wins(self):
        assert hash_tag(b"foo{bar}{zap}") == b"bar"

    def test_unclosed_brace_hashes_whole_key(self):
        assert hash_tag(b"foo{bar") == b"foo{bar"

    def test_str_keys_accepted(self):
        assert key_slot("abc") == key_slot(b"abc")


# ---------------------------------------------------------------------------
# SlotMap
# ---------------------------------------------------------------------------


class TestSlotMap:
    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 7, 16])
    def test_ranges_are_contiguous_and_cover_all_slots(self, shards):
        slot_map = SlotMap(shards)
        expected_start = 0
        for start, end in slot_map.ranges:
            assert start == expected_start
            assert end > start
            expected_start = end
        assert expected_start == HASH_SLOTS

    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 7, 16])
    def test_shard_of_slot_matches_ranges_at_boundaries(self, shards):
        slot_map = SlotMap(shards)
        for shard, (start, end) in enumerate(slot_map.ranges):
            # Both edges of every contiguous range resolve to its owner.
            assert slot_map.shard_of_slot(start) == shard
            assert slot_map.shard_of_slot(end - 1) == shard

    def test_shard_of_slot_rejects_out_of_range(self):
        slot_map = SlotMap(4)
        with pytest.raises(ValueError):
            slot_map.shard_of_slot(HASH_SLOTS)
        with pytest.raises(ValueError):
            slot_map.shard_of_slot(-1)

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            SlotMap(0)


# ---------------------------------------------------------------------------
# SlotRouter plans
# ---------------------------------------------------------------------------


class TestSlotRouter:
    def test_single_key_command_routes_to_owner(self):
        slot_map = SlotMap(4)
        router = SlotRouter(slot_map)
        plan = router.plan([b"GET", b"key:7"])
        assert plan.error is None and not plan.is_split
        [(shard, parts, indices)] = plan.targets
        assert shard == slot_map.shard_of_key(b"key:7")
        assert parts == [b"GET", b"key:7"] and indices is None

    def test_empty_command_is_local_error(self):
        plan = SlotRouter(SlotMap(2)).plan([])
        assert plan.error is not None and plan.targets == []
        error, _ = resp_decode_reply(plan.error)
        assert isinstance(error, ResponseError)

    def test_mget_splits_by_shard_preserving_indices(self):
        slot_map = SlotMap(3)
        router = SlotRouter(slot_map)
        keys = [_key_for_shard(slot_map, s) for s in (2, 0, 2, 1)]
        plan = router.plan([b"MGET", *keys])
        assert plan.is_split and plan.key_count == 4
        # Each sub-MGET carries only that shard's keys, and the original
        # positions of those keys are remembered for reassembly.
        by_shard = {shard: (parts, indices)
                    for shard, parts, indices in plan.targets}
        assert set(by_shard) == {0, 1, 2}
        assert by_shard[2][0] == [b"MGET", keys[0], keys[2]]
        assert by_shard[2][1] == [0, 2]
        assert by_shard[0][0] == [b"MGET", keys[1]] and by_shard[0][1] == [1]
        assert by_shard[1][0] == [b"MGET", keys[3]] and by_shard[1][1] == [3]

    def test_mget_single_shard_is_one_target(self):
        slot_map = SlotMap(2)
        key = _key_for_shard(slot_map, 1)
        plan = SlotRouter(slot_map).plan([b"MGET", key, key])
        assert plan.is_split and len(plan.targets) == 1

    def test_cross_slot_mset_refused(self):
        slot_map = SlotMap(4)
        key_a = _key_for_shard(slot_map, 0)
        key_b = _key_for_shard(slot_map, 3)
        plan = SlotRouter(slot_map).plan([b"MSET", key_a, b"1", key_b, b"2"])
        error, _ = resp_decode_reply(plan.error)
        assert isinstance(error, ResponseError)
        assert "CROSSSLOT" in error.message

    def test_hash_tagged_mset_stays_single_shard(self):
        slot_map = SlotMap(4)
        plan = SlotRouter(slot_map).plan(
            [b"MSET", b"{user1}.a", b"1", b"{user1}.b", b"2"]
        )
        assert plan.error is None and len(plan.targets) == 1

    def test_keyless_command_routes_to_slot_zero_owner(self):
        slot_map = SlotMap(4)
        plan = SlotRouter(slot_map).plan([b"PING"])
        [(shard, _, _)] = plan.targets
        assert shard == slot_map.shard_of_slot(0)


# ---------------------------------------------------------------------------
# MGET reassembly through _Pending (router-side, no machine)
# ---------------------------------------------------------------------------


class TestMgetReassembly:
    def test_out_of_order_parts_reassemble_in_request_order(self):
        slot_map = SlotMap(3)
        router = SlotRouter(slot_map)
        # Per-shard backing stores with known values.
        servers = {s: RedisServer() for s in range(3)}
        keys, expected = [], []
        for i, shard in enumerate((2, 0, 1, 2, 0)):
            key = _key_for_shard(slot_map, shard) + b":%d" % i
            # Suffixing may move the key: recompute the real owner.
            owner = slot_map.shard_of_key(key)
            value = b"value-%d" % i
            servers[owner].execute([b"SET", key, value])
            keys.append(key)
            expected.append(value)
        plan = router.plan([b"MGET", *keys])
        slot = _Pending(len(plan.targets), plan.key_count)
        # Deliver shard replies in *reverse* target order: reassembly
        # must still match the original request order.
        for shard, parts, indices in reversed(plan.targets):
            reply = servers[shard].execute(parts)
            slot.complete_part(indices, reply)
        assert slot.reply is not None
        values, _ = resp_decode_reply(slot.reply)
        assert values == expected

    def test_missing_keys_come_back_nil_in_position(self):
        slot_map = SlotMap(2)
        router = SlotRouter(slot_map)
        key = _key_for_shard(slot_map, 1)
        server = RedisServer()
        server.execute([b"SET", key, b"present"])
        plan = router.plan([b"MGET", b"absent-key", key])
        slot = _Pending(len(plan.targets), plan.key_count)
        for shard, parts, indices in plan.targets:
            slot.complete_part(indices, server.execute(parts))
        values, _ = resp_decode_reply(slot.reply)
        assert values == [None, b"present"]


# ---------------------------------------------------------------------------
# Load generator determinism
# ---------------------------------------------------------------------------


class TestLoadGenerator:
    def test_same_seed_same_stream(self):
        a = LoadGenerator(seed=7)
        b = LoadGenerator(seed=7)
        assert [a.next() for _ in range(50)] == [b.next() for _ in range(50)]

    def test_mix_respects_percentages_roughly(self):
        gen = LoadGenerator(seed=3, get_pct=60, set_pct=30)
        ops = [gen.next()[1] for _ in range(600)]
        assert 0.45 < ops.count("GET") / len(ops) < 0.75
        assert ops.count("MGET") > 0


# ---------------------------------------------------------------------------
# Shard failure: typed error, no hang
# ---------------------------------------------------------------------------


class TestShardFailure:
    def test_dead_shard_fails_fast_with_typed_error(self):
        from repro.bench.redis_cluster import run_cluster

        result = run_cluster(
            shards=2, clients=1, requests=12, pipeline=4,
            fail_shard=1, fail_after=3, idle_limit=16,
        )
        # Every request completed -- with a reply or a typed error --
        # and the run terminated (reaching this line IS the no-hang
        # assertion; a wedged router would spin forever).
        assert result["requests"] == 12
        assert result["shards_down"] == [1]
        assert result["errors"] > 0
        assert all(
            "SHARDDOWN" in message for _op, message in result["error_samples"]
        )
        [error] = result["shard_errors"]
        assert isinstance(error, ShardDown) and error.shard == 1

    def test_healthy_cluster_has_no_errors(self):
        from repro.bench.redis_cluster import run_cluster

        result = run_cluster(shards=2, clients=2, requests=8, pipeline=4)
        assert result["errors"] == 0
        assert result["requests"] == 16
        assert result["shards_down"] == []
        assert sum(result["per_shard_requests"]) >= 16
        assert result["ops"]["GET"] + result["ops"]["SET"] \
            + result["ops"]["MGET"] == 16
