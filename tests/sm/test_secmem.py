"""Secure memory pool: block division, circular list, ownership."""

import pytest

from repro.errors import SecurityViolation
from repro.mem.physmem import PAGE_SIZE
from repro.sm.secmem import (
    OWNER_FREE,
    SECURE_BLOCK_SIZE,
    SecureMemoryBlock,
    SecureMemoryPool,
)

BASE = 0x9000_0000


@pytest.fixture
def pool():
    pool = SecureMemoryPool()
    pool.register_region(BASE, 4 * SECURE_BLOCK_SIZE)
    return pool


class TestBlock:
    def test_page_count(self):
        block = SecureMemoryBlock(BASE, SECURE_BLOCK_SIZE)
        assert block.page_count == 64
        assert list(block.pages())[0] == BASE
        assert list(block.pages())[-1] == BASE + SECURE_BLOCK_SIZE - PAGE_SIZE

    def test_alignment_required(self):
        with pytest.raises(ValueError):
            SecureMemoryBlock(BASE + 1, SECURE_BLOCK_SIZE)


class TestRegistration:
    def test_default_block_size_is_256k(self):
        assert SECURE_BLOCK_SIZE == 256 * 1024

    def test_region_divided_into_blocks(self, pool):
        assert pool.free_blocks == 4

    def test_ragged_region_rejected(self):
        pool = SecureMemoryPool()
        with pytest.raises(ValueError):
            pool.register_region(BASE, SECURE_BLOCK_SIZE + PAGE_SIZE)

    def test_overlapping_region_rejected(self, pool):
        with pytest.raises(SecurityViolation):
            pool.register_region(BASE + SECURE_BLOCK_SIZE, 2 * SECURE_BLOCK_SIZE)

    def test_contains(self, pool):
        assert pool.contains(BASE)
        assert pool.contains(BASE + 4 * SECURE_BLOCK_SIZE - 1)
        assert not pool.contains(BASE + 4 * SECURE_BLOCK_SIZE)
        assert not pool.contains(BASE - 1)

    def test_overlaps_counts_any_shared_byte(self, pool):
        end = BASE + 4 * SECURE_BLOCK_SIZE
        assert pool.overlaps(BASE - PAGE_SIZE, PAGE_SIZE + 1)
        assert pool.overlaps(end - 1, 2 * PAGE_SIZE)
        assert pool.overlaps(BASE - PAGE_SIZE, end - BASE + 2 * PAGE_SIZE)
        assert not pool.overlaps(BASE - PAGE_SIZE, PAGE_SIZE)
        assert not pool.overlaps(end, PAGE_SIZE)
        assert not pool.contains(BASE - PAGE_SIZE, 2 * PAGE_SIZE)

    def test_custom_block_size(self):
        pool = SecureMemoryPool(block_size=64 * 1024)
        pool.register_region(BASE, 256 * 1024)
        assert pool.free_blocks == 4


class TestCircularList:
    def test_list_is_circular_and_ordered(self, pool):
        blocks = pool.free_list_blocks()
        assert [b.base for b in blocks] == [BASE + i * SECURE_BLOCK_SIZE for i in range(4)]
        assert blocks[0].prev is blocks[-1]
        assert blocks[-1].next is blocks[0]

    def test_alloc_pops_head_lowest_address(self, pool):
        block = pool.alloc_block(owner=1)
        assert block.base == BASE
        assert pool.free_blocks == 3
        assert pool.free_list_blocks()[0].base == BASE + SECURE_BLOCK_SIZE

    def test_alloc_until_empty(self, pool):
        for _ in range(4):
            assert pool.alloc_block(owner=1) is not None
        assert pool.alloc_block(owner=1) is None
        assert pool.free_blocks == 0

    def test_free_block_reinserts_ordered(self, pool):
        a = pool.alloc_block(owner=1)
        b = pool.alloc_block(owner=1)
        pool.free_block(b)
        pool.free_block(a)
        blocks = pool.free_list_blocks()
        assert [blk.base for blk in blocks] == [
            BASE + i * SECURE_BLOCK_SIZE for i in range(4)
        ]

    def test_new_region_blocks_join_ordered(self, pool):
        pool.register_region(BASE - 2 * SECURE_BLOCK_SIZE, 2 * SECURE_BLOCK_SIZE)
        head = pool.free_list_blocks()[0]
        assert head.base == BASE - 2 * SECURE_BLOCK_SIZE

    def test_single_block_list_self_linked(self):
        pool = SecureMemoryPool()
        pool.register_region(BASE, SECURE_BLOCK_SIZE)
        block = pool.free_list_blocks()[0]
        assert block.next is block
        assert block.prev is block
        taken = pool.alloc_block(owner=9)
        assert taken is block
        assert pool.free_list_blocks() == []


class TestOwnership:
    def test_fresh_pages_are_free(self, pool):
        assert pool.owner_of(BASE) == OWNER_FREE

    def test_alloc_tags_owner(self, pool):
        pool.alloc_block(owner=(3, 0))
        assert pool.owner_of(BASE) == (3, 0)

    def test_set_page_owner(self, pool):
        pool.set_page_owner(BASE, 42)
        assert pool.owner_of(BASE) == 42
        assert BASE in pool.pages_owned_by(42)

    def test_set_owner_outside_pool_rejected(self, pool):
        with pytest.raises(SecurityViolation):
            pool.set_page_owner(0x1000, 1)

    def test_non_pool_address_has_no_owner(self, pool):
        assert pool.owner_of(0x1000) is None

    def test_free_block_resets_owner(self, pool):
        block = pool.alloc_block(owner=7)
        pool.free_block(block)
        assert pool.owner_of(block.base) == OWNER_FREE
