"""Hierarchical three-stage memory allocation (paper section IV-D, Fig. 2).

Stage 1: pop a page from the faulting vCPU's private page cache -- the
common case, lock-free because the cache is per-vCPU.
Stage 2: the cache is empty; unlink a fresh 256 KB block from the head of
the pool's circular list (O(1)) and turn it into the vCPU's new cache.
Stage 3: the pool itself is (nearly) exhausted; the SM must ask the
hypervisor to register more contiguous physical memory.  This is the only
stage that leaves the SM, and it is raised to the caller as
:class:`PoolExhausted` so the monitor can drive the world switch.
"""

from __future__ import annotations

import enum

from repro.cycles import Category, CycleCosts, CycleLedger
from repro.errors import ReproError
from repro.mem.physmem import PAGE_SIZE
from repro.sm.secmem import SecureMemoryPool


class AllocStage(enum.IntEnum):
    """Which stage of Fig. 2 satisfied an allocation."""

    PAGE_CACHE = 1
    NEW_BLOCK = 2
    POOL_EXPANSION = 3


class PoolExhausted(ReproError):
    """Stage 3 is required: the monitor must request pool expansion."""


class VcpuPageCache:
    """A vCPU's private page cache: the pages of its current block."""

    def __init__(self):
        self._pages: list[int] = []
        self.block = None

    def __len__(self):
        return len(self._pages)

    def refill(self, block) -> None:
        """Make ``block`` the cache's backing store (all pages free)."""
        self.block = block
        self._pages = list(block.pages())


class HierarchicalAllocator:
    """Per-CVM allocator implementing the three-stage strategy.

    One instance per confidential VM; it holds one
    :class:`VcpuPageCache` per vCPU, all drawing on the shared
    :class:`SecureMemoryPool`.
    """

    def __init__(
        self,
        pool: SecureMemoryPool,
        ledger: CycleLedger,
        costs: CycleCosts,
        use_page_cache: bool = True,
    ):
        self._pool = pool
        self._ledger = ledger
        self._costs = costs
        #: Ablation switch: with the cache off, every allocation takes the
        #: global pool list under its lock (the naive design stage 1 avoids).
        self.use_page_cache = use_page_cache
        self._caches: dict[int, VcpuPageCache] = {}
        # Precompiled stage-1 charge: paid on every allocation attempt.
        self._charge_cache_pop = ledger.charger(
            Category.ALLOC, costs.page_cache_pop
        )
        self._global_block = None
        self._global_pages: list[int] = []
        #: Allocation counts per stage, for the experiment harness.
        self.stage_counts = {stage: 0 for stage in AllocStage}

    def cache_for(self, vcpu_id: int) -> VcpuPageCache:
        """The vCPU's page cache, created on first use."""
        if vcpu_id not in self._caches:
            self._caches[vcpu_id] = VcpuPageCache()
        return self._caches[vcpu_id]

    def alloc_page(self, cvm_id: int, vcpu_id: int) -> tuple[int, AllocStage]:
        """Allocate one secure page for ``(cvm, vcpu)``.

        Returns ``(page_pa, stage)``; raises :class:`PoolExhausted` when
        stage 3 is needed (the caller expands the pool and retries).
        """
        if not self.use_page_cache:
            return self._alloc_uncached(cvm_id)
        cache = self._caches.get(vcpu_id)
        if cache is None:
            cache = self.cache_for(vcpu_id)

        # Stage 1: per-vCPU page cache.
        self._charge_cache_pop()
        if cache._pages:
            page = cache._pages.pop()
            self.stage_counts[AllocStage.PAGE_CACHE] += 1
            self._pool.set_page_owner(page, cvm_id)
            return page, AllocStage.PAGE_CACHE

        # Stage 2: grab a block from the list head, make it the cache.
        block = self._pool.alloc_block(owner=(cvm_id, vcpu_id))
        self._ledger.charge(Category.ALLOC, self._costs.block_unlink)
        if block is None:
            raise PoolExhausted(
                f"secure pool exhausted allocating for CVM {cvm_id} vCPU {vcpu_id}"
            )
        cache.refill(block)
        self._ledger.charge(
            Category.ALLOC, self._costs.cache_slot_init * block.page_count
        )
        page = cache._pages.pop()
        self.stage_counts[AllocStage.NEW_BLOCK] += 1
        self._pool.set_page_owner(page, cvm_id)
        return page, AllocStage.NEW_BLOCK

    def _alloc_uncached(self, cvm_id: int) -> tuple[int, AllocStage]:
        """The no-page-cache baseline: every fault takes the global list.

        Each allocation pays the pool lock plus list manipulation, which
        is exactly what the per-vCPU cache exists to avoid (paper IV-D).
        """
        self._ledger.charge(Category.ALLOC, self._costs.pool_lock_cost)
        if not self._global_pages:
            block = self._pool.alloc_block(owner=(cvm_id, "global"))
            self._ledger.charge(Category.ALLOC, self._costs.block_unlink)
            if block is None:
                raise PoolExhausted("secure pool exhausted (uncached path)")
            self._global_block = block
            self._global_pages = list(block.pages())
        # Page hand-out still walks the shared structure under the lock.
        self._ledger.charge(Category.ALLOC, self._costs.block_unlink)
        page = self._global_pages.pop()
        self.stage_counts[AllocStage.NEW_BLOCK] += 1
        self._pool.set_page_owner(page, cvm_id)
        return page, AllocStage.NEW_BLOCK

    def note_expansion(self) -> None:
        """Record that an allocation required stage-3 pool expansion."""
        self.stage_counts[AllocStage.POOL_EXPANSION] += 1
        # The expansion replaced what would have been a stage-2 count.
        self.stage_counts[AllocStage.NEW_BLOCK] -= 1

    def release_all(self, cvm_id: int) -> list:
        """Drop every cache held for ``cvm_id`` (CVM teardown).

        Returns the backing blocks so the caller can recycle them into
        the pool.  Covers both the per-vCPU caches and the uncached
        ablation's global block -- a block whose pages were only partly
        handed out is still owned by the CVM and must come back.
        """
        blocks = []
        for cache in self._caches.values():
            block = cache.block
            if block is not None and block.owner is not None \
                    and block.owner[0] == cvm_id:
                blocks.append(block)
        self._caches.clear()
        if self._global_block is not None:
            owner = self._global_block.owner
            if owner is not None and owner[0] == cvm_id:
                blocks.append(self._global_block)
            self._global_block = None
            self._global_pages = []
        return blocks
