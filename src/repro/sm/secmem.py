"""The secure memory pool (paper section IV-C/IV-D).

When a privileged user registers contiguous physical memory with the SM,
the SM divides it into 256 KB *secure memory blocks* linked on a
bidirectional circular list ordered by address, with allocation from the
head.  Frame ownership (which CVM a page belongs to, or whether it holds
SM metadata such as page tables) is tracked per page, which is what lets
the SM guarantee stage-2 disjointness between CVMs.
"""

from __future__ import annotations

from repro.errors import SecurityViolation
from repro.mem.physmem import PAGE_SIZE

#: Default secure memory block size (paper: "default size of 256KB").
SECURE_BLOCK_SIZE = 256 * 1024

#: Ownership tag for pages holding SM metadata (page tables, secure vCPUs).
OWNER_SM = "sm"
#: Ownership tag for pages sitting free in the pool.
OWNER_FREE = "free"


class SecureMemoryBlock:
    """One block of the pool: contiguous pages plus the list links."""

    def __init__(self, base: int, size: int):
        if base % PAGE_SIZE or size % PAGE_SIZE:
            raise ValueError("block must be page-aligned")
        self.base = base
        self.size = size
        self.prev: SecureMemoryBlock | None = None
        self.next: SecureMemoryBlock | None = None
        #: vCPU (or other owner) this block currently serves as cache for.
        self.owner = None

    @property
    def end(self) -> int:
        return self.base + self.size

    @property
    def page_count(self) -> int:
        return self.size // PAGE_SIZE

    def pages(self):
        """Base addresses of every page in the block."""
        return range(self.base, self.end, PAGE_SIZE)

    def __repr__(self):
        return f"<SecureMemoryBlock [{self.base:#x}, {self.end:#x}) owner={self.owner}>"


class SecureMemoryPool:
    """The SM's pool of PMP-protected memory.

    The free list is a circular doubly-linked list of blocks ordered by
    address; :meth:`alloc_block` unlinks the head in O(1) (paper IV-D
    stage 2).  Registered regions are remembered so the PMP/IOPMP
    configuration can cover them.
    """

    def __init__(self, block_size: int = SECURE_BLOCK_SIZE):
        if block_size % PAGE_SIZE:
            raise ValueError("block size must be page-aligned")
        self.block_size = block_size
        self._head: SecureMemoryBlock | None = None
        self._free_blocks = 0
        #: Registered (base, size) regions, in registration order.
        self.regions: list[tuple[int, int]] = []
        #: page base -> ownership tag (OWNER_FREE / OWNER_SM / cvm id).
        self._page_owner: dict[int, str | int] = {}

    # -- region registration -------------------------------------------------

    def register_region(self, base: int, size: int) -> int:
        """Divide ``[base, base+size)`` into blocks; returns the block count.

        The region must be block-aligned in size (the SM rejects ragged
        registrations; the hypervisor allocates whole blocks anyway).
        """
        if base % PAGE_SIZE:
            raise ValueError("region base must be page-aligned")
        if size <= 0 or size % self.block_size:
            raise ValueError(
                f"region size must be a positive multiple of {self.block_size:#x}"
            )
        for existing_base, existing_size in self.regions:
            if base < existing_base + existing_size and existing_base < base + size:
                raise SecurityViolation(
                    f"region [{base:#x}, {base + size:#x}) overlaps an "
                    "already-registered secure region"
                )
        self.regions.append((base, size))
        count = 0
        for block_base in range(base, base + size, self.block_size):
            block = SecureMemoryBlock(block_base, self.block_size)
            self._insert_ordered(block)
            for page in block.pages():
                self._page_owner[page] = OWNER_FREE
            count += 1
        return count

    def contains(self, addr: int, size: int = 1) -> bool:
        """Whether ``[addr, addr+size)`` lies inside registered pool memory."""
        for base, region_size in self.regions:
            if base <= addr and addr + size <= base + region_size:
                return True
        return False

    def overlaps(self, addr: int, size: int) -> bool:
        """Whether ``[addr, addr+size)`` touches any registered pool memory."""
        for base, region_size in self.regions:
            if addr < base + region_size and base < addr + size:
                return True
        return False

    # -- circular list maintenance ---------------------------------------------

    def _insert_ordered(self, block: SecureMemoryBlock) -> None:
        if self._head is None:
            block.prev = block.next = block
            self._head = block
        elif block.base < self._head.base:
            self._link_before(self._head, block)
            self._head = block
        else:
            node = self._head
            while node.next is not self._head and node.next.base < block.base:
                node = node.next
            self._link_before(node.next, block)
        self._free_blocks += 1

    @staticmethod
    def _link_before(node: SecureMemoryBlock, new: SecureMemoryBlock) -> None:
        new.prev = node.prev
        new.next = node
        node.prev.next = new
        node.prev = new

    def _unlink(self, block: SecureMemoryBlock) -> None:
        if block.next is block:
            self._head = None
        else:
            block.prev.next = block.next
            block.next.prev = block.prev
            if self._head is block:
                self._head = block.next
        block.prev = block.next = None
        self._free_blocks -= 1

    # -- allocation ----------------------------------------------------------------

    @property
    def free_blocks(self) -> int:
        return self._free_blocks

    def alloc_block(self, owner) -> SecureMemoryBlock | None:
        """Unlink the head block (lowest address) and assign it to ``owner``.

        Returns ``None`` when the pool is exhausted (the caller escalates
        to stage-3 expansion).  O(1) by construction.
        """
        if self._head is None:
            return None
        block = self._head
        self._unlink(block)
        block.owner = owner
        for page in block.pages():
            self._page_owner[page] = owner
        return block

    def free_block(self, block: SecureMemoryBlock) -> None:
        """Return a block to the free list (address-ordered reinsertion)."""
        block.owner = None
        for page in block.pages():
            self._page_owner[page] = OWNER_FREE
        self._insert_ordered(block)

    def free_list_blocks(self):
        """The free blocks in list order (head first), for introspection."""
        blocks = []
        node = self._head
        while node is not None:
            blocks.append(node)
            node = node.next
            if node is self._head:
                break
        return blocks

    # -- ownership tracking -----------------------------------------------------

    def owner_of(self, page_base: int):
        """Ownership tag of a pool page (``None`` for non-pool addresses)."""
        return self._page_owner.get(page_base)

    def set_page_owner(self, page_base: int, owner) -> None:
        """Retag a pool page's owner (SM bookkeeping)."""
        if page_base not in self._page_owner:
            raise SecurityViolation(f"{page_base:#x} is not secure-pool memory")
        self._page_owner[page_base] = owner

    def pages_owned_by(self, owner):
        """All page bases currently tagged with ``owner``."""
        return [page for page, tag in self._page_owner.items() if tag == owner]
