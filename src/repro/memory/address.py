"""Address arithmetic for the simulated 32-bit virtual address space.

The paper's CDP implementation targets x86 with 4-byte pointers (Section 5),
so every address in this substrate is a 32-bit unsigned integer.  Pointers
are stored 4-byte aligned in the backing store, and the content-directed
prefetcher compares the high-order *compare bits* of candidate values against
the address of the cache block they were loaded from (Section 2.2).
"""

from __future__ import annotations

ADDRESS_BITS = 32
ADDRESS_MASK = (1 << ADDRESS_BITS) - 1
WORD_SIZE = 4  # bytes per pointer / word (x86-32, per paper Section 5)
#: ``addr & WORD_ALIGN_MASK == align_down(addr, WORD_SIZE)``
WORD_ALIGN_MASK = ~(WORD_SIZE - 1)

# NULL region: values below this are never treated as heap addresses.  Real
# programs keep page zero unmapped; our allocator never hands out addresses
# this low, so a zeroed field can never alias a valid pointer.
NULL_REGION_END = 0x1000


def is_aligned(addr: int, alignment: int) -> bool:
    """Return True if *addr* is a multiple of *alignment* (a power of two)."""
    return (addr & (alignment - 1)) == 0


def align_up(addr: int, alignment: int) -> int:
    """Round *addr* up to the next multiple of *alignment* (a power of two)."""
    return (addr + alignment - 1) & ~(alignment - 1)


def align_down(addr: int, alignment: int) -> int:
    """Round *addr* down to a multiple of *alignment* (a power of two)."""
    return addr & ~(alignment - 1)


def block_address(addr: int, block_size: int) -> int:
    """Address of the cache block containing *addr*."""
    return addr & ~(block_size - 1)


def block_offset(addr: int, block_size: int) -> int:
    """Byte offset of *addr* within its cache block."""
    return addr & (block_size - 1)


def compare_bits_match(value: int, block_addr: int, compare_bits: int) -> bool:
    """CDP's virtual-address-matching predictor (paper Section 2.2).

    A 4-byte *value* read out of a fetched cache block is predicted to be a
    pointer when its high-order *compare_bits* bits equal those of the
    address of the block it was found in.  Cooksey et al. call these the
    *compare bits*; the paper uses 8 of the 32 address bits (Section 5).
    """
    if compare_bits <= 0:
        return True
    shift = ADDRESS_BITS - compare_bits
    return (value >> shift) == (block_addr >> shift)


def validate_address(addr: int) -> int:
    """Check that *addr* fits the simulated address space and return it."""
    if not 0 <= addr <= ADDRESS_MASK:
        raise ValueError(f"address {addr:#x} outside 32-bit address space")
    return addr
