//! Heap bytes from lengths and capacities: the pricing rules every
//! at-rest structure's `heap_bytes()` shares.
//!
//! A price is the bytes a structure asked the allocator for, read off
//! its lengths and capacities, never off an allocator: the same run
//! prices the same on any machine and at any worker-thread count, so
//! the per-tier sums can be gated exactly. Allocator headers and
//! rounding are not counted.

use std::mem::size_of;

/// Bytes a `Vec` holds: its capacity, not its length — a vector keeps
/// what it grew to after a drain or a clear.
pub fn vec_bytes<T>(v: &Vec<T>) -> u64 {
    (v.capacity() * size_of::<T>()) as u64
}

/// Control bytes a hash table carries past its last bucket (the SIMD
/// group width of the standard library's tables on x86-64).
const GROUP_WIDTH: usize = 16;

/// Bytes of a standard hash table of `T` entries (`(K, V)` for a map,
/// `T` for a set) with room for `slots` entries: its bucket count is the
/// power of two that holds `slots` at 7/8 load, and each bucket is one
/// entry and one control byte.
///
/// Pass the table's `capacity()` where it only grows or is cleared —
/// then the price is exact. Pass its `len()` where entries are removed:
/// a removal may leave a tombstone that lowers `capacity()` by an amount
/// that depends on where the keys hashed, and a price must not.
pub fn table_bytes<T>(slots: usize) -> u64 {
    if slots == 0 {
        return 0;
    }
    let buckets = match slots {
        1..=3 => 4,
        4..=7 => 8,
        _ => (slots * 8 / 7).next_power_of_two(),
    };
    let align = std::mem::align_of::<T>().max(GROUP_WIDTH);
    let entries = (buckets * size_of::<T>()).next_multiple_of(align);
    (entries + buckets + GROUP_WIDTH) as u64
}

/// Entries one B-tree node holds.
const BTREE_NODE_ENTRIES: usize = 11;

/// Bytes of a standard `BTreeMap<K, V>` of `len` entries (`V = ()` for a
/// set), priced as full leaves under one level of internal nodes: exact
/// up to two levels filled in key order — eleven entries make one leaf,
/// the thirteen children of the largest district two leaves and a root
/// — and a floor beyond.
pub fn btree_bytes<K, V>(len: usize) -> u64 {
    // A leaf: parent pointer, parent index and length, then the keys
    // and the values; an internal node adds one child pointer more than
    // it has entries.
    let leaf = (size_of::<usize>()
        + 2 * size_of::<u16>()
        + BTREE_NODE_ENTRIES * (size_of::<K>() + size_of::<V>()))
    .next_multiple_of(size_of::<usize>());
    let internal = leaf + (BTREE_NODE_ENTRIES + 1) * size_of::<usize>();
    let leaves = len.div_ceil(BTREE_NODE_ENTRIES);
    let parents = if leaves > 1 {
        leaves.div_ceil(BTREE_NODE_ENTRIES + 1)
    } else {
        0
    };
    (leaves * leaf + parents * internal) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn a_vector_is_priced_by_its_capacity() {
        let mut v: Vec<u64> = Vec::with_capacity(10);
        v.push(1);
        assert_eq!(vec_bytes(&v), 80);
        v.clear();
        assert_eq!(vec_bytes(&v), 80);
        assert_eq!(vec_bytes(&Vec::<u64>::new()), 0);
    }

    #[test]
    fn a_grown_table_prices_the_same_from_its_capacity_and_its_length() {
        let mut map: HashMap<u64, u64> = HashMap::new();
        assert_eq!(table_bytes::<(u64, u64)>(map.capacity()), 0);
        for k in 0..1_000u64 {
            map.insert(k, k);
            let from_len = table_bytes::<(u64, u64)>(map.len());
            assert_eq!(table_bytes::<(u64, u64)>(map.capacity()), from_len, "{k}");
        }
        // 1 000 entries at 7/8 load take 2 048 buckets of 16 bytes.
        assert_eq!(
            table_bytes::<(u64, u64)>(map.len()),
            2_048 * 16 + 2_048 + 16
        );
    }

    #[test]
    fn a_btree_is_priced_by_full_leaves_and_their_parents() {
        // 8 + 2 + 2 + 11 × (2 + 8) = 122 bytes, rounded up to 128.
        assert_eq!(btree_bytes::<u16, u64>(11), 128);
        // Twelve entries split the leaf in two under a root that also
        // holds twelve child pointers.
        assert_eq!(btree_bytes::<u16, u64>(12), 2 * 128 + (128 + 96));
        assert_eq!(btree_bytes::<u16, u64>(0), 0);
    }
}
