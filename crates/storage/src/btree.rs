//! The height of a bulk-loaded B+tree: the page touches of one index
//! descent, the access path transactional workloads live on.
//!
//! Sec. 5.3 claims "SSDs are better suited for transactional
//! applications rather than warehousing": OLTP is index descents and
//! point pages — random IO that costs a rotating disk a seek per level
//! and a flash device almost nothing. EXT-OLTP charges each transaction
//! [`height`] random page reads.

use crate::page::PAGE_SIZE;

/// Entries per node: 64 KiB pages of (key, child/row) pairs.
pub const FANOUT: usize = PAGE_SIZE / 16;

/// Page touches per point lookup in a B+tree bulk-loaded with `keys`
/// keys: the inner levels that separate the leaf pages, plus one leaf
/// page. A tree of one leaf page still has a (trivial) root level, so
/// every non-empty tree is at least 2 high. Zero for an empty tree.
pub fn height(keys: u64) -> u32 {
    if keys == 0 {
        return 0;
    }
    let fanout = FANOUT as u64;
    let mut pages = keys.div_ceil(fanout);
    let mut inner = 0;
    while pages > 1 {
        pages = pages.div_ceil(fanout);
        inner += 1;
    }
    inner.max(1) + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn height_is_logarithmic() {
        // Both sides of each fanout boundary: one leaf page (under a
        // trivial root), a full level-1 node, and one key past it.
        const F: u64 = FANOUT as u64;
        assert_eq!(F, 4096);
        let boundaries = [
            (0, 0),
            (1, 2),
            (F, 2),
            (F + 1, 2),
            (1_000_000, 2),
            (F * F, 2),
            (F * F + 1, 3),
        ];
        for (keys, h) in boundaries {
            assert_eq!(height(keys), h, "{keys} keys");
        }
        // 150 M keys (Fig. 2's ORDERS): 36 622 leaf pages under 9
        // level-1 pages under one root.
        assert_eq!(height(150_000_000), 3);
    }
}
