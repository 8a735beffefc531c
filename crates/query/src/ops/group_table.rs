//! Key tuples → dense group ids, for the blocking operators.
//!
//! Keys live in one flat arena (group `g` owns
//! `keys[g * width..(g + 1) * width]`) and an open-addressing table of
//! `u32` group ids finds them: no allocation per row or per group, and
//! ids are handed out in first-arrival order, so nothing downstream
//! depends on where a key hashed. The multiplicative hash is not
//! collision-resistant; keys here are column values the engine itself
//! generated, never an outside party's.
//!
//! A batch whose key columns all hold small non-negative values (their
//! bit widths sum to at most [`DIRECT_BITS`]) skips the hash: the key
//! packs into an index of a direct map of ids. The map only remembers
//! what the hash table answered, so a key's first sighting still goes
//! through the table and ids keep their first-arrival order whichever
//! path a batch takes. A caller may pack other small codes than the key
//! values (a dictionary's indices) as long as it packs the same codes for
//! a key every time and decodes a code to its key datum.

use crate::value::Datum;
use std::borrow::Cow;

const EMPTY: u32 = u32::MAX;
const INITIAL_SLOTS: usize = 16;
/// The widest packed key the direct map indexes: 4 096 ids, 16 KB.
const DIRECT_BITS: u32 = 12;

/// An insert-only map from `width`-datum keys to ids `0, 1, 2, …`.
pub(crate) struct GroupTable {
    width: usize,
    keys: Vec<Datum>,
    groups: usize,
    /// A group id or `EMPTY`; the length is a power of two, at least
    /// twice `groups`.
    slots: Vec<u32>,
    /// Bits per key column of the packed key; column 0 takes the lowest.
    direct_bits: Vec<u32>,
    /// The id of each packed key seen since the layout last changed, or
    /// `EMPTY`; `1 << Σ direct_bits` entries, none before the first
    /// direct batch.
    direct: Vec<u32>,
}

/// Multiply-rotate over the key's datums. The multiplier is 2^64/φ: the
/// table indexes by the product's top bits, and a run of consecutive
/// integers (surrogate keys) times the golden ratio lands evenly spread
/// there. FxHash's 2^64/π constant does not — π's continued fraction
/// makes `k` and `k + 355` share a home slot.
fn hash(key: impl Iterator<Item = Datum>) -> u64 {
    key.fold(0, |h: u64, v| {
        (h.rotate_left(5) ^ v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    })
}

impl GroupTable {
    /// An empty table over keys of `width` datums (0 = one global group).
    pub(crate) fn new(width: usize) -> Self {
        GroupTable {
            width,
            keys: Vec::new(),
            groups: 0,
            slots: vec![EMPTY; INITIAL_SLOTS],
            direct_bits: vec![0; width],
            direct: Vec::new(),
        }
    }

    /// Number of distinct keys seen.
    pub(crate) fn len(&self) -> usize {
        self.groups
    }

    /// The key of group `g`.
    pub(crate) fn key(&self, g: u32) -> &[Datum] {
        &self.keys[g as usize * self.width..(g as usize + 1) * self.width]
    }

    /// The home slot of a hash: its top bits, which the multiply mixed.
    fn home(&self, h: u64) -> usize {
        (h >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The slot holding `key`'s group, or the empty slot where the
    /// probe for it ends.
    fn probe(&self, h: u64, matches: impl Fn(u32) -> bool) -> usize {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(h);
        while self.slots[slot] != EMPTY && !matches(self.slots[slot]) {
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// The group of `key`, if it was ever interned.
    pub(crate) fn find(&self, key: &[Datum]) -> Option<u32> {
        debug_assert_eq!(key.len(), self.width);
        let slot = self.probe(hash(key.iter().copied()), |g| {
            self.key(g).iter().zip(key).all(|(a, b)| a == b)
        });
        Some(self.slots[slot]).filter(|g| *g != EMPTY)
    }

    /// Append to `out` the group of each of the `rows` rows whose key is
    /// `(cols[0][r], cols[1][r], …)`, giving first-seen keys the next id.
    pub(crate) fn intern(&mut self, cols: &[Cow<'_, [Datum]>], rows: usize, out: &mut Vec<u32>) {
        assert_eq!(cols.len(), self.width, "key width mismatch");
        let cols: Vec<&[Datum]> = cols.iter().map(|c| &c[..rows]).collect();
        // One OR per value sizes a column; a negative value sets the top
        // bit and so never fits.
        let needed: Vec<u32> = (cols.iter())
            .map(|c| 64 - (c.iter().fold(0, |acc, v| acc | v) as u64).leading_zeros())
            .collect();
        if !self.fit_direct(&needed) {
            self.intern_hashed(&cols, rows, out);
            return;
        }
        // Pack each row's key in place, then turn packed keys into ids.
        let base = out.len();
        out.resize(base + rows, 0);
        let mut shift = 0;
        for (col, bits) in cols.iter().zip(&self.direct_bits) {
            for (packed, v) in out[base..].iter_mut().zip(*col) {
                *packed |= (*v as u32) << shift;
            }
            shift += bits;
        }
        self.resolve(&mut out[base..], |_, v| v as Datum);
    }

    /// Append to `out` the group of each of the `rows` rows of `cols`,
    /// every one interned through the hash table.
    pub(crate) fn intern_hashed(&mut self, cols: &[&[Datum]], rows: usize, out: &mut Vec<u32>) {
        out.extend((0..rows).map(|r| self.intern_key(|k| cols[k][r])));
    }

    /// Whether keys whose column `k` needs `needed[k]` bits pack into the
    /// direct map, widening its layout (and forgetting what it held) when
    /// a column outgrows its bits. A fitting caller packs column `k` at
    /// [`Self::direct_bits`]`[k]` bits, column 0 lowest.
    pub(crate) fn fit_direct(&mut self, needed: &[u32]) -> bool {
        assert_eq!(needed.len(), self.width, "key width mismatch");
        let bits: Vec<u32> = (needed.iter().zip(&self.direct_bits))
            .map(|(n, b)| *n.max(b))
            .collect();
        if bits.iter().sum::<u32>() > DIRECT_BITS {
            return false;
        }
        if bits != self.direct_bits || self.direct.is_empty() {
            self.direct = vec![EMPTY; 1 << bits.iter().sum::<u32>()];
            self.direct_bits = bits;
        }
        true
    }

    /// The direct map's bits per key column, after [`Self::fit_direct`].
    pub(crate) fn direct_bits(&self) -> &[u32] {
        &self.direct_bits
    }

    /// Turn each packed key of `ids` into its group id. A packed key the
    /// direct map has not seen is decoded column by column (`decode(k,
    /// code)`) and interned through the hash table.
    pub(crate) fn resolve(&mut self, ids: &mut [u32], decode: impl Fn(usize, u64) -> Datum) {
        // Held apart from `self` while the loop runs, which lets the
        // compiler keep it in registers across the stores to `ids`.
        let mut direct = std::mem::take(&mut self.direct);
        for slot in ids {
            let packed = *slot as usize;
            if direct[packed] == EMPTY {
                direct[packed] = self.intern_packed(packed, &decode);
            }
            *slot = direct[packed];
        }
        self.direct = direct;
    }

    /// The group of a packed key the direct map has not seen: decoded
    /// column by column and interned through the hash table.
    #[cold]
    #[inline(never)]
    fn intern_packed(&mut self, packed: usize, decode: &impl Fn(usize, u64) -> Datum) -> u32 {
        let mut shift = 0;
        let key: Vec<Datum> = (self.direct_bits.iter().enumerate())
            .map(|(k, bits)| {
                let code = (packed as u64 >> shift) & ((1 << bits) - 1);
                shift += bits;
                decode(k, code)
            })
            .collect();
        self.intern_key(|k| key[k])
    }

    /// The group of the key whose `k`-th datum is `key(k)`, interned
    /// through the hash table.
    pub(crate) fn intern_key(&mut self, key: impl Fn(usize) -> Datum) -> u32 {
        let h = hash((0..self.width).map(&key));
        let slot = self.probe(h, |g| {
            self.key(g).iter().enumerate().all(|(k, v)| *v == key(k))
        });
        if self.slots[slot] != EMPTY {
            return self.slots[slot];
        }
        let g = u32::try_from(self.groups)
            .ok()
            .filter(|g| *g != EMPTY)
            .expect("group ids fit u32");
        self.keys.extend((0..self.width).map(&key));
        self.groups += 1;
        self.slots[slot] = g;
        if self.groups * 2 > self.slots.len() {
            self.grow();
        }
        g
    }

    fn grow(&mut self) {
        self.slots = vec![EMPTY; self.slots.len() * 2];
        for g in 0..self.groups as u32 {
            // Every key is distinct, so each probe ends at an empty slot.
            let slot = self.probe(hash(self.key(g).iter().copied()), |_| false);
            self.slots[slot] = g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn intern(t: &mut GroupTable, cols: &[&[Datum]]) -> Vec<u32> {
        let cows: Vec<Cow<'_, [Datum]>> = cols.iter().map(|c| Cow::Borrowed(*c)).collect();
        let mut out = Vec::new();
        t.intern(&cows, cols.first().map_or(0, |c| c.len()), &mut out);
        out
    }

    #[test]
    fn ids_follow_first_arrival() {
        let mut t = GroupTable::new(1);
        assert_eq!(intern(&mut t, &[&[9, 3, 9, 7, 3]]), [0, 1, 0, 2, 1]);
        assert_eq!(
            intern(&mut t, &[&[7, 5]]),
            [2, 3],
            "ids persist across calls"
        );
        assert_eq!(t.len(), 4);
        assert_eq!(t.key(3), &[5]);
        assert_eq!(t.find(&[3]), Some(1));
        assert_eq!(t.find(&[4]), None);
    }

    /// A key's id is the one its first sighting got, whichever path a
    /// batch takes: direct, hashed (a negative or too wide a key), or
    /// direct again over a widened layout.
    #[test]
    fn ids_stay_first_arrival_across_direct_and_hashed_batches() {
        let mut t = GroupTable::new(2);
        assert_eq!(intern(&mut t, &[&[1, 0, 1], &[2, 3, 2]]), [0, 1, 0]);
        assert_eq!(
            (t.direct_bits.as_slice(), t.direct.len()),
            ([1, 2].as_slice(), 8)
        );
        // A negative key hashes the batch; known keys keep their ids.
        assert_eq!(intern(&mut t, &[&[0, -1, 1], &[3, 0, 2]]), [1, 2, 0]);
        // Direct again over the same layout: (0, 0) is new.
        assert_eq!(intern(&mut t, &[&[1, 0], &[2, 0]]), [0, 3]);
        // 17 needs 5 bits: the map is rebuilt, the ids are not.
        assert_eq!(intern(&mut t, &[&[17, 1, 0], &[0, 2, 3]]), [4, 0, 1]);
        assert_eq!(
            (t.direct_bits.as_slice(), t.direct.len()),
            ([5, 2].as_slice(), 128)
        );
        // 4096 would need 13 + 2 bits: hashed, the layout stays.
        assert_eq!(intern(&mut t, &[&[4096, 17, -1], &[0, 0, 0]]), [5, 4, 2]);
        assert_eq!(t.direct_bits, [5, 2]);
        assert_eq!((t.len(), t.key(5)), (6, [4096, 0].as_slice()));
    }

    #[test]
    fn zero_width_keys_are_one_group_once_a_row_arrives() {
        let mut t = GroupTable::new(0);
        let mut out = Vec::new();
        t.intern(&[], 0, &mut out);
        assert_eq!((t.len(), out.len()), (0, 0), "no row, no group");
        t.intern(&[], 3, &mut out);
        assert_eq!((t.len(), out), (1, vec![0, 0, 0]));
    }

    /// Two-column keys sharing a home slot in the initial table stay
    /// apart: the probe compares whole tuples, not hashes.
    #[test]
    fn colliding_multi_column_keys_stay_distinct() {
        let t = GroupTable::new(2);
        let home = |a: Datum, b: Datum| t.home(hash([a, b].into_iter()));
        let first = (0, 0);
        let clash: Vec<(Datum, Datum)> = (0..64)
            .flat_map(|a| (0..64).map(move |b| (a, b)))
            .filter(|k| *k != first && home(k.0, k.1) == home(first.0, first.1))
            .take(3)
            .collect();
        assert_eq!(clash.len(), 3, "4096 keys over 16 slots collide");
        let a: Vec<Datum> = [first].iter().chain(&clash).map(|k| k.0).collect();
        let b: Vec<Datum> = [first].iter().chain(&clash).map(|k| k.1).collect();
        let mut t = GroupTable::new(2);
        assert_eq!(intern(&mut t, &[&a, &b]), [0, 1, 2, 3]);
        assert_eq!(intern(&mut t, &[&a, &b]), [0, 1, 2, 3]);
        // Same datums in the other column order are another tuple.
        let mut t = GroupTable::new(2);
        assert_eq!(intern(&mut t, &[&[1, 2, 1], &[2, 1, 2]]), [0, 1, 0]);
    }

    #[test]
    fn growth_keeps_every_id() {
        let keys: Vec<Datum> = (0..1000).map(|i| i * 7 - 3000).collect();
        let mut t = GroupTable::new(1);
        let ids = intern(&mut t, &[&keys]);
        assert_eq!(ids, (0..1000).collect::<Vec<u32>>());
        assert!(t.slots.len() >= 2048 && t.slots.len() > INITIAL_SLOTS);
        assert_eq!(intern(&mut t, &[&keys]), ids, "found again after growing");
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.find(&[*k]), Some(i as u32));
        }
    }

    /// Surrogate keys arrive as runs of consecutive or evenly strided
    /// integers; they must not pile up behind a few home slots (with
    /// FxHash's multiplier 6 000 consecutive keys sit 6.7 slots from home
    /// on average, and every probe walks that far).
    #[test]
    fn consecutive_and_strided_keys_stay_near_their_home_slots() {
        for stride in [1, 4, 10, 1 << 20] {
            let keys: Vec<Datum> = (0..6000).map(|i| i * stride).collect();
            let mut t = GroupTable::new(1);
            intern(&mut t, &[&keys]);
            let mask = t.slots.len() - 1;
            let displaced: usize = (t.slots.iter().enumerate())
                .filter(|(_, g)| **g != EMPTY)
                .map(|(at, g)| {
                    (at + t.slots.len() - t.home(hash(t.key(*g).iter().copied()))) & mask
                })
                .sum();
            assert!(displaced < t.len() / 2, "stride {stride}: {displaced}");
        }
    }

    #[test]
    fn extreme_keys_are_ordinary() {
        let mut t = GroupTable::new(1);
        let ids = intern(&mut t, &[&[i64::MIN, i64::MAX, 0, -1, i64::MIN, i64::MAX]]);
        assert_eq!(ids, [0, 1, 2, 3, 0, 1]);
    }
}
