//! How a [`Recorder`](crate::recorder::Recorder) stores events, and
//! the [`EventRef`] view it reads them back through.
//!
//! A recorded event is a 32-byte header plus 16 bytes per argument in a
//! shared arena; every static string it carries (name, argument keys
//! and texts, label kinds) is a two-byte id into a per-ring table, and
//! its track an id into a per-ring [`Track`] table. Headers and
//! argument slots live in fixed-size blocks that are never reallocated,
//! and an evicted block is reused for the next one. Recording therefore
//! allocates nothing per event and writes each stored byte once, ~66
//! bytes for the average simulator event — what a traced run pays for
//! is mostly memory it touches for the first time, so the bytes are the
//! cost.

use crate::event::{Arg, ArgValue, Category, TraceEvent, TraceTime, Track, MAX_ARGS};
use std::collections::{BTreeMap, VecDeque};

/// The static strings one [`Rings`] has seen — event names, argument
/// keys and texts, label kinds — numbered in first-seen order, so a
/// stored event spends two bytes on each instead of a sixteen-byte
/// `&'static str`.
#[derive(Debug, Clone)]
struct Names {
    list: Vec<&'static str>,
    /// Recently seen strings and their ids, direct-mapped by address: a
    /// literal reaches the recorder through the same pointer every
    /// time, so this answers without comparing text.
    recent: [Option<(&'static str, u16)>; 64],
}

impl Default for Names {
    fn default() -> Self {
        Names {
            list: Vec::new(),
            recent: [None; 64],
        }
    }
}

impl Names {
    /// Shown for every string past the 65 535th distinct one.
    const FULL: &'static str = "<name table full>";

    #[inline]
    fn id(&mut self, s: &'static str) -> u16 {
        let way = (s.as_ptr() as usize >> 2) % self.recent.len();
        match self.recent[way] {
            // Same address and length: the same immutable bytes.
            Some((seen, id))
                if std::ptr::eq(seen.as_ptr(), s.as_ptr()) && seen.len() == s.len() =>
            {
                id
            }
            _ => self.id_by_text(s, way),
        }
    }

    fn id_by_text(&mut self, s: &'static str, way: usize) -> u16 {
        let id = match self.list.iter().position(|n| *n == s) {
            Some(i) => i as u16,
            None if self.list.len() == usize::from(u16::MAX) => return u16::MAX,
            None => {
                self.list.push(s);
                (self.list.len() - 1) as u16
            }
        };
        self.recent[way] = Some((s, id));
        id
    }

    fn get(&self, id: u16) -> &'static str {
        self.list
            .get(usize::from(id))
            .copied()
            .unwrap_or(Self::FULL)
    }
}

/// The tracks one [`Rings`] has seen, numbered in first-seen order. A
/// stored event names its track by id, so the shard merge rewrites each
/// distinct track once instead of every event's.
#[derive(Debug, Clone)]
struct Tracks {
    list: Vec<Track>,
    /// The id of every track in `list`, for what `recent` misses.
    ids: BTreeMap<Track, u32>,
    /// Recently seen tracks and their ids, direct-mapped by a hash of
    /// the track.
    recent: [Option<(Track, u32)>; 64],
}

impl Default for Tracks {
    fn default() -> Self {
        Tracks {
            list: Vec::new(),
            ids: BTreeMap::new(),
            recent: [None; 64],
        }
    }
}

impl Tracks {
    #[inline]
    fn id(&mut self, track: Track) -> u32 {
        let hash = match track {
            Track::Main => 0,
            Track::Exec => 1,
            Track::Stream(s) => 2 + 3 * s as usize,
            Track::Device { kind, index } => (kind.as_ptr() as usize >> 2) + 3 * index as usize,
        };
        let way = hash % self.recent.len();
        match self.recent[way] {
            Some((seen, id)) if seen == track => id,
            _ => {
                let next = self.list.len() as u32;
                let id = *self.ids.entry(track).or_insert(next);
                if id == next {
                    self.list.push(track);
                }
                self.recent[way] = Some((track, id));
                id
            }
        }
    }

    fn get(&self, id: u32) -> Track {
        self.list[id as usize]
    }

    /// Replace every track by `f(track)`, each once.
    fn retrack(&mut self, mut f: impl FnMut(Track) -> Track) {
        for track in &mut self.list {
            *track = f(*track);
        }
        // Look-ups follow the new tracks; where two old tracks became
        // one, the lower id answers.
        self.ids.clear();
        for (id, track) in (0..).zip(&self.list) {
            self.ids.entry(*track).or_insert(id);
        }
        self.recent = [None; 64];
    }
}

/// The fixed-width part of a stored event: 32 bytes. Its arguments are
/// `args_len` consecutive arena slots starting at arena position
/// `args_at`.
#[derive(Debug, Clone, Copy)]
struct Header {
    at: TraceTime,
    /// Span duration; meaningful only when `span`.
    dur: u64,
    /// Arena position of the first argument slot.
    args_at: u32,
    /// [`Tracks`] id of the event's track.
    track: u32,
    /// [`Names`] id of the event name.
    name: u16,
    cat: Category,
    args_len: u8,
    span: bool,
}

/// How to read a [`Packed`] slot's `bits`.
#[derive(Debug, Clone, Copy)]
enum Repr {
    U64,
    I64,
    F64,
    /// `kind << 32 | index`, `kind` a [`Names`] id.
    Label,
    /// A [`Names`] id.
    Str,
}

/// One stored argument: 16 bytes.
#[derive(Debug, Clone, Copy)]
struct Packed {
    bits: u64,
    /// [`Names`] id of the key.
    key: u16,
    repr: Repr,
}

/// Entries per block of a [`Blocks`].
pub(crate) const BLOCK: usize = 8192;

/// A queue of `T` in blocks of [`BLOCK`] entries, addressed by
/// position: counted (wrapping) from the queue's creation, so entry `p`
/// sits `p - base` slots past the front block's first. A block is
/// allocated with room for [`BLOCK`] entries and never grows, so an
/// entry is written once and never moves; a released block is kept for
/// the next one. [`BLOCK`] divides 2^32, so every block starts at a
/// multiple of it even after the positions wrap.
#[derive(Debug, Clone)]
struct Blocks<T> {
    blocks: VecDeque<Vec<T>>,
    /// Position of `blocks[0]`'s first slot.
    base: u32,
    /// The last released block, emptied when reused.
    spare: Option<Vec<T>>,
}

impl<T> Default for Blocks<T> {
    fn default() -> Self {
        Blocks {
            blocks: VecDeque::new(),
            base: 0,
            spare: None,
        }
    }
}

impl<T: Copy> Blocks<T> {
    /// The position after the last entry.
    fn end(&self) -> u32 {
        match self.blocks.back() {
            Some(last) => self
                .base
                .wrapping_add(((self.blocks.len() - 1) * BLOCK + last.len()) as u32),
            None => self.base,
        }
    }

    /// Append `items` side by side and return the position of the
    /// first. Items that do not fit the back block start a new one and
    /// leave the back block's last slots unused.
    #[inline]
    fn extend(&mut self, items: &[T]) -> u32 {
        if items.is_empty() {
            return self.end();
        }
        if !matches!(self.blocks.back(), Some(last) if last.len() + items.len() <= BLOCK) {
            let mut block = self
                .spare
                .take()
                .unwrap_or_else(|| Vec::with_capacity(BLOCK));
            block.clear();
            self.blocks.push_back(block);
        }
        let at = self.end();
        if let Some(last) = self.blocks.back_mut() {
            last.extend_from_slice(items);
        }
        at
    }

    /// The `len` entries from position `at`.
    #[inline]
    fn slice(&self, at: u32, len: usize) -> &[T] {
        if len == 0 {
            return &[];
        }
        let off = at.wrapping_sub(self.base) as usize;
        let from = off % BLOCK;
        &self.blocks[off / BLOCK][from..from + len]
    }

    /// Release the front blocks that end at or before position `live`.
    fn release_before(&mut self, live: u32) {
        while !self.blocks.is_empty() && live.wrapping_sub(self.base) as usize >= BLOCK {
            self.spare = self.blocks.pop_front();
            self.base = self.base.wrapping_add(BLOCK as u32);
        }
    }

    /// Every entry from position `from` on, in order.
    fn iter_from(&self, from: u32) -> impl Iterator<Item = &T> + '_ {
        let off = from.wrapping_sub(self.base) as usize;
        let (skip, first) = (off / BLOCK, off % BLOCK);
        self.blocks
            .iter()
            .skip(skip)
            .zip(std::iter::once(first).chain(std::iter::repeat(0)))
            .flat_map(|(block, from)| &block[from..])
    }
}

/// Event storage: a ring of fixed-width headers plus one shared arena
/// holding every event's argument slots, each event's side by side and
/// in event order — so recording an event allocates nothing, and the
/// oldest event's arguments are always the arena's front.
#[derive(Debug, Clone, Default)]
pub(crate) struct Rings {
    events: Blocks<Header>,
    /// Position of the oldest stored header.
    front: u32,
    args: Blocks<Packed>,
    names: Names,
    tracks: Tracks,
}

impl Rings {
    /// Number of stored events.
    pub(crate) fn len(&self) -> usize {
        self.events.end().wrapping_sub(self.front) as usize
    }

    /// Header and arena blocks held — what eviction must release.
    #[cfg(test)]
    pub(crate) fn held(&self) -> (usize, usize) {
        (self.events.blocks.len(), self.args.blocks.len())
    }

    /// Append one event.
    #[inline]
    pub(crate) fn push(&mut self, event: TraceEvent) {
        let mut packed = [Packed {
            bits: 0,
            key: 0,
            repr: Repr::U64,
        }; MAX_ARGS];
        for (p, &(key, value)) in packed.iter_mut().zip(&event.slots[..event.len]) {
            let (repr, bits) = match value {
                ArgValue::U64(v) => (Repr::U64, v),
                ArgValue::I64(v) => (Repr::I64, v as u64),
                ArgValue::F64(v) => (Repr::F64, v.to_bits()),
                ArgValue::Label { kind, index } => (
                    Repr::Label,
                    u64::from(self.names.id(kind)) << 32 | u64::from(index),
                ),
                ArgValue::Str(text) => (Repr::Str, u64::from(self.names.id(text))),
            };
            let key = self.names.id(key);
            *p = Packed { bits, key, repr };
        }
        let header = Header {
            at: event.at,
            dur: event.dur.unwrap_or(0),
            args_at: self.args.extend(&packed[..event.len]),
            track: self.tracks.id(event.track),
            name: self.names.id(event.name),
            cat: event.cat,
            args_len: event.len as u8,
            span: event.dur.is_some(),
        };
        self.events.extend(&[header]);
    }

    /// Evict the oldest event and release its arguments.
    pub(crate) fn pop_front(&mut self) {
        if self.len() == 0 {
            return;
        }
        self.front = self.front.wrapping_add(1);
        self.events.release_before(self.front);
        let live = match self.len() {
            0 => self.args.end(),
            _ => self.header(0).args_at,
        };
        self.args.release_before(live);
    }

    /// Replace every distinct track by `f(track)`, once each.
    pub(crate) fn retrack(&mut self, f: impl FnMut(Track) -> Track) {
        self.tracks.retrack(f);
    }

    /// Every event's timestamp, in ring order.
    pub(crate) fn times(&self) -> impl Iterator<Item = TraceTime> + '_ {
        self.events.iter_from(self.front).map(|h| h.at)
    }

    fn header(&self, seq: usize) -> &Header {
        &self.events.slice(self.front.wrapping_add(seq as u32), 1)[0]
    }

    fn arg(&self, p: &Packed) -> Arg {
        let value = match p.repr {
            Repr::U64 => ArgValue::U64(p.bits),
            Repr::I64 => ArgValue::I64(p.bits as i64),
            Repr::F64 => ArgValue::F64(f64::from_bits(p.bits)),
            Repr::Label => ArgValue::Label {
                kind: self.names.get((p.bits >> 32) as u16),
                index: p.bits as u32,
            },
            Repr::Str => ArgValue::Str(self.names.get(p.bits as u16)),
        };
        (self.names.get(p.key), value)
    }

    /// The event at ring position `seq`.
    pub(crate) fn view(&self, seq: usize) -> EventRef<'_> {
        let h = self.header(seq);
        EventRef {
            at: h.at,
            dur: h.span.then_some(h.dur),
            cat: h.cat,
            name: self.names.get(h.name),
            track: self.tracks.get(h.track),
            packed: self.args.slice(h.args_at, usize::from(h.args_len)).iter(),
            rings: self,
        }
    }
}

/// One recorded event as a [`crate::Recorder`] hands it out: the header fields
/// by value plus a view of its arguments in the recorder's arena.
#[derive(Debug, Clone)]
pub struct EventRef<'a> {
    /// Event start, in simulated time.
    pub at: TraceTime,
    /// Span duration in simulated nanoseconds; `None` for instants.
    pub dur: Option<u64>,
    /// Filter/grouping category.
    pub cat: Category,
    /// Stable event name.
    pub name: &'static str,
    /// Display lane.
    pub track: Track,
    packed: std::slice::Iter<'a, Packed>,
    rings: &'a Rings,
}

impl<'a> EventRef<'a> {
    /// The event's arguments, in attachment order.
    pub fn args(&self) -> impl ExactSizeIterator<Item = Arg> + 'a {
        let rings = self.rings;
        self.packed.clone().map(move |p| rings.arg(p))
    }

    /// The value attached under `key`, if any.
    pub fn arg(&self, key: &str) -> Option<ArgValue> {
        self.args().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stored_sizes_are_what_the_docs_say() {
        assert_eq!(std::mem::size_of::<Header>(), 32);
        assert_eq!(std::mem::size_of::<Packed>(), 16);
        assert_eq!(
            (1u64 << 32) % BLOCK as u64,
            0,
            "positions wrap onto a block start"
        );
    }

    #[test]
    fn names_intern_by_content_and_survive_cache_collisions() {
        let mut names = Names::default();
        let owned: &'static str = Box::leak("disk".to_string().into_boxed_str());
        let (a, b) = (names.id("disk"), names.id(owned));
        assert_eq!(a, b, "same text through another pointer is the same name");
        // A prefix of a known string shares its address, not its id.
        let disk_io: &'static str = "disk_io";
        let (whole, prefix) = (names.id(disk_io), names.id(&disk_io[..4]));
        assert_ne!(whole, prefix);
        assert_eq!(prefix, a);
        // More distinct strings than cache ways: ids stay stable.
        let many: Vec<&'static str> = (0..200)
            .map(|i| &*Box::leak(format!("name{i}").into_boxed_str()))
            .collect();
        let first: Vec<u16> = many.iter().map(|s| names.id(s)).collect();
        let again: Vec<u16> = many.iter().map(|s| names.id(s)).collect();
        assert_eq!(first, again);
        assert!(many.iter().zip(&first).all(|(s, id)| names.get(*id) == *s));
        assert_eq!(names.get(u16::MAX), Names::FULL);
    }

    #[test]
    fn tracks_intern_by_value_and_retrack_each_once() {
        let mut tracks = Tracks::default();
        let owned: &'static str = Box::leak("disk".to_string().into_boxed_str());
        let disk = |kind, index| Track::Device { kind, index };
        let ids: Vec<u32> = (0..300)
            .map(|i| tracks.id(Track::Stream(i % 150)))
            .collect();
        assert_eq!(ids[150..], ids[..150], "ids outlive cache collisions");
        assert_eq!(tracks.id(disk("disk", 3)), tracks.id(disk(owned, 3)));
        let main = tracks.id(Track::Main);
        tracks.retrack(|t| match t {
            Track::Stream(s) => Track::Stream(s + 1),
            other => other,
        });
        assert_eq!(tracks.get(ids[0]), Track::Stream(1));
        // Stream 149 became 150, a new track; stream 1 is now id 0's.
        assert_eq!(tracks.id(Track::Stream(1)), ids[0]);
        assert_eq!(tracks.id(Track::Stream(150)), ids[149]);
        assert_eq!(tracks.id(Track::Main), main);
    }
}
