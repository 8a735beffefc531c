//! How a [`Recorder`](crate::recorder::Recorder) stores events, and
//! the [`EventRef`] view it reads them back through.
//!
//! A recorded event is three columns: its timestamp (8 bytes), its
//! header (8 bytes: a shape id and the position of its first slot), and
//! one 8-byte slot per argument — plus one for a span's duration — in a
//! shared arena. The *shape* is everything the events of one emit site
//! on one track share: name, category, track, span-ness, and each
//! argument's key, value kind and text (a `Str` value, a `Label`'s
//! kind). A per-ring table interns it in one probe per event, so no
//! string or track is stored per event. Every column lives in
//! fixed-size blocks that are never reallocated, and an evicted block
//! is reused for the next one. Recording therefore allocates nothing
//! per event and writes each stored byte once, ≈ 41 bytes for the
//! average simulator event — what a traced run pays for is mostly
//! memory it touches for the first time, so the bytes are the cost.

use crate::event::{Arg, ArgValue, Category, TraceEvent, TraceTime, Track, MAX_ARGS};
use std::collections::{BTreeMap, VecDeque};

/// Multiplier of the tables' address hashes (2^64 / φ).
const SPREAD: u64 = 0x9E37_79B9_7F4A_7C15;

/// The same bytes: same address and length, or both empty. A
/// `&'static str` is immutable, so this implies the same text without
/// reading it.
#[inline]
fn same_str(a: &str, b: &str) -> bool {
    a.len() == b.len() && (a.is_empty() || std::ptr::eq(a.as_ptr(), b.as_ptr()))
}

/// How to read an argument slot's eight bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    U64,
    I64,
    F64,
    /// A label's index; its kind is the shape's text.
    Label,
    /// Nothing: the text is the shape's.
    Str,
}

/// One argument as its shape holds it: key, how to read the slot, and
/// the text of a `Str` value or a `Label`'s kind (`""` otherwise).
type ArgShape = (&'static str, Kind, &'static str);

/// A value's kind, text and slot bits.
#[inline]
fn split(value: ArgValue) -> (Kind, &'static str, u64) {
    match value {
        ArgValue::U64(v) => (Kind::U64, "", v),
        ArgValue::I64(v) => (Kind::I64, "", v as u64),
        ArgValue::F64(v) => (Kind::F64, "", v.to_bits()),
        ArgValue::Label { kind, index } => (Kind::Label, kind, u64::from(index)),
        ArgValue::Str(text) => (Kind::Str, text, 0),
    }
}

/// What the events of one emit site on one track share: all of an
/// event but its time, its duration and the numbers it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Shape {
    name: &'static str,
    track: Track,
    cat: Category,
    span: bool,
    len: u8,
    /// The arguments in attachment order; `("", Kind::U64, "")` past
    /// `len`.
    args: [ArgShape; MAX_ARGS],
}

impl Shape {
    /// Is this `event`'s shape, with every string at the address this
    /// one holds? Compares no text.
    #[inline]
    fn same(&self, event: &TraceEvent) -> bool {
        let track = match (self.track, event.track) {
            (Track::Device { kind: a, index: i }, Track::Device { kind: b, index: j }) => {
                i == j && same_str(a, b)
            }
            (a, b) => a == b,
        };
        same_str(self.name, event.name)
            && track
            && self.cat == event.cat
            && self.span == event.dur.is_some()
            && usize::from(self.len) == event.len
            && (self.args.iter().zip(&event.slots[..event.len])).all(|(a, &(key, value))| {
                let (kind, text, _) = split(value);
                same_str(a.0, key) && a.1 == kind && same_str(a.2, text)
            })
    }

    /// Arena slots an event of this shape takes: its duration when a
    /// span, then one per argument.
    fn slots(&self) -> usize {
        usize::from(self.span) + usize::from(self.len)
    }

    /// Argument `i` of an event of this shape whose slot holds `bits`.
    fn arg(&self, i: usize, bits: u64) -> Arg {
        let (key, kind, text) = self.args[i];
        let value = match kind {
            Kind::U64 => ArgValue::U64(bits),
            Kind::I64 => ArgValue::I64(bits as i64),
            Kind::F64 => ArgValue::F64(f64::from_bits(bits)),
            Kind::Label => ArgValue::Label {
                kind: text,
                index: bits as u32,
            },
            Kind::Str => ArgValue::Str(text),
        };
        (key, value)
    }
}

/// The shapes one [`Rings`] has seen, numbered in first-seen order. A
/// stored event names its shape by id, so the shard merge rewrites each
/// shape's track once instead of every event's.
#[derive(Debug, Clone, Default)]
struct Shapes {
    list: Vec<Shape>,
    /// The id of every shape in `list`, by content, for what `recent`
    /// misses.
    ids: BTreeMap<Shape, u32>,
    /// Recently seen shapes' ids, direct-mapped by a hash of the
    /// shape's string addresses; `u32::MAX` when empty. A hit is
    /// confirmed against `list` by address, so it reads no text.
    /// Allocated with the first shape: a recorder that records nothing
    /// (a metrics-only one) pays nothing for it.
    recent: Vec<u32>,
}

impl Shapes {
    const WAYS: usize = 1024;

    /// The id of `event`'s shape; `hash` mixes its arguments' string
    /// addresses and kinds.
    #[inline]
    fn id(&mut self, event: &TraceEvent, hash: u64) -> u32 {
        let track = match event.track {
            Track::Main => 1,
            Track::Exec => 2,
            Track::Stream(s) => 3 | u64::from(s) << 2,
            Track::Device { kind, index } => kind.as_ptr() as u64 ^ u64::from(index) << 40,
        };
        let hash = (hash ^ event.name.as_ptr() as u64).rotate_left(17) ^ track;
        let way = (hash.wrapping_mul(SPREAD) >> (64 - Shapes::WAYS.trailing_zeros())) as usize;
        let id = self.recent.get(way).copied().unwrap_or(u32::MAX);
        match self.list.get(id as usize) {
            Some(shape) if shape.same(event) => id,
            _ => self.id_by_content(event, way),
        }
    }

    fn id_by_content(&mut self, event: &TraceEvent, way: usize) -> u32 {
        let mut shape = Shape {
            name: event.name,
            track: event.track,
            cat: event.cat,
            span: event.dur.is_some(),
            len: event.len as u8,
            args: [("", Kind::U64, ""); MAX_ARGS],
        };
        for (arg, &(key, value)) in shape.args.iter_mut().zip(&event.slots[..event.len]) {
            let (kind, text, _) = split(value);
            *arg = (key, kind, text);
        }
        if self.recent.is_empty() {
            self.recent = vec![u32::MAX; Shapes::WAYS];
        }
        let next = self.list.len() as u32;
        let id = *self.ids.entry(shape).or_insert(next);
        if id == next {
            self.list.push(shape);
        } else {
            // The same text through other addresses: the next event from
            // this site hits.
            self.list[id as usize] = shape;
        }
        self.recent[way] = id;
        id
    }

    fn get(&self, id: u32) -> &Shape {
        &self.list[id as usize]
    }

    /// Replace every shape's track by `f(track)`, once each.
    fn retrack(&mut self, mut f: impl FnMut(Track) -> Track) {
        for shape in &mut self.list {
            shape.track = f(shape.track);
        }
        // Look-ups follow the new tracks; where two old shapes became
        // one, the lower id answers.
        self.ids.clear();
        for (id, shape) in (0..).zip(&self.list) {
            self.ids.entry(*shape).or_insert(id);
        }
        self.recent.fill(u32::MAX);
    }
}

/// An event's fixed-width part besides its time: 8 bytes. Its duration
/// and arguments are its shape's `slots()` consecutive arena slots from
/// arena position `slots_at`.
#[derive(Debug, Clone, Copy)]
struct Header {
    /// [`Shapes`] id.
    shape: u32,
    /// Arena position of the event's first slot.
    slots_at: u32,
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
    /// The position after the last entry.
    end: u32,
    /// The last released block, emptied when reused.
    spare: Option<Vec<T>>,
}

impl<T> Default for Blocks<T> {
    fn default() -> Self {
        Blocks {
            blocks: VecDeque::new(),
            base: 0,
            end: 0,
            spare: None,
        }
    }
}

impl<T: Copy> Blocks<T> {
    /// Append `items` side by side and return the position of the
    /// first. Items that do not fit the back block start a new one and
    /// leave the back block's last slots unused.
    #[inline]
    fn extend(&mut self, items: &[T]) -> u32 {
        match self.blocks.back_mut() {
            Some(last) if last.len() + items.len() <= BLOCK => last.extend_from_slice(items),
            _ if items.is_empty() => {}
            _ => self.start_block().extend_from_slice(items),
        }
        self.end = self.end.wrapping_add(items.len() as u32);
        self.end.wrapping_sub(items.len() as u32)
    }

    /// Open the next block, and move `end` to its first slot.
    #[cold]
    fn start_block(&mut self) -> &mut Vec<T> {
        let mut block = self
            .spare
            .take()
            .unwrap_or_else(|| Vec::with_capacity(BLOCK));
        block.clear();
        self.end = (self.base).wrapping_add((self.blocks.len() * BLOCK) as u32);
        self.blocks.push_back(block);
        let last = self.blocks.len() - 1;
        &mut self.blocks[last]
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

    /// Every entry from position `from` on, in order, a block's worth
    /// at a time.
    fn chunks_from(&self, from: u32) -> impl Iterator<Item = &[T]> + '_ {
        let off = from.wrapping_sub(self.base) as usize;
        let (skip, first) = (off / BLOCK, off % BLOCK);
        self.blocks
            .iter()
            .skip(skip)
            .zip(std::iter::once(first).chain(std::iter::repeat(0)))
            .map(|(block, from)| &block[from..])
    }
}

/// Event storage: a column of timestamps and one of headers, by
/// position, plus one shared arena holding every event's slots, each
/// event's side by side and in event order — so recording an event
/// allocates nothing, and the oldest event's slots are always the
/// arena's front.
#[derive(Debug, Clone, Default)]
pub(crate) struct Rings {
    times: Blocks<TraceTime>,
    events: Blocks<Header>,
    /// Position of the oldest stored event in both columns.
    front: u32,
    slots: Blocks<u64>,
    /// The latest timestamp ever pushed: no stored one is later.
    max_at: TraceTime,
    shapes: Shapes,
}

impl Rings {
    /// Number of stored events.
    pub(crate) fn len(&self) -> usize {
        self.events.end.wrapping_sub(self.front) as usize
    }

    /// Header and arena blocks held — what eviction must release (the
    /// time column holds as many blocks as the headers).
    #[cfg(test)]
    pub(crate) fn held(&self) -> (usize, usize) {
        debug_assert_eq!(self.times.blocks.len(), self.events.blocks.len());
        (self.events.blocks.len(), self.slots.blocks.len())
    }

    /// Append one event.
    #[inline]
    pub(crate) fn push(&mut self, event: TraceEvent) {
        let span = usize::from(event.dur.is_some());
        let mut slots = [event.dur.unwrap_or(0); MAX_ARGS + 1];
        let mut hash = 0u64;
        for (i, &(key, value)) in event.slots[..event.len].iter().enumerate() {
            let (kind, text, bits) = split(value);
            slots[span + i] = bits;
            let addrs = key.as_ptr() as u64 ^ (text.as_ptr() as u64).rotate_left(32);
            hash = hash.rotate_left(11) ^ addrs ^ kind as u64;
        }
        let header = Header {
            shape: self.shapes.id(&event, hash),
            slots_at: self.slots.extend(&slots[..span + event.len]),
        };
        self.times.extend(&[event.at]);
        self.events.extend(&[header]);
        self.max_at = self.max_at.max(event.at);
    }

    /// Evict the oldest event and release its slots.
    pub(crate) fn pop_front(&mut self) {
        if self.len() == 0 {
            return;
        }
        self.front = self.front.wrapping_add(1);
        self.times.release_before(self.front);
        self.events.release_before(self.front);
        let live = match self.len() {
            0 => self.slots.end,
            _ => self.header(0).slots_at,
        };
        self.slots.release_before(live);
    }

    /// Replace every shape's track by `f(track)`, once each.
    pub(crate) fn retrack(&mut self, f: impl FnMut(Track) -> Track) {
        self.shapes.retrack(f);
    }

    /// Every event's timestamp, in ring order, a block's worth at a
    /// time.
    pub(crate) fn times(&self) -> impl Iterator<Item = &[TraceTime]> + '_ {
        self.times.chunks_from(self.front)
    }

    /// No stored timestamp is later than this.
    pub(crate) fn max_at(&self) -> TraceTime {
        self.max_at
    }

    fn header(&self, seq: usize) -> Header {
        self.events.slice(self.front.wrapping_add(seq as u32), 1)[0]
    }

    /// The event at ring position `seq`.
    pub(crate) fn view(&self, seq: usize) -> EventRef<'_> {
        let pos = self.front.wrapping_add(seq as u32);
        let h = self.events.slice(pos, 1)[0];
        let shape = self.shapes.get(h.shape);
        let slots = self.slots.slice(h.slots_at, shape.slots());
        let (dur, values) = match shape.span {
            true => (Some(slots[0]), &slots[1..]),
            false => (None, slots),
        };
        EventRef {
            at: self.times.slice(pos, 1)[0],
            dur,
            cat: shape.cat,
            name: shape.name,
            track: shape.track,
            shape,
            values,
        }
    }
}

/// One recorded event as a [`crate::Recorder`] hands it out: the stored
/// fields by value plus a view of its argument values in the recorder's
/// arena.
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
    shape: &'a Shape,
    values: &'a [u64],
}

impl<'a> EventRef<'a> {
    /// The event's arguments, in attachment order.
    pub fn args(&self) -> impl ExactSizeIterator<Item = Arg> + 'a {
        let (shape, values) = (self.shape, self.values);
        (0..values.len()).map(move |i| shape.arg(i, values[i]))
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
        assert_eq!(std::mem::size_of::<TraceTime>(), 8);
        assert_eq!(std::mem::size_of::<Header>(), 8);
        // A span with two arguments: time, header, duration, two values.
        let mut rings = Rings::default();
        let at = TraceTime::from_nanos(7);
        let span = TraceEvent::span(at, 3, Category::Io, "io", Track::Main);
        rings.push(span.arg("bytes", 4096u64).arg("joules", 0.5));
        rings.push(TraceEvent::instant(at, Category::Sim, "tick", Track::Main));
        let h = rings.header(0);
        assert_eq!((h.slots_at, rings.shapes.get(h.shape).slots()), (0, 3));
        assert_eq!(
            rings.header(1).slots_at,
            3,
            "an instant without arguments takes no slot"
        );
        assert_eq!(rings.slots.end, 3);
        assert_eq!(
            (1u64 << 32) % BLOCK as u64,
            0,
            "positions wrap onto a block start"
        );
    }

    #[test]
    fn texts_are_part_of_the_shape_by_content() {
        let mut rings = Rings::default();
        let owned: &'static str = Box::leak("disk".to_string().into_boxed_str());
        let ev = |value| {
            TraceEvent::instant(TraceTime::ZERO, Category::Io, "io", Track::Main).arg("k", value)
        };
        let label = |kind| ArgValue::Label { kind, index: 3 };
        let a = shape_of(&mut rings, ev(label("disk")));
        assert_eq!(
            a,
            shape_of(&mut rings, ev(label(owned))),
            "same text, another pointer"
        );
        // A prefix of a known string shares its address, not its shape.
        let disk_io: &'static str = "disk_io";
        let whole = shape_of(&mut rings, ev(label(disk_io)));
        assert_ne!(whole, a);
        assert_eq!(shape_of(&mut rings, ev(label(&disk_io[..4]))), a);
        assert_ne!(
            shape_of(&mut rings, ev(ArgValue::Str("disk"))),
            a,
            "a text is not a label"
        );
        // More distinct texts than cache ways: ids stay stable, values
        // read back.
        let many: Vec<&'static str> = (0..2000)
            .map(|i| &*Box::leak(format!("text{i}").into_boxed_str()))
            .collect();
        let first: Vec<u32> = many
            .iter()
            .map(|t| shape_of(&mut rings, ev(ArgValue::Str(t))))
            .collect();
        let again: Vec<u32> = many
            .iter()
            .map(|t| shape_of(&mut rings, ev(ArgValue::Str(t))))
            .collect();
        assert_eq!(first, again);
        let seq = rings.len() - 1;
        assert_eq!(rings.view(seq).arg("k"), Some(ArgValue::Str(many[1999])));
        assert_eq!(rings.view(0).arg("k"), Some(label("disk")));
    }

    /// The shape id `rings` gives `event`.
    fn shape_of(rings: &mut Rings, event: TraceEvent) -> u32 {
        rings.push(event);
        rings.header(rings.len() - 1).shape
    }

    #[test]
    fn shapes_intern_by_content_and_retrack_each_once() {
        let mut rings = Rings::default();
        let owned: &'static str = Box::leak("disk".to_string().into_boxed_str());
        let ev = |name, track| TraceEvent::instant(TraceTime::ZERO, Category::Io, name, track);
        let disk = |kind, index| Track::Device { kind, index };
        let ids: Vec<u32> = (0..3000)
            .map(|i| shape_of(&mut rings, ev("s", Track::Stream(i % 1500))))
            .collect();
        assert_eq!(ids[1500..], ids[..1500], "ids outlive cache collisions");
        let a = shape_of(&mut rings, ev("io", disk("disk", 3)));
        assert_eq!(a, shape_of(&mut rings, ev("io", disk(owned, 3))));
        assert_eq!(a, shape_of(&mut rings, ev("io", disk("disk", 3))));
        // A prefix shares the name's address, not its shape.
        assert_ne!(a, shape_of(&mut rings, ev(&"io"[..1], disk("disk", 3))));
        let with = |key, value: ArgValue| ev("io", disk("disk", 3)).arg(key, value);
        let (u, f) = (ArgValue::U64(1), ArgValue::F64(1.0));
        let keyed = shape_of(&mut rings, with("bytes", u));
        assert_ne!(keyed, a, "keys are part of the shape");
        assert_ne!(
            keyed,
            shape_of(&mut rings, with("bytes", f)),
            "so are kinds"
        );
        assert_ne!(keyed, shape_of(&mut rings, with("joules", u)));
        let main = shape_of(&mut rings, ev("m", Track::Main));
        rings.retrack(|t| match t {
            Track::Stream(s) => Track::Stream(s + 1),
            other => other,
        });
        assert_eq!(rings.shapes.get(ids[0]).track, Track::Stream(1));
        // Stream 1499 became 1500, a new shape; stream 1 is now id 0's.
        assert_eq!(shape_of(&mut rings, ev("s", Track::Stream(1))), ids[0]);
        assert_eq!(
            shape_of(&mut rings, ev("s", Track::Stream(1500))),
            ids[1499]
        );
        assert_eq!(shape_of(&mut rings, ev("m", Track::Main)), main);
    }
}
