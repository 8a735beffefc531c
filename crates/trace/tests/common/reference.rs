//! The recorder's storage before it moved into blocks and a track
//! table, kept as the oracle of `recorder::tests::blocks_match_the_reference_rings`:
//! the `Rings` of two `VecDeque`s whose headers carry their tracks
//! inline, and the `Recorder` methods that stored, evicted, merged and
//! flattened through them. Only what the exported bytes depend on is
//! kept: no scraper, no tracer, no category filter.

use crate::event::{Arg, ArgValue, Category, TraceEvent, TraceTime, Track, MAX_ARGS};
use grail_metrics::Registry;
use std::collections::{vec_deque, VecDeque};

/// The static strings one [`Rings`] has seen — event names, argument
/// keys and texts, device and label kinds — numbered in first-seen order, so a
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

/// Which [`Track`] variant a header's `(kind, track_index)` pair means.
#[derive(Debug, Clone, Copy)]
enum Lane {
    Main,
    Device,
    Stream,
    Exec,
}

/// The fixed-width part of a stored event: 32 bytes. Its arguments are
/// `args_len` consecutive arena slots starting at arena position
/// `args_at`.
#[derive(Debug, Clone, Copy)]
struct Header {
    at: TraceTime,
    /// Span duration; meaningful only when `span`.
    dur: u64,
    /// Absolute arena position, counted (wrapping) from the rings'
    /// creation: evicting from the arena's front moves
    /// [`Rings::args_base`], never a stored header.
    args_at: u32,
    track_index: u32,
    /// [`Names`] id of the event name.
    name: u16,
    /// [`Names`] id of a [`Lane::Device`]'s kind.
    kind: u16,
    lane: Lane,
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

/// Event storage: a ring of fixed-width headers plus one shared arena
/// holding every event's argument slots back to back, in event order —
/// so recording an event allocates nothing, and the oldest event's
/// arguments are always the arena's front.
#[derive(Debug, Clone, Default)]
pub(crate) struct Rings {
    events: VecDeque<Header>,
    args: VecDeque<Packed>,
    /// Arena position of `args.front()`.
    args_base: u32,
    names: Names,
}

impl Rings {
    /// Number of stored events.
    pub(crate) fn len(&self) -> usize {
        self.events.len()
    }

    /// Append one event.
    pub(crate) fn push(&mut self, event: TraceEvent) {
        let (lane, kind, track_index) = self.pack_track(event.track);
        self.events.push_back(Header {
            at: event.at,
            dur: event.dur.unwrap_or(0),
            args_at: self.args_base.wrapping_add(self.args.len() as u32),
            track_index,
            name: self.names.id(event.name),
            kind,
            lane,
            cat: event.cat,
            args_len: event.len as u8,
            span: event.dur.is_some(),
        });
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
        self.args.extend(&packed[..event.len]);
    }

    /// Evict the oldest event and release its arguments.
    pub(crate) fn pop_front(&mut self) {
        let Some(h) = self.events.pop_front() else {
            return;
        };
        self.args.drain(..usize::from(h.args_len));
        self.args_base = self.args_base.wrapping_add(u32::from(h.args_len));
    }

    /// Visit every event in ring order as `(seq, at, track)`; the
    /// track `f` returns replaces the event's.
    pub(crate) fn retrack(&mut self, mut f: impl FnMut(usize, TraceTime, Track) -> Track) {
        for seq in 0..self.events.len() {
            let h = self.events[seq];
            let (lane, kind, track_index) = self.pack_track(f(seq, h.at, self.track(&h)));
            self.events[seq] = Header {
                lane,
                kind,
                track_index,
                ..h
            };
        }
    }

    fn pack_track(&mut self, track: Track) -> (Lane, u16, u32) {
        match track {
            Track::Main => (Lane::Main, 0, 0),
            Track::Device { kind, index } => (Lane::Device, self.names.id(kind), index),
            Track::Stream(s) => (Lane::Stream, 0, s),
            Track::Exec => (Lane::Exec, 0, 0),
        }
    }

    fn track(&self, h: &Header) -> Track {
        match h.lane {
            Lane::Main => Track::Main,
            Lane::Device => Track::Device {
                kind: self.names.get(h.kind),
                index: h.track_index,
            },
            Lane::Stream => Track::Stream(h.track_index),
            Lane::Exec => Track::Exec,
        }
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
        let h = &self.events[seq];
        let from = h.args_at.wrapping_sub(self.args_base) as usize;
        EventRef {
            at: h.at,
            dur: h.span.then_some(h.dur),
            cat: h.cat,
            name: self.names.get(h.name),
            track: self.track(h),
            packed: self.args.range(from..from + usize::from(h.args_len)),
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
    packed: vec_deque::Iter<'a, Packed>,
    rings: &'a Rings,
}

impl<'a> EventRef<'a> {
    /// The event's arguments, in attachment order.
    pub fn args(&self) -> impl ExactSizeIterator<Item = Arg> + 'a {
        let rings = self.rings;
        self.packed.clone().map(move |p| rings.arg(p))
    }
}

/// The recorder around [`Rings`]: ring capacity and eviction, the
/// zero-copy merge and its flatten, as they were.
#[derive(Debug, Clone)]
pub(crate) struct Recorder {
    pub(crate) capacity: usize,
    rings: Rings,
    merged: Vec<Rings>,
    order: Vec<(u32, u32)>,
    pub(crate) dropped: u64,
    pub(crate) metrics: Registry,
}

impl Recorder {
    pub(crate) fn new(capacity: usize) -> Self {
        Recorder {
            capacity,
            rings: Rings::default(),
            merged: Vec::new(),
            order: Vec::new(),
            dropped: 0,
            metrics: Registry::new(),
        }
    }

    pub(crate) fn events(&self) -> impl Iterator<Item = EventRef<'_>> + '_ {
        let merged = self
            .order
            .iter()
            .map(|&(part, seq)| self.merged[part as usize].view(seq as usize));
        merged.chain((0..self.rings.len()).map(|seq| self.rings.view(seq)))
    }

    pub(crate) fn len(&self) -> usize {
        self.order.len() + self.rings.len()
    }

    pub(crate) fn merge_ordered(
        parts: Vec<Recorder>,
        retrack: impl Fn(usize, Track) -> Track,
    ) -> Recorder {
        let mut out = Recorder::new(0);
        let mut keys: Vec<(u64, u32, u32)> =
            Vec::with_capacity(parts.iter().map(Recorder::len).sum());
        for (part, mut p) in parts.into_iter().enumerate() {
            p.flatten();
            out.capacity = out.capacity.saturating_add(p.capacity);
            out.dropped += p.dropped;
            out.metrics.merge_from(&p.metrics);
            p.rings.retrack(|seq, at, track| {
                keys.push((at.as_nanos(), part as u32, seq as u32));
                retrack(part, track)
            });
            out.merged.push(p.rings);
        }
        keys.sort_unstable();
        out.order = keys.into_iter().map(|(_, part, seq)| (part, seq)).collect();
        out
    }

    fn flatten(&mut self) {
        for (part, seq) in std::mem::take(&mut self.order) {
            let e = self.merged[part as usize].view(seq as usize);
            let event = match e.dur {
                Some(dur) => TraceEvent::span(e.at, dur, e.cat, e.name, e.track),
                None => TraceEvent::instant(e.at, e.cat, e.name, e.track),
            };
            self.rings.push(
                e.args()
                    .fold(event, |event, (key, value)| event.arg(key, value)),
            );
        }
        self.merged.clear();
    }

    pub(crate) fn record(&mut self, event: TraceEvent) {
        if !self.order.is_empty() {
            self.flatten();
        }
        if self.rings.len() >= self.capacity {
            self.rings.pop_front();
            self.dropped += 1;
            self.metrics.add("trace.dropped", 1);
            if self.capacity == 0 {
                return;
            }
        }
        self.rings.push(event);
    }
}
