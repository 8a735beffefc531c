//! # grail-storage — storage formats for an energy-aware database
//!
//! Physical design is the paper's first lever (Sec. 5.1): "decisions on
//! how and where data is stored are expected to have a significant impact
//! on database energy use". This crate supplies the formats those
//! decisions choose between:
//!
//! * [`page`] — page ids and the page size the buffer pool, the B+tree
//!   and the prefetcher count in.
//! * [`mod@column`] — columnar segments, the layout Fig. 2's scanner reads.
//! * [`compress`] — real, round-trip-tested codecs (RLE, dictionary,
//!   bit-packing, delta) whose CPU-for-bandwidth trade *is* Fig. 2's
//!   experiment.
//! * [`partition`] — repartitioning across disk subsets (Fig. 1's knob)
//!   and redundant read-optimized replicas (Sec. 5.1's energy use of
//!   extra capacity).
//! * [`prefetch`] — the burst prefetcher of \[PS04\]: trade buffer space
//!   for longer device idle periods.
//! * [`wal`] — write-ahead logging with a tunable group-commit batching
//!   factor (Sec. 5.2's "increase the batching factor … to avoid
//!   frequent commits on stable storage").
//! * [`btree`] — a static B+tree index with exact page-touch accounting,
//!   the access path behind Sec. 5.3's SSD-for-OLTP claim.
//!
//! The crate is deliberately independent of the simulator: it deals in
//! bytes and disk *slots* (plain indices); binding slots to simulated
//! devices happens in `grail-core`.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod btree;
pub mod column;
pub mod compress;
pub mod error;
pub mod page;
pub mod partition;
pub mod prefetch;
pub mod wal;

pub use column::{ColumnSegment, SegmentReader};
pub use compress::Encoding;
pub use error::StorageError;
pub use page::{PageId, PAGE_SIZE};
