//! The bytes of table rows, pinned: FNV-1a over each row's JSON lines
//! and figure files, run sequentially.
//!
//! * Every row but EXT-JS, in the table's order. A changed machine
//!   rule (a base power one ulp off, a storage device added or
//!   dropped), a scheduler, codec or recorder change moves a digest
//!   here before it reaches a reader. EXT-BUF replays the full
//!   200 000-access trace under LRU, CLOCK, 2Q and the energy-aware
//!   policy, so one victim chosen differently anywhere in it moves a
//!   hit rate or a Joule (the pool's own unit test pins every `Access`
//!   of the first 20 000).
//! * EXT-JS: the two 100 K-record external sorts, fanned over the
//!   runner's threads, in machine order.
//!
//! The twenty rows run in about four seconds in a debug build. EXT-JS
//! alone adds about a second there, so its test is `#[ignore]`d; CI
//! runs the whole file in release with `--include-ignored`. The values
//! live in the root `pins.txt` under `bench.rows` and
//! `bench.sort_rows`; a failing test prints the lines to paste there.

use grail_bench::EXPERIMENTS;
use grail_par::Runner;
use grail_prop::{assert_pinned, Fnv1a};

const ROWS: &str = "FIG1 FIG2 T1 EXT-OPT EXT-SCHED EXT-BUF EXT-PROP EXT-PHYS EXT-DVFS EXT-KNOB \
                    EXT-CLUSTER EXT-LOG EXT-PREFETCH EXT-TCO EXT-OLTP EXT-SHARE EXT-FAULT \
                    EXT-CHAOS EXT-TRACE EXT-WATCH";

fn digest(id: &str) -> u64 {
    let row = EXPERIMENTS
        .iter()
        .find(|e| e.id == id)
        .expect("a table row");
    let outcome = (row.run)(&Runner::sequential());
    let mut h = Fnv1a::new();
    h.bytes(outcome.jsonl().as_bytes());
    for (path, bytes) in &outcome.figures {
        h.bytes(path.as_bytes());
        h.bytes(bytes);
    }
    h.finish()
}

#[test]
fn row_bytes_are_pinned() {
    let measured: Vec<_> = ROWS.split_whitespace().map(|id| (id, digest(id))).collect();
    assert_pinned("bench.rows", &measured);
}

#[test]
#[ignore = "two 100 K-record sorts, about a second in debug: CI runs it in release"]
fn sort_row_bytes_are_pinned() {
    assert_pinned("bench.sort_rows", &[("EXT-JS", digest("EXT-JS"))]);
}
