//! The bytes of table rows, pinned: FNV-1a over each row's JSON lines
//! and figure files, run sequentially.
//!
//! * The eight rows that build their machines from a `HardwareProfile`
//!   or price one with the cost model: a changed machine rule (a base
//!   power one ulp off, a storage device added or dropped) moves a
//!   digest here before it reaches a reader.
//! * EXT-BUF: the full 200 000-access trace under LRU, CLOCK, 2Q and
//!   the energy-aware policy, so one victim chosen differently anywhere
//!   in it moves a hit rate or a Joule (the pool's own unit test pins
//!   every `Access` of the first 20 000).
//! * EXT-JS: the two 100 K-record external sorts, fanned over the
//!   runner's threads, in machine order.
//!
//! The profile rows and EXT-BUF run in under two seconds in a debug
//! build. EXT-JS alone adds about a second there, so its test is
//! `#[ignore]`d; CI runs the whole file in release with
//! `--include-ignored`. To re-measure a constant, set it to 0 and read
//! the row's `got` value in the failure message.

use grail_bench::EXPERIMENTS;
use grail_par::Runner;
use grail_prop::Fnv1a;

const PINNED: [(&str, u64); 9] = [
    ("FIG1", 0x0c64_9c16_4007_2c92),
    ("FIG2", 0xeee5_d288_0b7b_dc29),
    ("T1", 0xc8e5_a455_7dc7_61a6),
    ("EXT-OPT", 0x5bab_c235_5fa1_40df),
    ("EXT-KNOB", 0x2d56_06f1_361d_ec62),
    ("EXT-SCHED", 0x2e88_ac02_502a_37ea),
    ("EXT-PHYS", 0x1c10_c729_5ffd_16bb),
    ("EXT-FAULT", 0xa595_ed79_dec1_6450),
    ("EXT-BUF", 0x4472_aafe_64a4_e2ac),
];

/// Measured, like the rest, while both sorts still ran one after the
/// other on the caller.
const PINNED_RELEASE: [(&str, u64); 1] = [("EXT-JS", 0xf72e_126d_e2a3_f7dd)];

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

fn assert_pinned(pinned: &[(&str, u64)]) {
    let moved: Vec<String> = pinned
        .iter()
        .filter_map(|&(id, pinned)| {
            let got = digest(id);
            (got != pinned).then(|| format!("{id}: got {got:#018x}, pinned {pinned:#018x}"))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "rendered bytes moved:\n{}",
        moved.join("\n")
    );
}

#[test]
fn row_bytes_are_pinned() {
    assert_pinned(&PINNED);
}

#[test]
#[ignore = "two 100 K-record sorts, about a second in debug: CI runs it in release"]
fn sort_row_bytes_are_pinned() {
    assert_pinned(&PINNED_RELEASE);
}
