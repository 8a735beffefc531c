//! The bytes of the rows that build their machines from a
//! `HardwareProfile` or price one with the cost model, pinned: FNV-1a
//! over each row's JSON lines and figure files, run sequentially. A
//! changed machine rule (a base power one ulp off, a storage device
//! added or dropped) moves a digest here before it reaches a reader.
//!
//! All eight rows run in about a second in a debug build; CI also runs
//! the file in release. To re-measure a constant, set it to 0 and read
//! the row's `got` value in the failure message.

use grail_bench::EXPERIMENTS;
use grail_par::Runner;
use grail_prop::Fnv1a;

const PINNED: [(&str, u64); 8] = [
    ("FIG1", 0xece6_033a_e0c8_67ad),
    ("FIG2", 0xeee5_d288_0b7b_dc29),
    ("T1", 0x9470_f65f_5dbf_4efb),
    ("EXT-OPT", 0x5bab_c235_5fa1_40df),
    ("EXT-KNOB", 0x2d56_06f1_361d_ec62),
    ("EXT-SCHED", 0x2e88_ac02_502a_37ea),
    ("EXT-PHYS", 0x1c10_c729_5ffd_16bb),
    ("EXT-FAULT", 0xa595_ed79_dec1_6450),
];

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
fn profile_row_bytes_are_pinned() {
    let moved: Vec<String> = PINNED
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
