//! The experiment table against its documentation and against itself:
//! IDs match DESIGN.md §3 and EXPERIMENTS.md, every row produces sane
//! records, what a row renders is byte-identical at any thread count,
//! and EXT-WATCH's summary equals the committed watchdog baseline.

use grail_bench::{Experiment, Outcome, EXPERIMENTS};
use grail_metrics::{compare, parse_baseline, render_drifts};
use grail_par::Runner;

const DESIGN: &str = include_str!("../../../DESIGN.md");
const EXPERIMENTS_MD: &str = include_str!("../../../EXPERIMENTS.md");
/// The sealed watchdog baseline: every EXT-WATCH summary key, simulated
/// and bit-stable, so the comparison tolerates nothing.
const WATCHDOG_BASELINE: &str = include_str!("../baselines/watchdog.json");
const WATCHDOG_BASELINE_PATH: &str = "crates/bench/baselines/watchdog.json";
const REBLESS: &str =
    "grail-bench run EXT-WATCH && cp figures/watchdog_baseline.json crates/bench/baselines/";

/// Rows cheap enough for a debug `cargo test`, covering a db scan, a
/// faulted simulation, a closed-form model, a fleet placement, the
/// four buffer policies over the published 200 k-access trace, the
/// traced captures and the scraped watchdog scenarios. The whole table
/// runs in `full_table_*` (`--release -- --ignored`, CI `sweep` job).
const TIER1_IDS: [&str; 7] = [
    "FIG2",
    "EXT-FAULT",
    "EXT-DVFS",
    "EXT-CLUSTER",
    "EXT-BUF",
    "EXT-TRACE",
    "EXT-WATCH",
];

fn assert_sane(e: &Experiment, outcome: &Outcome) {
    assert!(!outcome.rows.is_empty(), "{} produced no record", e.id);
    for (rec, _) in &outcome.rows {
        assert_eq!(rec.experiment, e.id, "{}: foreign record {rec:?}", e.id);
        for v in [rec.elapsed_secs, rec.energy_j, rec.work, rec.efficiency] {
            assert!(v.is_finite(), "{}: non-finite value in {rec:?}", e.id);
        }
        assert!(rec.energy_j >= 0.0, "{}: negative energy in {rec:?}", e.id);
    }
    for (path, _) in &outcome.figures {
        assert!(
            path.starts_with("figures/") && !path.contains(".."),
            "{}: figure {path:?} escapes figures/",
            e.id
        );
    }
}

#[test]
fn ids_match_design_index_and_experiments_headings() {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    for (i, id) in ids.iter().enumerate() {
        assert!(!id.is_empty());
        assert!(!ids[..i].contains(id), "duplicate table row {id}");
    }
    // DESIGN.md §3: the `| **<ID>** |` rows, in order — equality checks
    // both directions (no row without a doc line, no doc line without a
    // row).
    let section = DESIGN
        .split("\n## ")
        .find(|s| s.starts_with("3. Experiment index"))
        .expect("DESIGN.md has a §3 experiment index");
    let documented: Vec<&str> = section
        .lines()
        .filter_map(|l| l.strip_prefix("| **")?.split_once("** |"))
        .map(|(id, _)| id)
        .collect();
    assert_eq!(ids, documented, "table rows vs DESIGN.md §3 index");
    for id in ids {
        let heading = format!("## {id} — ");
        assert!(
            EXPERIMENTS_MD.lines().any(|l| l.starts_with(&heading)),
            "EXPERIMENTS.md has no `{heading}…` section"
        );
    }
}

/// Run `rows` sequentially and on two threads: every outcome is sane
/// and both runs render the same JSONL and figure bytes.
fn check(rows: &[&Experiment]) {
    let run_all =
        |runner: Runner| -> Vec<Outcome> { rows.iter().map(|e| (e.run)(&runner)).collect() };
    let sequential = run_all(Runner::sequential());
    let threaded = run_all(Runner::with_threads(2));
    for ((e, seq), par) in rows.iter().zip(&sequential).zip(&threaded) {
        assert_sane(e, seq);
        assert_eq!(seq.jsonl(), par.jsonl(), "{}: records differ", e.id);
        assert_eq!(seq.figures, par.figures, "{}: figures differ", e.id);
    }
}

#[test]
fn tier1_rows_are_sane_and_thread_count_invariant() {
    let rows: Vec<&Experiment> = EXPERIMENTS
        .iter()
        .filter(|e| TIER1_IDS.contains(&e.id))
        .collect();
    assert_eq!(rows.len(), TIER1_IDS.len());
    check(&rows);
}

#[test]
#[ignore = "runs all 21 experiments twice (tier-1 runs seven); CI's sweep job runs it in release"]
fn full_table_is_sane_and_thread_count_invariant() {
    check(&EXPERIMENTS.iter().collect::<Vec<_>>());
}

/// The summary EXT-WATCH measured, as the `figures/watchdog_baseline.json`
/// it returns.
fn watchdog_summary() -> String {
    let row = EXPERIMENTS.iter().find(|e| e.id == "EXT-WATCH").unwrap();
    let outcome = (row.run)(&Runner::sequential());
    let (_, bytes) = outcome
        .figures
        .into_iter()
        .find(|(path, _)| path == "figures/watchdog_baseline.json")
        .expect("EXT-WATCH returns its summary");
    String::from_utf8(bytes).expect("the summary is text")
}

/// The energy-regression gate: any drift of any summary key between
/// this commit and the sealed baseline fails, naming the key.
#[test]
fn watchdog_summary_matches_the_committed_baseline() {
    let measured = watchdog_summary();
    assert!(
        measured == WATCHDOG_BASELINE,
        "EXT-WATCH's summary differs from {WATCHDOG_BASELINE_PATH}\n{}",
        render_drifts(
            &compare(
                &parse_baseline(WATCHDOG_BASELINE).expect("committed baseline parses"),
                &parse_baseline(&measured).expect("measured summary parses"),
            ),
            WATCHDOG_BASELINE_PATH,
            REBLESS,
        )
    );
}

/// Negative control: a 10 % joules-per-query regression is exactly one
/// drift, reported readably.
#[test]
fn ten_percent_joules_per_query_inflation_is_one_readable_drift() {
    let baseline = parse_baseline(WATCHDOG_BASELINE).expect("committed baseline parses");
    let mut inflated = parse_baseline(&watchdog_summary()).expect("measured summary parses");
    for (key, value) in &mut inflated {
        if key == "db.joules_per_query" {
            *value *= 1.10;
        }
    }
    let drifts = compare(&baseline, &inflated);
    let keys: Vec<&str> = drifts.iter().map(|d| d.key.as_str()).collect();
    assert_eq!(keys, ["db.joules_per_query"]);
    let text = render_drifts(&drifts, WATCHDOG_BASELINE_PATH, REBLESS);
    assert!(
        text.contains("error[watchdog]: `db.joules_per_query` drifted +10.00%"),
        "{text}"
    );
    assert!(text.contains(REBLESS), "{text}");
}
