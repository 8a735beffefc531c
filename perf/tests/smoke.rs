//! Smoke test: every workload, untraced and traced, at about a
//! hundredth of the benchmark's sizes — enough to prove that the names
//! a run emits are exactly the names `BENCHMARK.json` promises, that
//! every value is a finite number, that no correctness check fails on
//! healthy code, and that a corrupted simulated value does fail one.

use grail_perf::harness::Harness;
use grail_perf::json::{self, Json};
use grail_perf::run::{run, RunConfig};
use grail_perf::sections::cells::Cells;
use grail_perf::sections::fleet::Fleet;
use grail_perf::sections::sweep::Sweep;
use grail_perf::sections::tpch::Tpch;
use grail_perf::sections::{Scale, Sizes};
use grail_perf::seeds::Seeds;
use grail_perf::spec::{self, Workload};

fn tiny(workload: Workload, traced: bool) -> RunConfig {
    RunConfig {
        workload,
        sizes: Sizes::all(Scale::Tiny),
        seed: 0,
        seconds: 0.0,
        traced,
        setups: 1,
        min_passes: 1,
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
fn promised(doc: &Json, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run `workload` untraced and traced and hold what it emits against
/// `BENCHMARK.json`: names and units exactly, values finite, no
/// failed operation.
fn emits_exactly_the_promised_names(workload: Workload) {
    let doc = benchmark_json();
    {
        for (traced, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = run(tiny(workload, traced));
            let emitted: Vec<(String, String)> = result
                .metrics
                .iter()
                .map(|m| (m.spec.name.clone(), m.spec.unit.to_string()))
                .collect();
            assert_eq!(
                emitted,
                promised(&doc, list),
                "{} {list}: names and units, none missing, none extra",
                workload.name()
            );
            for m in &result.metrics {
                assert!(m.value.is_finite(), "{} = {}", m.spec.name, m.value);
            }
            assert_eq!(result.failed, 0, "{:?}", result.failures);
            assert!(result.attempted >= 1 && result.correct());

            // The driver's line carries the same names and counts.
            let line = json::parse(&result.contract_json()).expect("the result line parses");
            let keys: Vec<&String> = line
                .get("metrics")
                .and_then(Json::as_object)
                .expect("metrics")
                .keys()
                .collect();
            assert_eq!(keys.len(), emitted.len());
            assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
            assert_eq!(result.trace.is_some(), traced);
            if let Some(trace) = &result.trace {
                let layers: f64 = trace.layer_self_ms.values().sum();
                assert!(
                    (layers - trace.pass_ms).abs() <= 0.05 * trace.pass_ms,
                    "layer self times {layers} ms vs traced passes {} ms",
                    trace.pass_ms
                );
                assert!(trace.spans_jsonl.lines().count() > 10);
            }
        }
    }
}

// One test per workload, so the four run on parallel test threads.
#[test]
fn repro_sweep_emits_exactly_the_promised_names() {
    emits_exactly_the_promised_names(Workload::ReproSweep);
}

#[test]
fn tpch_scale_emits_exactly_the_promised_names() {
    emits_exactly_the_promised_names(Workload::TpchScale);
}

#[test]
fn sim_cells_emits_exactly_the_promised_names() {
    emits_exactly_the_promised_names(Workload::SimCells);
}

#[test]
fn fleet_chaos_emits_exactly_the_promised_names() {
    emits_exactly_the_promised_names(Workload::FleetChaos);
}

#[test]
fn benchmark_json_is_the_spec_table() {
    let doc = benchmark_json();
    assert_eq!(
        doc,
        json::parse(&spec::benchmark_json()).unwrap(),
        "BENCHMARK.json is out of date: rewrite it with `grail-perf contract`"
    );
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(
        workloads,
        ["repro_sweep", "tpch_scale", "sim_cells", "fleet_chaos"]
    );
    let setup = &doc.get("end_to_end").and_then(Json::as_array).unwrap()[0];
    assert_eq!(setup.get("name").and_then(Json::as_str), Some("setup_s"));
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
}

#[test]
fn a_corrupted_simulated_value_counts_as_a_failure() {
    let seeds = Seeds::PUBLISHED;
    let mut h = Harness::new();

    let mut sweep = Sweep::setup(Scale::Tiny, seeds);
    sweep.pass(&mut h);
    sweep.pass(&mut h);
    assert_eq!(h.failed, 0, "{:?}", h.failures);
    sweep.corrupt_reference();
    sweep.pass(&mut h);
    assert_eq!(h.failed, 1, "{:?}", h.failures);

    let mut tpch = Tpch::setup(Scale::Tiny, seeds);
    tpch.pass(&mut h);
    tpch.corrupt_reference();
    tpch.pass(&mut h);
    assert_eq!(h.failed, 2, "{:?}", h.failures);

    let mut cells = Cells::setup(Scale::Tiny, seeds);
    cells.pass(&mut h);
    cells.corrupt_reference();
    cells.pass(&mut h);
    assert_eq!(h.failed, 3, "{:?}", h.failures);

    let mut fleet = Fleet::setup(Scale::Tiny, seeds);
    fleet.pass(&mut h);
    fleet.corrupt_reference();
    fleet.pass(&mut h);
    assert_eq!(h.failed, 4, "{:?}", h.failures);
    assert!(h.attempted > h.failed);
}

#[test]
fn a_traced_pass_reproduces_the_facade_bit_for_bit() {
    // The warm-up pass goes through the `EnergyAwareDb` facade; a traced
    // pass replays the same pipeline layer by layer. Their simulated
    // values are pinned against each other.
    let mut h = Harness::new();
    let mut sweep = Sweep::setup(Scale::Tiny, Seeds::mixed(3));
    let mut tpch = Tpch::setup(Scale::Tiny, Seeds::mixed(3));
    sweep.pass(&mut h);
    tpch.pass(&mut h);
    h.start_tracing();
    sweep.pass(&mut h);
    tpch.pass(&mut h);
    h.stop_tracing();
    assert_eq!(h.failed, 0, "{:?}", h.failures);
    let layers = h.spans().expect("spans recorded").layer_self_ns(None);
    for layer in [
        "storage",
        "query",
        "workload",
        "sim",
        "core",
        "buffer",
        "scheduler",
        "host",
    ] {
        assert!(layers.contains_key(layer), "no span billed to {layer}");
    }
}
