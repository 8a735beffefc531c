//! `grail-perf compare A.json B.json`: judge two result files of
//! `grail-perf all` against the benchmark's own bounds.

use crate::json::{self, Json};
use crate::spec::{self, Better, MetricSpec};
use std::fmt::Write as _;

/// One metric of one run in a result file.
struct Reading {
    value: f64,
    q1: f64,
    q3: f64,
    n: f64,
}

fn reading(run: &Json, name: &str) -> Option<Reading> {
    let m = run.get("metrics")?.get(name)?;
    let num = |k: &str| m.get(k).and_then(Json::as_f64);
    Some(Reading {
        value: num("value")?,
        q1: num("q1")?,
        q3: num("q3")?,
        n: num("n")?,
    })
}

/// The run of `workload` in mode `traced` inside a result file.
fn find_run<'a>(doc: &'a Json, workload: &str, traced: bool) -> Option<&'a Json> {
    doc.get("runs")?.as_array()?.iter().find(|r| {
        r.get("workload").and_then(Json::as_str) == Some(workload)
            && r.get("traced").and_then(Json::as_bool) == Some(traced)
    })
}

/// By how much of `a` the reading `b` is worse (negative: better).
fn worse_by(spec: &MetricSpec, a: f64, b: f64) -> f64 {
    match spec.better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    }
}

/// The comparison report and whether every row passed.
pub struct Comparison {
    /// The printable report.
    pub report: String,
    /// True when no end-to-end row is beyond its bound, no exact metric
    /// differs and no operation failed.
    pub ok: bool,
}

/// Compare result documents `a` (the base) and `b`.
pub fn compare_docs(a: &Json, b: &Json) -> Result<Comparison, String> {
    let mut report = String::new();
    let mut ok = true;
    for (label, doc) in [("A", a), ("B", b)] {
        let meta = |k: &str| {
            doc.get(k).map_or("?".to_string(), |v| match v {
                Json::Str(s) => s.clone(),
                Json::Num(n) => n.to_string(),
                _ => "?".to_string(),
            })
        };
        let _ = writeln!(
            report,
            "{label}: commit {}  {}  nproc {}  seed {}",
            meta("commit"),
            meta("rustc"),
            meta("nproc"),
            meta("seed")
        );
    }
    let _ = writeln!(
        report,
        "\n{:<12} {:<22} {:>13} {:>13} {:>13} {:>13} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "A q1..q3", "B", "B q1..q3", "worse", "bound"
    );
    let e2e = spec::end_to_end();
    let layers = spec::per_layer();
    for w in spec::Workload::ALL {
        let (ra, rb) = match (find_run(a, w.name(), false), find_run(b, w.name(), false)) {
            (Some(ra), Some(rb)) => (ra, rb),
            _ => return Err(format!("{}: untraced run missing from a file", w.name())),
        };
        for s in &e2e {
            let (x, y) = match (reading(ra, &s.name), reading(rb, &s.name)) {
                (Some(x), Some(y)) => (x, y),
                _ => {
                    return Err(format!(
                        "{} {}: metric missing from a file",
                        w.name(),
                        s.name
                    ))
                }
            };
            let bound = s.bound.unwrap_or(0.0);
            let worse = worse_by(s, x.value, y.value);
            let verdict = if s.exact {
                if x.value.to_bits() == y.value.to_bits() {
                    "equal"
                } else {
                    ok = false;
                    "DIFFERS (exact)"
                }
            } else if worse <= bound {
                "within"
            } else {
                ok = false;
                "BEYOND"
            };
            let iqr = |r: &Reading| format!("{:.4}..{:.4}", r.q1, r.q3);
            let _ = writeln!(
                report,
                "{:<12} {:<22} {:>13.4} {:>13} {:>13.4} {:>13} {:>+7.2}% {:>5.0}%  {verdict} (n={}/{})",
                w.name(),
                s.name,
                x.value,
                iqr(&x),
                y.value,
                iqr(&y),
                worse * 100.0,
                bound * 100.0,
                x.n,
                y.n
            );
        }
        for (run, label) in [(ra, "A"), (rb, "B")] {
            let failed = run
                .get("ops_failed")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            if failed != 0.0 {
                ok = false;
                let _ = writeln!(
                    report,
                    "{:<12} {label}: {failed} operations FAILED",
                    w.name()
                );
            }
        }
    }
    let _ = writeln!(report, "\nexact per-layer metrics (traced runs):");
    for w in spec::Workload::ALL {
        let (ra, rb) = match (find_run(a, w.name(), true), find_run(b, w.name(), true)) {
            (Some(ra), Some(rb)) => (ra, rb),
            _ => return Err(format!("{}: traced run missing from a file", w.name())),
        };
        let mut equal = 0;
        let mut differing = Vec::new();
        for s in layers.iter().filter(|s| s.exact) {
            match (reading(ra, &s.name), reading(rb, &s.name)) {
                (Some(x), Some(y)) if x.value.to_bits() == y.value.to_bits() => equal += 1,
                _ => differing.push(s.name.as_str()),
            }
        }
        let _ = writeln!(
            report,
            "{:<12} {equal} equal, {} differing {}",
            w.name(),
            differing.len(),
            differing.join(" ")
        );
        ok &= differing.is_empty();
    }
    let _ = writeln!(report, "\n{}", if ok { "PASS" } else { "FAIL" });
    Ok(Comparison { report, ok })
}

/// Compare the result files at `a` and `b`.
pub fn compare_files(a: &str, b: &str) -> Result<Comparison, String> {
    let load = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| json::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    compare_docs(&load(a)?, &load(b)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A result document in which every metric reads `value`, except
    /// the overrides.
    fn doc(value: f64, overrides: &[(&str, &str, f64)]) -> Json {
        let mut runs = Vec::new();
        for w in spec::Workload::ALL {
            for (traced, specs) in [(false, spec::end_to_end()), (true, spec::per_layer())] {
                let metrics: Vec<String> = specs
                    .iter()
                    .map(|s| {
                        let v = overrides
                            .iter()
                            .find(|(ow, om, _)| *ow == w.name() && *om == s.name)
                            .map_or(value, |o| o.2);
                        format!(
                            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\", \"n\": 9, \"q1\": {v}, \"q3\": {v}}}",
                            s.name, s.unit
                        )
                    })
                    .collect();
                runs.push(format!(
                    "{{\"workload\": \"{}\", \"traced\": {traced}, \"ops_failed\": 0, \"metrics\": {{{}}}}}",
                    w.name(),
                    metrics.join(",")
                ));
            }
        }
        json::parse(&format!(
            "{{\"commit\": \"abc\", \"rustc\": \"rustc 1\", \"nproc\": 2, \"seed\": 0, \"runs\": [{}]}}",
            runs.join(",")
        ))
        .unwrap()
    }

    #[test]
    fn identical_files_pass() {
        let c = compare_docs(&doc(100.0, &[]), &doc(100.0, &[])).unwrap();
        assert!(c.ok, "{}", c.report);
        assert!(c.report.contains("PASS"));
    }

    #[test]
    fn a_slowdown_within_its_bound_passes_and_beyond_it_fails() {
        let base = doc(100.0, &[]);
        // points_per_s is higher-is-better with a 20 % bound.
        let within = doc(100.0, &[("repro_sweep", "points_per_s", 81.0)]);
        assert!(compare_docs(&base, &within).unwrap().ok);
        let beyond = doc(100.0, &[("repro_sweep", "points_per_s", 79.0)]);
        let c = compare_docs(&base, &beyond).unwrap();
        assert!(!c.ok);
        assert!(c.report.contains("BEYOND"), "{}", c.report);
        // setup_s is lower-is-better: a rise beyond 25 % fails, a fall never does.
        let slower = doc(100.0, &[("sim_cells", "setup_s", 126.0)]);
        assert!(!compare_docs(&base, &slower).unwrap().ok);
        let faster = doc(100.0, &[("sim_cells", "setup_s", 50.0)]);
        assert!(compare_docs(&base, &faster).unwrap().ok);
    }

    #[test]
    fn exact_metrics_must_be_bit_identical() {
        let base = doc(100.0, &[]);
        let e2e = doc(100.0, &[("repro_sweep", "paper_err_pct", 100.000001)]);
        assert!(!compare_docs(&base, &e2e).unwrap().ok);
        let layer = doc(100.0, &[("fleet_chaos", "scheduler.count.events", 101.0)]);
        let c = compare_docs(&base, &layer).unwrap();
        assert!(!c.ok);
        assert!(
            c.report.contains("1 differing scheduler.count.events"),
            "{}",
            c.report
        );
        // A non-exact layer metric may move freely.
        let free = doc(
            100.0,
            &[("fleet_chaos", "scheduler.place_us.spread", 500.0)],
        );
        assert!(compare_docs(&base, &free).unwrap().ok);
    }

    #[test]
    fn a_missing_run_is_an_error_not_a_pass() {
        let empty = json::parse("{\"runs\": []}").unwrap();
        assert!(compare_docs(&empty, &doc(1.0, &[])).is_err());
    }
}
