//! End-to-end obligations for the shipped models and the seeded
//! negative control.
//!
//! These are the acceptance criteria of the model-checking subsystem:
//! every registered model reaches fixpoint clean inside the committed
//! CI budget, the deliberately broken model fails with a minimized
//! trace of known length, and the full report vector — counterexample
//! bytes included — is identical whether the registry fans across 1, 2,
//! or 8 runner threads.

use grail_check::models::BROKEN_TRACE_LEN;
use grail_check::registry::{find, run_all, ModelEntry, BROKEN, REGISTRY};
use grail_check::{Budget, Report, CI_BUDGET};
use grail_par::Runner;

#[test]
fn every_registered_model_reaches_fixpoint_clean_within_ci_budget() {
    let reports = run_all(CI_BUDGET, &Runner::sequential());
    assert_eq!(reports.len(), REGISTRY.len());
    for r in &reports {
        assert!(r.passed, "{}: {}", r.model, r.line);
        assert!(r.jsonl.is_none() && r.diagnostic.is_none());
    }
    // How much each model explores is part of the obligation: a change
    // that silently explores less proves less. A deliberate model
    // change updates its pair here and in the `check` CI job.
    let lines: Vec<(&str, &str)> = reports.iter().map(|r| (r.model, &r.line[..])).collect();
    assert_eq!(
        lines,
        [
            (
                "chaos-failover",
                "pass: 900 states, 2275 transitions (fixpoint within budget)"
            ),
            (
                "ledger-settlement",
                "pass: 124 states, 172 transitions (fixpoint within budget)"
            ),
        ]
    );
}

#[test]
fn registry_covers_the_workspace_protocol_state_machines() {
    let covered: Vec<&str> = REGISTRY
        .iter()
        .flat_map(|e| e.covers.iter().copied())
        .collect();
    for required in ["scheduler::chaos::Engine", "scheduler::chaos::FleetState"] {
        assert!(
            covered.contains(&required),
            "{required} lost its model — grail-lint's model-coverage rule will fail"
        );
    }
}

#[test]
fn broken_model_fails_with_a_minimized_trace_of_known_length() {
    let entry = find("broken-ledger").expect("seeded control is registered");
    let report = (entry.run)(CI_BUDGET);
    assert!(
        !report.passed,
        "the negative control passed: {}",
        report.line
    );

    let jsonl = report.jsonl.as_deref().expect("violation carries JSONL");
    // Header line + one line per minimized step.
    assert_eq!(
        jsonl.lines().count(),
        1 + BROKEN_TRACE_LEN,
        "trace no longer minimal?\n{jsonl}"
    );
    let header = jsonl.lines().next().expect("header line");
    assert!(header.contains("\"model\":\"broken-ledger\""), "{header}");
    assert!(header.contains("\"kind\":\"invariant\""), "{header}");
    assert!(
        header.contains(&format!("\"steps\":{BROKEN_TRACE_LEN}")),
        "{header}"
    );

    let diag = report
        .diagnostic
        .as_deref()
        .expect("violation carries diagnostic");
    assert!(diag.starts_with("error[model-check]:"), "{diag}");
    assert!(
        diag.contains(&format!("minimized trace, {BROKEN_TRACE_LEN} step(s)")),
        "{diag}"
    );
}

#[test]
fn the_faithful_twin_of_the_broken_model_passes() {
    // `broken_control` is `reference` with the shadow-accounting flag
    // set and nothing else: same palette, same op budget. The defect is
    // the miscounted transfer, not the instance.
    use grail_check::models::LedgerModel;
    let report = grail_check::run_model(&LedgerModel::reference(), CI_BUDGET);
    assert!(report.passed, "{}", report.line);
}

#[test]
fn reports_are_byte_identical_across_1_2_and_8_threads() {
    let entries: Vec<&ModelEntry> = REGISTRY.iter().chain(std::iter::once(&BROKEN)).collect();
    let baseline: Vec<Report> = Runner::sequential().run(&entries, |_, e| (e.run)(CI_BUDGET));
    assert!(baseline.iter().any(|r| !r.passed), "control must fail");
    for threads in [2, 8] {
        let reports = Runner::with_threads(threads).run(&entries, |_, e| (e.run)(CI_BUDGET));
        assert_eq!(
            reports, baseline,
            "reports drifted at {threads} threads — counterexample bytes must not \
             depend on scheduling"
        );
    }
}

#[test]
fn a_tight_budget_fails_loudly_instead_of_passing_vacuously() {
    let entry = find("chaos-failover").expect("registered");
    let report = (entry.run)(Budget { max_states: 8 });
    assert!(!report.passed);
    assert!(report.line.contains("budget"), "{}", report.line);
}
