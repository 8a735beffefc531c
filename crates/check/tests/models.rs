//! End-to-end obligations for the shipped models and the seeded
//! negative control.
//!
//! These are the acceptance criteria of the model-checking subsystem:
//! every registered model reaches fixpoint clean inside the committed
//! CI budget, the deliberately broken model fails with a minimized
//! trace of known length, and the full report vector — counterexample
//! bytes included — is identical whether the registry fans across 1, 2,
//! or 8 runner threads. A failing model's assertion prints its
//! rustc-style diagnostic.

use grail_check::models::BROKEN_TRACE_LEN;
use grail_check::registry::{BROKEN, REGISTRY};
use grail_check::{Budget, Report, CI_BUDGET};
use grail_par::Runner;

#[test]
fn every_registered_model_reaches_fixpoint_clean_within_ci_budget() {
    let reports = Runner::sequential().run(REGISTRY, |_, run| run(CI_BUDGET));
    for r in &reports {
        let diagnostic = r.diagnostic.as_deref().unwrap_or_default();
        assert!(r.passed, "{}: {}\n{diagnostic}", r.model, r.line);
        assert!(r.diagnostic.is_none());
    }
    // How much each model explores is part of the obligation: a change
    // that silently explores less proves less. A deliberate model
    // change updates its line here.
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
fn broken_model_fails_with_a_minimized_trace_of_known_length() {
    let report = BROKEN(CI_BUDGET);
    assert!(
        !report.passed,
        "the negative control passed: {}",
        report.line
    );
    assert!(
        report.line.starts_with("FAIL[invariant]"),
        "{}",
        report.line
    );

    let diag = report
        .diagnostic
        .as_deref()
        .expect("violation carries diagnostic");
    assert!(
        diag.starts_with("error[model-check]: model `broken-ledger` fails its invariant"),
        "{diag}"
    );
    assert!(
        diag.contains(&format!("minimized trace, {BROKEN_TRACE_LEN} step(s)")),
        "{diag}"
    );
    // One `=>` line per minimized step.
    assert_eq!(
        diag.lines().filter(|l| l.contains(" => ")).count(),
        BROKEN_TRACE_LEN,
        "trace no longer minimal?\n{diag}"
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
    let entries = [REGISTRY, &[BROKEN]].concat();
    let baseline: Vec<Report> = Runner::sequential().run(&entries, |_, run| run(CI_BUDGET));
    assert!(baseline.iter().any(|r| !r.passed), "control must fail");
    for threads in [2, 8] {
        let reports = Runner::with_threads(threads).run(&entries, |_, run| run(CI_BUDGET));
        assert_eq!(
            reports, baseline,
            "reports drifted at {threads} threads — counterexample bytes must not \
             depend on scheduling"
        );
    }
}

#[test]
fn a_tight_budget_fails_loudly_instead_of_passing_vacuously() {
    let tight = Budget { max_states: 8 };
    for report in Runner::sequential().run(REGISTRY, |_, run| run(tight)) {
        assert!(!report.passed, "{}: {}", report.model, report.line);
        assert!(report.line.contains("budget"), "{}", report.line);
    }
}
