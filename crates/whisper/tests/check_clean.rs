//! The acceptance gate for `pmcheck`: every WHISPER application, run
//! at quick scale, must produce **zero error-severity violations**.
//!
//! Warnings are allowed (and expected — the NVML-style undo commit
//! path in `ctree`/`hashmap` issues a second fence with no PM work in
//! between, which the checker flags as `P-DOUBLE-FENCE` at warn
//! severity). Any error-severity finding here is either a real
//! persistency bug in an application or a false positive in the
//! checker, and both must be fixed before shipping.

use pmcheck::RuleSet;
use whisper::check::{check_results_with, total_errors};
use whisper::suite::{run_suite, SuiteConfig};

#[test]
fn all_apps_are_clean_at_quick_scale() {
    let cfg = SuiteConfig {
        parallelism: 2,
        ..SuiteConfig::quick()
    };
    let results = run_suite(&cfg);
    let checks = check_results_with(&results, RuleSet::all());
    assert_eq!(checks.len(), results.len(), "one check per app");

    let mut offenders = Vec::new();
    for (c, r) in checks.iter().zip(&results) {
        // The checker is single-pass: it must have visited exactly the
        // recorded event stream, once.
        assert_eq!(
            c.report.events_visited,
            r.run.events.len() as u64,
            "{}: checker event count != trace event count",
            c.name
        );
        if c.report.errors() > 0 {
            let detail: Vec<String> = c
                .report
                .findings
                .iter()
                .filter(|f| f.severity == pmcheck::Severity::Error)
                .take(5)
                .map(ToString::to_string)
                .collect();
            offenders.push(format!("{}: {}", c.name, detail.join("; ")));
        }
    }
    assert_eq!(
        total_errors(&checks),
        0,
        "error-severity persistency violations in correct apps:\n{}",
        offenders.join("\n")
    );
}
