//! `gates`: the CI gate stack at quick scale, in `whisper-report`'s
//! order — suite, check, HB graphs, crash campaign, crossval, optimize
//! — then the report's deterministic subset against the golden.

use crate::ledger::{fnv1a, Checks, Counts, Ledger};
use crate::{suite, Pass};
use hops::{replay, HopsConfig, TimingConfig};
use pmcheck::rewrite::is_elidable;
use pmcheck::RuleSet;
use pmobs::{Json, MetricsSnapshot};
use pmtrace::analysis::split_epochs;
use pmtrace::Event;
use whisper::check::{self, AppCheck};
use whisper::crashtest::{self, AppCrashReport, CampaignConfig};
use whisper::crossval::{self, CrossvalReport};
use whisper::hbgraph::{self, AppGraph};
use whisper::json_report;
use whisper::optimize::{self, AppOptimize, ModelSpeedup, OptimizeReport, OPT_MODELS};
use whisper::suite::{AppResult, SuiteConfig};

/// The CI gate scale (`SuiteConfig::quick`).
pub const SCALE: f64 = 0.05;

/// The seed `ci/golden_quick_report.json` was made with; at any other
/// seed the gates' own verdicts are the only check.
pub const GOLDEN_SEED: u64 = 42;

/// The committed golden deterministic subset, relative to the checkout.
pub const GOLDEN_PATH: &str = "ci/golden_quick_report.json";

/// Everything one pass of the gate stack produced.
struct Outputs {
    results: Vec<AppResult>,
    checks: Vec<AppCheck>,
    graphs: Vec<AppGraph>,
    crash: Vec<AppCrashReport>,
    crossval: CrossvalReport,
    optimized: OptimizeReport,
}

fn campaign() -> CampaignConfig {
    CampaignConfig {
        parallelism: 1,
        ..CampaignConfig::quick()
    }
}

/// One plain pass: the public calls `whisper-report --check
/// --check-graph --crash --crossval --optimize` makes.
pub fn plain(seed: u64, golden: Option<&str>) -> Pass {
    let cfg = suite::config(SCALE, seed);
    let ccfg = campaign();
    let results = suite::run(&cfg);
    let checks = check::check_results_with(&results, RuleSet::all());
    let graphs = hbgraph::build_graphs(&results);
    let crash = crashtest::run_campaign(&ccfg);
    let crossval = crossval::run_crossval(&ccfg);
    let optimized = optimize::optimize_results(&results, &ccfg, 1);
    let out = Outputs {
        results,
        checks,
        graphs,
        crash,
        crossval,
        optimized,
    };
    judge(&out, &cfg, golden)
}

/// [`plain`] with a span around each public call. `optimize_results`
/// bundles the per-trace rewrite with the optimized crash campaign, so
/// the traced pass makes its two halves as separate calls.
pub fn spanned(seed: u64, golden: Option<&str>, ledger: &mut Ledger) -> Pass {
    let cfg = suite::config(SCALE, seed);
    let ccfg = campaign();
    let results = suite::run_spanned(&cfg, ledger);

    let checks = ledger.span(&["pmcheck.check.busy_s"], || {
        check::check_results_with(&results, RuleSet::all())
    });
    for (c, r) in checks.iter().zip(&results) {
        ledger.count("pmcheck.check.events", r.run.events.len() as u64);
        ledger.count("pmcheck.check.errors", c.report.errors() as u64);
        ledger.count("pmcheck.check.warnings", c.report.warnings() as u64);
    }

    let graphs = ledger.span(&["pmcheck.hb_graph.busy_s"], || {
        hbgraph::build_graphs(&results)
    });
    let cross_edges = total(&graphs, |g| g.graph.cross_edges.len());
    ledger.count("pmcheck.hb_graph.cross_edges", cross_edges);

    let crash = ledger.span(&["crashtest.campaign.busy_s"], || {
        crashtest::run_campaign(&ccfg)
    });
    ledger.count("crashtest.campaign.images", total(&crash, |r| r.images));

    let crossval = ledger.span(&["crossval.busy_s"], || crossval::run_crossval(&ccfg));
    ledger.count("crossval.images", crossval.total_images() as u64);
    ledger.count("crossval.proven_lines", crossval.total_proven() as u64);

    let apps: Vec<AppOptimize> = results
        .iter()
        .map(|r| ledger.span(&["optimize.rewrite.busy_s"], || optimize_app(r)))
        .collect();
    let crash_opt = ledger.span(&["optimize.campaign.busy_s"], || {
        crashtest::run_optimized_campaign(&ccfg)
    });
    let optimized = OptimizeReport {
        apps,
        crash: crash_opt,
    };
    ledger.count("optimize.elided", optimized.total_elided() as u64);
    let opt_images = total(&optimized.crash, |r| r.report.images);
    ledger.count("optimize.campaign.images", opt_images);

    let out = Outputs {
        results,
        checks,
        graphs,
        crash,
        crossval,
        optimized,
    };
    judge(&out, &cfg, golden)
}

/// The per-trace half of `optimize::optimize_results`, from the public
/// calls it is made of: check, rewrite to a fixpoint, re-check, and
/// replay both traces under each priced model. The report JSON both
/// passes render must agree byte for byte, which pins this to the
/// bundled call.
fn optimize_app(result: &AppResult) -> AppOptimize {
    let events = &result.run.events;
    let before = pmcheck::check_events(events);
    let rw = pmcheck::rewrite_events(events);
    let after = pmcheck::check_events(&rw.events);
    let residual_flagged = after
        .findings
        .iter()
        .filter(|f| is_elidable(f.rule))
        .count();
    let (epochs_before, mean_epoch_lines_before) = mean_epoch_lines(events);
    let (epochs_after, mean_epoch_lines_after) = mean_epoch_lines(&rw.events);
    let timing = TimingConfig::default();
    let hops_cfg = HopsConfig::default();
    let speedups = OPT_MODELS
        .iter()
        .map(|&model| ModelSpeedup {
            model,
            base_ns: replay(events, &timing, &hops_cfg, model).runtime_ns,
            optimized_ns: replay(&rw.events, &timing, &hops_cfg, model).runtime_ns,
        })
        .collect();
    AppOptimize {
        name: result.run.name.clone(),
        events_before: events.len(),
        events_after: rw.events.len(),
        elided_flushes: rw.elided_flushes,
        elided_fences: rw.elided_fences,
        rewrite_rounds: rw.rounds,
        epochs_before,
        epochs_after,
        mean_epoch_lines_before,
        mean_epoch_lines_after,
        errors_before: before.errors(),
        errors_after: after.errors(),
        residual_flagged,
        speedups,
    }
}

fn mean_epoch_lines(events: &[Event]) -> (usize, f64) {
    let epochs = split_epochs(events);
    let n = epochs.len();
    if n == 0 {
        return (0, 0.0);
    }
    let lines: usize = epochs.iter().map(pmtrace::Epoch::unique_lines).sum();
    (n, lines as f64 / n as f64)
}

/// Every gate's verdict as checks, the report as `whisper-report
/// --json` assembles it, and its deterministic subset against the
/// golden when one applies.
fn judge(o: &Outputs, cfg: &SuiteConfig, golden: Option<&str>) -> Pass {
    let mut checks = Checks::default();
    let mut counts = Counts::new();
    suite::judge(&o.results, &mut checks, &mut counts);

    for c in &o.checks {
        let errors = c.report.errors();
        checks.expect(errors == 0, || {
            format!("pmcheck: {}: {errors} error finding(s)", c.name)
        });
    }
    for r in &o.crash {
        checks.expect(r.failures.is_empty(), || {
            format!(
                "crash: {}: {} oracle rejection(s)",
                r.name,
                r.failures.len()
            )
        });
    }
    judge_crossval(&o.crossval, &mut checks);
    for a in &o.optimized.apps {
        checks.expect(a.is_clean(), || {
            format!(
                "optimize: {}: {} residual finding(s), errors {} -> {}",
                a.name, a.residual_flagged, a.errors_before, a.errors_after
            )
        });
    }
    for r in &o.optimized.crash {
        checks.expect(r.report.failures.is_empty(), || {
            format!(
                "optimize: {}: {} oracle rejection(s) on the optimized schedule",
                r.report.name,
                r.report.failures.len()
            )
        });
    }

    let doc = report_doc(o, cfg);
    if let Some(golden) = golden {
        let subset = json_report::deterministic_subset(&doc).to_pretty();
        checks.expect(subset == golden, || {
            format!("deterministic subset differs from {GOLDEN_PATH}")
        });
    }

    counts.push(("check_errors", total(&o.checks, |c| c.report.errors())));
    counts.push(("check_warnings", total(&o.checks, |c| c.report.warnings())));
    counts.push((
        "cross_edges",
        total(&o.graphs, |g| g.graph.cross_edges.len()),
    ));
    counts.push(("crash_images", total(&o.crash, |r| r.images)));
    counts.push(("crossval_images", o.crossval.total_images() as u64));
    counts.push(("proven_lines", o.crossval.total_proven() as u64));
    counts.push(("elided", o.optimized.total_elided() as u64));
    counts.push((
        "optimized_images",
        total(&o.optimized.crash, |r| r.report.images),
    ));
    counts.push(("gates_report_fnv", fnv1a(&doc.to_compact())));
    suite::pass(&o.results, counts, checks)
}

/// The crossval gate as checks: no order-impossible image, a proof set
/// that is not vacuous, and a live positive control.
fn judge_crossval(cv: &CrossvalReport, checks: &mut Checks) {
    for a in &cv.apps {
        checks.expect(a.violations.is_empty(), || {
            format!("crossval: {}: {} violation(s)", a.name, a.violations.len())
        });
    }
    checks.expect(cv.total_proven() > 0, || {
        "crossval: vacuous proof set".into()
    });
    checks.expect(cv.control.passed(), || {
        format!("crossval: positive control dead: {:?}", cv.control)
    });
}

fn total<T>(items: &[T], f: impl Fn(&T) -> usize) -> u64 {
    items.iter().map(|x| f(x) as u64).sum()
}

/// The report document `whisper-report --json` writes for this gate
/// set, with an empty metrics block (host timings are not outputs).
fn report_doc(o: &Outputs, cfg: &SuiteConfig) -> Json {
    let hb = Json::obj()
        .field("graph", hbgraph::stats_json(&o.graphs))
        .field("crossval", o.crossval.to_json());
    json_report::build_checked(
        &o.results,
        cfg,
        &MetricsSnapshot::default(),
        Some(&o.checks),
        RuleSet::all(),
    )
    .field("crash", crashtest::crash_json(&o.crash, &campaign()))
    .field("hb", hb)
    .field("optimize", optimize::optimize_json(&o.optimized))
}

#[cfg(test)]
mod tests {
    use super::*;
    use whisper::crossval::AppCrossval;

    fn report(control_seeds: u64) -> CrossvalReport {
        CrossvalReport {
            apps: vec![AppCrossval {
                name: "echo",
                points: vec![1],
                images: 10,
                proven_lines: vec![3],
                violations: Vec::new(),
            }],
            control: crossval::positive_control(control_seeds),
        }
    }

    #[test]
    fn a_dead_positive_control_counts_as_a_failure() {
        let mut live = Checks::default();
        judge_crossval(&report(8), &mut live);
        assert_eq!(live.fail_frac(), 0.0, "{:?}", live.failures());

        // With no adversarial seeds the seeded race cannot materialize
        // divergent images: the control goes dead and must be counted.
        let mut dead = Checks::default();
        judge_crossval(&report(0), &mut dead);
        assert_eq!(dead.attempted(), live.attempted());
        assert_eq!(dead.failures().len(), 1, "{:?}", dead.failures());
        assert!(dead.fail_frac() > 0.0);
    }
}
