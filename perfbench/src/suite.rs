//! The suite run every workload starts with, as `whisper-report` does:
//! the plain call, the same run split into its public calls for the
//! traced pass, and the checks and counts applied to its results.

use crate::ledger::{fnv1a, Checks, Counts, Ledger};
use crate::Pass;
use whisper::apps;
use whisper::report::{self, PAPER, PAPER_FIG10_AVG};
use whisper::suite::{
    analyze, fig10_for, run_apps, run_named_threads, AppResult, SuiteConfig, APP_NAMES,
    DEFAULT_WORKER_THREADS, SIM_APPS,
};

/// A serial suite configuration: one host thread, the default four
/// scheduler workers inside the interleaved apps.
pub fn config(scale: f64, seed: u64) -> SuiteConfig {
    SuiteConfig {
        scale,
        seed,
        parallelism: 1,
        worker_threads: DEFAULT_WORKER_THREADS,
    }
}

/// The plain suite run, exactly as `whisper-report` makes it.
pub fn run(cfg: &SuiteConfig) -> Vec<AppResult> {
    run_apps(&APP_NAMES, cfg)
}

/// [`run`] with `whisper::suite::run_app` split into the public calls
/// it is made of, each charged to its layer: application execution
/// (`apps`), trace analysis (`pmtrace.analyze`) and the Figure 10
/// replay (`hops.fig10`). Results are the same, event for event.
pub fn run_spanned(cfg: &SuiteConfig, ledger: &mut Ledger) -> Vec<AppResult> {
    APP_NAMES
        .iter()
        .map(|&name| {
            let ops = cfg.effective_ops(name).expect("APP_NAMES are valid apps");
            let run = run_app_charged(ledger, name, &[], || {
                run_named_threads(name, ops, cfg.seed, cfg.worker_threads)
            });
            let mut analysis = ledger.span(&["pmtrace.analyze.busy_s"], || analyze(&run));
            ledger.count("pmtrace.analyze.events", run.events.len() as u64);
            ledger.count("pmtrace.analyze.epochs", analysis.epoch_count as u64);
            analysis.fig10 = if SIM_APPS.contains(&name) {
                let sim = run_app_charged(ledger, name, &["apps.unpaced.busy_s"], || {
                    unpaced(name, ops / 2, cfg.seed)
                });
                replay_fig10(ledger, &sim.events)
            } else {
                replay_fig10(ledger, &run.events)
            };
            AppResult { run, analysis }
        })
        .collect()
}

/// Run one application, charging it to `apps`, to `apps.<name>` and to
/// any `extra` spans, and counting its events and memory accesses.
pub fn run_app_charged(
    ledger: &mut Ledger,
    name: &str,
    extra: &[&str],
    f: impl FnOnce() -> apps::AppRun,
) -> apps::AppRun {
    let per_app = format!("apps.{name}.busy_s");
    let mut spans = vec!["apps.busy_s", per_app.as_str()];
    spans.extend_from_slice(extra);
    let run = ledger.span(&spans, f);
    ledger.count("apps.events", run.events.len() as u64);
    ledger.count(&format!("apps.{name}.events"), run.events.len() as u64);
    ledger.count("apps.mem_accesses", run.stats.total());
    run
}

fn replay_fig10(ledger: &mut Ledger, events: &[pmtrace::Event]) -> Vec<(hops::PersistModel, f64)> {
    ledger.count("hops.fig10.events", events.len() as u64);
    ledger.span(&["hops.fig10.busy_s"], || fig10_for(events))
}

/// The second, unpaced run the six gem5-subset apps replay for Fig 10.
fn unpaced(name: &str, ops: usize, seed: u64) -> apps::AppRun {
    match name {
        "echo" => apps::echo::run_unpaced(ops, seed),
        "nstore-ycsb" => apps::nstore::run_ycsb_unpaced(ops, seed),
        "redis" => apps::redis::run_unpaced(ops, seed),
        "ctree" => apps::micro::ctree_unpaced(ops, seed),
        "hashmap" => apps::micro::hashmap_unpaced(ops, seed),
        "vacation" => apps::vacation::run_unpaced(ops, seed),
        _ => unreachable!("{name} is not a SIM_APPS member"),
    }
}

/// Check the suite's outputs and append its exact counts: every Table 1
/// row must have epochs and a five-bar Figure 10 of positive finite
/// runtimes; the counts pin the traces and the rendered report.
pub fn judge(results: &[AppResult], checks: &mut Checks, counts: &mut Counts) {
    checks.expect(results.len() == APP_NAMES.len(), || {
        format!(
            "suite returned {} rows, expected {}",
            results.len(),
            APP_NAMES.len()
        )
    });
    for r in results {
        let name = &r.run.name;
        checks.expect(r.analysis.epoch_count > 0, || {
            format!("{name}: zero epochs")
        });
        let bars = &r.analysis.fig10;
        checks.expect(
            bars.len() == PAPER_FIG10_AVG.len()
                && bars.iter().all(|&(_, v)| v.is_finite() && v > 0.0),
            || format!("{name}: Figure 10 has no valid bars: {bars:?}"),
        );
    }
    let sum = |f: fn(&AppResult) -> u64| results.iter().map(f).sum::<u64>();
    counts.push(("events", sum(|r| r.run.events.len() as u64)));
    counts.push(("epochs", sum(|r| r.analysis.epoch_count as u64)));
    counts.push(("mem_accesses", sum(|r| r.run.stats.total())));
    counts.push(("report_fnv", fnv1a(&report::all(results))));
}

/// Finish a pass over `results` with its checks and counts.
pub fn pass(results: &[AppResult], counts: Counts, checks: Checks) -> Pass {
    Pass {
        counts,
        checks,
        sim: sim_errors(results),
    }
}

/// How far the simulated results sit from the paper: mean
/// |log10(measured / paper)| Table 1 epochs/s over the eleven rows, and
/// mean |measured − paper| of the five Figure 10 average runtimes.
/// Both are exact for a given scale and seed.
fn sim_errors(results: &[AppResult]) -> (f64, f64) {
    let find = |name: &str| results.iter().find(|r| r.run.name == name);
    let table1 = PAPER
        .iter()
        .map(|row| {
            let measured = find(row.name).map_or(0.0, |r| r.analysis.epochs_per_sec);
            (measured / row.epochs_per_sec).log10().abs()
        })
        .sum::<f64>()
        / PAPER.len() as f64;
    let sim: Vec<&AppResult> = SIM_APPS.iter().filter_map(|n| find(n)).collect();
    let fig10 = PAPER_FIG10_AVG
        .iter()
        .map(|&(model, paper)| {
            let measured = sim
                .iter()
                .map(|r| {
                    r.analysis
                        .fig10
                        .iter()
                        .find(|(m, _)| *m == model)
                        .map_or(f64::NAN, |&(_, v)| v)
                })
                .sum::<f64>()
                / sim.len() as f64;
            (measured - paper).abs()
        })
        .sum::<f64>()
        / PAPER_FIG10_AVG.len() as f64;
    (table1, fig10)
}
