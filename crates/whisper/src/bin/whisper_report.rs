//! `whisper-report` — regenerate the paper's tables and figures.
//!
//! ```text
//! whisper-report [EXPERIMENT] [--scale X] [--seed N] [--apps a,b,c]
//!                [--parallel N] [--threads N] [--timing]
//!                [--json PATH] [--json-det PATH]
//!                [--check] [--check-json PATH] [--check-rules ID,..]
//!                [--check-graph DIR] [--crossval] [--crossval-json PATH]
//!                [--crash]
//!                [--crash-json PATH] [--serve] [--serve-json PATH]
//!                [--serve-arrival paced|bursty] [--serve-shards N]
//!                [--trace PATH] [--profile] [--profile-json PATH]
//!                [--optimize] [--optimize-json PATH]
//!                [--quiet] [--dump-traces DIR] [--from-trace FILE]
//!
//! EXPERIMENT: table1 | fig3 | fig4 | fig5 | fig6 | fig10 |
//!             amplification | ntfraction | smallwrites |
//!             consequences | all (default)
//! ```
//!
//! Applications run in parallel across one worker per core by default;
//! `--parallel N` overrides the worker count (`--parallel 1` forces the
//! serial runner). `--threads N` (default 4, range 1..=64) sets how many
//! logical clients the seeded scheduler interleaves *inside* redis,
//! memcached, and vacation — unlike `--parallel` it changes the traces
//! (`--threads 1` removes their cross-thread epoch dependencies), so it
//! is echoed back as `config.worker_threads` in the JSON report.
//!
//! `--timing` runs the selected applications twice —
//! serially, then in parallel — and reports each app's wall-clock
//! (both runners) and simulated durations from the same span data,
//! plus the overall speedup, instead of a paper table.
//!
//! `--trace PATH` turns on the simulated-time tracing subsystem
//! (`pmobs::trace`) for the suite run and the serving sweep, and
//! writes the merged tracks to PATH as Chrome trace-event JSON (loads
//! in Perfetto or `chrome://tracing`; one lane per machine, replay
//! thread, and serve shard). Every timestamp is on the simulated
//! clock, so the file is byte-identical across hosts and `--parallel`
//! settings. Tracing is disabled again before `--check`/`--crash`
//! run, so their internal re-runs never pollute the trace.
//!
//! `--profile` (implies `--serve`) aggregates each serve request's
//! simulated time into queue / replay / fence-stall phases per app ×
//! mechanism (`whisper::profile`), appends the tail-attribution table
//! to the text report, and populates the JSON report's `profile`
//! section. `--profile-json PATH` additionally writes just the profile
//! document to PATH (implies `--profile`).
//!
//! `--check` runs the `pmcheck` persistency checker over every
//! selected application's trace after the run: findings stream through
//! the `pmobs` logger, a summary table is appended to the text report,
//! the JSON report's `violations` section is populated, and the
//! process exits 3 if any **error**-severity violation was found — the
//! CI regression gate for durability discipline. `--check-rules ID,..`
//! restricts the checker to the named rules (implies `--check`; an
//! unknown rule id is a usage error, exit 2); the selection is recorded
//! as `rules_enabled` in the violations document so a filtered report
//! cannot pass for a full one. `--check-json PATH`
//! additionally writes just the violations document to PATH (implies
//! `--check`).
//!
//! `--check-graph DIR` builds the per-app epoch dependency graph
//! (`whisper::hbgraph`, paper §5.2) over every recorded trace, prints
//! the dependency-statistics table, stores the summary under `hb.graph`
//! in the JSON report, and writes the full graphs to `DIR/<app>.json`
//! and `DIR/<app>.dot`.
//!
//! `--crossval` cross-validates the happens-before analysis against
//! the crash campaign (`whisper::crossval`): every materialized crash
//! image is compared against the lines the HB analysis proves
//! spec-invariant durable at that point, plus a seeded epoch-race
//! positive control. The process exits 6 if any image exhibits an
//! order-impossible state (or the control goes dead) — the CI gate for
//! HB soundness. `--crossval-json PATH` additionally writes just the
//! crossval document to PATH (implies `--crossval`).
//!
//! `--crash` sweeps the crash-injection campaign
//! (`whisper::crashtest`) after the suite run: every Table 1 app's
//! dedicated crash workload is interrupted at evenly spread fence
//! points, each captured state is materialized under
//! drop-volatile/persist-all/adversarial crash specs, and the app's
//! recovery oracle judges every image. A summary table is appended to
//! the text report, the JSON report's `crash` section is populated,
//! and the process exits 4 on any recovery failure — the CI gate for
//! crash recoverability. `--crash-json PATH` additionally writes just
//! the campaign document to PATH (implies `--crash`). The campaign
//! fans out over `--parallel` workers.
//!
//! `--optimize` runs the ordering optimizer (`whisper::optimize`)
//! after the suite run: every selected app's trace is rewritten by
//! `pmcheck::rewrite_events` (checker-flagged redundant flushes and
//! no-work fences elided to a fixpoint), both traces are replayed
//! under x86-64(NVM), HOPS(NVM), and PWQ to price the earned speedup,
//! the rewritten trace is re-checked (must be clean of the elided
//! rules, no new errors), and the full crash campaign is re-run with
//! the flagged instructions machine-elided (every recovery oracle must
//! still pass). A summary table is appended to the text report, the
//! JSON report's `optimize` section is populated, and the process
//! exits 5 on any gate violation — remaining elidable findings, new
//! errors, or optimized-schedule recovery failures. `--optimize-json
//! PATH` additionally writes just the optimize document to PATH
//! (implies `--optimize`). Both phases fan out over `--parallel`
//! workers; results never depend on the worker count.
//!
//! `--serve` runs the open-loop serving engine (`whisper::serve`)
//! after the suite run: each Table 1 app is calibrated across sharded
//! machines, then swept across offered-load points under paced or
//! bursty (deterministic-Poisson) arrivals, producing a throughput vs
//! p50/p90/p99/p999 simulated-latency curve per persistence mechanism
//! (clwb vs HOPS vs PWQ). The saturation table is appended to the text
//! report and the JSON report's `serve` section is populated.
//! `--serve-json PATH` additionally writes just the serve document to
//! PATH (implies `--serve`); `--serve-arrival` picks the arrival
//! process (default bursty) and `--serve-shards` the machines per app
//! (default 4). The sweep fans out over `--parallel` workers; results
//! are bit-identical whatever the worker count.
//!
//! `--json PATH` additionally writes the versioned machine-readable
//! report (`whisper::json_report`, schema v8) to PATH and turns on
//! `pmobs` metric recording so the report's `metrics` block is
//! populated. Stdout carries only the report text; all diagnostics go
//! to stderr through the `pmobs` logger, and `--quiet` silences
//! everything below error level.
//!
//! `--json-det PATH` writes only the deterministic subset of that
//! report (`json_report::deterministic_subset`): everything keyed on
//! `(scale, seed)` alone, with the host-dependent `config` and
//! wall-clock `metrics` blocks removed. CI byte-compares this subset
//! against the committed golden file.
//!
//! `--dump-traces DIR` archives each application's event stream as a
//! binary `.wtr` file (the `pmtrace::codec` format); `--from-trace
//! FILE` re-analyzes such an archive offline instead of running a
//! workload.

use pmcheck::RuleSet;
use std::time::Instant;
use whisper::check::{self, AppCheck};
use whisper::crashtest::{self, AppCrashReport, CampaignConfig};
use whisper::crossval::CrossvalReport;
use whisper::hbgraph::{self, AppGraph};
use whisper::optimize::{self, OptimizeReport};
use whisper::profile::{profile_json, profile_table, AppProfile};
use whisper::serve::{self, AppServe, Arrival, ServeConfig};
use whisper::suite::{analyze, run_apps, AppResult, SuiteConfig, APP_NAMES};
use whisper::{json_report, report};

/// Exit code when `--check` found error-severity violations.
const CHECK_FAILED: i32 = 3;
/// Exit code when `--crash` found recovery failures.
const CRASH_FAILED: i32 = 4;
/// Exit code when `--optimize` violated a soundness gate.
const OPTIMIZE_FAILED: i32 = 5;
/// Exit code when `--crossval` found an order-impossible crash image
/// (or a dead positive control).
const CROSSVAL_FAILED: i32 = 6;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment = "all".to_string();
    let mut cfg = SuiteConfig::standard();
    let mut apps: Vec<String> = APP_NAMES.iter().map(ToString::to_string).collect();
    let mut dump_dir: Option<String> = None;
    let mut from_trace: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut json_det_path: Option<String> = None;
    let mut check_traces = false;
    let mut check_json_path: Option<String> = None;
    let mut check_rules = RuleSet::all();
    let mut check_graph_dir: Option<String> = None;
    let mut crossval_gate = false;
    let mut crossval_json_path: Option<String> = None;
    let mut crash_campaign = false;
    let mut crash_json_path: Option<String> = None;
    let mut optimize_sweep = false;
    let mut optimize_json_path: Option<String> = None;
    let mut serve_sweep = false;
    let mut serve_json_path: Option<String> = None;
    let mut serve_arrival = Arrival::Bursty;
    let mut serve_shards = 4usize;
    let mut trace_path: Option<String> = None;
    let mut profile = false;
    let mut profile_json_path: Option<String> = None;
    let mut timing = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                cfg.scale = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number"));
            }
            "--seed" => {
                i += 1;
                cfg.seed = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--parallel" => {
                i += 1;
                cfg.parallelism = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--parallel needs a worker count"));
            }
            "--threads" => {
                i += 1;
                cfg.worker_threads = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--threads needs a worker count (1..=64)"));
            }
            "--timing" => timing = true,
            "--check" => check_traces = true,
            "--check-json" => {
                i += 1;
                check_traces = true;
                check_json_path = Some(
                    args.get(i)
                        .unwrap_or_else(|| die("--check-json needs an output path"))
                        .clone(),
                );
            }
            "--check-rules" => {
                i += 1;
                let list = args
                    .get(i)
                    .unwrap_or_else(|| die("--check-rules needs a comma-separated rule-id list"));
                check_rules = RuleSet::from_ids(list).unwrap_or_else(|e| die(&e));
                check_traces = true;
            }
            "--check-graph" => {
                i += 1;
                check_graph_dir = Some(
                    args.get(i)
                        .unwrap_or_else(|| die("--check-graph needs an output directory"))
                        .clone(),
                );
            }
            "--crossval" => crossval_gate = true,
            "--crossval-json" => {
                i += 1;
                crossval_gate = true;
                crossval_json_path = Some(
                    args.get(i)
                        .unwrap_or_else(|| die("--crossval-json needs an output path"))
                        .clone(),
                );
            }
            "--optimize" => optimize_sweep = true,
            "--optimize-json" => {
                i += 1;
                optimize_sweep = true;
                optimize_json_path = Some(
                    args.get(i)
                        .unwrap_or_else(|| die("--optimize-json needs an output path"))
                        .clone(),
                );
            }
            "--crash" => crash_campaign = true,
            "--crash-json" => {
                i += 1;
                crash_campaign = true;
                crash_json_path = Some(
                    args.get(i)
                        .unwrap_or_else(|| die("--crash-json needs an output path"))
                        .clone(),
                );
            }
            "--serve" => serve_sweep = true,
            "--serve-json" => {
                i += 1;
                serve_sweep = true;
                serve_json_path = Some(
                    args.get(i)
                        .unwrap_or_else(|| die("--serve-json needs an output path"))
                        .clone(),
                );
            }
            "--serve-arrival" => {
                i += 1;
                serve_arrival = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--serve-arrival needs paced|bursty"));
            }
            "--trace" => {
                i += 1;
                trace_path = Some(
                    args.get(i)
                        .unwrap_or_else(|| die("--trace needs an output path"))
                        .clone(),
                );
            }
            "--profile" => profile = true,
            "--profile-json" => {
                i += 1;
                profile = true;
                profile_json_path = Some(
                    args.get(i)
                        .unwrap_or_else(|| die("--profile-json needs an output path"))
                        .clone(),
                );
            }
            "--serve-shards" => {
                i += 1;
                serve_shards = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .unwrap_or_else(|| die("--serve-shards needs a positive count"));
            }
            "--quiet" => pmobs::logger::set_level(pmobs::Level::Error),
            "--json" => {
                i += 1;
                json_path = Some(
                    args.get(i)
                        .unwrap_or_else(|| die("--json needs an output path"))
                        .clone(),
                );
            }
            "--json-det" => {
                i += 1;
                json_det_path = Some(
                    args.get(i)
                        .unwrap_or_else(|| die("--json-det needs an output path"))
                        .clone(),
                );
            }
            "--apps" => {
                i += 1;
                apps = args
                    .get(i)
                    .unwrap_or_else(|| die("--apps needs a comma-separated list"))
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .collect();
            }
            "--dump-traces" => {
                i += 1;
                dump_dir = Some(
                    args.get(i)
                        .unwrap_or_else(|| die("--dump-traces needs a directory"))
                        .clone(),
                );
            }
            "--from-trace" => {
                i += 1;
                from_trace = Some(
                    args.get(i)
                        .unwrap_or_else(|| die("--from-trace needs a file"))
                        .clone(),
                );
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: whisper-report [table1|fig3|fig4|fig5|fig6|fig10|amplification|ntfraction|smallwrites|all] [--scale X] [--seed N] [--apps a,b,c] [--parallel N] [--threads N] [--timing] [--json PATH] [--json-det PATH] [--check] [--check-json PATH] [--check-rules ID,..] [--check-graph DIR] [--crossval] [--crossval-json PATH] [--crash] [--crash-json PATH] [--serve] [--serve-json PATH] [--serve-arrival paced|bursty] [--serve-shards N] [--trace PATH] [--profile] [--profile-json PATH] [--optimize] [--optimize-json PATH] [--quiet]"
                );
                return;
            }
            exp if !exp.starts_with('-') => experiment = exp.to_string(),
            other => die(&format!("unknown flag {other}")),
        }
        i += 1;
    }

    for a in &apps {
        if !APP_NAMES.contains(&a.as_str()) {
            die(&format!("unknown app {a:?}; valid: {APP_NAMES:?}"));
        }
    }
    let names: Vec<&str> = apps.iter().map(String::as_str).collect();

    // Reject configurations up front rather than deep inside a worker:
    // a scale that truncates any app to zero ops would silently report
    // rates for work that never ran.
    if let Err(msg) = cfg.validate() {
        die(&msg);
    }

    // Metric recording stays off unless a machine-readable report was
    // requested: instruments are provably non-perturbing, but the
    // default run should still be the plain one.
    if json_path.is_some() {
        pmobs::set_enabled(true);
    }

    // --profile rides on the serving sweep.
    if profile {
        serve_sweep = true;
    }

    // Tracing covers the suite run and the serving sweep; it is turned
    // off again right after the export, so the `--check`/`--crash`
    // phases (which re-run workloads internally) never pollute a file
    // already written.
    if trace_path.is_some() {
        pmobs::trace::set_enabled(true);
    }

    // Offline mode analyzes an archived trace instead of running the
    // suite; either way the results take the same output path below.
    let results = if let Some(path) = from_trace {
        load_archived_trace(&path)
    } else {
        if timing {
            run_timing_comparison(&names, &cfg);
            return;
        }

        pmobs::info!(
            "running {} app(s) at scale {} (seed {}, {} worker{})...",
            names.len(),
            cfg.scale,
            cfg.seed,
            cfg.parallelism,
            if cfg.parallelism == 1 { "" } else { "s" },
        );
        let started = Instant::now();
        let results = run_apps(&names, &cfg);
        pmobs::info!("suite finished in {:.2?}", started.elapsed());

        if let Some(dir) = &dump_dir {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| die(&format!("cannot create {dir}: {e}")));
            for r in &results {
                let path = format!("{dir}/{}.wtr", r.run.name);
                std::fs::write(&path, pmtrace::encode_events(&r.run.events))
                    .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
                pmobs::info!("trace archived to {path}");
            }
        }
        results
    };

    let served = run_serve_sweep(
        serve_sweep,
        profile,
        &serve_json_path,
        &profile_json_path,
        &cfg,
        serve_shards,
        serve_arrival,
    );
    export_trace(&trace_path);
    let checks = run_checks(check_traces, &check_json_path, &results, check_rules);
    let graphs = run_graphs(&check_graph_dir, &results);
    let crash = run_crash(crash_campaign, &crash_json_path, &cfg);
    let crossval = run_crossval_gate(crossval_gate, &crossval_json_path, &cfg);
    let optimized = run_optimize(optimize_sweep, &optimize_json_path, &results, &cfg);
    write_json_report(
        &json_path,
        &json_det_path,
        &results,
        &cfg,
        checks.as_deref(),
        check_rules,
        crash.as_ref(),
        served.as_ref(),
        optimized.as_ref(),
        graphs.as_deref(),
        crossval.as_ref(),
    );

    let text = match experiment.as_str() {
        "table1" => report::table1(&results),
        "fig3" => report::fig3(&results),
        "fig4" => report::fig4(&results),
        "fig5" => report::fig5(&results),
        "fig6" => report::fig6(&results),
        "fig10" => report::fig10(&results),
        "amplification" => report::amplification(&results),
        "ntfraction" => report::nt_fraction(&results),
        "smallwrites" => report::small_writes(&results),
        "consequences" => report::consequences(&results),
        "all" => report::all(&results),
        other => die(&format!("unknown experiment {other:?}")),
    };
    println!("{text}");
    if let Some(checks) = &checks {
        print!("\n{}", check::summary_table(checks));
    }
    if let Some(graphs) = &graphs {
        print!("\n{}", hbgraph::summary_table(graphs));
    }
    if let Some((reports, ccfg)) = &crash {
        print!("\n{}", crashtest::summary_table(reports, ccfg));
    }
    if let Some(cv) = &crossval {
        print!("\n{}", cv.summary_table());
    }
    if let Some(opt) = &optimized {
        print!("\n{}", optimize::summary_table(opt));
    }
    if let Some(s) = &served {
        print!("\n{}", report::serve_table(&s.reports, s.scfg.arrival));
        if let Some(profiles) = &s.profiles {
            print!("\n{}", profile_table(profiles));
        }
    }
    if let Some(checks) = &checks {
        exit_if_check_failed(checks);
    }
    if let Some((reports, _)) = &crash {
        exit_if_crash_failed(reports);
    }
    if let Some(cv) = &crossval {
        exit_if_crossval_failed(cv);
    }
    if let Some(opt) = &optimized {
        exit_if_optimize_failed(opt);
    }
}

/// `--from-trace`: decode an archived trace into a one-row result set.
/// The Figure 10 table only renders the named gem5-subset apps, which
/// an archive path can never match, so the replay is skipped rather
/// than paid for five passes nobody will see.
fn load_archived_trace(path: &str) -> Vec<AppResult> {
    let bytes = std::fs::read(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    let events = pmtrace::decode_events(&bytes)
        .unwrap_or_else(|e| die(&format!("cannot decode {path}: {e}")));
    let duration_ns = events.last().map(|e| e.at_ns).unwrap_or(0);
    let run = whisper::apps::AppRun {
        name: path.to_string(),
        workload: "archived trace".into(),
        events,
        stats: memsim::MemStats::default(),
        duration_ns,
        threads: 4,
    };
    let analysis = analyze(&run);
    vec![AppResult { run, analysis }]
}

/// `--trace`: drain the collected tracks, write Chrome trace-event
/// JSON, and disable tracing — later phases (checks, crash) re-run
/// workloads internally and must not record into a file already
/// written.
fn export_trace(trace_path: &Option<String>) {
    let Some(path) = trace_path else { return };
    let tracks = pmobs::trace::take_tracks();
    pmobs::trace::set_enabled(false);
    let mut out = pmobs::trace::export_chrome(&tracks).to_compact();
    out.push('\n');
    std::fs::write(path, out).unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
    pmobs::info!("chrome trace ({} track(s)) written to {path}", tracks.len());
}

/// `--check`: run the persistency checker over every trace (restricted
/// to the `--check-rules` selection), write the standalone violations
/// document if `--check-json` asked for one.
fn run_checks(
    enabled: bool,
    check_json_path: &Option<String>,
    results: &[AppResult],
    rules: RuleSet,
) -> Option<Vec<AppCheck>> {
    if !enabled {
        return None;
    }
    let _span = pmobs::span!("suite.check");
    let checks = check::check_results_with(results, rules);
    if let Some(path) = check_json_path {
        std::fs::write(path, check::violations_json(&checks, rules).to_pretty())
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        pmobs::info!("violations json written to {path}");
    }
    Some(checks)
}

/// `--check-graph DIR`: build the epoch dependency graph for every
/// result, write `<DIR>/<app>.json` + `<DIR>/<app>.dot`.
fn run_graphs(dir: &Option<String>, results: &[AppResult]) -> Option<Vec<AppGraph>> {
    let dir = dir.as_ref()?;
    let _span = pmobs::span!("suite.hbgraph");
    let graphs = hbgraph::build_graphs(results);
    let written = hbgraph::write_graphs(&graphs, std::path::Path::new(dir))
        .unwrap_or_else(|e| die(&format!("cannot write graphs to {dir}: {e}")));
    pmobs::info!("{} graph file(s) written to {dir}", written.len());
    Some(graphs)
}

/// `--crossval`: replay every `APPS` crash workload with tracing on,
/// compare every materialized image against the HB analysis's proven
/// durable set, and run the seeded epoch-race positive control. Writes
/// the standalone document if `--crossval-json` asked for one. Reuses
/// the suite's `--parallel` worker count.
fn run_crossval_gate(
    enabled: bool,
    crossval_json_path: &Option<String>,
    cfg: &SuiteConfig,
) -> Option<CrossvalReport> {
    if !enabled {
        return None;
    }
    let _span = pmobs::span!("suite.crossval");
    let ccfg = CampaignConfig {
        parallelism: cfg.parallelism,
        ..CampaignConfig::quick()
    };
    pmobs::info!(
        "cross-validating hb analysis: {} point(s) x {} spec(s) per app...",
        ccfg.points,
        2 + ccfg.adversarial_seeds
    );
    let started = Instant::now();
    let report = whisper::crossval::run_crossval(&ccfg);
    pmobs::info!(
        "crossval finished in {:.2?}: {} image(s), {} violation(s)",
        started.elapsed(),
        report.total_images(),
        report.total_violations()
    );
    if let Some(path) = crossval_json_path {
        std::fs::write(path, report.to_json().to_pretty())
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        pmobs::info!("crossval json written to {path}");
    }
    Some(report)
}

/// The `--crossval` gate: an order-impossible crash image, a vacuous
/// proof set, or a dead positive control fails the run.
fn exit_if_crossval_failed(report: &CrossvalReport) {
    if !report.passed() {
        pmobs::error!(
            "crossval gate: {} order-impossible image state(s), {} proven line(s), control {} — failing",
            report.total_violations(),
            report.total_proven(),
            if report.control.passed() { "ok" } else { "dead" }
        );
        std::process::exit(CROSSVAL_FAILED);
    }
}

/// The `--check` gate: error-severity findings fail the run.
fn exit_if_check_failed(checks: &[AppCheck]) {
    let errors = check::total_errors(checks);
    if errors > 0 {
        pmobs::error!("pmcheck: {errors} error-severity violation(s) — failing");
        std::process::exit(CHECK_FAILED);
    }
}

/// `--crash`: sweep the crash-injection campaign across the suite,
/// write the standalone campaign document if `--crash-json` asked for
/// one. The campaign reuses the suite's `--parallel` worker count.
fn run_crash(
    enabled: bool,
    crash_json_path: &Option<String>,
    cfg: &SuiteConfig,
) -> Option<(Vec<AppCrashReport>, CampaignConfig)> {
    if !enabled {
        return None;
    }
    let _span = pmobs::span!("suite.crash");
    let ccfg = CampaignConfig {
        parallelism: cfg.parallelism,
        ..CampaignConfig::quick()
    };
    pmobs::info!(
        "sweeping crash campaign: {} point(s) x {} spec(s) per app...",
        ccfg.points,
        2 + ccfg.adversarial_seeds
    );
    let started = Instant::now();
    let reports = crashtest::run_campaign(&ccfg);
    pmobs::info!("crash campaign finished in {:.2?}", started.elapsed());
    if let Some(path) = crash_json_path {
        std::fs::write(path, crashtest::crash_json(&reports, &ccfg).to_pretty())
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        pmobs::info!("crash campaign json written to {path}");
    }
    Some((reports, ccfg))
}

/// `--optimize`: rewrite every selected trace, price the speedup, and
/// re-run the crash campaign over the elided schedules; write the
/// standalone optimize document if `--optimize-json` asked for one.
/// Both phases reuse the suite's `--parallel` worker count.
fn run_optimize(
    enabled: bool,
    optimize_json_path: &Option<String>,
    results: &[AppResult],
    cfg: &SuiteConfig,
) -> Option<OptimizeReport> {
    if !enabled {
        return None;
    }
    let _span = pmobs::span!("suite.optimize");
    let ccfg = CampaignConfig {
        parallelism: cfg.parallelism,
        ..CampaignConfig::quick()
    };
    pmobs::info!(
        "sweeping ordering optimizer: rewrite + replay over {} app(s), then crash-verifying...",
        results.len()
    );
    let started = Instant::now();
    let report = optimize::optimize_results(results, &ccfg, cfg.parallelism);
    pmobs::info!(
        "optimizer finished in {:.2?}: {} instruction(s) elided, {} crash failure(s)",
        started.elapsed(),
        report.total_elided(),
        report.crash_failures()
    );
    if let Some(path) = optimize_json_path {
        std::fs::write(path, optimize::optimize_json(&report).to_pretty())
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        pmobs::info!("optimize json written to {path}");
    }
    Some(report)
}

/// The `--optimize` gate: any re-check or crash-soundness violation
/// fails the run.
fn exit_if_optimize_failed(report: &OptimizeReport) {
    let violations = report.gate_violations();
    if !violations.is_empty() {
        for v in &violations {
            pmobs::error!("optimize gate: {v}");
        }
        std::process::exit(OPTIMIZE_FAILED);
    }
}

/// What `--serve` (and `--profile` riding on it) produced, for the
/// report body and the printed tables.
struct ServeOutput {
    reports: Vec<AppServe>,
    /// Present only under `--profile`.
    profiles: Option<Vec<AppProfile>>,
    scfg: ServeConfig,
}

/// `--serve`: sweep the open-loop serving engine across the suite,
/// write the standalone serve document if `--serve-json` asked for
/// one — and, under `--profile`, keep the per-app phase profiles
/// (writing the standalone profile document if `--profile-json` asked
/// for one). The sweep reuses the suite's scale/seed and `--parallel`
/// worker count; results never depend on the latter.
fn run_serve_sweep(
    enabled: bool,
    profile: bool,
    serve_json_path: &Option<String>,
    profile_json_path: &Option<String>,
    cfg: &SuiteConfig,
    shards: usize,
    arrival: Arrival,
) -> Option<ServeOutput> {
    if !enabled {
        return None;
    }
    let _span = pmobs::span!("suite.serve");
    let scfg = ServeConfig {
        scale: cfg.scale,
        seed: cfg.seed,
        shards,
        arrival,
        parallelism: cfg.parallelism,
    };
    pmobs::info!("sweeping serving engine: {shards} shard(s), {arrival} arrivals...");
    let started = Instant::now();
    let (reports, profiles) = if profile {
        let (r, p) = serve::run_serve_profiled(&scfg);
        (r, Some(p))
    } else {
        (serve::run_serve(&scfg), None)
    };
    pmobs::info!("serving sweep finished in {:.2?}", started.elapsed());
    if let Some(path) = serve_json_path {
        std::fs::write(path, serve::serve_json(&reports, &scfg).to_pretty())
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        pmobs::info!("serve json written to {path}");
    }
    if let Some(path) = profile_json_path {
        let p = profiles.as_ref().expect("--profile-json implies --profile");
        std::fs::write(path, profile_json(p, &scfg).to_pretty())
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        pmobs::info!("profile json written to {path}");
    }
    Some(ServeOutput {
        reports,
        profiles,
        scfg,
    })
}

/// The `--crash` gate: any recovery failure fails the run.
fn exit_if_crash_failed(reports: &[AppCrashReport]) {
    let failures = crashtest::total_failures(reports);
    if failures > 0 {
        pmobs::error!("crash campaign: {failures} recovery failure(s) — failing");
        std::process::exit(CRASH_FAILED);
    }
}

/// Write the schema-v7 JSON document to `path` and/or its deterministic
/// subset to `det_path` (no-op without `--json`/`--json-det`).
/// Snapshots the global pmobs registry last, so the full report
/// includes everything the run recorded.
#[allow(clippy::too_many_arguments)]
fn write_json_report(
    path: &Option<String>,
    det_path: &Option<String>,
    results: &[AppResult],
    cfg: &SuiteConfig,
    checks: Option<&[AppCheck]>,
    rules: RuleSet,
    crash: Option<&(Vec<AppCrashReport>, CampaignConfig)>,
    served: Option<&ServeOutput>,
    optimized: Option<&OptimizeReport>,
    graphs: Option<&[AppGraph]>,
    crossval: Option<&CrossvalReport>,
) {
    if path.is_none() && det_path.is_none() {
        return;
    }
    let snap = pmobs::global().snapshot();
    let mut doc = json_report::build_checked(results, cfg, &snap, checks, rules);
    if let Some((reports, ccfg)) = crash {
        doc = doc.field("crash", crashtest::crash_json(reports, ccfg));
    }
    if graphs.is_some() || crossval.is_some() {
        let hb = pmobs::Json::obj()
            .field(
                "graph",
                graphs.map_or(pmobs::Json::Null, hbgraph::stats_json),
            )
            .field(
                "crossval",
                crossval.map_or(pmobs::Json::Null, CrossvalReport::to_json),
            );
        doc = doc.field("hb", hb);
    }
    if let Some(s) = served {
        doc = doc.field("serve", serve::serve_json(&s.reports, &s.scfg));
        if let Some(p) = &s.profiles {
            doc = doc.field("profile", profile_json(p, &s.scfg));
        }
    }
    if let Some(opt) = optimized {
        doc = doc.field("optimize", optimize::optimize_json(opt));
    }
    if let Some(path) = path {
        std::fs::write(path, doc.to_pretty())
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        pmobs::info!("json report written to {path}");
    }
    if let Some(path) = det_path {
        std::fs::write(path, json_report::deterministic_subset(&doc).to_pretty())
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        pmobs::info!("deterministic json report written to {path}");
    }
}

/// `--timing`: the suite timing harness. Runs the selected apps
/// serially and then with the configured parallelism, checks the two
/// result sets agree, and reports — per app, from the same span data —
/// the host wall-clock duration under each runner plus the simulated
/// duration (`span.suite.run/<app>` and `sim.app_duration/<app>`; the
/// sim column is identical across runners by construction).
fn run_timing_comparison(names: &[&str], cfg: &SuiteConfig) {
    let serial_cfg = SuiteConfig {
        parallelism: 1,
        ..*cfg
    };
    let workers = cfg.parallelism.max(2);
    let parallel_cfg = SuiteConfig {
        parallelism: workers,
        ..*cfg
    };

    // Spans only record while metric recording is on; restore the
    // caller's flag afterwards (the non-perturbation contract says the
    // runs themselves cannot notice).
    let was_recording = pmobs::enabled();
    pmobs::set_enabled(true);

    pmobs::info!(
        "timing {} app(s) at scale {} (seed {})...",
        names.len(),
        cfg.scale,
        cfg.seed
    );

    let base = pmobs::global().snapshot();
    pmobs::info!("serial run...");
    let t0 = Instant::now();
    let serial = run_apps(names, &serial_cfg);
    let serial_elapsed = t0.elapsed();
    let mid = pmobs::global().snapshot();

    pmobs::info!("parallel run ({workers} workers)...");
    let t1 = Instant::now();
    let parallel = run_apps(names, &parallel_cfg);
    let parallel_elapsed = t1.elapsed();
    let end = pmobs::global().snapshot();
    pmobs::set_enabled(was_recording);

    for (a, b) in serial.iter().zip(&parallel) {
        if a.run.events != b.run.events || a.run.duration_ns != b.run.duration_ns {
            die(&format!(
                "determinism violation: {} differs between runners",
                a.run.name
            ));
        }
    }

    let hist_sum =
        |snap: &pmobs::MetricsSnapshot, key: &str| snap.histograms.get(key).map_or(0, |h| h.sum);
    let ms = |ns: u64| ns as f64 / 1e6;
    println!("Suite timing ({} apps, scale {}):", names.len(), cfg.scale);
    println!(
        "  {:<14} {:>13} {:>15} {:>13}",
        "app", "serial (ms)", "parallel (ms)", "sim (ms)"
    );
    let mut totals = (0u64, 0u64, 0u64);
    for name in names {
        let wall_key = format!("span.suite.run/{name}");
        let sim_key = format!("sim.app_duration/{name}");
        let wall_serial = hist_sum(&mid, &wall_key).saturating_sub(hist_sum(&base, &wall_key));
        let wall_parallel = hist_sum(&end, &wall_key).saturating_sub(hist_sum(&mid, &wall_key));
        let sim = hist_sum(&mid, &sim_key).saturating_sub(hist_sum(&base, &sim_key));
        totals.0 += wall_serial;
        totals.1 += wall_parallel;
        totals.2 += sim;
        println!(
            "  {name:<14} {:>13.2} {:>15.2} {:>13.3}",
            ms(wall_serial),
            ms(wall_parallel),
            ms(sim)
        );
    }
    println!(
        "  {:<14} {:>13.2} {:>15.2} {:>13.3}",
        "total",
        ms(totals.0),
        ms(totals.1),
        ms(totals.2)
    );
    let speedup = serial_elapsed.as_secs_f64() / parallel_elapsed.as_secs_f64().max(1e-9);
    println!("  serial   (1 worker):  {serial_elapsed:>10.2?}");
    println!("  parallel ({workers} workers): {parallel_elapsed:>10.2?}");
    println!("  speedup: {speedup:.2}x  (results verified identical)");
}

fn die(msg: &str) -> ! {
    pmobs::error!("whisper-report: {msg}");
    std::process::exit(2);
}
