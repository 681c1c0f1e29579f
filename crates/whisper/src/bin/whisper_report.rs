//! `whisper-report` — regenerate the paper's tables and figures.
//!
//! ```text
//! whisper-report [EXPERIMENT] [--scale X] [--seed N] [--apps a,b,c]
//!                [--parallel N] [--threads N] [--timing]
//!                [--json PATH] [--json-det PATH]
//!                [--check] [--check-json PATH] [--check-rules ID,..]
//!                [--check-graph DIR] [--crossval] [--crossval-json PATH]
//!                [--crash] [--crash-json PATH]
//!                [--optimize] [--optimize-json PATH]
//!                [--serve] [--serve-json PATH]
//!                [--serve-arrival paced|bursty] [--serve-shards N]
//!                [--profile] [--profile-json PATH] [--trace PATH]
//!                [--quiet] [--dump-traces DIR] [--from-trace FILE]
//!
//! EXPERIMENT: table1 | fig3 | fig4 | fig5 | fig6 | fig10 |
//!             amplification | ntfraction | smallwrites |
//!             consequences | all (default)
//! ```
//!
//! `--help` prints this block; its experiment list is
//! `whisper::report::SECTIONS`.
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
//! plus the overall speedup, instead of a paper table. It takes only
//! `--scale`, `--seed`, `--apps`, `--parallel`, `--threads` and
//! `--quiet`; any other flag next to it is a usage error (exit 2)
//! rather than a gate or output silently skipped.
//!
//! # Gates
//!
//! Every gate below is one `Section`: it runs once, builds one JSON
//! document, prints one table after the experiment text, and may fail
//! the run. `--X-json PATH` writes that document to PATH (and implies
//! `--X`); the same document fills the gate's key in the `--json`
//! report. Tables print in the order check, graph, crash, crossval,
//! optimize, serve, profile; the first failing gate in that order sets
//! the exit code:
//!
//! | exit | meaning                                                  |
//! |------|----------------------------------------------------------|
//! | 0    | every gate that ran passed                               |
//! | 2    | usage error (bad flag or value, unknown app/rule/experiment) |
//! | 3    | `--check`: error-severity persistency violation          |
//! | 4    | `--crash`: recovery failure                              |
//! | 6    | `--crossval`: order-impossible crash image or dead control |
//! | 5    | `--optimize`: soundness-gate violation                   |
//!
//! `--check` runs the `pmcheck` persistency checker over every
//! selected application's trace (report key `violations`): findings
//! stream through the `pmobs` logger, and any **error**-severity
//! violation fails the run — the CI regression gate for durability
//! discipline. `--check-rules ID,..` restricts the checker to the named
//! rules (implies `--check`; an unknown rule id is a usage error); the
//! selection is recorded as `rules_enabled` in the violations document
//! so a filtered report cannot pass for a full one.
//!
//! `--check-graph DIR` builds the per-app epoch dependency graph
//! (`whisper::hbgraph`, paper §5.2) over every recorded trace, prints
//! the dependency-statistics table, stores the summary under `hb.graph`
//! in the JSON report, and writes the full graphs to `DIR/<app>.json`
//! and `DIR/<app>.dot`.
//!
//! `--crossval` cross-validates the happens-before analysis against
//! the crash campaign (`whisper::crossval`, report key `hb.crossval`):
//! every materialized crash image is compared against the lines the HB
//! analysis proves spec-invariant durable at that point, plus a seeded
//! epoch-race positive control. An order-impossible image state (or a
//! dead control) fails the run — the CI gate for HB soundness.
//!
//! `--crash` sweeps the crash-injection campaign
//! (`whisper::crashtest`, report key `crash`): every Table 1 app's
//! dedicated crash workload is interrupted at evenly spread fence
//! points, each captured state is materialized under
//! drop-volatile/persist-all/adversarial crash specs, and the app's
//! recovery oracle judges every image. Any recovery failure fails the
//! run — the CI gate for crash recoverability.
//!
//! `--optimize` runs the ordering optimizer (`whisper::optimize`,
//! report key `optimize`): every selected app's trace is rewritten by
//! `pmcheck::rewrite_events` (checker-flagged redundant flushes and
//! no-work fences elided to a fixpoint), both traces are replayed
//! under x86-64(NVM), HOPS(NVM), and PWQ to price the earned speedup,
//! the rewritten trace is re-checked (must be clean of the elided
//! rules, no new errors), and the full crash campaign is re-run with
//! the flagged instructions machine-elided (every recovery oracle must
//! still pass). Any of those violations fails the run.
//!
//! `--serve` runs the open-loop serving engine (`whisper::serve`,
//! report key `serve`): each Table 1 app is calibrated across sharded
//! machines, then swept across offered-load points under paced or
//! bursty (deterministic-Poisson) arrivals, producing a throughput vs
//! p50/p90/p99/p999 simulated-latency curve per persistence mechanism
//! (clwb vs HOPS vs PWQ). `--serve-arrival` picks the arrival process
//! and `--serve-shards` the machines per app (defaults:
//! `ServeConfig::from_suite`). `--profile` (implies `--serve`, report
//! key `profile`) adds the queue / replay / fence-stall phase split
//! per app × mechanism (`whisper::profile`) and its tail-attribution
//! table. The sweep runs before the other gates and prints last.
//!
//! The crash, crossval and optimize campaigns, the optimizer's
//! rewrite and the serving sweep all fan out over `--parallel` workers;
//! no result depends on the worker count.
//!
//! # Outputs
//!
//! `--trace PATH` turns on the simulated-time tracing subsystem
//! (`pmobs::trace`) for the suite run and the serving sweep, and
//! writes the merged tracks to PATH as Chrome trace-event JSON (loads
//! in Perfetto or `chrome://tracing`; one lane per machine, replay
//! thread, and serve shard). Every timestamp is on the simulated
//! clock, so the file is byte-identical across hosts and `--parallel`
//! settings. Tracing is disabled again before the other gates run, so
//! their internal re-runs never pollute the trace.
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
use pmobs::Json;
use std::num::NonZeroUsize;
use std::str::FromStr;
use std::time::Instant;
use whisper::crashtest::{self, CampaignConfig};
use whisper::profile::{profile_json, profile_table};
use whisper::serve::{self, ServeConfig};
use whisper::suite::{analyze, run_apps, AppResult, SuiteConfig, APP_NAMES};
use whisper::{check, crossval, hbgraph, json_report, optimize, report};

/// The flag part of the usage block above; `--help` prints it with the
/// experiment list from `report::SECTIONS`.
const USAGE: &str = "\
whisper-report [EXPERIMENT] [--scale X] [--seed N] [--apps a,b,c]
               [--parallel N] [--threads N] [--timing]
               [--json PATH] [--json-det PATH]
               [--check] [--check-json PATH] [--check-rules ID,..]
               [--check-graph DIR] [--crossval] [--crossval-json PATH]
               [--crash] [--crash-json PATH]
               [--optimize] [--optimize-json PATH]
               [--serve] [--serve-json PATH]
               [--serve-arrival paced|bursty] [--serve-shards N]
               [--profile] [--profile-json PATH] [--trace PATH]
               [--quiet] [--dump-traces DIR] [--from-trace FILE]";

/// The only flags `--timing` takes: it runs the suite twice and prints
/// its own table, so it has no gates and writes no file.
const TIMING_FLAGS: &str = "--timing --scale --seed --apps --parallel --threads --quiet";

/// One gate's on/off switch and its `--X-json` path.
#[derive(Default)]
struct Mode {
    on: bool,
    json: Option<String>,
}

/// What one gate produced.
struct Section {
    /// Report key the document fills; `hb.graph` and `hb.crossval`
    /// are the two halves of the `hb` object.
    key: &'static str,
    /// Where `--X-json` writes the document on its own.
    path: Option<String>,
    json: Json,
    /// Printed after the experiment text.
    table: String,
    /// Exit code and reason when the gate failed.
    failed: Option<(i32, String)>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment = "all";
    let mut cfg = SuiteConfig::standard();
    let mut scfg = ServeConfig::from_suite(&cfg);
    let mut apps: Vec<String> = APP_NAMES.iter().map(ToString::to_string).collect();
    let mut rules = RuleSet::all();
    let [mut check, mut crossval, mut crash, mut optimize, mut serve, mut profile] =
        <[Mode; 6]>::default();
    let [mut json, mut json_det, mut trace, mut graph_dir, mut dump_dir, mut from_trace] =
        <[Option<String>; 6]>::default();
    let mut timing = false;
    let mut not_timing = None;

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag.starts_with('-') && !TIMING_FLAGS.split(' ').any(|f| f == flag) {
            not_timing.get_or_insert(flag);
        }
        match flag {
            "--scale" => cfg.scale = arg(&args, &mut i, "a number"),
            "--seed" => cfg.seed = arg(&args, &mut i, "an integer"),
            "--parallel" => cfg.parallelism = arg(&args, &mut i, "a worker count"),
            "--threads" => cfg.worker_threads = arg(&args, &mut i, "a worker count (1..=64)"),
            "--apps" => {
                let list: String = arg(&args, &mut i, "a comma-separated list");
                apps = list.split(',').map(|s| s.trim().to_string()).collect();
            }
            "--timing" => timing = true,
            "--check" => check.on = true,
            "--check-json" => check.json = Some(arg(&args, &mut i, "an output path")),
            "--check-rules" => {
                let ids: String = arg(&args, &mut i, "a comma-separated rule-id list");
                rules = RuleSet::from_ids(&ids).unwrap_or_else(|e| die(&e));
                check.on = true;
            }
            "--check-graph" => graph_dir = Some(arg(&args, &mut i, "an output directory")),
            "--crossval" => crossval.on = true,
            "--crossval-json" => crossval.json = Some(arg(&args, &mut i, "an output path")),
            "--crash" => crash.on = true,
            "--crash-json" => crash.json = Some(arg(&args, &mut i, "an output path")),
            "--optimize" => optimize.on = true,
            "--optimize-json" => optimize.json = Some(arg(&args, &mut i, "an output path")),
            "--serve" => serve.on = true,
            "--serve-json" => serve.json = Some(arg(&args, &mut i, "an output path")),
            "--serve-arrival" => scfg.arrival = arg(&args, &mut i, "paced|bursty"),
            "--serve-shards" => {
                scfg.shards = arg::<NonZeroUsize>(&args, &mut i, "a positive count").get();
            }
            "--profile" => profile.on = true,
            "--profile-json" => profile.json = Some(arg(&args, &mut i, "an output path")),
            "--trace" => trace = Some(arg(&args, &mut i, "an output path")),
            "--json" => json = Some(arg(&args, &mut i, "an output path")),
            "--json-det" => json_det = Some(arg(&args, &mut i, "an output path")),
            "--dump-traces" => dump_dir = Some(arg(&args, &mut i, "a directory")),
            "--from-trace" => from_trace = Some(arg(&args, &mut i, "a file")),
            "--quiet" => pmobs::logger::set_level(pmobs::Level::Error),
            "--help" | "-h" => {
                let names: Vec<&str> = report::SECTIONS.iter().map(|(name, _)| *name).collect();
                eprintln!(
                    "usage: {USAGE}\n\nEXPERIMENT: {} | all (default)",
                    names.join(" | ")
                );
                return;
            }
            exp if !exp.starts_with('-') => experiment = exp,
            other => die(&format!("unknown flag {other}")),
        }
        i += 1;
    }
    for m in [
        &mut check,
        &mut crossval,
        &mut crash,
        &mut optimize,
        &mut serve,
        &mut profile,
    ] {
        m.on |= m.json.is_some();
    }
    serve.on |= profile.on;

    if let (true, Some(flag)) = (timing, not_timing) {
        die(&format!("--timing cannot be combined with {flag}"));
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
    let render = match experiment {
        "all" => report::all,
        exp => report::SECTIONS
            .iter()
            .find(|(name, _)| *name == exp)
            .map_or_else(|| die(&format!("unknown experiment {exp:?}")), |s| s.1),
    };
    if timing {
        run_timing_comparison(&names, &cfg);
        return;
    }

    // Metric recording stays off unless a machine-readable report was
    // requested: instruments are provably non-perturbing, but the
    // default run should still be the plain one.
    if json.is_some() {
        pmobs::set_enabled(true);
    }
    // Tracing covers the suite run and the serving sweep; it is turned
    // off again right after the export, so the other gates (which
    // re-run workloads internally) never pollute a file already
    // written.
    if trace.is_some() {
        pmobs::trace::set_enabled(true);
    }

    // Offline mode analyzes an archived trace instead of running the
    // suite; either way the results take the same output path below.
    let results = match &from_trace {
        Some(path) => load_archived_trace(path),
        None => run_suite(&names, &cfg, dump_dir.as_deref()),
    };

    let ccfg = CampaignConfig {
        parallelism: cfg.parallelism,
        ..CampaignConfig::quick()
    };
    let scfg = ServeConfig {
        shards: scfg.shards,
        arrival: scfg.arrival,
        ..ServeConfig::from_suite(&cfg)
    };
    let served = gate(serve.on, "suite.serve", || {
        serve_sections(serve, profile, &scfg)
    });
    if let Some(path) = &trace {
        let tracks = pmobs::trace::take_tracks();
        pmobs::trace::set_enabled(false);
        let mut out = pmobs::trace::export_chrome(&tracks).to_compact();
        out.push('\n');
        let what = format!("chrome trace ({} track(s))", tracks.len());
        write(path, out, &what);
    }
    let sections: Vec<Section> = [
        gate(check.on, "suite.check", || {
            check_section(check, &results, rules)
        }),
        graph_dir.and_then(|dir| gate(true, "suite.hbgraph", || graph_section(&dir, &results))),
        gate(crash.on, "suite.crash", || crash_section(crash, &ccfg)),
        gate(crossval.on, "suite.crossval", || {
            crossval_section(crossval, &ccfg)
        }),
        gate(optimize.on, "suite.optimize", || {
            optimize_section(optimize, &results, &ccfg)
        }),
    ]
    .into_iter()
    .flatten()
    .chain(served.into_iter().flatten())
    .collect();

    for s in &sections {
        if let Some(path) = &s.path {
            write(path, s.json.to_pretty(), &format!("{} json", s.key));
        }
    }
    if json.is_some() || json_det.is_some() {
        // Snapshot the registry last, so the report includes everything
        // the run recorded.
        let doc = report_doc(&results, &cfg, &sections);
        if let Some(path) = &json {
            write(path, doc.to_pretty(), "json report");
        }
        if let Some(path) = &json_det {
            let det = json_report::deterministic_subset(&doc);
            write(path, det.to_pretty(), "deterministic json report");
        }
    }

    println!("{}", render(&results));
    for s in &sections {
        print!("\n{}", s.table);
    }
    let failed: Vec<&(i32, String)> = sections.iter().filter_map(|s| s.failed.as_ref()).collect();
    for (_, reason) in &failed {
        pmobs::error!("{reason} — failing");
    }
    if let Some((code, _)) = failed.first() {
        std::process::exit(*code);
    }
}

/// The value after the flag at `args[*i]`, parsed; a missing or
/// malformed value is a usage error saying the flag needs `what`.
fn arg<T: FromStr>(args: &[String], i: &mut usize, what: &str) -> T {
    *i += 1;
    args.get(*i)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| die(&format!("{} needs {what}", args[*i - 1])))
}

/// Run a gate that is `on` inside its `pmobs` span, and log how long
/// it took.
fn gate<T>(on: bool, span: &'static str, run: impl FnOnce() -> T) -> Option<T> {
    let _span = on.then(|| pmobs::span!(span))?;
    let started = Instant::now();
    let out = run();
    pmobs::info!("{span} finished in {:.2?}", started.elapsed());
    Some(out)
}

/// Write one output file; the CLI's only write path.
fn write(path: &str, contents: impl AsRef<[u8]>, what: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
    pmobs::info!("{what} written to {path}");
}

/// Run the selected apps and, under `--dump-traces`, archive each
/// event stream as `DIR/<app>.wtr`.
fn run_suite(names: &[&str], cfg: &SuiteConfig, dump_dir: Option<&str>) -> Vec<AppResult> {
    pmobs::info!(
        "running {} app(s) at scale {} (seed {}, {} worker{})...",
        names.len(),
        cfg.scale,
        cfg.seed,
        cfg.parallelism,
        if cfg.parallelism == 1 { "" } else { "s" },
    );
    let started = Instant::now();
    let results = run_apps(names, cfg);
    pmobs::info!("suite finished in {:.2?}", started.elapsed());
    if let Some(dir) = dump_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("cannot create {dir}: {e}")));
        for r in &results {
            let path = format!("{dir}/{}.wtr", r.run.name);
            write(&path, pmtrace::encode_events(&r.run.events), "trace");
        }
    }
    results
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

/// `--check`: the persistency checker over every trace, restricted to
/// the `--check-rules` selection. Error-severity findings exit 3.
fn check_section(mode: Mode, results: &[AppResult], rules: RuleSet) -> Section {
    let checks = check::check_results_with(results, rules);
    let errors = check::total_errors(&checks);
    Section {
        key: "violations",
        path: mode.json,
        json: check::violations_json(&checks, rules),
        table: check::summary_table(&checks),
        failed: (errors > 0).then(|| (3, format!("pmcheck: {errors} error-severity violation(s)"))),
    }
}

/// `--check-graph DIR`: the epoch dependency graph of every result,
/// written to `DIR/<app>.json` + `DIR/<app>.dot`.
fn graph_section(dir: &str, results: &[AppResult]) -> Section {
    let graphs = hbgraph::build_graphs(results);
    let written = hbgraph::write_graphs(&graphs, std::path::Path::new(dir))
        .unwrap_or_else(|e| die(&format!("cannot write graphs to {dir}: {e}")));
    pmobs::info!("{} graph file(s) written to {dir}", written.len());
    Section {
        key: "hb.graph",
        path: None,
        json: hbgraph::stats_json(&graphs),
        table: hbgraph::summary_table(&graphs),
        failed: None,
    }
}

/// `--crash`: the crash-injection campaign. Any recovery failure
/// exits 4.
fn crash_section(mode: Mode, ccfg: &CampaignConfig) -> Section {
    let reports = crashtest::run_campaign(ccfg);
    let failures = crashtest::total_failures(&reports);
    Section {
        key: "crash",
        path: mode.json,
        json: crashtest::crash_json(&reports, ccfg),
        table: crashtest::summary_table(&reports, ccfg),
        failed: (failures > 0)
            .then(|| (4, format!("crash campaign: {failures} recovery failure(s)"))),
    }
}

/// `--crossval`: every crash image against the HB analysis's proven
/// durable set, plus the seeded epoch-race positive control. An
/// order-impossible image, a vacuous proof set or a dead control
/// exits 6.
fn crossval_section(mode: Mode, ccfg: &CampaignConfig) -> Section {
    let report = crossval::run_crossval(ccfg);
    Section {
        key: "hb.crossval",
        path: mode.json,
        json: report.to_json(),
        table: report.summary_table(),
        failed: (!report.passed()).then(|| {
            let control = if report.control.passed() {
                "ok"
            } else {
                "dead"
            };
            let (bad, proven) = (report.total_violations(), report.total_proven());
            let why = format!("{bad} order-impossible image state(s), {proven} proven line(s)");
            (6, format!("crossval gate: {why}, control {control}"))
        }),
    }
}

/// `--optimize`: rewrite every trace, price the speedup, re-check, and
/// re-run the crash campaign over the elided schedules. Any gate
/// violation exits 5.
fn optimize_section(mode: Mode, results: &[AppResult], ccfg: &CampaignConfig) -> Section {
    let report = optimize::optimize_results(results, ccfg, ccfg.parallelism);
    let violations = report.gate_violations();
    Section {
        key: "optimize",
        path: mode.json,
        json: optimize::optimize_json(&report),
        table: optimize::summary_table(&report),
        failed: (!violations.is_empty())
            .then(|| (5, format!("optimize gate: {}", violations.join("; ")))),
    }
}

/// `--serve` and, under `--profile`, its phase profile. The sweep
/// always computes the profiles; only `--profile` keeps them.
fn serve_sections(serve: Mode, profile: Mode, scfg: &ServeConfig) -> Vec<Section> {
    let (reports, profiles) = serve::run_serve_profiled(scfg);
    let mut out = vec![Section {
        key: "serve",
        path: serve.json,
        json: serve::serve_json(&reports, scfg),
        table: report::serve_table(&reports, scfg.arrival),
        failed: None,
    }];
    if profile.on {
        out.push(Section {
            key: "profile",
            path: profile.json,
            json: profile_json(&profiles, scfg),
            table: profile_table(&profiles),
            failed: None,
        });
    }
    out
}

/// The `--json` document: the suite sections from
/// `json_report::build`, with every gate's document set under its key.
/// `Json::field` replaces in place, so the key order stays
/// `json_report::REQUIRED_KEYS` whatever order the gates ran in.
fn report_doc(results: &[AppResult], cfg: &SuiteConfig, sections: &[Section]) -> Json {
    let mut doc = json_report::build(results, cfg, &pmobs::global().snapshot());
    let mut hb: Option<Json> = None;
    for s in sections {
        match s.key.strip_prefix("hb.") {
            Some(half) => {
                let base = hb.unwrap_or_else(|| {
                    Json::obj()
                        .field("graph", Json::Null)
                        .field("crossval", Json::Null)
                });
                hb = Some(base.field(half, s.json.clone()));
            }
            None => doc = doc.field(s.key, s.json.clone()),
        }
    }
    match hb {
        Some(hb) => doc.field("hb", hb),
        None => doc,
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
