//! Benchmark of the WHISPER reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload gates|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Every workload runs in this one
//! process, on one host thread, and calls the `whisper` public entry
//! points in the order `whisper-report` calls them.
//!
//! * `--trace 0` sets up five times, then repeats the plain workload
//!   for `--seconds` (at least once) and reports end-to-end metrics:
//!   medians of host wall and set-up time, peak RSS, the share of
//!   output checks that passed, events per second and the simulated
//!   results' distance from the paper.
//! * `--trace 1` runs the workload once with a span around each public
//!   call, then alternates plain and `pmobs`-recorded passes for
//!   `--seconds` (one pair at least). It reports per-layer host time and
//!   work counts from the spans, the share of the traced pass the spans
//!   cover, and the cost of recording.
//!
//! Every pass checks its outputs and prints its exact simulated counts;
//! all passes of a run must reproduce the first pass's counts. The last
//! stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod args;
mod gates;
mod ledger;
mod metrics;
mod serve;
mod suite;

use args::{Args, Workload};
use ledger::{Checks, Counts, Ledger};
use metrics::{EndToEnd, Metric, Traced};
use pmobs::Json;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Scale of the warm-up suite every set-up runs.
const WARMUP_SCALE: f64 = 0.01;

/// What one pass of a workload produced.
pub struct Pass {
    /// Exact simulated counts; repeats must reproduce them.
    pub counts: Counts,
    /// Output checks.
    pub checks: Checks,
    /// `(sim_table1_err, sim_fig10_err)` of the pass's suite.
    pub sim: (f64, f64),
}

/// The workload's inputs, made by set-up.
struct Inputs {
    args: Args,
    /// The golden deterministic subset, when the gates run at its seed.
    golden: Option<String>,
}

impl Inputs {
    fn plain(&self) -> Pass {
        let seed = self.args.seed;
        match self.args.workload {
            Workload::Gates => gates::plain(seed, self.golden.as_deref()),
            Workload::Serve => serve::plain(seed),
        }
    }

    fn spanned(&self, ledger: &mut Ledger) -> Pass {
        let seed = self.args.seed;
        match self.args.workload {
            Workload::Gates => gates::spanned(seed, self.golden.as_deref(), ledger),
            Workload::Serve => serve::spanned(seed, ledger),
        }
    }

    /// Spans of the traced pass that cover disjoint stretches of it.
    fn top_level_spans(&self) -> &'static [&'static str] {
        match self.args.workload {
            Workload::Gates => &[
                "apps.busy_s",
                "pmtrace.analyze.busy_s",
                "hops.fig10.busy_s",
                "pmcheck.check.busy_s",
                "pmcheck.hb_graph.busy_s",
                "crashtest.campaign.busy_s",
                "crossval.busy_s",
                "optimize.rewrite.busy_s",
                "optimize.campaign.busy_s",
            ],
            Workload::Serve => &[
                "apps.busy_s",
                "pmtrace.analyze.busy_s",
                "hops.fig10.busy_s",
                "hops.serve_replay.busy_s",
                "serve.sweep.busy_s",
            ],
        }
    }
}

/// Set-up: validate the configuration, load the golden when it applies,
/// and warm the process with a small suite run.
fn set_up(args: Args) -> Result<Inputs, String> {
    let scale = match args.workload {
        Workload::Gates => gates::SCALE,
        Workload::Serve => serve::SCALE,
    };
    suite::config(scale, args.seed).validate()?;
    let golden = if args.workload == Workload::Gates && args.seed == gates::GOLDEN_SEED {
        let text = std::fs::read_to_string(gates::GOLDEN_PATH)
            .map_err(|e| format!("cannot read {}: {e}", gates::GOLDEN_PATH))?;
        Some(text)
    } else {
        None
    };
    std::hint::black_box(suite::run(&suite::config(WARMUP_SCALE, args.seed)));
    Ok(Inputs { args, golden })
}

/// Time `f`.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process in MiB (VmHWM).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Folds passes into one verdict: absorbs their checks and requires
/// each to reproduce the first pass's counts.
#[derive(Default)]
struct Verdict {
    checks: Checks,
    first: Option<Counts>,
}

impl Verdict {
    fn add(&mut self, label: &str, pass: Pass) {
        println!("counts {label} {}", counts_json(&pass.counts).to_compact());
        self.checks.absorb(pass.checks);
        match &self.first {
            None => self.first = Some(pass.counts),
            Some(first) => self.checks.expect(*first == pass.counts, || {
                format!("{label}: counts differ from the first pass")
            }),
        }
    }
}

fn counts_json(counts: &Counts) -> Json {
    counts
        .iter()
        .fold(Json::obj(), |doc, &(name, n)| doc.field(name, n))
}

/// The untraced run: end-to-end metrics.
fn run_plain(args: Args) -> Result<(Checks, Vec<Metric>), String> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        let (made, took) = timed(|| set_up(args));
        inputs = Some(made?);
        setups.push(took.as_secs_f64());
    }
    let inputs = inputs.expect("SETUP_REPEATS > 0");

    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut verdict = Verdict::default();
    let mut walls = Vec::new();
    let mut sim;
    loop {
        let (pass, took) = timed(|| inputs.plain());
        eprintln!("pass{}: {:.3} s", walls.len(), took.as_secs_f64());
        sim = pass.sim;
        verdict.add(&format!("pass{}", walls.len()), pass);
        walls.push(took.as_secs_f64());
        // Start another pass only if one more still fits the budget.
        if started.elapsed() + took > budget {
            break;
        }
    }
    let events = verdict
        .first
        .as_ref()
        .and_then(|c| c.iter().find(|(k, _)| *k == "events"))
        .map_or(0, |&(_, n)| n);
    let m = EndToEnd {
        wall_s: median(walls),
        setup_s: median(setups),
        peak_rss_mib: peak_rss_mib()?,
        pass_frac: 1.0 - verdict.checks.fail_frac(),
        events,
        sim_table1_err: sim.0,
        sim_fig10_err: sim.1,
    };
    Ok((verdict.checks, metrics::end_to_end(&m)))
}

/// The traced run: per-layer metrics.
fn run_traced(args: Args) -> Result<(Checks, Vec<Metric>), String> {
    let inputs = set_up(args)?;
    let mut verdict = Verdict::default();
    let started = Instant::now();

    let mut ledger = Ledger::default();
    let (pass, spanned) = timed(|| inputs.spanned(&mut ledger));
    verdict.add("spanned", pass);

    // The cost of recording: plain and pmobs-recorded passes in pairs,
    // as many as the budget holds (one at least), alternating which side
    // runs first so neither gains from the order.
    let budget = Duration::from_secs(args.seconds);
    let mut plain = Vec::new();
    let mut recorded = Vec::new();
    for pair in 0.. {
        let mut pair_took = Duration::ZERO;
        for record in [pair % 2 == 1, pair % 2 == 0] {
            pmobs::set_enabled(record);
            let (pass, took) = timed(|| inputs.plain());
            pmobs::set_enabled(false);
            let (label, times) = if record {
                ("recorded", &mut recorded)
            } else {
                ("plain", &mut plain)
            };
            verdict.add(&format!("{label}{}", times.len()), pass);
            times.push(took.as_secs_f64());
            pair_took += took;
        }
        if started.elapsed() + pair_took > budget {
            break;
        }
    }

    let covered: f64 = inputs
        .top_level_spans()
        .iter()
        .map(|s| ledger.busy_s(s))
        .sum();
    let plain = median(plain);
    let t = Traced {
        coverage_frac: covered / spanned.as_secs_f64(),
        overhead_frac: (median(recorded) - plain) / plain,
    };
    Ok((verdict.checks, metrics::per_layer(&ledger, &t)))
}

fn result_json(checks: &Checks, metrics: &[Metric]) -> Json {
    let values = metrics.iter().fold(Json::obj(), |doc, m| {
        doc.field(
            &m.name,
            Json::obj().field("value", m.value).field("unit", m.unit),
        )
    });
    Json::obj()
        .field("correct", checks.failures().is_empty())
        .field("attempted", checks.attempted())
        .field("failed", checks.failures().len() as u64)
        .field("metrics", values)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = args::parse(&argv).unwrap_or_else(|e| {
        eprintln!("whisper-perfbench: {e}\n{}", args::USAGE);
        std::process::exit(2);
    });
    // Findings and progress go through the pmobs logger; only errors
    // belong on a benchmark's stderr.
    pmobs::logger::set_level(pmobs::Level::Error);
    let outcome = if args.trace {
        run_traced(args)
    } else {
        run_plain(args)
    };
    let (checks, metrics) = outcome.unwrap_or_else(|e| {
        eprintln!("whisper-perfbench: {e}");
        std::process::exit(1);
    });
    for failure in checks.failures() {
        eprintln!("whisper-perfbench: check failed: {failure}");
    }
    println!("{}", result_json(&checks, &metrics).to_compact());
}
