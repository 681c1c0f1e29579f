//! The metrics each run reports, by name and unit, exactly as listed in
//! `BENCHMARK.json`.

use crate::ledger::Ledger;
use whisper::suite::APP_NAMES;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// What the untraced run measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct EndToEnd {
    /// Median host seconds of one pass.
    pub wall_s: f64,
    /// Median host seconds of one set-up.
    pub setup_s: f64,
    /// Peak resident set of the process (VmHWM), MiB.
    pub peak_rss_mib: f64,
    /// Checks that passed over checks attempted.
    pub pass_frac: f64,
    /// Paced suite trace events of one pass.
    pub events: u64,
    /// Mean |log10| distance of Table 1 epochs/s from the paper.
    pub sim_table1_err: f64,
    /// Mean distance of the Figure 10 averages from the paper.
    pub sim_fig10_err: f64,
}

/// The end-to-end metrics (tracing off).
pub fn end_to_end(m: &EndToEnd) -> Vec<Metric> {
    vec![
        metric("wall_s", "s", m.wall_s),
        metric("setup_s", "s", m.setup_s),
        metric("peak_rss_mib", "MiB", m.peak_rss_mib),
        metric("pass_frac", "frac", m.pass_frac),
        metric("events_per_s", "1/s", m.events as f64 / m.wall_s),
        metric("sim_table1_err", "log10", m.sim_table1_err),
        metric("sim_fig10_err", "ratio", m.sim_fig10_err),
    ]
}

/// What the traced run measured besides its ledger.
#[derive(Debug, Clone, Copy, Default)]
pub struct Traced {
    /// Share of the spanned pass's wall time its top-level spans cover.
    pub coverage_frac: f64,
    /// (pmobs-recorded pass − plain pass) / plain pass, host time.
    pub overhead_frac: f64,
}

/// The per-layer metrics (traced run). Layers a workload does not run
/// report 0.
pub fn per_layer(l: &Ledger, t: &Traced) -> Vec<Metric> {
    let count = |name: &str| metric(name, "count", l.counted(name) as f64);
    let busy = |name: &str| metric(name, "s", l.busy_s(name));
    let mut out = vec![
        busy("apps.busy_s"),
        count("apps.events"),
        count("apps.mem_accesses"),
        metric(
            "apps.ns_per_event",
            "ns",
            l.ns_per("apps.busy_s", "apps.events"),
        ),
        busy("apps.unpaced.busy_s"),
    ];
    for app in APP_NAMES {
        let span = format!("apps.{app}.busy_s");
        let per_event = l.ns_per(&span, &format!("apps.{app}.events"));
        out.push(busy(&span));
        out.push(metric(format!("apps.{app}.ns_per_event"), "ns", per_event));
    }
    out.extend([
        busy("pmtrace.analyze.busy_s"),
        metric(
            "pmtrace.analyze.ns_per_event",
            "ns",
            l.ns_per("pmtrace.analyze.busy_s", "pmtrace.analyze.events"),
        ),
        count("pmtrace.analyze.epochs"),
        busy("hops.fig10.busy_s"),
        metric(
            "hops.fig10.ns_per_event",
            "ns",
            l.ns_per("hops.fig10.busy_s", "hops.fig10.events"),
        ),
        busy("hops.serve_replay.busy_s"),
        busy("serve.calibrate.busy_s"),
        busy("serve.sweep.busy_s"),
        count("serve.requests"),
        busy("pmcheck.check.busy_s"),
        metric(
            "pmcheck.check.ns_per_event",
            "ns",
            l.ns_per("pmcheck.check.busy_s", "pmcheck.check.events"),
        ),
        count("pmcheck.check.errors"),
        count("pmcheck.check.warnings"),
        busy("pmcheck.hb_graph.busy_s"),
        count("pmcheck.hb_graph.cross_edges"),
        busy("crashtest.campaign.busy_s"),
        count("crashtest.campaign.images"),
        metric(
            "crashtest.campaign.ns_per_image",
            "ns",
            l.ns_per("crashtest.campaign.busy_s", "crashtest.campaign.images"),
        ),
        busy("crossval.busy_s"),
        count("crossval.images"),
        count("crossval.proven_lines"),
        busy("optimize.rewrite.busy_s"),
        count("optimize.elided"),
        busy("optimize.campaign.busy_s"),
        count("optimize.campaign.images"),
        metric("pmobs.overhead_frac", "frac", t.overhead_frac),
        metric("spans.coverage_frac", "frac", t.coverage_frac),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmobs::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        pmobs::json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect("name and unit");
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    }

    fn emitted(metrics: Vec<Metric>) -> Vec<(String, String)> {
        metrics
            .into_iter()
            .map(|m| (m.name, m.unit.to_string()))
            .collect()
    }

    #[test]
    fn emitted_metrics_match_benchmark_json() {
        let doc = benchmark_json();
        let e2e = EndToEnd {
            wall_s: 1.0,
            ..EndToEnd::default()
        };
        assert_eq!(emitted(end_to_end(&e2e)), listed(&doc, "end_to_end"));
        let layers = per_layer(&Ledger::default(), &Traced::default());
        assert_eq!(emitted(layers), listed(&doc, "per_layer"));
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let doc = benchmark_json();
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads list")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        let ours: Vec<&str> = crate::args::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
    }
}
