//! `serve`: `whisper-report --serve --profile` — the suite, then the
//! open-loop serving sweep with 4 shards and bursty arrivals.

use crate::ledger::{fnv1a, Checks, Counts, Ledger};
use crate::{suite, Pass};
use whisper::profile::{profile_json, AppProfile};
use whisper::serve::{
    self, request_bounds, service_times_with_stalls, AppServe, Arrival, ServeConfig,
    LOAD_FRACTIONS, SERVE_MODELS,
};
use whisper::suite::{run_named, AppResult, APP_NAMES};

/// Scale of both the suite and the sweep: a pass takes a few seconds.
pub const SCALE: f64 = 0.3;

fn config(seed: u64) -> ServeConfig {
    ServeConfig {
        scale: SCALE,
        seed,
        shards: 4,
        arrival: Arrival::Bursty,
        parallelism: 1,
    }
}

/// One plain pass: the public calls `whisper-report --serve --profile`
/// makes.
pub fn plain(seed: u64) -> Pass {
    let results = suite::run(&suite::config(SCALE, seed));
    let scfg = config(seed);
    let (reports, profiles) = serve::run_serve_profiled(&scfg);
    judge(&results, &reports, &profiles, &scfg, Checks::default())
}

/// [`plain`] with spans. `run_serve_profiled` calibrates each app's
/// shards and then simulates the queues in one call, so the traced pass
/// first repeats the calibration from its public parts (application
/// runs and per-request replay, charged to their layers) and then
/// makes the sweep call itself, per app. The repeated calibration must
/// reproduce the sweep's mean service times exactly.
pub fn spanned(seed: u64, ledger: &mut Ledger) -> Pass {
    let results = suite::run_spanned(&suite::config(SCALE, seed), ledger);
    let scfg = config(seed);
    let mut checks = Checks::default();
    let (reports, profiles): (Vec<AppServe>, Vec<AppProfile>) = APP_NAMES
        .iter()
        .map(|&name| {
            let mean_service = calibrate(name, &scfg, ledger);
            let (app, profile) = ledger.span(&["serve.sweep.busy_s"], || {
                serve::serve_app_full(name, &scfg)
            });
            let swept: Vec<f64> = app.curves.iter().map(|c| c.mean_service_ns).collect();
            checks.expect(swept == mean_service, || {
                format!("serve: {name}: calibration {mean_service:?} != sweep {swept:?}")
            });
            (app, profile)
        })
        .unzip();
    let requests = reports
        .iter()
        .flat_map(|r| &r.curves)
        .flat_map(|c| &c.points);
    ledger.count("serve.requests", requests.map(|p| p.requests).sum());
    judge(&results, &reports, &profiles, &scfg, checks)
}

/// The calibration `serve::serve_app_full` starts with: one seeded run
/// per shard, segmented into requests and priced under every serving
/// model. Returns the mean service time per model, folded as the sweep
/// folds it.
fn calibrate(name: &str, cfg: &ServeConfig, ledger: &mut Ledger) -> Vec<f64> {
    let ops = suite::config(cfg.scale, cfg.seed)
        .effective_ops(name)
        .expect("APP_NAMES are valid apps");
    // The sweep's per-app stream discriminator is FNV-1a of the name.
    let stream = fnv1a(name);
    let mut totals = vec![(0u64, 0u64); SERVE_MODELS.len()];
    for shard in 0..cfg.shards {
        let shard_seed = splitmix64(cfg.seed ^ stream ^ (shard as u64 + 1));
        let run = suite::run_app_charged(ledger, name, &["serve.calibrate.busy_s"], || {
            run_named(name, ops, shard_seed)
        });
        let bounds = ledger.span(&["serve.calibrate.busy_s"], || {
            request_bounds(&run.events, ops)
        });
        for (total, &model) in totals.iter_mut().zip(&SERVE_MODELS) {
            let services = ledger.span(&["hops.serve_replay.busy_s"], || {
                service_times_with_stalls(&run.events, &bounds, model)
            });
            total.0 += services.iter().map(|&(svc, _)| svc).sum::<u64>();
            total.1 += services.len() as u64;
        }
    }
    totals
        .iter()
        .map(|&(sum, n)| sum as f64 / n.max(1) as f64)
        .collect()
}

/// The serving engine's per-shard seed scrambler (splitmix64).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Check the sweep's curves and profiles and count what it simulated:
/// every app has one five-point curve per model, every point served all
/// its requests with ordered percentiles, and every profile splits
/// latency exactly into queue, replay and stall.
fn judge(
    results: &[AppResult],
    reports: &[AppServe],
    profiles: &[AppProfile],
    cfg: &ServeConfig,
    mut checks: Checks,
) -> Pass {
    let mut counts = Counts::new();
    suite::judge(results, &mut checks, &mut counts);
    checks.expect(reports.len() == APP_NAMES.len(), || {
        format!("serve: {} app rows", reports.len())
    });
    for app in reports {
        let name = &app.name;
        checks.expect(app.curves.len() == SERVE_MODELS.len(), || {
            format!("serve: {name}: {} curves", app.curves.len())
        });
        for c in &app.curves {
            let ok = c.mean_service_ns > 0.0
                && c.points.len() == LOAD_FRACTIONS.len()
                && c.points.iter().all(|p| {
                    p.requests == app.requests as u64
                        && p.achieved_rps > 0.0
                        && p.p50_ns <= p.p90_ns
                        && p.p90_ns <= p.p99_ns
                        && p.p99_ns <= p.p999_ns
                });
            checks.expect(ok, || {
                format!("serve: {name}: bad {} curve: {c:?}", c.model)
            });
        }
    }
    checks.expect(profiles.len() == reports.len(), || {
        format!(
            "profile: {} rows for {} apps",
            profiles.len(),
            reports.len()
        )
    });
    for p in profiles {
        for m in &p.mechanisms {
            let ok = m.service_ns == m.replay_ns + m.fence_stall_ns
                && m.total_ns == m.queue_ns + m.service_ns
                && m.tail.iter().all(|t| {
                    let sum = t.queue_pct + t.replay_pct + t.fence_stall_pct;
                    t.tail_requests > 0 && (sum - 100.0).abs() < 1e-6
                });
            checks.expect(ok, || {
                format!("profile: {}: {} does not add up", p.name, m.model)
            });
        }
    }
    let points = reports
        .iter()
        .flat_map(|r| &r.curves)
        .flat_map(|c| &c.points);
    counts.push(("requests", points.map(|p| p.requests).sum()));
    counts.push((
        "serve_fnv",
        fnv1a(&serve::serve_json(reports, cfg).to_compact()),
    ));
    counts.push((
        "profile_fnv",
        fnv1a(&profile_json(profiles, cfg).to_compact()),
    ));
    suite::pass(results, counts, checks)
}
