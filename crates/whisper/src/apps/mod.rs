//! The ten WHISPER applications (paper Section 3).
//!
//! Every application follows the same contract: build its persistent
//! state on a fresh instrumented [`memsim::Machine`], drive its Table 1
//! workload with logical clients interleaved onto the machine's four
//! hardware threads, and return an [`AppRun`] carrying the trace,
//! access counters, and simulated duration — the raw material for every
//! table and figure.
//!
//! [`APPS`] is the single registry of the eleven Table 1 rows; the
//! suite driver, the crash/crossval/optimize gates, the serving sweep
//! and the report all look applications up there.
//!
//! Each module also contains crash-recovery tests: the paper's headline
//! requirement is that "WHISPER includes crash-recoverable
//! applications, which means that they persist all information in PM
//! that is necessary to recover after a crash."

pub mod echo;
pub mod fsapps;
pub mod memcached;
pub mod micro;
pub mod nstore;
pub mod redis;
pub mod vacation;

pub use fsapps::{exim, mysql, nfs};
pub use micro::{ctree, hashmap};

use crate::crashtest::Runner;
use crate::suite::APP_NAMES;
use memsim::{Machine, MachineConfig, MemStats};
use pmem::Addr;
use pmtrace::{Category, Event, Tid};

/// Table 1 worker-thread count for the scheduler-interleaved apps
/// (redis, memcached, vacation); `--threads` overrides it per run.
pub(crate) const WORKERS: u32 = crate::suite::DEFAULT_WORKER_THREADS;

/// How an application reaches PM (Table 1's second column; Section 5.2
/// groups write amplification and NT stores by it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessLayer {
    /// Native custom transactions (echo, N-store).
    Native,
    /// The NVML-style undo-logging library.
    Nvml,
    /// The Mnemosyne-style redo-logging library.
    Mnemosyne,
    /// The PMFS filesystem.
    Pmfs,
}

/// One Table 1 row: everything the suite, the gates and the report need
/// to know about an application. Adding an application means adding one
/// [`APPS`] entry.
#[derive(Debug, Clone, Copy)]
pub struct AppSpec {
    /// Table 1 name.
    pub name: &'static str,
    /// Operation count at suite scale 1.0.
    pub op_base: usize,
    /// The Table 1 (paced) run: `(ops, seed, scheduler workers)`. Apps
    /// that model their thread count internally ignore `workers`.
    pub run: fn(usize, u64, u32) -> AppRun,
    /// The unpaced run Figure 10 replays (the six gem5-subset apps only).
    pub unpaced: Option<fn(usize, u64) -> AppRun>,
    /// Crash-campaign op count: fixed, not suite-scaled, tuned so every
    /// app reaches steady state while the sweep stays fast.
    pub crash_ops: usize,
    /// The crash workload plus recovery oracle (see [`crate::crashtest`]).
    pub(crate) crash_run: Runner,
    /// The PM access layer.
    pub layer: AccessLayer,
}

/// The eleven Table 1 rows (ten applications; N-store contributes two
/// workloads), in Table 1 order.
pub const APPS: [AppSpec; 11] = [
    AppSpec {
        name: "echo",
        op_base: 20_000,
        run: |ops, seed, _| echo::run(ops, seed),
        unpaced: Some(echo::run_unpaced),
        crash_ops: 40,
        crash_run: echo::crash_run,
        layer: AccessLayer::Native,
    },
    AppSpec {
        name: "nstore-ycsb",
        op_base: 16_000,
        run: |ops, seed, _| nstore::run_ycsb(ops, seed),
        unpaced: Some(nstore::run_ycsb_unpaced),
        crash_ops: 64,
        crash_run: nstore::crash_run_ycsb,
        layer: AccessLayer::Native,
    },
    AppSpec {
        name: "nstore-tpcc",
        op_base: 3_000,
        run: |ops, seed, _| nstore::run_tpcc(ops, seed),
        unpaced: None,
        crash_ops: 32,
        crash_run: nstore::crash_run_tpcc,
        layer: AccessLayer::Native,
    },
    AppSpec {
        name: "redis",
        op_base: 20_000,
        run: redis::run_threads,
        unpaced: Some(redis::run_unpaced),
        crash_ops: 96,
        crash_run: redis::crash_run,
        layer: AccessLayer::Nvml,
    },
    AppSpec {
        name: "ctree",
        op_base: 16_000,
        run: |ops, seed, _| ctree(ops, seed),
        unpaced: Some(micro::ctree_unpaced),
        crash_ops: 96,
        crash_run: micro::crash_run_ctree,
        layer: AccessLayer::Nvml,
    },
    AppSpec {
        name: "hashmap",
        op_base: 16_000,
        run: |ops, seed, _| hashmap(ops, seed),
        unpaced: Some(micro::hashmap_unpaced),
        crash_ops: 96,
        crash_run: micro::crash_run_hashmap,
        layer: AccessLayer::Nvml,
    },
    AppSpec {
        name: "vacation",
        op_base: 10_000,
        run: vacation::run_threads,
        unpaced: Some(vacation::run_unpaced),
        crash_ops: 64,
        crash_run: vacation::crash_run,
        layer: AccessLayer::Mnemosyne,
    },
    AppSpec {
        name: "memcached",
        op_base: 20_000,
        run: memcached::run_threads,
        unpaced: None,
        crash_ops: 80,
        crash_run: memcached::crash_run,
        layer: AccessLayer::Mnemosyne,
    },
    AppSpec {
        name: "nfs",
        op_base: 4_000,
        run: |ops, seed, _| nfs(ops, seed),
        unpaced: None,
        crash_ops: 40,
        crash_run: fsapps::crash_run_nfs,
        layer: AccessLayer::Pmfs,
    },
    AppSpec {
        name: "exim",
        op_base: 400,
        run: |ops, seed, _| exim(ops, seed),
        unpaced: None,
        crash_ops: 16,
        crash_run: fsapps::crash_run_exim,
        layer: AccessLayer::Pmfs,
    },
    AppSpec {
        name: "mysql",
        op_base: 1_500,
        run: |ops, seed, _| mysql(ops, seed),
        unpaced: None,
        crash_ops: 24,
        crash_run: fsapps::crash_run_mysql,
        layer: AccessLayer::Pmfs,
    },
];

/// The [`APPS`] row named `name`, if any.
pub fn lookup(name: &str) -> Option<&'static AppSpec> {
    APPS.iter().find(|a| a.name == name)
}

/// The [`APPS`] row named `name`.
///
/// # Panics
///
/// Panics on an unknown name; the valid names are [`APP_NAMES`].
pub fn spec(name: &str) -> &'static AppSpec {
    lookup(name)
        .unwrap_or_else(|| panic!("unknown application {name:?}; expected one of {APP_NAMES:?}"))
}

/// An `asplos17` machine with at least `workers` hardware threads, so
/// every scheduler-picked [`Tid`] is in range.
pub(crate) fn machine_for(workers: u32) -> Machine {
    let mut cfg = MachineConfig::asplos17();
    cfg.threads = cfg.threads.max(workers);
    Machine::new(cfg)
}

/// The outcome of one application run: everything the analysis needs.
#[derive(Debug)]
pub struct AppRun {
    /// Application name (Table 1, first column).
    pub name: String,
    /// Workload description (Table 1, third column).
    pub workload: String,
    /// The recorded PM-operation trace.
    pub events: Vec<Event>,
    /// DRAM/PM access counters (Figure 6).
    pub stats: MemStats,
    /// Simulated wall-clock duration (denominator of Table 1).
    pub duration_ns: u64,
    /// Hardware threads used.
    pub threads: u32,
}

impl AppRun {
    /// Finish a run: harvest the machine's trace, counters, and clock.
    pub(crate) fn collect(name: &str, workload: &str, mut machine: Machine) -> AppRun {
        let stats = machine.stats();
        let duration_ns = machine.now_ns();
        let threads = machine.config().threads;
        let events = std::mem::take(machine.trace_mut()).into_events();
        AppRun {
            name: name.to_string(),
            workload: workload.to_string(),
            events,
            stats,
            duration_ns,
            threads,
        }
    }
}

/// A DRAM scratch region over which applications perform their
/// *volatile* work — request parsing, volatile indexes, client
/// buffers. The paper's Figure 6 point is that "the majority (>96%) of
/// accesses are to DRAM" because "applications optimize by placing
/// transient data structures in volatile memory"; each app models its
/// characteristic volatile footprint by touching this arena a tuned
/// number of times per operation.
#[derive(Debug)]
pub(crate) struct VolatileArena {
    base: Addr,
    len: u64,
    cursor: u64,
}

impl VolatileArena {
    pub(crate) fn new(m: &mut Machine, bytes: u64) -> VolatileArena {
        VolatileArena {
            base: m.alloc_dram(bytes, 64),
            len: bytes,
            cursor: 0,
        }
    }

    /// Perform `accesses` DRAM operations: a handful of real 8-byte
    /// loads/stores for functional realism, the rest accounted through
    /// the machine's bulk path (identical counters and clock, without
    /// simulating each access).
    pub(crate) fn work(&mut self, m: &mut Machine, tid: Tid, accesses: u64) {
        let real = accesses.min(4);
        for i in 0..real {
            let at = self.base + (self.cursor % (self.len - 8));
            if i % 3 == 2 {
                m.store_u64(tid, at, i, Category::UserData);
            } else {
                let _ = m.load_u64(tid, at);
            }
            self.cursor = self.cursor.wrapping_add(72);
        }
        m.dram_bulk(tid, accesses - real);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::MachineConfig;

    #[test]
    fn apps_is_the_table1_registry() {
        let names = || APPS.iter().map(|a| a.name);
        assert!(names().eq(APP_NAMES));
        assert!(names().eq(crate::report::PAPER.iter().map(|p| p.name)));
        // SIM_APPS is exactly the apps with an unpaced driver.
        let sim: Vec<&str> = APPS
            .iter()
            .filter(|a| a.unpaced.is_some())
            .map(|a| a.name)
            .collect();
        assert_eq!(sim, crate::suite::SIM_APPS);
        assert_eq!(
            sim,
            [
                "echo",
                "nstore-ycsb",
                "redis",
                "ctree",
                "hashmap",
                "vacation"
            ]
        );
        let crash_ops: Vec<usize> = APPS.iter().map(|a| a.crash_ops).collect();
        assert_eq!(crash_ops, [40, 64, 32, 96, 96, 96, 64, 80, 40, 16, 24]);
        let bases: Vec<usize> = APPS.iter().map(|a| a.op_base).collect();
        assert_eq!(
            bases,
            [20_000, 16_000, 3_000, 20_000, 16_000, 16_000, 10_000, 20_000, 4_000, 400, 1_500]
        );
        assert_eq!(crate::suite::MIN_OP_BASE, 400);
        assert_eq!(bases.iter().min(), Some(&crate::suite::MIN_OP_BASE));
        assert_eq!(lookup("nope").map(|a| a.name), None);
        assert_eq!(spec("nfs").layer, AccessLayer::Pmfs);
    }

    #[test]
    fn design_access_layer_table_matches_apps() {
        // DESIGN.md's `| App | Access layer | ...` table names each app
        // (N-store once, for both of its rows) and its layer in words.
        let word = |layer| match layer {
            AccessLayer::Native => "native",
            AccessLayer::Nvml => "NVML",
            AccessLayer::Mnemosyne => "Mnemosyne",
            AccessLayer::Pmfs => "pmfs",
        };
        let all = [
            AccessLayer::Native,
            AccessLayer::Nvml,
            AccessLayer::Mnemosyne,
            AccessLayer::Pmfs,
        ];
        let design =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"))
                .expect("DESIGN.md readable");
        let rows: Vec<(&str, &str)> = design
            .lines()
            .skip_while(|l| !l.starts_with("| App | Access layer |"))
            .skip(2)
            .take_while(|l| l.starts_with('|'))
            .map(|l| {
                let cells: Vec<&str> = l.split('|').map(str::trim).collect();
                (cells[1].trim_matches('`'), cells[2])
            })
            .collect();
        assert_eq!(rows.len(), 10, "one row per application: {rows:?}");
        let mut covered = 0;
        for (app, layer_cell) in rows {
            let matching: Vec<&AppSpec> = APPS
                .iter()
                .filter(|a| a.name == app || a.name.starts_with(&format!("{app}-")))
                .collect();
            assert!(
                !matching.is_empty(),
                "DESIGN.md row {app:?} names no APPS entry"
            );
            for a in matching {
                covered += 1;
                let named: Vec<AccessLayer> = all
                    .into_iter()
                    .filter(|&l| layer_cell.contains(word(l)))
                    .collect();
                assert_eq!(
                    named,
                    [a.layer],
                    "{}: DESIGN.md says {layer_cell:?}, APPS says {:?}",
                    a.name,
                    a.layer
                );
            }
        }
        assert_eq!(covered, APPS.len(), "every APPS row appears in DESIGN.md");
    }

    #[test]
    fn volatile_arena_counts_only_dram() {
        let mut m = Machine::new(MachineConfig::asplos17());
        let mut a = VolatileArena::new(&mut m, 4096);
        a.work(&mut m, Tid(0), 100);
        assert_eq!(m.stats().dram_accesses, 100);
        assert_eq!(m.stats().pm_total(), 0);
        assert!(m.trace().is_empty(), "volatile work never traced");
    }
}
