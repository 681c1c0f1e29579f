//! The NVML example micro-benchmarks: `ctree` and `hashmap`
//! (Section 3.2.2).
//!
//! "C-tree and Hashmap are multi-threaded micro-benchmarks written for
//! NVML that perform inserts and deletes operations into a persistent
//! crit-bit tree or a hashmap. These benchmarks are part of the
//! examples shipped with NVML." The paper notes micro-benchmarks like
//! these are "simulator-suitable" stand-ins whose "memory access
//! patterns are representative of larger workloads".
//!
//! Table 1 drives both with 4 clients and 100 K INSERT transactions;
//! we mix in the deletes the benchmark also implements.

use super::{AppRun, VolatileArena};
use crate::crashtest::{self, Arm, CrashRun};
use crate::region::RegionPlanner;
use memsim::{Machine, MachineConfig, PmWriter};
use pmalloc::ShardedSlab;
use pmds::{CritBitTree, PHashMap};
use pmem::{AddrRange, PmImage};
use pmrand::{Rng, SeedableRng, SmallRng};
use pmtrace::Tid;
use pmtx::UndoTxEngine;
use std::collections::HashMap;

const THREADS: u32 = 4;

struct MicroEnv {
    m: Machine,
    eng: UndoTxEngine,
    /// Per-thread allocator arenas, as in NVML's per-thread allocation
    /// classes — shared allocator metadata would otherwise manufacture
    /// cross-thread dependencies the real benchmarks do not have.
    alloc: ShardedSlab,
    arena: VolatileArena,
    /// Engine log region — the recovery oracle's re-open handle.
    log_region: AddrRange,
}

fn build_env() -> (MicroEnv, RegionPlanner) {
    let mut m = Machine::new(MachineConfig::asplos17());
    // Setup is untraced: the measured interval is the insert workload.
    m.trace_mut().set_enabled(false);
    let mut plan = RegionPlanner::new(m.config().map.pm);
    let log_region = plan.take(8 << 20);
    let eng = UndoTxEngine::format(&mut m, log_region, THREADS);
    let mut w = PmWriter::new(Tid(0));
    let heap = plan.take(ShardedSlab::region_bytes(96 << 20, THREADS as usize));
    let alloc = ShardedSlab::format(&mut m, &mut w, heap.base, 96 << 20, THREADS as usize);
    let arena = VolatileArena::new(&mut m, 1 << 20);
    (
        MicroEnv {
            m,
            eng,
            alloc,
            arena,
            log_region,
        },
        plan,
    )
}

const CRASH_KEYSPACE: u64 = 32;

/// The shared crash-campaign op plan: (is-insert, key) pairs, 85 %
/// inserts over a small keyspace.
fn crash_plan_ops(ops: usize, seed: u64) -> Vec<(bool, u64)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..ops)
        .map(|_| (rng.gen_range(0..100) < 85, rng.gen_range(0..CRASH_KEYSPACE)))
        .collect()
}

/// Crash workload + oracle for `ctree` (see [`crate::crashtest`]):
/// per-op insert/remove transactions; the oracle recovers the engine,
/// re-opens the crit-bit tree, and compares every key against the
/// committed prefix, allowing the in-flight op's key to hold either
/// its old or its new state.
pub(crate) fn crash_run_ctree(ops: usize, arm: &Arm<'_>) -> CrashRun {
    let (mut env, mut plan) = build_env();
    let tree_region = plan.take(pmds::CRITBIT_REGION_BYTES);
    env.eng.begin(&mut env.m, Tid(0)).expect("setup tx");
    let tree = CritBitTree::create(&mut env.m, &mut env.eng, Tid(0), tree_region).expect("tree");
    env.eng.commit(&mut env.m, Tid(0)).expect("setup");
    let plan_ops = crash_plan_ops(ops, 0xc47ee);

    crashtest::arm(&mut env.m, arm);
    for (i, (insert, key)) in plan_ops.iter().enumerate() {
        let tid = Tid((i % THREADS as usize) as u32);
        env.alloc.select(tid.0 as usize);
        env.eng.begin(&mut env.m, tid).expect("tx");
        if *insert {
            tree.insert(
                &mut env.m,
                &mut env.eng,
                tid,
                &mut env.alloc,
                &key.to_be_bytes(),
                i as u64 + 1,
            )
            .expect("insert");
        } else {
            tree.remove(
                &mut env.m,
                &mut env.eng,
                tid,
                &mut env.alloc,
                &key.to_be_bytes(),
            )
            .expect("remove");
        }
        env.eng.commit(&mut env.m, tid).expect("commit");
        env.m.note_progress(i as u64 + 1);
    }

    let log = env.log_region;
    let tree_base = tree_region.base;
    let total = plan_ops.len() as u64;
    let oracle = Box::new(move |img: &PmImage, progress: u64| -> Result<(), String> {
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), img);
        let mut eng2 = UndoTxEngine::recover(&mut m2, Tid(0), log, THREADS);
        let tree2 = CritBitTree::open(&mut m2, Tid(0), tree_base)
            .map_err(|e| format!("tree open failed: {e:?}"))?;
        let mut model: HashMap<u64, u64> = HashMap::new();
        for (i, (insert, key)) in plan_ops[..progress as usize].iter().enumerate() {
            if *insert {
                model.insert(*key, i as u64 + 1);
            } else {
                model.remove(key);
            }
        }
        let in_flight = plan_ops.get(progress as usize);
        for key in 0..CRASH_KEYSPACE {
            let got = tree2.get(&mut m2, &mut eng2, Tid(0), &key.to_be_bytes());
            let want = model.get(&key).copied();
            if got == want {
                continue;
            }
            let after = match in_flight {
                Some((insert, k)) if *k == key => {
                    if *insert {
                        Some(progress + 1)
                    } else {
                        None
                    }
                }
                _ => {
                    return Err(format!(
                        "key {key}: recovered {got:?} != committed {want:?}"
                    ));
                }
            };
            if got != after {
                return Err(format!(
                    "key {key}: recovered {got:?}, neither old {want:?} nor in-flight {after:?}"
                ));
            }
        }
        Ok(())
    });
    let MicroEnv { m, .. } = env;
    crashtest::harvest(m, total, oracle)
}

/// Crash workload + oracle for `hashmap`: same shape as
/// [`crash_run_ctree`] over the persistent chained hash map.
pub(crate) fn crash_run_hashmap(ops: usize, arm: &Arm<'_>) -> CrashRun {
    let (mut env, mut plan) = build_env();
    let map_region = plan.take(PHashMap::region_bytes(512));
    env.eng.begin(&mut env.m, Tid(0)).expect("setup tx");
    let map = PHashMap::create(&mut env.m, &mut env.eng, Tid(0), map_region, 512).expect("map");
    env.eng.commit(&mut env.m, Tid(0)).expect("setup");
    let plan_ops = crash_plan_ops(ops, 0x4a54);

    crashtest::arm(&mut env.m, arm);
    for (i, (insert, key)) in plan_ops.iter().enumerate() {
        let tid = Tid((i % THREADS as usize) as u32);
        env.alloc.select(tid.0 as usize);
        env.eng.begin(&mut env.m, tid).expect("tx");
        if *insert {
            map.insert(
                &mut env.m,
                &mut env.eng,
                tid,
                &mut env.alloc,
                &key.to_le_bytes(),
                &[(i + 1) as u8; 32],
            )
            .expect("insert");
        } else {
            map.remove(
                &mut env.m,
                &mut env.eng,
                tid,
                &mut env.alloc,
                &key.to_le_bytes(),
            )
            .expect("remove");
        }
        env.eng.commit(&mut env.m, tid).expect("commit");
        env.m.note_progress(i as u64 + 1);
    }

    let log = env.log_region;
    let total = plan_ops.len() as u64;
    let oracle = Box::new(move |img: &PmImage, progress: u64| -> Result<(), String> {
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), img);
        let mut eng2 = UndoTxEngine::recover(&mut m2, Tid(0), log, THREADS);
        let map2 = PHashMap::open(&mut m2, Tid(0), map_region.base)
            .map_err(|e| format!("map open failed: {e:?}"))?;
        let mut model: HashMap<u64, [u8; 32]> = HashMap::new();
        for (i, (insert, key)) in plan_ops[..progress as usize].iter().enumerate() {
            if *insert {
                model.insert(*key, [(i + 1) as u8; 32]);
            } else {
                model.remove(key);
            }
        }
        let in_flight = plan_ops.get(progress as usize);
        for key in 0..CRASH_KEYSPACE {
            let got = map2.get(&mut m2, &mut eng2, Tid(0), &key.to_le_bytes());
            let want = model.get(&key).map(|v| v.to_vec());
            if got == want {
                continue;
            }
            let after = match in_flight {
                Some((insert, k)) if *k == key => insert.then(|| vec![(progress + 1) as u8; 32]),
                _ => {
                    return Err(format!(
                        "key {key}: recovered {got:?} != committed {want:?}"
                    ));
                }
            };
            if got != after {
                return Err(format!(
                    "key {key}: recovered {got:?}, neither old {want:?} nor in-flight {after:?}"
                ));
            }
        }
        Ok(())
    });
    let MicroEnv { m, .. } = env;
    crashtest::harvest(m, total, oracle)
}

/// `ctree` without driver overhead (gem5-style, for Figures 6/10).
pub fn ctree_unpaced(ops: usize, seed: u64) -> AppRun {
    ctree_inner(ops, seed, false)
}

/// The `ctree` micro-benchmark: transactional inserts (and some
/// deletes) into a persistent crit-bit tree.
pub fn ctree(ops: usize, seed: u64) -> AppRun {
    ctree_inner(ops, seed, true)
}

pub(crate) fn ctree_inner(ops: usize, seed: u64, paced: bool) -> AppRun {
    let (mut env, mut plan) = build_env();
    let tree_region = plan.take(pmds::CRITBIT_REGION_BYTES);
    env.eng.begin(&mut env.m, Tid(0)).expect("setup tx");
    let tree = CritBitTree::create(&mut env.m, &mut env.eng, Tid(0), tree_region).expect("tree");
    env.eng.commit(&mut env.m, Tid(0)).expect("setup");
    let mut rng = SmallRng::seed_from_u64(seed);
    let keyspace = (ops * 2).max(64) as u64;

    env.m.trace_mut().set_enabled(true);
    for i in 0..ops {
        let tid = Tid((i % THREADS as usize) as u32);
        env.arena
            .work(&mut env.m, tid, if paced { 900 } else { 300 });
        // The benchmark driver's per-op loop overhead.
        if paced {
            env.m.advance_ns(11_000);
        }
        let key = rng.gen_range(0..keyspace).to_be_bytes();
        env.alloc.select(tid.0 as usize);
        env.eng.begin(&mut env.m, tid).expect("tx");
        if rng.gen_range(0..100) < 85 {
            tree.insert(
                &mut env.m,
                &mut env.eng,
                tid,
                &mut env.alloc,
                &key,
                i as u64,
            )
            .expect("insert");
        } else {
            tree.remove(&mut env.m, &mut env.eng, tid, &mut env.alloc, &key)
                .expect("remove");
        }
        env.eng.commit(&mut env.m, tid).expect("commit");
    }

    AppRun::collect("ctree", "4 clients, INSERT transactions", env.m)
}

/// `hashmap` without driver overhead (gem5-style, for Figures 6/10).
pub fn hashmap_unpaced(ops: usize, seed: u64) -> AppRun {
    hashmap_inner(ops, seed, false)
}

/// The `hashmap` micro-benchmark: transactional inserts (and some
/// deletes) into a persistent chained hash map.
pub fn hashmap(ops: usize, seed: u64) -> AppRun {
    hashmap_inner(ops, seed, true)
}

pub(crate) fn hashmap_inner(ops: usize, seed: u64, paced: bool) -> AppRun {
    let (mut env, mut plan) = build_env();
    let map_region = plan.take(PHashMap::region_bytes(512));
    env.eng.begin(&mut env.m, Tid(0)).expect("setup tx");
    let map = PHashMap::create(&mut env.m, &mut env.eng, Tid(0), map_region, 512).expect("map");
    env.eng.commit(&mut env.m, Tid(0)).expect("setup");
    let mut rng = SmallRng::seed_from_u64(seed);
    let keyspace = (ops * 2).max(64) as u64;

    env.m.trace_mut().set_enabled(true);
    for i in 0..ops {
        let tid = Tid((i % THREADS as usize) as u32);
        env.arena
            .work(&mut env.m, tid, if paced { 850 } else { 280 });
        if paced {
            env.m.advance_ns(6_500);
        }
        let key = rng.gen_range(0..keyspace).to_le_bytes();
        env.alloc.select(tid.0 as usize);
        env.eng.begin(&mut env.m, tid).expect("tx");
        if rng.gen_range(0..100) < 85 {
            map.insert(
                &mut env.m,
                &mut env.eng,
                tid,
                &mut env.alloc,
                &key,
                &[i as u8; 32],
            )
            .expect("insert");
        } else {
            map.remove(&mut env.m, &mut env.eng, tid, &mut env.alloc, &key)
                .expect("remove");
        }
        env.eng.commit(&mut env.m, tid).expect("commit");
    }

    AppRun::collect("hashmap", "4 clients, INSERT transactions", env.m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmtrace::analysis;

    #[test]
    fn ctree_transactions_in_figure3_band() {
        let run = ctree(300, 4);
        let epochs = analysis::split_epochs(&run.events);
        let median = analysis::tx_stats(&epochs).median().unwrap();
        assert!((5..=30).contains(&median), "ctree median {median}");
    }

    #[test]
    fn hashmap_transactions_in_figure3_band() {
        let run = hashmap(300, 4);
        let epochs = analysis::split_epochs(&run.events);
        let median = analysis::tx_stats(&epochs).median().unwrap();
        assert!((5..=30).contains(&median), "hashmap median {median}");
    }

    #[test]
    fn nvml_micros_are_singleton_heavy() {
        // Figure 4: library-based applications average ~75% singletons.
        for run in [ctree(300, 7), hashmap(300, 7)] {
            let epochs = analysis::split_epochs(&run.events);
            let hist = analysis::epoch_size_histogram(&epochs);
            assert!(
                hist.singleton_fraction() > 0.55,
                "{}: singleton fraction {}",
                run.name,
                hist.singleton_fraction()
            );
        }
    }

    #[test]
    fn nvml_micros_self_deps_high() {
        // Figure 5: ctree 79%, hashmap 81%.
        for run in [ctree(300, 9), hashmap(300, 9)] {
            let epochs = analysis::split_epochs(&run.events);
            let deps = analysis::dependencies(&epochs);
            assert!(
                deps.self_fraction() > 0.5,
                "{}: self-dep {}",
                run.name,
                deps.self_fraction()
            );
        }
    }
}
