//! What a pass produces besides its outputs: the checks it ran, the
//! exact simulated counts it saw, and — in the traced run — the host
//! time it spent in each layer.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Output checks attempted and the ones that failed, with reasons.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Record one check; `what` describes the failure and is only built
    /// when `ok` is false.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Fold another set of checks into this one.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }

    /// Checks run so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Descriptions of the checks that failed.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Failed checks over checks attempted (0 when none ran).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failures.len() as f64 / self.attempted as f64
        }
    }
}

/// The exact simulated counts of one pass, in a fixed order. Host speed
/// can never move them, so every repeat of a pass must reproduce them.
pub type Counts = Vec<(&'static str, u64)>;

/// FNV-1a over a rendered output: a count that pins every byte of it.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Host busy time and work counts per layer, gathered by the traced
/// pass from spans placed around each public call.
#[derive(Debug, Default)]
pub struct Ledger {
    busy: BTreeMap<String, Duration>,
    counts: BTreeMap<String, u64>,
}

impl Ledger {
    /// Run `f`, charging its elapsed host time to every span in `names`
    /// (a call can belong to a layer and to one of its sub-ledgers).
    pub fn span<T>(&mut self, names: &[&str], f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let took = start.elapsed();
        for name in names {
            *self.busy.entry((*name).to_string()).or_default() += took;
        }
        out
    }

    /// Add `n` to the work count `name`.
    pub fn count(&mut self, name: &str, n: u64) {
        *self.counts.entry(name.to_string()).or_default() += n;
    }

    /// Seconds charged to span `name` (0 if it never ran).
    pub fn busy_s(&self, name: &str) -> f64 {
        self.busy.get(name).map_or(0.0, Duration::as_secs_f64)
    }

    /// The work count `name` (0 if never counted).
    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Host nanoseconds of span `name` per unit of count `per` (0 when
    /// no work was counted).
    pub fn ns_per(&self, name: &str, per: &str) -> f64 {
        match self.counted(per) {
            0 => 0.0,
            n => self.busy_s(name) * 1e9 / n as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_count_failures_against_attempts() {
        let mut c = Checks::default();
        c.expect(true, || unreachable!("only built on failure"));
        c.expect(false, || "broken".into());
        let mut more = Checks::default();
        more.expect(true, String::new);
        more.expect(true, String::new);
        c.absorb(more);
        assert_eq!(c.attempted(), 4);
        assert_eq!(c.failures(), ["broken"]);
        assert!((c.fail_frac() - 0.25).abs() < 1e-12);
        assert_eq!(Checks::default().fail_frac(), 0.0);
    }

    #[test]
    fn spans_charge_every_named_ledger() {
        let mut l = Ledger::default();
        let v = l.span(&["a", "b"], || {
            std::thread::sleep(Duration::from_millis(2));
            7
        });
        assert_eq!(v, 7);
        assert!(l.busy_s("a") > 0.0);
        assert_eq!(l.busy_s("a"), l.busy_s("b"));
        assert_eq!(l.busy_s("never"), 0.0);
        l.count("n", 4);
        l.count("n", 6);
        assert_eq!(l.counted("n"), 10);
        assert!((l.ns_per("a", "n") - l.busy_s("a") * 1e8).abs() < 1e-3);
        assert_eq!(l.ns_per("a", "missing"), 0.0);
    }

    #[test]
    fn fnv_pins_every_byte() {
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a("table1"), fnv1a("table2"));
    }
}
