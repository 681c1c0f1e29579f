//! Command line: `--workload NAME --seed N --seconds S --trace 0|1`.

/// The benchmark's workloads (see `BENCHMARK.json` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The CI gate stack at quick scale, compared against the golden.
    Gates,
    /// `whisper-report --serve --profile`: suite, then the serving sweep.
    Serve,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Gates, Workload::Serve];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Gates => "gates",
            Workload::Serve => "serve",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One invocation's settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Workload seed: every simulated input derives from it.
    pub seed: u64,
    /// How long the measured loop may run, in seconds (at least one
    /// pass always runs).
    pub seconds: u64,
    /// `true` for the traced run (per-layer metrics), `false` for the
    /// end-to-end run.
    pub trace: bool,
}

/// Usage line for error messages.
pub const USAGE: &str =
    "usage: whisper-perfbench --workload gates|serve [--seed N] [--seconds S] [--trace 0|1]";

/// Parse the arguments after the program name. `--workload` is
/// required; the seed defaults to 42, the budget to 10 s, tracing to off.
pub fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed needs an unsigned integer, got {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|&s: &u64| s > 0)
                    .ok_or_else(|| format!("--seconds needs a positive integer, got {v:?}"))?;
            }
            "--trace" => {
                trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace needs 0 or 1, got {v:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_full_command_line() {
        let a = parse(&argv("--workload gates --seed 7 --seconds 30 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::Gates,
                seed: 7,
                seconds: 30,
                trace: true
            }
        );
    }

    #[test]
    fn defaults_apply_and_order_does_not_matter() {
        let a = parse(&argv("--trace 0 --workload serve")).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Serve, 42, 10, false)
        );
    }

    #[test]
    fn every_workload_name_round_trips() {
        for w in Workload::ALL {
            let a = parse(&argv(&format!("--workload {}", w.name()))).unwrap();
            assert_eq!(a.workload, w);
        }
    }

    #[test]
    fn bad_input_is_rejected() {
        for bad in [
            "",
            "--seed 1",
            "--workload nope",
            "--workload gates --seed -3",
            "--workload gates --seconds 0",
            "--workload gates --trace 2",
            "--workload gates --seed",
            "--workload gates --verbose",
        ] {
            assert!(parse(&argv(bad)).is_err(), "accepted {bad:?}");
        }
    }
}
