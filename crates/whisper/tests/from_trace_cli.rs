//! `whisper-report`'s command-line contract. `--from-trace` takes the
//! same output path as a live run (the experiment argument selects the
//! printed table, an unknown experiment exits 2); `--timing` refuses
//! flags it would ignore; `--help` names every experiment and flag; and
//! every gate's standalone `--X-json` document is its section of the
//! `--json` report.

use pmobs::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use whisper::report::SECTIONS;

fn whisper_report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_whisper-report"))
        .args(args)
        .output()
        .expect("whisper-report runs")
}

/// Archive hashmap's quick-scale trace into a fresh directory and
/// return the `.wtr` path.
fn dump_hashmap() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("whisper-from-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = whisper_report(&[
        "table1",
        "--scale",
        "0.01",
        "--apps",
        "hashmap",
        "--parallel",
        "1",
        "--quiet",
        "--dump-traces",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "dump failed: {out:?}");
    dir.join("hashmap.wtr")
}

#[test]
fn from_trace_honours_the_experiment_argument() {
    let wtr = dump_hashmap();
    let wtr = wtr.to_str().unwrap();

    let out = whisper_report(&["fig3", "--from-trace", wtr, "--quiet"]);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("Figure 3"), "no Figure 3 table:\n{text}");
    assert!(
        !text.contains("Table 1"),
        "printed the full report:\n{text}"
    );

    let out = whisper_report(&["bogus", "--from-trace", wtr, "--quiet"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown experiment"), "{err}");

    let _ = std::fs::remove_dir_all(Path::new(wtr).parent().unwrap());
}

#[test]
fn timing_refuses_gates_and_outputs() {
    for flags in [
        &["--check"][..],
        &["--crash"],
        &["--check-rules", "P-CROSS-DEP"],
        &["--serve-shards", "2"],
        &["--json", "t.json"],
        &["--json-det", "t.json"],
        &["--trace", "t.json"],
        &["--dump-traces", "dir"],
        &["--from-trace", "t.wtr"],
    ] {
        let mut args = vec!["--timing", "--scale", "0.01", "--apps", "hashmap"];
        args.extend_from_slice(flags);
        let out = whisper_report(&args);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {out:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.contains(flags[0]),
            "{flags:?}: error names no flag: {err}"
        );
        assert!(out.stdout.is_empty(), "{flags:?}: ran anyway");
    }
}

/// Every `--flag` token in `text`, sorted and deduplicated.
fn flags(text: &str) -> Vec<&str> {
    let mut out: Vec<&str> = text
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|w| w.starts_with("--"))
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

#[test]
fn help_names_every_experiment_and_flag() {
    let out = whisper_report(&["--help"]);
    assert!(out.status.success(), "{out:?}");
    let help = String::from_utf8(out.stderr).unwrap();
    for (name, _) in SECTIONS {
        assert!(
            help.contains(name),
            "--help omits experiment {name}:\n{help}"
        );
    }
    for flag in [
        "--dump-traces",
        "--from-trace",
        "--profile-json",
        "--check-graph",
    ] {
        assert!(help.contains(flag), "--help omits {flag}:\n{help}");
    }
    // The module doc's usage block documents the same flags.
    let source = include_str!("../src/bin/whisper_report.rs");
    let block = source
        .split("//! ```text\n")
        .nth(1)
        .and_then(|rest| rest.split("//! ```\n").next())
        .expect("module doc has a usage block");
    assert_eq!(flags(block), flags(&help), "module doc usage != --help");
    for (name, _) in SECTIONS {
        assert!(block.contains(name), "module doc omits experiment {name}");
    }
}

fn read_json(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    pmobs::json::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e:?}"))
}

/// The whole gate stack in one run: each `--X-json` file is the same
/// document as its report section, `hb.graph` describes the
/// `--check-graph` files, and the gate tables print in their fixed
/// order after the experiment text.
#[test]
fn gate_sections_match_the_report() {
    let dir = std::env::temp_dir().join(format!("whisper-gates-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let mut args = vec![
        "table1".to_string(),
        "--scale".into(),
        "0.01".into(),
        "--apps".into(),
        "hashmap".into(),
        "--parallel".into(),
        "2".into(),
        "--quiet".into(),
        "--json".into(),
        path("full.json"),
        "--check-graph".into(),
        path("graphs"),
    ];
    let standalone = [
        ("--check-json", "violations"),
        ("--crash-json", "crash"),
        ("--crossval-json", "hb.crossval"),
        ("--optimize-json", "optimize"),
        ("--serve-json", "serve"),
        ("--profile-json", "profile"),
    ];
    for (flag, key) in standalone {
        args.push(flag.into());
        args.push(path(&format!("{key}.json")));
    }
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let out = whisper_report(&args);
    assert!(out.status.success(), "{out:?}");

    let report = read_json(&dir.join("full.json"));
    let section = |key: &str| {
        key.split('.')
            .try_fold(&report, |doc, k| doc.get(k))
            .cloned()
            .unwrap_or_else(|| panic!("report has no {key}"))
    };
    for (flag, key) in standalone {
        let file = read_json(&dir.join(format!("{key}.json")));
        assert_eq!(file, section(key), "{flag} file != report {key}");
    }

    let graph = section("hb.graph");
    let apps = graph.get("apps").and_then(Json::as_arr).unwrap();
    assert_eq!(apps.len(), 1, "one graph per selected app");
    for app in apps {
        let name = app.get("name").and_then(Json::as_str).unwrap();
        let file = read_json(&dir.join("graphs").join(format!("{name}.json")));
        let Json::Obj(stats) = app else {
            panic!("hb.graph app is not an object")
        };
        for (key, value) in stats.iter().filter(|(k, _)| k != "name") {
            assert_eq!(file.get(key), Some(value), "{name}: graph file {key}");
        }
        assert!(dir.join("graphs").join(format!("{name}.dot")).exists());
    }

    let text = String::from_utf8(out.stdout).unwrap();
    let order = [
        "Table 1",
        "Persistency check",
        "Epoch dependency graphs",
        "Crash-recovery campaign",
        "HB / crash-image cross-validation",
        "Ordering optimizer",
        "Serving sweep",
        "Phase profile",
    ];
    let at: Vec<usize> = order
        .iter()
        .map(|h| {
            text.find(h)
                .unwrap_or_else(|| panic!("no {h:?} table:\n{text}"))
        })
        .collect();
    assert!(
        at.windows(2).all(|w| w[0] < w[1]),
        "tables out of order: {order:?} at {at:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
