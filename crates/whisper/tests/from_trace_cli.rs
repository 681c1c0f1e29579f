//! `whisper-report --from-trace` takes the same output path as a live
//! run: the experiment argument selects the printed table, and an
//! unknown experiment exits 2.

use std::path::PathBuf;
use std::process::{Command, Output};

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

    let _ = std::fs::remove_dir_all(std::path::Path::new(wtr).parent().unwrap());
}
