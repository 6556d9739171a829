//! The gate table behind `repro gate [--bless] [NAME...]`.
//!
//! Every byte-identity and metrics gate is one row of [`GATES`]: a name,
//! the `repro` argv it runs, and the checked-in file it is held to. One
//! runner applies the same checks to every row:
//!
//! * **store rows** (a metrics baseline): the campaign streams through the
//!   columnar store and its deterministic metrics must equal the
//!   baseline field for field (exit 3 on drift); `--from-store` at
//!   `--threads 1` and `--threads 8` must print the direct run's bytes;
//!   and the stores written at `--shard-size 5` on 1 and on 8 threads must
//!   equal the direct run's `records.chunks` and `manifest.bin`.
//! * **trace rows** (a golden trace): the sampled flight-recorder export
//!   must be valid Chrome trace JSON and equal the golden byte for byte.
//!
//! `--bless` runs the same checks but rewrites the baseline or golden
//! instead of comparing against it. Every run is a fresh process of the
//! running binary, so each metrics snapshot starts from zero. Paths are
//! relative to the working directory: rows read `ci/` and work under
//! `target/ci/<row>/`.

use dohperf_store::{MANIFEST_FILE, RECORDS_FILE};
use dohperf_telemetry::perfetto;
use std::path::Path;
use std::process::{Command, Stdio};

/// One gate: a `repro` invocation and the checked-in file it must match.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// Row name, as `repro gate NAME` and the CI matrix spell it.
    pub name: &'static str,
    /// The `repro` arguments, whitespace-separated; the runner appends
    /// its own output flags.
    pub argv: &'static str,
    /// Metrics baseline for a store row.
    pub baseline: Option<&'static str>,
    /// Golden Chrome trace for a trace row.
    pub golden: Option<&'static str>,
}

const fn store(name: &'static str, argv: &'static str, baseline: &'static str) -> Gate {
    Gate {
        name,
        argv,
        baseline: Some(baseline),
        golden: None,
    }
}

const fn trace(name: &'static str, argv: &'static str, golden: &'static str) -> Gate {
    Gate {
        name,
        argv,
        baseline: None,
        golden: Some(golden),
    }
}

/// Every gate. `.github/workflows/ci.yml` runs one matrix job per row.
pub const GATES: &[Gate] = &[
    // --shard-size 64: the metrics must not notice the work-unit size.
    store("headline", "--seed 2021 --scale 0.05 --shard-size 64 headline", "ci/baseline-metrics.json"),
    store("do53", "--seed 2021 --scale 0.05 --protocols do53 transports", "ci/baseline-metrics-do53.json"),
    store("doh", "--seed 2021 --scale 0.05 --protocols doh transports", "ci/baseline-metrics-doh.json"),
    store("dot", "--seed 2021 --scale 0.05 --protocols dot transports", "ci/baseline-metrics-dot.json"),
    store("doq", "--seed 2021 --scale 0.05 --protocols doq transports", "ci/baseline-metrics-doq.json"),
    store("pageload", "--seed 2021 --scale 0.05 --pages 2 pageload", "ci/baseline-metrics-pageload.json"),
    store("timeline", "--seed 2021 --scale 0.05 --window-hours 1 timeline", "ci/baseline-metrics-timeline.json"),
    // --threads 2 exercises the flight recorder's shard merge.
    trace("trace-headline", "--seed 2021 --scale 0.02 --threads 2 --trace-sample 128 headline", "ci/golden-trace.json"),
    trace("trace-protocols", "--seed 2021 --scale 0.02 --threads 2 --trace-sample 128 --protocols do53,doh,dot,doq headline", "ci/golden-trace-protocols.json"),
    trace("trace-pageload", "--seed 2021 --scale 0.02 --threads 2 --trace-sample 128 --pages 2 pageload", "ci/golden-trace-pageload.json"),
];

/// A failed check: what went wrong and the exit code to report.
struct Failure {
    code: i32,
    msg: String,
}

fn fail(msg: String) -> Failure {
    Failure { code: 1, msg }
}

/// Run `repro gate` with the arguments after `gate`; returns the exit
/// code: 0 when every requested row passes, 2 for an unknown row, and
/// otherwise the first failing row's code (3 for metrics drift).
pub fn run(args: &[String]) -> i32 {
    let bless = args.iter().any(|a| a == "--bless");
    let names: Vec<&String> = args.iter().filter(|a| *a != "--bless").collect();
    let mut rows = Vec::new();
    for name in &names {
        match GATES.iter().find(|g| g.name == name.as_str()) {
            Some(gate) => rows.push(gate),
            None => {
                let what = if name.starts_with("--") {
                    "option"
                } else {
                    "gate"
                };
                let all: Vec<&str> = GATES.iter().map(|g| g.name).collect();
                eprintln!(
                    "error: unknown {what} {name:?}\nusage: repro gate [--bless] [NAME...]\ngates: {}",
                    all.join(" ")
                );
                return 2;
            }
        }
    }
    if rows.is_empty() {
        rows.extend(GATES);
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: locating the repro binary: {e}");
            return 2;
        }
    };
    let mut code = 0;
    for gate in rows {
        eprintln!(
            "== gate {}{} ==",
            gate.name,
            if bless { " (bless)" } else { "" }
        );
        match check(&exe, gate, bless) {
            Ok(()) => eprintln!("gate {}: ok", gate.name),
            Err(f) => {
                eprintln!("gate {}: FAILED: {}", gate.name, f.msg);
                if code == 0 {
                    code = f.code;
                }
            }
        }
    }
    code
}

fn check(exe: &Path, gate: &Gate, bless: bool) -> Result<(), Failure> {
    let dir = format!("target/ci/{}", gate.name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| fail(format!("creating {dir}: {e}")))?;
    if let Some(baseline) = gate.baseline {
        check_store(exe, gate.argv, &dir, baseline, bless)?;
    }
    if let Some(golden) = gate.golden {
        check_trace(exe, gate.argv, &dir, golden, bless)?;
    }
    Ok(())
}

fn check_store(
    exe: &Path,
    argv: &str,
    dir: &str,
    baseline: &str,
    bless: bool,
) -> Result<(), Failure> {
    let store = format!("{dir}/store");
    let metrics = format!("{dir}/metrics.json");
    let mut direct_args = vec!["--out-format", "store", "--store-dir", &store];
    if bless {
        direct_args.extend(["--metrics", baseline]);
    } else {
        direct_args.extend(["--metrics", &metrics, "--baseline", baseline]);
    }
    let direct = repro(exe, argv, &direct_args)?;
    for threads in ["1", "8"] {
        let restored = repro(exe, argv, &["--threads", threads, "--from-store", &store])?;
        if restored != direct {
            return Err(fail(format!(
                "--from-store {store} --threads {threads} printed other bytes than the direct run"
            )));
        }
    }
    for threads in ["1", "8"] {
        let other = format!("{dir}/store-t{threads}");
        let args = [
            "--threads",
            threads,
            "--shard-size",
            "5",
            "--out-format",
            "store",
            "--store-dir",
            &other,
        ];
        repro(exe, argv, &args)?;
        for file in [RECORDS_FILE, MANIFEST_FILE] {
            same_bytes(&format!("{other}/{file}"), &format!("{store}/{file}"))?;
        }
    }
    Ok(())
}

fn check_trace(
    exe: &Path,
    argv: &str,
    dir: &str,
    golden: &str,
    bless: bool,
) -> Result<(), Failure> {
    let out = format!("{dir}/trace.json");
    repro(exe, argv, &["--trace-out", &out])?;
    let text = std::fs::read_to_string(&out).map_err(|e| fail(format!("reading {out}: {e}")))?;
    let stats = perfetto::validate_chrome_trace(&text).map_err(|e| fail(format!("{out}: {e}")))?;
    eprintln!(
        "{out}: valid, {} events across {} tracks",
        stats.events, stats.tracks
    );
    if bless {
        std::fs::write(golden, &text).map_err(|e| fail(format!("writing {golden}: {e}")))
    } else {
        same_bytes(&out, golden)
    }
}

/// Run one fresh `repro` process and return its stdout; a nonzero exit
/// fails the gate with the same code.
fn repro(exe: &Path, argv: &str, extra: &[&str]) -> Result<Vec<u8>, Failure> {
    let out = Command::new(exe)
        .args(argv.split_whitespace())
        .args(extra)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| fail(format!("spawning {}: {e}", exe.display())))?;
    if out.status.success() {
        return Ok(out.stdout);
    }
    Err(Failure {
        code: out.status.code().unwrap_or(1),
        msg: format!(
            "repro {argv} {} exited with {}",
            extra.join(" "),
            out.status
        ),
    })
}

fn same_bytes(actual: &str, expected: &str) -> Result<(), Failure> {
    let read = |path: &str| std::fs::read(path).map_err(|e| fail(format!("reading {path}: {e}")));
    let (a, b) = (read(actual)?, read(expected)?);
    if a == b {
        return Ok(());
    }
    let at = a.iter().zip(&b).take_while(|(x, y)| x == y).count();
    Err(fail(format!(
        "{actual} differs from {expected} (first difference at byte {at}; {} vs {} bytes)",
        a.len(),
        b.len()
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repro::{Kind, EXPERIMENTS};

    fn workspace_file(rel: &str) -> String {
        let path = format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
    }

    #[test]
    fn ci_matrix_lists_exactly_the_gate_rows() {
        let ci = workspace_file(".github/workflows/ci.yml");
        let job = ci
            .split_once("\n  gates:\n")
            .expect("ci.yml has a gates job")
            .1;
        let list = job
            .lines()
            .find_map(|l| l.trim().strip_prefix("gate: ["))
            .and_then(|l| l.strip_suffix(']'))
            .expect("the gates job has a one-line `gate: [...]` matrix");
        let matrix: Vec<&str> = list.split(',').map(str::trim).collect();
        let rows: Vec<&str> = GATES.iter().map(|g| g.name).collect();
        assert_eq!(
            matrix, rows,
            "ci.yml's gates matrix must list every GATES row"
        );
    }

    #[test]
    fn every_row_runs_one_known_experiment_on_seed_2021() {
        for gate in GATES {
            let experiments: Vec<_> = gate
                .argv
                .split_whitespace()
                .filter_map(|a| EXPERIMENTS.iter().find(|e| e.name == a))
                .collect();
            assert_eq!(experiments.len(), 1, "{}: {}", gate.name, gate.argv);
            // `--from-store` identity proves nothing for a row that
            // ignores the dataset.
            assert!(
                gate.baseline.is_none() || experiments[0].kind == Kind::Analysis,
                "store row {} must run an Analysis experiment",
                gate.name
            );
            assert!(
                gate.argv.starts_with("--seed 2021 "),
                "{} must pin seed 2021",
                gate.name
            );
            assert!(
                gate.baseline.is_some() != gate.golden.is_some(),
                "{} must be a store row or a trace row",
                gate.name
            );
            for file in gate.baseline.iter().chain(&gate.golden) {
                workspace_file(file);
            }
        }
    }
}
