//! CLI contract of the `repro` binary.
//!
//! The exit-code surface is part of the CI interface (0 ok, 2 usage,
//! 3 baseline drift, 4 I/O), so argument validation is locked down at
//! the process level: unknown `--protocols` values must exit 2 and name
//! the accepted list, `--shard-size` must reject 0 and non-numeric
//! values with a usage hint, as must `--trace-sample 0` and a `--scale`
//! outside (0,1], and a valid protocol list must run the `transports` experiment end to
//! end. A missing or corrupt `--from-store` directory exits 2 without a
//! panic, and a `--from-store` run's stderr header names the store. The analysis tables no gate row renders must print the same,
//! pinned bytes at any `--threads`. `report` must hold every `Analysis`
//! row's stdout and re-derive from a store byte for byte. `repro gate`
//! must reject unknown rows with exit 2, and an unrecognised `--` argument
//! is named as an unknown option (exit 2), never as an experiment or a
//! gate row. `repro gate` must fail a row whose golden
//! trace or metrics baseline no longer matches (exit 3 for metrics
//! drift). `export --out-format store` from another store must write the
//! dataset it reports, never keep a stale store left by an earlier run.

use dohperf_core::campaign::{Campaign, CampaignConfig};
use dohperf_core::records::Dataset;
use dohperf_core::store_io::write_dataset;
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// A scratch working directory for one test, emptied first.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dohperf-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn unknown_protocol_exits_2_and_lists_accepted_values() {
    let out = repro()
        .args(["--protocols", "do53,dohh", "headline"])
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2), "unknown protocol must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown protocol \"dohh\""),
        "stderr must name the bad token:\n{stderr}"
    );
    assert!(
        stderr.contains("do53, doh, dot, doq"),
        "stderr must list the accepted protocols:\n{stderr}"
    );
}

#[test]
fn missing_protocols_value_exits_2() {
    let out = repro()
        .args(["headline", "--protocols"])
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--protocols"), "{stderr}");
}

#[test]
fn threads_zero_exits_2_with_a_usage_hint() {
    // The auto default is spelled by omitting the flag, not by passing
    // 0: an explicit `--threads 0` is far more likely a typo'd count
    // than a request for all cores, so it fails loudly.
    let out = repro()
        .args(["--threads", "0", "headline"])
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2), "--threads 0 must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--threads needs an integer >= 1"),
        "stderr must explain the constraint:\n{stderr}"
    );
    assert!(
        stderr.contains("omit the flag to use all cores"),
        "stderr must point at the auto spelling:\n{stderr}"
    );
    assert!(
        stderr.contains("usage: repro"),
        "stderr must include the usage block:\n{stderr}"
    );
}

#[test]
fn shard_size_zero_exits_2_with_a_usage_hint() {
    // Like --threads, 0 is not an auto value: the work-unit
    // granularity must be at least one client, and silently accepting 0
    // would hide a typo'd flag value.
    let out = repro()
        .args(["--shard-size", "0", "headline"])
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2), "--shard-size 0 must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--shard-size needs an integer >= 1"),
        "stderr must explain the constraint:\n{stderr}"
    );
    assert!(
        stderr.contains("usage: repro"),
        "stderr must include the usage block:\n{stderr}"
    );
}

#[test]
fn non_numeric_shard_size_exits_2() {
    let out = repro()
        .args(["--shard-size", "many", "headline"])
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--shard-size needs an integer >= 1"),
        "{stderr}"
    );
}

#[test]
fn missing_shard_size_value_exits_2() {
    let out = repro()
        .args(["headline", "--shard-size"])
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--shard-size"), "{stderr}");
}

#[test]
fn valid_protocol_list_runs_the_transports_experiment() {
    let out = repro()
        .args([
            "--seed",
            "7",
            "--scale",
            "0.02",
            "--protocols",
            "do53,doh,dot,doq",
            "transports",
        ])
        .output()
        .expect("spawn repro");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in ["Transport comparison", "RFC 9250", "Resumed", "cold CDF"] {
        assert!(stdout.contains(needle), "missing {needle:?} in:\n{stdout}");
    }
}

#[test]
fn transports_without_protocols_points_at_the_flag() {
    let out = repro()
        .args(["--seed", "7", "--scale", "0.02", "transports"])
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("no lifecycle samples"),
        "legacy run must explain how to enable transports:\n{stdout}"
    );
}

#[test]
fn pages_below_two_exits_2_with_a_usage_hint() {
    // A page measurement needs a cold visit plus at least one warm
    // revisit; 0 and 1 are both rejected before any work happens.
    for value in ["0", "1"] {
        let out = repro()
            .args(["--pages", value, "headline"])
            .output()
            .expect("spawn repro");
        assert_eq!(out.status.code(), Some(2), "--pages {value} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--pages needs an integer >= 2"), "{stderr}");
        assert!(stderr.contains("usage: repro"), "{stderr}");
    }
}

#[test]
fn non_numeric_pages_exits_2() {
    let out = repro()
        .args(["--pages", "lots", "headline"])
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--pages needs an integer >= 2"), "{stderr}");
}

#[test]
fn missing_pages_value_exits_2() {
    let out = repro()
        .args(["headline", "--pages"])
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--pages"), "{stderr}");
}

#[test]
fn scale_outside_its_range_exits_2() {
    // The campaign asserts 0 < scale <= 1; the CLI must reject the rest,
    // NaN included, before any campaign starts.
    for value in ["5", "0", "-1", "nan", "inf"] {
        let out = repro()
            .args(["--scale", value, "headline"])
            .output()
            .expect("spawn repro");
        assert_eq!(out.status.code(), Some(2), "--scale {value} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--scale needs a float in (0,1]"),
            "{stderr}"
        );
    }
}

#[test]
fn trace_sample_zero_exits_2() {
    // 0 records no client; it must not fall back to the `--trace-out`
    // default of 1 in 16.
    let path = std::env::temp_dir().join(format!(
        "dohperf-cli-{}-trace-sample-zero.json",
        std::process::id()
    ));
    let out = repro()
        .args(["--scale", "0.02", "--trace-sample", "0", "--trace-out"])
        .arg(&path)
        .arg("headline")
        .output()
        .expect("spawn repro");
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(2), "--trace-sample 0 must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--trace-sample needs an integer >= 1"),
        "{stderr}"
    );
}

#[test]
fn valid_pages_value_runs_the_pageload_experiment() {
    let out = repro()
        .args(["--seed", "7", "--scale", "0.02", "--pages", "2", "pageload"])
        .output()
        .expect("spawn repro");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "Page-load workload",
        "PLT cold",
        "PLT delta vs Do53",
        "PLT CDF",
    ] {
        assert!(stdout.contains(needle), "missing {needle:?} in:\n{stdout}");
    }
}

#[test]
fn pageload_without_pages_points_at_the_flag() {
    let out = repro()
        .args(["--seed", "7", "--scale", "0.02", "pageload"])
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("no page samples"),
        "legacy run must explain how to enable the workload:\n{stdout}"
    );
    assert!(stdout.contains("--pages 2"), "{stdout}");
}

#[test]
fn non_positive_window_hours_exits_2_with_a_usage_hint() {
    // A window must have positive width; 0 and negative values are
    // rejected before any work happens (0 is spelled "omit the flag").
    for value in ["0", "-1", "0.0"] {
        let out = repro()
            .args(["--window-hours", value, "headline"])
            .output()
            .expect("spawn repro");
        assert_eq!(
            out.status.code(),
            Some(2),
            "--window-hours {value} must exit 2"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--window-hours needs a positive number"),
            "{stderr}"
        );
        assert!(stderr.contains("usage: repro"), "{stderr}");
    }
}

#[test]
fn non_numeric_window_hours_exits_2() {
    let out = repro()
        .args(["--window-hours", "hourly", "headline"])
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--window-hours needs a positive number"),
        "{stderr}"
    );
}

#[test]
fn missing_window_hours_value_exits_2() {
    let out = repro()
        .args(["headline", "--window-hours"])
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--window-hours"), "{stderr}");
}

#[test]
fn valid_window_hours_runs_the_timeline_experiment() {
    let out = repro()
        .args([
            "--seed",
            "7",
            "--scale",
            "0.02",
            "--window-hours",
            "1",
            "timeline",
        ])
        .output()
        .expect("spawn repro");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "Timeline: per-window",
        "window width: 1 simulated hour(s)",
        "p50 ms",
        "avail%",
        "cache-hit%",
    ] {
        assert!(stdout.contains(needle), "missing {needle:?} in:\n{stdout}");
    }
    // README quotes this exact command's output; every quoted line but
    // the `...` elision must still be printed.
    const README: &str = include_str!("../README.md");
    let command = README
        .find("--seed 7 --scale 0.02 --window-hours 1 timeline")
        .expect("README shows the timeline command");
    let block = README[command..]
        .split_once("```text\n")
        .and_then(|(_, rest)| rest.split_once("```"))
        .expect("README quotes the timeline output")
        .0;
    for line in block.lines().filter(|l| l.trim() != "...") {
        assert!(
            stdout.contains(line),
            "README line {line:?} not in:\n{stdout}"
        );
    }
}

#[test]
fn timeline_without_windowing_points_at_the_flag() {
    let out = repro()
        .args(["--seed", "7", "--scale", "0.02", "timeline"])
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("no window samples"),
        "legacy run must explain how to enable windowing:\n{stdout}"
    );
    assert!(stdout.contains("--window-hours 1"), "{stdout}");
}

#[test]
fn timeline_from_a_store_takes_its_window_width_from_a_consistent_flag() {
    let dir = scratch_dir("timeline");
    let run = |args: &[&str]| {
        repro()
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("spawn repro")
    };
    let written = run(&[
        "--seed",
        "7",
        "--scale",
        "0.02",
        "--window-hours",
        "1",
        "--out-format",
        "store",
        "--store-dir",
        "s",
        "timeline",
    ]);
    assert_eq!(written.status.code(), Some(0));
    let stdout = |out: &std::process::Output| String::from_utf8_lossy(&out.stdout).into_owned();

    // The store keeps window indices, not the width: without the flag
    // the output says so instead of printing a width of 0.
    let unlabelled = run(&["--from-store", "s", "timeline"]);
    assert_eq!(unlabelled.status.code(), Some(0));
    let text = stdout(&unlabelled);
    assert!(
        text.contains("window width: not recorded in the store"),
        "{text}"
    );
    assert!(!text.contains("0 simulated hour(s)"), "{text}");

    // 3-hour windows give indices 0..=7; the data holds index 23.
    let contradicted = run(&["--from-store", "s", "--window-hours", "3", "timeline"]);
    assert_ne!(contradicted.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&contradicted.stderr);
    assert!(
        stderr.contains(
            "--window-hours 3 gives 8 window(s) per simulated day (indices 0..=7), \
             but the dataset holds window index 23"
        ),
        "{stderr}"
    );
    assert!(!stdout(&contradicted).contains("3 simulated hour(s)"));

    // The width the store was written with reproduces the original bytes.
    let consistent = run(&["--from-store", "s", "--window-hours", "1", "timeline"]);
    assert_eq!(consistent.status.code(), Some(0));
    assert_eq!(stdout(&consistent), stdout(&written));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sec4_3_confirms_the_resolver_from_a_non_empty_trace() {
    // The 10-resolution trace confirms; an empty one would not
    // (`validation::run_resolver_confirmation`), so the line is earned.
    for seed in ["2021", "7"] {
        let out = repro()
            .args(["--seed", seed, "sec4-3"])
            .output()
            .expect("spawn repro");
        assert_eq!(out.status.code(), Some(0));
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            format!(
                "{}\nSection 4.3: exit nodes use the OS-configured resolver: CONFIRMED \
                 (all trace packets target the default resolver)\n\n",
                "=".repeat(100)
            )
        );
    }
}

/// The analysis experiments no gate row renders: their statistics fan out
/// over `--threads`, yet must print the same bytes at every thread count,
/// and the bytes pinned in `tests/golden/` (regenerate with
/// `repro --seed 2021 --scale 0.05 --threads 1 table4 table5 table6
/// regions robustness`, stdout only).
#[test]
fn analysis_tables_are_identical_across_thread_counts_and_pinned() {
    const PINNED: &str = include_str!("golden/analysis-tables-seed2021-scale0.05.txt");
    let render = |threads: &str| {
        let out = repro()
            .args(["--seed", "2021", "--scale", "0.05", "--threads", threads])
            .args(["table4", "table5", "table6", "regions", "robustness"])
            .output()
            .expect("spawn repro");
        assert_eq!(out.status.code(), Some(0), "threads {threads}");
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };
    let serial = render("1");
    assert_eq!(render("3"), serial, "--threads 3 differs from --threads 1");
    assert_eq!(serial, PINNED, "output differs from the pinned bytes");
}

/// A scratch working directory holding a copy of the checked-in `ci/`
/// files, so a test can corrupt them without touching the tree.
fn ci_copy(tag: &str) -> std::path::PathBuf {
    let dir = scratch_dir(tag);
    std::fs::create_dir_all(dir.join("ci")).expect("create scratch ci/");
    let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ci");
    for entry in std::fs::read_dir(&src).expect("read ci/") {
        let path = entry.expect("ci/ entry").path();
        std::fs::copy(&path, dir.join("ci").join(path.file_name().unwrap())).expect("copy ci file");
    }
    dir
}

#[test]
fn an_unknown_flag_is_reported_as_an_option_not_an_experiment() {
    // `--tolerance` was a flag once; a removed or mistyped flag must be
    // named as an option, both before experiments and before gate rows.
    for args in [
        &["--tolerance", "0", "headline"][..],
        &["gate", "--tolerance"][..],
    ] {
        let out = repro().args(args).output().expect("spawn repro");
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown option \"--tolerance\""),
            "{args:?}:\n{stderr}"
        );
    }
}

#[test]
fn unknown_gate_exits_2_and_lists_the_rows() {
    let out = repro()
        .args(["gate", "nope"])
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2), "an unknown gate must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown gate \"nope\""), "{stderr}");
    for row in dohperf_bench::gates::GATES {
        assert!(
            stderr.contains(row.name),
            "stderr must list {}:\n{stderr}",
            row.name
        );
    }
}

#[test]
fn a_flipped_golden_trace_byte_fails_its_gate_by_name() {
    let dir = ci_copy("golden");
    let golden = dir.join("ci/golden-trace.json");
    let mut bytes = std::fs::read(&golden).expect("read golden");
    bytes[100] ^= 1;
    std::fs::write(&golden, bytes).expect("write golden");
    let out = repro()
        .args(["gate", "trace-headline"])
        .current_dir(&dir)
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "a corrupted golden must fail:\n{stderr}"
    );
    assert!(stderr.contains("gate trace-headline: FAILED"), "{stderr}");
    assert!(stderr.contains("ci/golden-trace.json"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_drifted_metrics_baseline_fails_its_gate_with_exit_3() {
    let dir = ci_copy("baseline");
    let baseline = dir.join("ci/baseline-metrics-doh.json");
    let text = std::fs::read_to_string(&baseline).expect("read baseline");
    let key = "\"campaign.doh_queries\": {\"kind\": \"counter\", \"value\": ";
    let at = text.find(key).expect("baseline pins campaign.doh_queries") + key.len();
    let digits = text[at..].find('}').expect("value ends") + at;
    let queries: u64 = text[at..digits].trim().parse().expect("a count");
    let drifted = format!("{}{}{}", &text[..at], queries + 1, &text[digits..]);
    std::fs::write(&baseline, drifted).expect("write baseline");
    let out = repro()
        .args(["gate", "doh"])
        .current_dir(&dir)
        .output()
        .expect("spawn repro");
    assert_eq!(
        out.status.code(),
        Some(3),
        "metrics drift must exit 3:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The number between `prefix` and the next space in `text`.
fn count_after(text: &str, prefix: &str) -> usize {
    let at = text
        .find(prefix)
        .unwrap_or_else(|| panic!("no {prefix:?} in:\n{text}"))
        + prefix.len();
    let digits = text[at..].split(' ').next().expect("a count");
    digits.parse().unwrap_or_else(|e| panic!("{digits:?}: {e}"))
}

#[test]
fn store_export_from_another_store_replaces_a_stale_store() {
    let dir = scratch_dir("export");
    let run = |args: &[&str]| {
        let out = repro()
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("spawn repro");
        assert_eq!(
            out.status.code(),
            Some(0),
            "repro {args:?}:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    // A stale store in the default `target/store`, then the real one.
    run(&[
        "--seed",
        "1",
        "--scale",
        "0.02",
        "--out-format",
        "store",
        "headline",
    ]);
    run(&[
        "--seed",
        "2021",
        "--scale",
        "0.05",
        "--out-format",
        "store",
        "--store-dir",
        "other",
        "headline",
    ]);
    let report = run(&["--from-store", "other", "--out-format", "store", "export"]);

    let clients = count_after(&report, "exported ");
    assert_eq!(count_after(&report, "target/store ("), clients, "{report}");
    let source = dohperf_core::read_dataset(&dir.join("other")).expect("read source store");
    let exported = dohperf_core::read_dataset(&dir.join("target/store")).expect("read export");
    assert_eq!(source.records.len(), clients);
    assert!(
        dohperf_core::export::to_jsonl(&exported) == dohperf_core::export::to_jsonl(&source),
        "target/store does not read back to the exported dataset"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_missing_or_corrupt_store_exits_2_without_a_panic() {
    let dir = scratch_dir("bad-store");
    std::fs::create_dir_all(dir.join("junk")).expect("create junk store");
    std::fs::write(dir.join("junk/manifest.bin"), "junk").expect("write junk manifest");
    // Every chunk and the manifest are well formed, but one client names
    // a country far past the manifest's table.
    let mut ds = small_dataset();
    let bad_index = ds.countries.len() + 1000;
    ds.records[0].country_index = bad_index;
    write_dataset(&ds, &dir.join("bad-index"), 0).expect("write bad-index store");
    for store in ["missing", "junk", "bad-index"] {
        let out = repro()
            .args(["--scale", "0.02", "--threads", "1", "--from-store", store])
            .args(["headline", "fig3", "table3"])
            .current_dir(&dir)
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "--from-store {store}:\n{stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(
            stderr.contains(&format!("error: loading store {store}: ")),
            "{stderr}"
        );
    }
    let out = repro()
        .args(["--from-store", "bad-index", "headline"])
        .current_dir(&dir)
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let client = ds.records[0].client_id;
    assert!(
        stderr.contains(&format!("client {client}: country_index is {bad_index}")),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store records no seed or scale, so a `--from-store` run's stderr
/// header names the store directory, not the CLI's (default) seed and
/// scale; stdout is the direct run's.
#[test]
fn from_store_header_names_the_store_not_the_cli_seed() {
    let dir = scratch_dir("store-header");
    write_dataset(&small_dataset(), &dir.join("s"), 0).expect("write store");
    let run = |args: &[&str]| {
        let out = repro()
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(0), "repro {args:?}:\n{stderr}");
        (String::from_utf8(out.stdout).expect("utf-8 stdout"), stderr)
    };
    let (stored, stderr) = run(&["--from-store", "s", "--threads", "1", "headline"]);
    assert!(
        stderr.contains("# dohperf repro: store s threads 1 — running 1 experiment(s)"),
        "{stderr}"
    );
    assert!(!stderr.contains("seed"), "{stderr}");
    let (direct, stderr) = run(&["--seed", "7", "--scale", "0.02", "headline"]);
    assert!(stderr.contains("# dohperf repro: seed 7 scale 0.02 threads auto"));
    assert_eq!(stored, direct);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The campaign behind `repro --seed 7 --scale 0.02`.
fn small_dataset() -> Dataset {
    Campaign::new(CampaignConfig {
        seed: 7,
        scale: 0.02,
        ..CampaignConfig::default()
    })
    .run()
}

/// `report` collects every `Analysis` row's stdout verbatim, and a store
/// re-derives the same report byte for byte. The title line names only
/// what the dataset holds, so a `--from-store` run without the writing
/// run's `--seed`/`--scale` still writes it unchanged.
#[test]
fn report_holds_every_analysis_row_and_rederives_from_a_store() {
    use dohperf_bench::{Kind, EXPERIMENTS};
    let dir = scratch_dir("report");
    let run_bare = |args: &[&str]| {
        let out = repro()
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("spawn repro");
        assert_eq!(
            out.status.code(),
            Some(0),
            "repro {args:?}:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };
    let run = |args: &[&str]| run_bare(&[&["--seed", "7", "--scale", "0.02"], args].concat());
    let read_report =
        || std::fs::read_to_string(dir.join("target/report.md")).expect("read report.md");
    let report = |args: &[&str]| {
        run(args);
        read_report()
    };
    let rows: Vec<&str> = EXPERIMENTS
        .iter()
        .filter(|e| e.kind == Kind::Analysis)
        .map(|e| e.name)
        .collect();
    let printed = run(&rows);
    let separator = format!("{}\n", "=".repeat(100));
    let blocks: Vec<&str> = printed.split(&separator).skip(1).collect();
    assert_eq!(blocks.len(), rows.len());

    let direct = report(&["report"]);
    assert!(direct.starts_with("# dohperf report: "), "{direct}");
    for (name, block) in rows.iter().zip(&blocks) {
        let section = format!("\n## {name}\n\n```\n{block}```\n");
        assert!(direct.contains(&section), "report lacks {name}:\n{block}");
    }

    run(&["--out-format", "store", "--store-dir", "s", "headline"]);
    assert_eq!(report(&["--from-store", "s", "report"]), direct);
    run_bare(&["--from-store", "s", "report"]);
    assert_eq!(read_report().lines().next(), direct.lines().next());
    let _ = std::fs::remove_dir_all(&dir);
}
