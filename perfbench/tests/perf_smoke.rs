//! `perf run --smoke --trace DIR` runs every workload at scale 0.01 with
//! at most two ops each. It must print every metric `BENCHMARK.json`
//! names, with its unit, for every workload; fail no op; and write one
//! trace per workload holding every per-layer metric.
//!
//! ```sh
//! cargo test --offline --manifest-path perfbench/Cargo.toml
//! ```

use dohperf_telemetry::JsonValue;
use std::path::PathBuf;
use std::process::Command;

fn manifest() -> JsonValue {
    JsonValue::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of one `BENCHMARK.json` section.
fn section(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
    let Some(JsonValue::Array(items)) = doc.get(key) else {
        panic!("{key} is not an array");
    };
    items
        .iter()
        .map(|item| {
            let field = |f| {
                item.get(f)
                    .and_then(JsonValue::as_str)
                    .expect(f)
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn smoke_run_prints_every_metric_and_traces_every_layer() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perf-smoke");
    let _ = std::fs::remove_dir_all(&dir);
    let output = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["run", "--smoke", "--trace"])
        .arg(&dir)
        .output()
        .expect("perf runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(output.status.success(), "perf failed:\n{stdout}");

    let doc = manifest();
    let per_layer = section(&doc, "per_layer");
    let every: Vec<(String, String)> = section(&doc, "end_to_end")
        .into_iter()
        .chain(per_layer.iter().cloned())
        .collect();
    let Some(JsonValue::Array(workloads)) = doc.get("workloads") else {
        panic!("workloads is not an array");
    };
    assert_eq!(workloads.len(), 4);
    for w in workloads {
        let w = w.get("name").and_then(JsonValue::as_str).expect("name");
        // Rows read `workload metric value unit n=<samples>`.
        let row = |metric: &str| {
            stdout.lines().find_map(|line| {
                let f: Vec<&str> = line.split(' ').collect();
                (f.len() >= 5 && f[0] == w && f[1] == metric).then(|| {
                    let value: f64 = f[2].parse().expect("numeric value");
                    (value, f[3].to_string())
                })
            })
        };
        for (metric, unit) in &every {
            let (value, printed) = row(metric).unwrap_or_else(|| panic!("{w} {metric} missing"));
            assert_eq!(&printed, unit, "{w} {metric}");
            assert!(value.is_finite(), "{w} {metric} = {value}");
        }
        assert_eq!(
            row("failed_op_ratio"),
            Some((0.0, "ratio".to_string())),
            "{w}"
        );

        let trace = std::fs::read_to_string(dir.join(format!("trace-{w}.json")))
            .unwrap_or_else(|e| panic!("{w} trace: {e}"));
        let stats = dohperf_telemetry::perfetto::validate_chrome_trace(&trace)
            .unwrap_or_else(|e| panic!("{w} trace: {e}"));
        assert!(stats.complete > 0, "{w} trace has no spans");
        let trace = JsonValue::parse(&trace).expect("trace parses");
        let metrics = trace
            .get("otherData")
            .and_then(|o| o.get("metrics"))
            .expect("otherData.metrics");
        for (metric, unit) in &per_layer {
            let m = metrics
                .get(metric)
                .unwrap_or_else(|| panic!("{w} trace lacks {metric}"));
            assert_eq!(
                m.get("unit").and_then(JsonValue::as_str),
                Some(unit.as_str())
            );
        }
    }
    assert!(
        std::fs::metadata(dir.join("results.json")).is_ok(),
        "results.json written"
    );
}
