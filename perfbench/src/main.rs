//! `perf`: one benchmark for the dohperf workspace — four workloads, each
//! run in processes of its own, with end-to-end and per-layer metrics.
//! See `README.md` next to this crate for the workloads and metrics.
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     run [--workload NAME]... [--seed N] [--trace 0|1|DIR] [--repeat N] [--smoke]
//! ```

mod heap;
mod probes;
mod report;
mod trace;
mod workloads;

use report::{group, json_num, json_str, quantile, Aggregate, Row, RunReport, DEFAULT_OUT};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;
use trace::Span;
use workloads::{ChildOpts, Mode, Workload};

const USAGE: &str = "usage: perf run [--workload NAME]... [--seed N] [--trace 0|1|DIR] \
[--repeat N] [--smoke]
  --workload  legacy-campaign | pageload | store-io | paper-tables (default: all four)
  --seed      base seed; op i of a campaign workload runs seed + i (default 2021)
  --trace     1 or DIR: add a traced run and per-layer metrics; traces go to DIR
              (default perfbench/out); 0: untraced (the default)
  --repeat    run every workload N times in fresh processes and print quartiles
  --smoke     campaign scales 0.01 and at most 2 ops: checks that the benchmark runs
  --seconds   accepted only as BENCHMARK.json's run_seconds, which the fixed op
              counts are sized to";

#[global_allocator]
static HEAP: heap::PeakHeap = heap::PeakHeap;

const DEFAULT_SEED: u64 = 2021;
/// Set-ups timed per workload run, each in a fresh process; `setup_s` is
/// their median.
const SETUPS: usize = 5;

struct RunArgs {
    workloads: Vec<Workload>,
    seed: u64,
    /// `--seconds`, checked against the manifest's `run_seconds`.
    seconds: Option<u64>,
    /// Where traces go; `None` runs untraced.
    trace: Option<PathBuf>,
    repeat: usize,
    smoke: bool,
}

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]) {
            Ok(run_args) => run(&run_args),
            Err(why) => usage_error(&why),
        },
        Some("child") => match parse_child(&args[1..]) {
            Ok(opts) => workloads::child(&opts, started),
            Err(why) => usage_error(&why),
        },
        Some("help" | "--help" | "-h") => {
            println!("{USAGE}");
            0
        }
        _ => usage_error("expected a command"),
    };
    std::process::exit(code);
}

fn usage_error(why: &str) -> i32 {
    eprintln!("perf: {why}\n{USAGE}");
    2
}

/// Walk `--flag value` pairs, handing each to `apply`.
fn parse_flags(
    args: &[String],
    switches: &[&str],
    mut apply: impl FnMut(&str, &str) -> Result<(), String>,
) -> Result<(), String> {
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if switches.contains(&flag.as_str()) {
            apply(flag, "")?;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        apply(flag, value)?;
    }
    Ok(())
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse {value:?}"))
}

fn parse_workload(name: &str) -> Result<Workload, String> {
    Workload::parse(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?} (accepted: {})", names.join(", "))
    })
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: None,
        trace: None,
        repeat: 1,
        smoke: false,
    };
    parse_flags(args, &["--smoke"], |flag, value| {
        match flag {
            "--workload" => run.workloads.push(parse_workload(value)?),
            "--seed" => run.seed = parse_num(flag, value)?,
            "--seconds" => run.seconds = Some(parse_num(flag, value)?),
            "--trace" => {
                run.trace = match value {
                    "0" => None,
                    "1" => Some(PathBuf::from(DEFAULT_OUT)),
                    dir => Some(PathBuf::from(dir)),
                }
            }
            "--repeat" => {
                run.repeat = parse_num(flag, value)?;
                if run.repeat == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
            }
            "--smoke" => run.smoke = true,
            other => return Err(format!("unknown flag {other}")),
        }
        Ok(())
    })?;
    if run.workloads.is_empty() {
        run.workloads = Workload::ALL.to_vec();
    }
    Ok(run)
}

fn parse_child(args: &[String]) -> Result<ChildOpts, String> {
    let mut opts = ChildOpts {
        workload: Workload::LegacyCampaign,
        seed: DEFAULT_SEED,
        smoke: false,
        mode: Mode::Untraced,
        out: PathBuf::from(DEFAULT_OUT),
    };
    parse_flags(args, &["--smoke"], |flag, value| {
        match flag {
            "--workload" => opts.workload = parse_workload(value)?,
            "--seed" => opts.seed = parse_num(flag, value)?,
            "--mode" => {
                opts.mode = Mode::parse(value).ok_or_else(|| format!("unknown mode {value:?}"))?
            }
            "--out" => opts.out = PathBuf::from(value),
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown flag {other}")),
        }
        Ok(())
    })?;
    Ok(opts)
}

/// Run one workload process to completion and parse its report.
fn spawn(
    w: Workload,
    args: &RunArgs,
    out: &std::path::Path,
    mode: Mode,
) -> Result<RunReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating perf: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--mode", mode.name()])
        .arg("--out")
        .arg(out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("{}: starting a workload process: {e}", w.name()))?;
    RunReport::parse(&String::from_utf8_lossy(&output.stdout))
        .map_err(|e| format!("{}: {e} ({})", w.name(), output.status))
}

/// Fold a child's report into the workload's: rows the workload already
/// has keep their first value.
fn absorb(into: &mut RunReport, from: RunReport) {
    for row in from.rows {
        if into.rows.iter().all(|r| r.metric != row.metric) {
            into.rows.push(row);
        }
    }
    into.digests.extend(from.digests);
    into.failures.extend(from.failures);
    into.attempted += from.attempted;
    into.failed += from.failed;
    let base = into.spans.len();
    into.spans.extend(from.spans.into_iter().map(|span| Span {
        parent: span.parent.map(|p| p + base),
        ..span
    }));
}

fn set_row(rows: &mut Vec<Row>, row: Row) {
    match rows.iter_mut().find(|r| r.metric == row.metric) {
        Some(existing) => *existing = row,
        None => rows.push(row),
    }
}

/// One complete run of workload `w`: the set-up-only processes, the
/// untraced process and the memory process, then with `--trace` the traced
/// one. Tracing adds a process and changes none of the others, so the
/// end-to-end metrics are the same with or without it.
fn run_workload(w: Workload, args: &RunArgs, out: &std::path::Path) -> RunReport {
    let setups = if args.smoke { 1 } else { SETUPS };
    let mut merged = RunReport::default();
    let mut setup_s = Vec::new();
    let mut child = |mode: Mode, merged: &mut RunReport| match spawn(w, args, out, mode) {
        Ok(report) => {
            if matches!(mode, Mode::SetupOnly | Mode::Untraced) {
                setup_s.extend(report.value("setup_s"));
            }
            let op_ms = report.value("op_ms.p50");
            absorb(merged, report);
            op_ms
        }
        Err(why) => {
            merged.failures.push(why);
            merged.attempted += 1;
            merged.failed += 1;
            None
        }
    };
    for _ in 1..setups {
        child(Mode::SetupOnly, &mut merged);
    }
    let untraced_ms = child(Mode::Untraced, &mut merged);
    child(Mode::Memory, &mut merged);
    let traced_ms = if args.trace.is_some() {
        child(Mode::Traced, &mut merged)
    } else {
        None
    };
    if !setup_s.is_empty() {
        set_row(
            &mut merged.rows,
            Row {
                metric: "setup_s".to_string(),
                value: report::median(&setup_s),
                unit: "s".to_string(),
                n: setup_s.len(),
            },
        );
    }
    if let (Some(plain), Some(with_spans)) = (untraced_ms, traced_ms) {
        merged.rows.push(Row {
            metric: "telemetry.trace_overhead_pct".to_string(),
            value: 100.0 * (with_spans / plain - 1.0),
            unit: "%".to_string(),
            n: 2,
        });
    }
    merged.rows.push(Row {
        metric: "failed_op_ratio".to_string(),
        value: merged.failed as f64 / merged.attempted.max(1) as f64,
        unit: "ratio".to_string(),
        n: merged.attempted as usize,
    });
    merged
}

/// Everything one workload produced over all repeats.
#[derive(Default)]
struct WorkloadResult {
    rows: Vec<Vec<Row>>,
    digests: Vec<(String, String)>,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
    /// The last traced run's spans.
    spans: Vec<Span>,
}

/// What `perf run` writes to `results.json`, and what failed.
#[derive(Default)]
struct Output {
    rows: Vec<String>,
    digests: Vec<String>,
    failures: Vec<String>,
}

fn run(args: &RunArgs) -> i32 {
    let manifest = match report::manifest() {
        Ok(m) => m,
        Err(why) => {
            eprintln!("perf: {why}");
            return 1;
        }
    };
    if let Some(seconds) = args.seconds.filter(|&s| s != manifest.run_seconds) {
        return usage_error(&format!(
            "--seconds {seconds}: the op counts are fixed and sized to BENCHMARK.json's \
             run_seconds, {}",
            manifest.run_seconds
        ));
    }
    let dir = args
        .trace
        .clone()
        .unwrap_or_else(|| PathBuf::from(DEFAULT_OUT));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perf: creating {}: {e}", dir.display());
        return 1;
    }
    let header = header(args);
    for line in &header {
        println!("# {line}");
    }

    let mut results: BTreeMap<&'static str, WorkloadResult> = BTreeMap::new();
    for r in 0..args.repeat {
        // Alternate the order so no workload always runs first.
        let mut order = args.workloads.clone();
        if r % 2 == 1 {
            order.reverse();
        }
        for w in order {
            eprintln!("# perf: {} (run {} of {})", w.name(), r + 1, args.repeat);
            let report = run_workload(w, args, &dir);
            let result = results.entry(w.name()).or_default();
            result.rows.push(report.rows);
            result.digests.extend(report.digests);
            result.failures.extend(report.failures);
            result.attempted += report.attempted;
            result.failed += report.failed;
            if !report.spans.is_empty() {
                result.spans = report.spans;
            }
        }
    }

    let mut out = Output::default();
    let mut summary_metrics = Vec::new();
    for (name, result) in args
        .workloads
        .iter()
        .filter_map(|w| results.get(w.name()).map(|r| (w.name(), r)))
    {
        let aggregates = group(&result.rows);
        print_rows(name, &aggregates, args.repeat, &mut out);
        check_digests(name, result, &mut out);
        out.failures
            .extend(result.failures.iter().map(|f| format!("{name}: {f}")));
        // Untraced runs print the end-to-end metrics; traced runs add the
        // per-layer ones, and the closing JSON line carries those.
        let mut required: Vec<&(String, String)> = manifest.end_to_end.iter().collect();
        let mut summary = &manifest.end_to_end;
        if let Some(dir) = &args.trace {
            required.extend(&manifest.per_layer);
            summary = &manifest.per_layer;
            write_trace(dir, name, result, &aggregates, &mut out);
        }
        for (metric, unit) in required {
            match aggregates.iter().find(|a| &a.metric == metric) {
                Some(a) if &a.unit == unit && a.median().is_finite() => {}
                Some(a) => out.failures.push(format!(
                    "{name}: {metric} is {} {}, BENCHMARK.json says unit {unit}",
                    a.median(),
                    a.unit
                )),
                None => out
                    .failures
                    .push(format!("{name}: {metric} [{unit}] was not reported")),
            }
        }
        summary_metrics = summary
            .iter()
            .filter_map(|(metric, unit)| {
                let a = aggregates.iter().find(|a| &a.metric == metric)?;
                Some(format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(metric),
                    json_num(a.median()),
                    json_str(unit)
                ))
            })
            .collect();
    }
    let attempted: u64 = results.values().map(|r| r.attempted).sum();
    let failed: u64 = results.values().map(|r| r.failed).sum();
    let path = dir.join("results.json");
    let list = |items: &[String]| items.iter().map(|s| json_str(s)).collect::<Vec<_>>();
    let doc = format!(
        "{{\n\"header\": [{}],\n\"rows\": [\n{}\n],\n\"digests\": [\n{}\n],\n\
         \"failures\": [{}],\n\"attempted\": {attempted},\n\"failed\": {failed}\n}}\n",
        list(&header).join(", "),
        out.rows.join(",\n"),
        out.digests.join(",\n"),
        list(&out.failures).join(", "),
    );
    match std::fs::write(&path, doc) {
        Ok(()) => eprintln!("# perf: rows written to {}", path.display()),
        Err(e) => out
            .failures
            .push(format!("writing {}: {e}", path.display())),
    }
    for f in &out.failures {
        println!("FAIL {f}");
    }

    if let [_] = args.workloads.as_slice() {
        println!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            out.failures.is_empty(),
            summary_metrics.join(", ")
        );
    }
    i32::from(!out.failures.is_empty())
}

/// Print one workload's rows and queue them for `results.json`.
fn print_rows(name: &str, aggregates: &[Aggregate], repeat: usize, out: &mut Output) {
    for a in aggregates {
        let mut line = format!("{name} {} {} {} n={}", a.metric, a.median(), a.unit, a.n);
        if repeat > 1 {
            line += &format!(
                " runs={} q1={} q3={}",
                a.values.len(),
                quantile(&a.values, 0.25),
                quantile(&a.values, 0.75)
            );
        }
        println!("{line}");
        let values: Vec<String> = a.values.iter().map(|v| json_num(*v)).collect();
        out.rows.push(format!(
            "{{\"workload\": {}, \"metric\": {}, \"value\": {}, \"unit\": {}, \"n\": {}, \
             \"values\": [{}]}}",
            json_str(name),
            json_str(&a.metric),
            json_num(a.median()),
            json_str(&a.unit),
            a.n,
            values.join(", ")
        ));
    }
}

/// Print each op's digest once; an op's digest must agree across every
/// process and repeat that ran it.
fn check_digests(name: &str, result: &WorkloadResult, out: &mut Output) {
    let mut seen: Vec<(&str, &str)> = Vec::new();
    for (label, digest) in &result.digests {
        match seen.iter().find(|(l, _)| l == label) {
            Some((_, first)) if first != digest => out.failures.push(format!(
                "{name}: {label} digest {digest} differs from an earlier run's {first}"
            )),
            Some(_) => {}
            None => seen.push((label, digest)),
        }
    }
    for (label, digest) in seen {
        println!("{name} digest {label} {digest}");
        out.digests.push(format!(
            "{{\"workload\": {}, \"op\": {}, \"digest\": {}}}",
            json_str(name),
            json_str(label),
            json_str(digest)
        ));
    }
}

/// Write the workload's spans and metric rows as a Chrome trace.
fn write_trace(
    dir: &std::path::Path,
    name: &str,
    result: &WorkloadResult,
    aggregates: &[Aggregate],
    out: &mut Output,
) {
    let rows: Vec<Row> = aggregates.iter().map(Aggregate::row).collect();
    let doc = trace::chrome_json(name, &result.spans, &rows);
    let path = dir.join(format!("trace-{name}.json"));
    let written = dohperf_telemetry::perfetto::validate_chrome_trace(&doc)
        .and_then(|_| std::fs::write(&path, doc).map_err(|e| e.to_string()));
    match written {
        Ok(()) => eprintln!("# perf: trace written to {}", path.display()),
        Err(why) => out
            .failures
            .push(format!("{name}: trace {}: {why}", path.display())),
    }
}

/// The results header: what ran, where, and how.
fn header(args: &RunArgs) -> Vec<String> {
    let mut lines = vec![
        format!(
            "perf: commit {}, nproc {}, {}, seed {}, repeat {}, trace {}{}",
            report::commit(),
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            report::RUSTC,
            args.seed,
            args.repeat,
            if args.trace.is_some() { "on" } else { "off" },
            if args.smoke { ", smoke" } else { "" },
        ),
        format!(
            "method: closed loop, one caller, a fixed number of ops back to back; {} threads \
             per op; values are medians over ops; setup_s is the median over {} fresh \
             processes; peak_heap_mb covers set-up plus {} op(s); a traced run adds a \
             process of {} ops and changes no end-to-end value",
            workloads::THREADS,
            if args.smoke { 1 } else { SETUPS },
            workloads::MEMORY_OPS,
            workloads::TRACED_OPS,
        ),
    ];
    for w in &args.workloads {
        lines.push(format!("{}: {}", w.name(), w.params(args.smoke)));
    }
    lines
}
