//! `repro` — regenerate every table and figure of *Measuring
//! DNS-over-HTTPS Performance Around the World* (IMC 2021).
//!
//! ```text
//! repro [--seed N] [--scale F] [--threads N] [--shard-size N]
//!       [--metrics PATH] [--baseline PATH]
//!       [--protocols LIST] [--pages N] [--window-hours H]
//!       [--out-format both|csv|jsonl|store]
//!       [--store-dir DIR] [--from-store DIR] [--trace-out PATH]
//!       [--trace-sample N] <experiment>...
//! repro all                    # everything, in paper order
//! repro explain --query ID     # replay one client, annotated timeline
//! repro gate [--bless] [NAME...] # run (or re-bless) the CI gates
//! ```
//!
//! `--protocols do53,doh,dot,doq` (any non-empty subset) additionally
//! measures each listed transport with the full connection-lifecycle
//! model — cold establishment, warm reuse, idle timeout, session-ticket /
//! QUIC 0-RTT resumption — per (client, provider) pair; the `transports`
//! experiment renders the per-protocol headline tables and CDFs. Unknown
//! protocol names exit 2 listing the accepted values. The lifecycle
//! measurements never perturb the legacy DoH/Do53 draws (DESIGN.md §13).
//!
//! `--pages N` (N >= 2) enables the page-load workload: every client
//! resolves one synthetic dependency DAG over each (transport, provider)
//! pair — all queries multiplexed on a single connection with the stub
//! cache in the loop — once cold and N-1 times warm; the `pageload`
//! experiment renders the per-transport PLT tables, paired deltas vs
//! Do53 and cold/warm CDFs. Values below 2 exit 2 (a page needs a cold
//! visit plus at least one revisit). Like `--protocols`, enabling pages
//! never perturbs the legacy draws (DESIGN.md §15).
//!
//! `--window-hours H` (H > 0, fractional allowed) assigns every client a
//! start time inside one simulated day and buckets its measurements into
//! H-hour windows; the `timeline` experiment renders per-(provider,
//! transport) window series — p50/p95/p99 latency, availability,
//! cache-hit rate — and `--metrics` additionally reports scheduler
//! utilization (per-worker busy/idle/steal counters). Windowing never
//! perturbs the legacy draws and the series are byte-identical for any
//! `--threads` / `--shard-size` (DESIGN.md §16).
//!
//! `--trace-out PATH` exports the flight recorder's sampled query traces
//! as Chrome trace-event JSON (open in Perfetto / `chrome://tracing`).
//! `--trace-sample N` (N >= 1) records 1 in N clients (default 16 when
//! `--trace-out` is given); sampling is keyed off each client's RNG
//! stream, so it never perturbs the simulation, and the exported bytes
//! are identical for any `--threads` value.
//!
//! `explain --query ID` replays exactly one client (only its country
//! shard runs) and prints the annotated timeline: every span, the
//! `X-luminati-*` header timestamps, and the Eq 1–8 arithmetic line by
//! line, ending with the stored medians bit-for-bit.
//!
//! `--threads N` (N >= 1) pins the worker count; omitting the flag uses
//! all available cores. The same knob fans out the store decoder under
//! `--from-store` and the independent statistics of the analysis layer
//! (the three bootstrap CIs of `robustness`, the four Table 4 horizons,
//! the Table 5 and Table 6 blocks). Any thread count produces a
//! byte-identical dataset and byte-identical output — see DESIGN.md §2,
//! §14 and §17.
//!
//! `--shard-size N` sets the clients-per-work-unit granularity of the
//! campaign's sub-country sharding (DESIGN.md §14). Smaller shards give
//! the work-stealing pool more to balance; larger shards amortise per-unit
//! setup. It must be >= 1 — unlike `--threads` there is no auto value;
//! omit the flag for the crate default. Any shard size produces a
//! byte-identical dataset.
//!
//! `--out-format store` streams the campaign's records to `--store-dir`
//! (default `target/store`) with memory bounded by the chunk budget, and
//! makes the `export` experiment report the store instead of CSV/JSONL.
//! `--from-store DIR` skips the campaign entirely and re-derives every
//! experiment from a previously written store — byte-identically, since
//! the store round-trips records losslessly (see DESIGN.md §10).
//!
//! `--metrics PATH` writes the telemetry snapshot as stable JSON after the
//! experiments finish and prints the human-readable table to stderr.
//! `--baseline PATH` additionally compares the snapshot's deterministic
//! section against a previously written one, exiting with code 3 when any
//! field of any metric differs (deterministic metrics are exact integers,
//! so the comparison is exact).
//!
//! `gate` runs the rows of `dohperf_bench::gates::GATES`: every
//! byte-identity and metrics gate CI holds the tree to (metrics vs
//! `ci/baseline-metrics*.json`, `--from-store` and thread/shard byte
//! identity, golden traces). `--bless` rewrites the checked-in files
//! instead of comparing against them.
//!
//! Experiments are the rows of `dohperf_bench::EXPERIMENTS`, in paper
//! order; `repro --help` lists them. A row's kind says what it reads:
//! `Analysis` rows render the dataset (so `--from-store` re-derives them
//! and `report` collects them into `target/report.md`), `OwnRuns` rows
//! simulate from the seed alone, and `Artifact` rows write files. A
//! missing or corrupt `--from-store` directory exits 2 before the first
//! row that reads the dataset.

use dohperf_bench::{Kind, OutFormat, ReproConfig, ReproContext, EXPERIMENTS};

fn main() {
    let mut config = ReproConfig::default();
    let mut requested = Vec::new();
    let mut metrics_path: Option<std::path::PathBuf> = None;
    let mut baseline_path: Option<std::path::PathBuf> = None;
    let mut explain_mode = false;
    let mut explain_query: Option<u64> = None;
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("gate") {
        let rest: Vec<String> = args.skip(1).collect();
        std::process::exit(dohperf_bench::gates::run(&rest));
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "explain" => explain_mode = true,
            "--query" => {
                explain_query = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--query needs a client id")),
                );
            }
            "--trace-out" => {
                config.trace_out = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--trace-out needs a path"))
                        .into(),
                );
            }
            "--trace-sample" => {
                config.trace_sample = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &u64| n > 0)
                    .unwrap_or_else(|| usage("--trace-sample needs an integer >= 1"));
            }
            "--metrics" => {
                metrics_path = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--metrics needs a path"))
                        .into(),
                );
            }
            "--baseline" => {
                baseline_path = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--baseline needs a path"))
                        .into(),
                );
            }
            "--seed" => {
                config.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--scale" => {
                config.scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&s: &f64| s > 0.0 && s <= 1.0)
                    .unwrap_or_else(|| usage("--scale needs a float in (0,1]"));
            }
            "--threads" => {
                config.threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .unwrap_or_else(|| {
                        usage("--threads needs an integer >= 1 (omit the flag to use all cores)")
                    });
            }
            "--shard-size" => {
                config.shard_size = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .unwrap_or_else(|| {
                        usage("--shard-size needs an integer >= 1 (clients per work unit)")
                    });
            }
            "--out-format" => {
                config.out_format = args
                    .next()
                    .and_then(|v| OutFormat::parse(&v))
                    .unwrap_or_else(|| usage("--out-format needs both|csv|jsonl|store"));
            }
            "--store-dir" => {
                config.store_dir = args
                    .next()
                    .unwrap_or_else(|| usage("--store-dir needs a path"))
                    .into();
            }
            "--pages" => {
                config.pages = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &u32| n >= 2)
                    .unwrap_or_else(|| {
                        usage("--pages needs an integer >= 2 (one cold visit plus warm revisits)")
                    });
            }
            "--window-hours" => {
                config.window_hours = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&h: &f64| h > 0.0 && h.is_finite())
                    .unwrap_or_else(|| {
                        usage("--window-hours needs a positive number of simulated hours")
                    });
            }
            "--protocols" => {
                let list = args
                    .next()
                    .unwrap_or_else(|| usage("--protocols needs a comma-separated list"));
                config.protocols = dohperf_core::campaign::ProtocolSet::parse_list(&list)
                    .unwrap_or_else(|e| usage(&e));
            }
            "--from-store" => {
                config.from_store = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--from-store needs a path"))
                        .into(),
                );
            }
            "--help" | "-h" => usage(""),
            "all" => requested.extend(EXPERIMENTS),
            other if other.starts_with("--") => usage(&format!("unknown option {other:?}")),
            other => match EXPERIMENTS.iter().find(|e| e.name == other) {
                Some(experiment) => requested.push(experiment),
                None => usage(&format!("unknown experiment {other:?}")),
            },
        }
    }
    if explain_mode {
        if !requested.is_empty() {
            usage("explain takes no experiment names");
        }
        let id = explain_query.unwrap_or_else(|| usage("explain needs --query <client id>"));
        let ctx = ReproContext::new(config);
        match ctx.explain(id) {
            Ok(text) => println!("{text}"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
        return;
    }
    if explain_query.is_some() {
        usage("--query only applies to the explain subcommand");
    }
    if config.trace_out.is_some() && config.trace_sample == 0 {
        config.trace_sample = 16;
    }
    if requested.is_empty() {
        usage("no experiment given");
    }
    // A store records neither the seed nor the scale that wrote it, so a
    // `--from-store` run names its directory instead.
    let source = match &config.from_store {
        Some(dir) => format!("store {}", dir.display()),
        None => format!("seed {} scale {:.2}", config.seed, config.scale),
    };
    eprintln!(
        "# dohperf repro: {source} threads {} — running {} experiment(s)",
        if config.threads == 0 {
            "auto".to_string()
        } else {
            config.threads.to_string()
        },
        requested.len()
    );
    let mut ctx = ReproContext::new(config);
    for experiment in requested {
        // Load the dataset up front, so a missing or corrupt store is a
        // clean exit 2 rather than a panic inside a render.
        if experiment.kind != Kind::OwnRuns {
            if let Err(e) = ctx.try_dataset() {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
        let output = (experiment.render)(&mut ctx);
        println!("{}", "=".repeat(100));
        println!("{output}");
    }

    if metrics_path.is_some() || baseline_path.is_some() {
        // Fold the wall-clock phase profile into the snapshot (as
        // per-run gauges, never baseline-gated) for CI archiving.
        dohperf_telemetry::phases::publish();
        // Allocation accounting: alloc.count / alloc.bytes are per-run,
        // alloc.steady_state_allocs is deterministic and baseline-gated
        // (it stays zero unless a build with `alloc-count` observes a
        // hot-path allocation).
        dohperf_telemetry::alloc::publish();
        let snap = match &metrics_path {
            Some(path) => match dohperf_telemetry::write_snapshot(path) {
                Ok(snap) => {
                    eprintln!("# metrics written to {}", path.display());
                    snap
                }
                Err(e) => {
                    eprintln!("error: writing metrics to {}: {e}", path.display());
                    std::process::exit(2);
                }
            },
            None => dohperf_telemetry::global().snapshot(),
        };
        eprint!("{}", snap.render_table());
        eprint!("{}", dohperf_telemetry::phases::report());
        eprint!("{}", dohperf_telemetry::scheduler::report(&snap));

        if let Some(path) = baseline_path {
            let baseline = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| dohperf_telemetry::Snapshot::from_json(&text))
                .unwrap_or_else(|e| {
                    eprintln!("error: reading baseline {}: {e}", path.display());
                    std::process::exit(2);
                });
            let report = snap.compare_deterministic(&baseline);
            eprint!("{}", report.render());
            if !report.ok() {
                std::process::exit(3);
            }
        }
    }

    // Exit-code propagation for artifact writers and inconsistent
    // inputs: a trace or artifact write failure, or a `--window-hours`
    // the data contradicts, must not leave the process exiting 0.
    let failures = ctx.errors().len();
    if failures > 0 {
        eprintln!("error: {failures} failure(s) during the run (see above)");
        std::process::exit(4);
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: repro [--seed N] [--scale F] [--threads N] [--shard-size N] [--metrics PATH] \
         [--baseline PATH] [--protocols do53,doh,dot,doq] [--pages N] \
         [--window-hours H] [--out-format both|csv|jsonl|store] \
         [--store-dir DIR] [--from-store DIR] [--trace-out PATH] [--trace-sample N] \
         <experiment>...\n       repro all\n       repro explain --query ID\n       \
         repro gate [--bless] [NAME...]\n--threads N: threads for the campaign, the store \
         decoder and the analysis statistics (default: all cores); output is identical at \
         any N\nexperiments: {}",
        EXPERIMENTS
            .iter()
            .map(|e| e.name)
            .collect::<Vec<_>>()
            .join(" ")
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
