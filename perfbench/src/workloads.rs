//! The four workloads, and the process that runs one of them.
//!
//! Each workload is a closed loop: one caller issues a fixed number of ops
//! back to back ([`Workload::ops`], the same on every commit, so every
//! commit measures the same inputs). An op is a fixed amount of work and
//! runs on at most [`THREADS`] threads. Everything outside an op (digests,
//! output checks, registry reads, traced-only layer calls and probes) is
//! left off the clock.

use crate::probes::Probes;
use crate::report::{records_digest, text_digest, Row, RunReport, Samples};
use crate::trace::Tracer;
use dohperf_analysis::covariates;
use dohperf_analysis::{
    country_deltas, fit_linear_models, fit_logistic_models, headline_cis,
    headline_from_store_threads, headline_stats, pop_improvement, provider_cdfs, region_summaries,
    StreamingHeadline,
};
use dohperf_bench::{ReproConfig, ReproContext};
use dohperf_core::campaign::{Campaign, CampaignConfig, ProtocolSet};
use dohperf_core::records::Dataset;
use dohperf_core::store_io::{self, record_from_store, record_to_store};
use dohperf_store::{ChunkWriter, WriterStats, RECORDS_FILE};
use dohperf_telemetry::phases::{self, PhaseStat};
use dohperf_telemetry::{bucket_lower_bound_micros, bucket_upper_bound_micros, Snapshot};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Threads inside one op: this host's core count, passed explicitly so a
/// run never depends on what "auto" resolves to.
pub const THREADS: usize = 2;

/// Scale of the set-up warm-up campaign.
const WARMUP_SCALE: f64 = 0.05;
/// Scale of every campaign in a `--smoke` run.
const SMOKE_SCALE: f64 = 0.01;
/// A `--smoke` run stops after this many ops.
const SMOKE_OPS: u64 = 2;
/// Memory is measured over set-up and this many ops.
pub const MEMORY_OPS: u64 = 1;
/// Ops of a traced process: enough for per-op layer medians, while the
/// end-to-end values come from the untraced process.
pub const TRACED_OPS: u64 = 3;
/// Streaming re-analyses per store-io cycle: with [`Workload::ops`]
/// cycles, about 100 samples, so `reanalysis_ms.p90` has 10 beyond it.
const REANALYSES: usize = 6;
const HOUR_NANOS: u64 = 3_600_000_000_000;

/// Counters whose sum is one campaign op's query count.
const QUERY_COUNTERS: [&str; 4] = [
    "campaign.doh_queries",
    "campaign.do53_queries",
    "campaign.transport_queries",
    "campaign.page_queries",
];

/// Proxy-layer counters reported per op; zeros are reported, not dropped.
const PROXY_COUNTERS: [&str; 8] = [
    "proxy.connect_tunnels",
    "proxy.doh_fast_retransmits",
    "proxy.superproxy_dns_hijacks",
    "proxy.atlas_remedy_queries",
    "proxy.transport_measurements",
    "proxy.transport_resumptions",
    "proxy.quic_loss_stalls",
    "proxy.transport_udp_timeouts",
];

type Experiment = (&'static str, fn(&mut ReproContext) -> String);

/// The dataset-only experiments one paper-tables pass renders.
const EXPERIMENTS: [Experiment; 18] = [
    ("table1", |c| c.table1()),
    ("table2", |c| c.table2()),
    ("table3", |c| c.table3()),
    ("table4", |c| c.table4()),
    ("table5", |c| c.table5()),
    ("table6", |c| c.table6()),
    ("fig3", |c| c.fig3()),
    ("fig4", |c| c.fig4()),
    ("fig5", |c| c.fig5()),
    ("fig6", |c| c.fig6()),
    ("fig7", |c| c.fig7()),
    ("fig8", |c| c.fig8()),
    ("fig9", |c| c.fig9()),
    ("sec4-3", |c| c.sec4_3()),
    ("sec4-4", |c| c.sec4_4()),
    ("headline", |c| c.headline()),
    ("regions", |c| c.regions()),
    ("robustness", |c| c.robustness()),
];

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `Campaign::run`, legacy DoH/Do53 only.
    LegacyCampaign,
    /// `Campaign::run` with two page visits per client.
    Pageload,
    /// Store write, parallel read, and streaming re-analysis.
    StoreIo,
    /// Every dataset-only table and figure, from a cached dataset.
    PaperTables,
}

impl Workload {
    /// Every workload, in the default run order.
    pub const ALL: [Workload; 4] = [
        Workload::LegacyCampaign,
        Workload::Pageload,
        Workload::StoreIo,
        Workload::PaperTables,
    ];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LegacyCampaign => "legacy-campaign",
            Workload::Pageload => "pageload",
            Workload::StoreIo => "store-io",
            Workload::PaperTables => "paper-tables",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ops of an untraced process: about `run_seconds` (10 s) of op time on
    /// a quiet 2-vCPU 2.1 GHz Xeon, fixed so every commit runs the same
    /// seeds. store-io runs longer (~14 s) to collect ~100 re-analyses.
    pub fn ops(self) -> u64 {
        match self {
            Workload::LegacyCampaign => 10,
            Workload::Pageload => 6,
            Workload::StoreIo => 16,
            Workload::PaperTables => 4,
        }
    }

    fn scale(self, smoke: bool) -> f64 {
        match (self, smoke) {
            (_, true) => SMOKE_SCALE,
            (Workload::LegacyCampaign | Workload::StoreIo, false) => 1.0,
            (Workload::Pageload | Workload::PaperTables, false) => 0.25,
        }
    }

    /// The workload's campaign configuration at `scale`.
    fn campaign(self, seed: u64, scale: f64) -> CampaignConfig {
        let base = CampaignConfig {
            seed,
            scale,
            threads: THREADS,
            ..CampaignConfig::default()
        };
        match self {
            Workload::Pageload => CampaignConfig {
                pages_per_client: 2,
                ..base
            },
            Workload::StoreIo => CampaignConfig {
                protocols: ProtocolSet::all(),
                window_nanos: HOUR_NANOS,
                ..base
            },
            Workload::LegacyCampaign | Workload::PaperTables => base,
        }
    }

    /// The workload's parameters, for the results header.
    pub fn params(self, smoke: bool) -> String {
        let scale = self.scale(smoke);
        let op = match self {
            Workload::LegacyCampaign => format!(
                "Campaign::run at scale {scale:?}, legacy DoH/Do53, threads {THREADS}, \
                 op i runs seed + i"
            ),
            Workload::Pageload => format!(
                "Campaign::run at scale {scale:?}, pages_per_client 2, threads {THREADS}, \
                 op i runs seed + i"
            ),
            Workload::StoreIo => format!(
                "write_dataset + read_dataset_threads({THREADS}) + {REANALYSES} x \
                 headline_from_store_threads({THREADS}) over a scale-{scale:?} dataset with \
                 every protocol and 1 h windows"
            ),
            Workload::PaperTables => format!(
                "render the {} dataset-only experiments from a cached scale-{scale:?} \
                 dataset, threads {THREADS}",
                EXPERIMENTS.len()
            ),
        };
        format!("{} ops of {op}", self.op_count(Mode::Untraced, smoke))
    }

    /// Ops a process in `mode` runs.
    fn op_count(self, mode: Mode, smoke: bool) -> u64 {
        let ops = match mode {
            Mode::SetupOnly => 0,
            Mode::Memory => MEMORY_OPS,
            Mode::Untraced => self.ops(),
            Mode::Traced => TRACED_OPS,
        };
        if smoke {
            ops.min(SMOKE_OPS)
        } else {
            ops
        }
    }
}

/// What one workload process measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Set up and report `setup_s`.
    SetupOnly,
    /// Count the live heap through set-up and [`MEMORY_OPS`] ops and report
    /// `peak_heap_mb`; the counting slows allocation, so nothing is timed.
    Memory,
    /// Time the workload's [`Workload::ops`] ops.
    Untraced,
    /// Time [`TRACED_OPS`] ops with spans, per-layer rows and probes.
    Traced,
}

impl Mode {
    const ALL: [Mode; 4] = [Mode::SetupOnly, Mode::Memory, Mode::Untraced, Mode::Traced];

    /// The mode's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Mode::SetupOnly => "setup-only",
            Mode::Memory => "memory",
            Mode::Untraced => "untraced",
            Mode::Traced => "traced",
        }
    }

    /// Look a mode up by name.
    pub fn parse(name: &str) -> Option<Mode> {
        Mode::ALL.into_iter().find(|m| m.name() == name)
    }
}

/// How one workload process runs.
pub struct ChildOpts {
    /// The workload.
    pub workload: Workload,
    /// Base seed: every input derives from it.
    pub seed: u64,
    /// Tiny scales and at most [`SMOKE_OPS`] ops.
    pub smoke: bool,
    /// What to measure.
    pub mode: Mode,
    /// Directory for scratch files.
    pub out: PathBuf,
}

/// One workload's op, its untimed bookkeeping, and its final checks.
trait Runner {
    /// One timed op.
    fn op(&mut self, i: u64, tr: &mut Tracer) -> Result<(), String>;

    /// After op `i` (off the clock): push per-op samples, check the op's
    /// output, and return its digest. Traced runs also push per-layer rows.
    fn after_op(
        &mut self,
        i: u64,
        wall_s: f64,
        delta: &Delta,
        tr: &mut Tracer,
        s: &mut Samples,
    ) -> Result<String, String>;

    /// After the timed loop: checks that need a re-run, and final rows.
    fn finish(&mut self, tr: &mut Tracer, s: &mut Samples) -> Result<(), String>;
}

/// Registry and phase-table state at an op boundary.
struct Boundary {
    registry: Snapshot,
    phases: BTreeMap<String, PhaseStat>,
}

impl Boundary {
    fn now() -> Boundary {
        Boundary {
            registry: dohperf_telemetry::global().snapshot(),
            phases: phases::snapshot(),
        }
    }

    fn since(self, before: &Boundary) -> Delta {
        let phase_ms = self
            .phases
            .iter()
            .map(|(path, stat)| {
                let was = before.phases.get(path).map_or(0, |b| b.total_ns);
                (path.clone(), stat.total_ns.saturating_sub(was) as f64 / 1e6)
            })
            .collect();
        Delta {
            registry: self.registry.since(&before.registry),
            phase_ms,
        }
    }
}

/// What the registry and the phase table recorded during one op.
struct Delta {
    registry: Snapshot,
    phase_ms: BTreeMap<String, f64>,
}

impl Delta {
    fn count(&self, counter: &str) -> f64 {
        self.registry.counter_value(counter).unwrap_or(0) as f64
    }

    fn phase_ms(&self, path: &str) -> f64 {
        self.phase_ms.get(path).copied().unwrap_or(0.0)
    }
}

/// Run `f` in a span and return its result with its wall time in ms.
fn timed<R>(tr: &mut Tracer, layer: &'static str, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let result = tr.span(layer, name, |_| f());
    (result, start.elapsed().as_secs_f64() * 1e3)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

/// Run one workload in this process and print its [`RunReport`]. Returns
/// the process exit code: 1 when any op failed.
pub fn child(opts: &ChildOpts, started: Instant) -> i32 {
    if opts.mode == Mode::Memory {
        crate::heap::start_counting();
    }
    let mut report = RunReport::default();
    let set_up =
        catch_unwind(AssertUnwindSafe(|| setup(opts))).unwrap_or_else(|p| Err(panic_message(p)));
    let mut runner = match set_up {
        Ok(ready) => ready,
        Err(why) => {
            report.failures.push(format!("set-up: {why}"));
            report.attempted = 1;
            report.failed = 1;
            print!("{}", report.to_lines());
            return 1;
        }
    };
    let mut s = Samples::default();
    s.push("setup_s", "s", started.elapsed().as_secs_f64());
    if opts.mode == Mode::SetupOnly {
        report.rows = s.rows();
        print!("{}", report.to_lines());
        return 0;
    }

    let traced = opts.mode == Mode::Traced;
    let mut tr = Tracer::new(traced);
    let mut probes = traced.then(|| Probes::new(opts.seed));
    let ops = opts.workload.op_count(opts.mode, opts.smoke);
    let mut failed_ops = std::collections::BTreeSet::new();
    let mut peak_rss = None;
    for i in 0..ops {
        tr.set_op(i);
        if traced {
            // Per-op shard latencies: the histogram's max cannot be
            // subtracted out of a running total.
            dohperf_telemetry::global()
                .per_run_histogram("campaign.shard_wall_ms")
                .reset();
        }
        let before = Boundary::now();
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            tr.span("bench", "op", |tr| runner.op(i, tr))
        }));
        let wall_s = start.elapsed().as_secs_f64();
        let delta = Boundary::now().since(&before);
        let checked = match outcome {
            Ok(Ok(())) => catch_unwind(AssertUnwindSafe(|| {
                runner.after_op(i, wall_s, &delta, &mut tr, &mut s)
            }))
            .unwrap_or_else(|p| Err(panic_message(p))),
            Ok(Err(why)) => Err(why),
            Err(p) => Err(panic_message(p)),
        };
        match checked {
            Ok(digest) => {
                s.push("op_ms.p50", "ms", wall_s * 1e3);
                report.digests.push((format!("op {i}"), digest));
                if traced {
                    push_shares(&mut s, &tr, i, wall_s * 1e3, &delta);
                }
            }
            Err(why) => {
                report.failures.push(format!("op {i}: {why}"));
                failed_ops.insert(i);
            }
        }
        if let Some(probes) = probes.as_mut() {
            probes.run(&mut tr, &mut s);
        }
        if i + 1 == MEMORY_OPS {
            peak_rss = Some(crate::report::peak_rss_mb());
        }
    }
    report.attempted = ops;

    if opts.mode == Mode::Memory {
        report.rows = vec![Row {
            metric: "peak_heap_mb".to_string(),
            value: crate::heap::peak_mb(),
            unit: "MB".to_string(),
            n: 1,
        }];
    } else {
        match peak_rss.unwrap_or_else(crate::report::peak_rss_mb) {
            Ok(mb) => s.push("peak_rss_mb", "MB", mb),
            Err(why) => report.failures.push(why),
        }
        let finished = catch_unwind(AssertUnwindSafe(|| runner.finish(&mut tr, &mut s)))
            .unwrap_or_else(|p| Err(panic_message(p)));
        if let Err(why) = finished {
            // The final checks re-validate op 0's output.
            report.failures.push(format!("op 0: {why}"));
            failed_ops.insert(0);
        }
        report.rows = s.rows();
    }
    report.failed = failed_ops.len() as u64;
    report.spans = tr.into_spans();
    print!("{}", report.to_lines());
    i32::from(!report.failures.is_empty())
}

/// Every workload's traced run reports the same share rows: the part of
/// the op's wall time each layer's calls took (0 where the op makes none).
fn push_shares(s: &mut Samples, tr: &Tracer, i: u64, wall_ms: f64, delta: &Delta) {
    let pct = |ms: f64| 100.0 * ms / wall_ms;
    for (metric, phase) in [
        ("campaign.topology_build_pct", "topology-build"),
        ("campaign.simulate_pct", "simulate"),
        ("campaign.merge_pct", "merge"),
    ] {
        s.push(metric, "%", pct(delta.phase_ms(phase)));
    }
    for (metric, span) in [
        ("store_io.write_pct", "write_dataset"),
        ("store_io.read_pct", "read_dataset_threads"),
        ("analysis.reanalysis_pct", "headline_from_store_threads"),
    ] {
        s.push(metric, "%", pct(tr.self_ms(i, span)));
    }
    let robustness = tr.self_ms(i, "robustness");
    let experiments: f64 = EXPERIMENTS
        .iter()
        .map(|(name, _)| tr.self_ms(i, name))
        .sum();
    s.push("repro.robustness_pct", "%", pct(robustness));
    s.push("repro.tables_pct", "%", pct(experiments - robustness));
}

/// Set up `opts.workload`: a warm-up campaign at [`WARMUP_SCALE`] so
/// process-wide caches (label arena, latency caches, metric handles) are
/// filled before the first op, then the workload's own input.
fn setup(opts: &ChildOpts) -> Result<Box<dyn Runner>, String> {
    let w = opts.workload;
    let scale = w.scale(opts.smoke);
    let warmup_scale = if opts.smoke {
        SMOKE_SCALE
    } else {
        WARMUP_SCALE
    };
    Campaign::new(w.campaign(opts.seed, warmup_scale)).run();
    let runner: Box<dyn Runner> = match w {
        Workload::LegacyCampaign | Workload::Pageload => Box::new(CampaignRunner {
            config: w.campaign(opts.seed, scale),
            pages: w == Workload::Pageload,
            last: None,
            first: None,
        }),
        Workload::StoreIo => Box::new(StoreRunner {
            ds: Campaign::new(w.campaign(opts.seed, scale)).run(),
            tmp: TempDir::new(&opts.out)?,
            source_digest: None,
            cycle: None,
            headline: None,
        }),
        Workload::PaperTables => {
            let mut ctx = ReproContext::new(ReproConfig {
                seed: opts.seed,
                scale,
                threads: THREADS,
                ..ReproConfig::default()
            });
            ctx.dataset();
            Box::new(TablesRunner {
                ctx,
                seed: opts.seed,
                first: None,
                text: String::new(),
            })
        }
    };
    Ok(runner)
}

/// legacy-campaign and pageload: one `Campaign::run` per op.
struct CampaignRunner {
    config: CampaignConfig,
    pages: bool,
    last: Option<Dataset>,
    /// Op 0's digest and wall seconds, for the thread-count check.
    first: Option<(String, f64)>,
}

impl CampaignRunner {
    fn layer_rows(&self, d: &Delta, queries: f64, visits: f64, s: &mut Samples) {
        for (metric, phase) in [
            ("campaign.topology_build_ms", "topology-build"),
            ("campaign.simulate_ms", "simulate"),
            ("campaign.merge_ms", "merge"),
        ] {
            s.push(metric, "ms", d.phase_ms(phase));
        }
        let workers = dohperf_telemetry::scheduler::workers(&d.registry);
        let sum = |f: fn(&dohperf_telemetry::scheduler::WorkerRow) -> i64| {
            workers.iter().map(f).sum::<i64>() as f64
        };
        s.push("campaign.worker_busy_ms", "ms", sum(|w| w.busy_ms));
        s.push("campaign.worker_idle_ms", "ms", sum(|w| w.idle_ms));
        s.push("campaign.steals", "count", sum(|w| w.steals));
        if let Some(h) = d.registry.histogram("campaign.shard_wall_ms") {
            s.push("campaign.shard_wall_ms.p50", "ms", histogram_median_ms(h));
            s.push(
                "campaign.shard_wall_ms.max",
                "ms",
                h.max_micros as f64 / 1e3,
            );
        }
        for counter in PROXY_COUNTERS {
            s.push(counter, "count", d.count(counter));
        }
        let events = d.count("netsim.events_dispatched");
        s.push("netsim.events_dispatched", "count", events);
        s.push(
            "netsim.events_per_query",
            "ratio",
            events / queries.max(1.0),
        );
        s.push(
            "netsim.udp_retry_timeouts",
            "count",
            d.count("netsim.udp_retry_timeouts"),
        );
        s.push("netsim.fault_drops", "count", d.count("netsim.fault_drops"));
        let (hits, misses) = (d.count("cache.hits"), d.count("cache.misses"));
        s.push(
            "dnswire.cache_hit_ratio",
            "ratio",
            hits / (hits + misses).max(1.0),
        );
        s.push(
            "dnswire.cache_evictions",
            "count",
            d.count("cache.evictions"),
        );
        if self.pages {
            s.push("pageload.visits", "count", visits);
            s.push(
                "pageload.queries_per_page",
                "ratio",
                d.count("campaign.page_queries") / visits.max(1.0),
            );
            s.push(
                "pageload.tcp_stalls",
                "count",
                d.count("campaign.page_tcp_stalls"),
            );
        }
    }
}

/// Median of a power-of-two histogram, interpolated linearly inside the
/// bucket that holds it.
fn histogram_median_ms(h: &dohperf_telemetry::HistogramSnapshot) -> f64 {
    let half = h.count as f64 / 2.0;
    let mut below = 0.0;
    for (&bucket, &n) in &h.buckets {
        let n = n as f64;
        if below + n >= half {
            let lo = bucket_lower_bound_micros(bucket) as f64;
            let hi = (bucket_upper_bound_micros(bucket) as f64).min(h.max_micros as f64);
            return (lo + (hi - lo) * (half - below) / n) / 1e3;
        }
        below += n;
    }
    0.0
}

impl Runner for CampaignRunner {
    fn op(&mut self, i: u64, tr: &mut Tracer) -> Result<(), String> {
        let config = CampaignConfig {
            seed: self.config.seed + i,
            ..self.config
        };
        let ds = tr.span("core.campaign", "Campaign::run", |_| {
            Campaign::new(config).run()
        });
        self.last = Some(ds);
        Ok(())
    }

    fn after_op(
        &mut self,
        i: u64,
        wall_s: f64,
        d: &Delta,
        tr: &mut Tracer,
        s: &mut Samples,
    ) -> Result<String, String> {
        let ds = self
            .last
            .take()
            .expect("a successful op leaves its dataset");
        let measured = d.count("campaign.clients_measured");
        if ds.records.len() as f64 != measured {
            return Err(format!(
                "{} records, but campaign.clients_measured rose by {measured}",
                ds.records.len()
            ));
        }
        let queries: f64 = QUERY_COUNTERS.iter().map(|c| d.count(c)).sum();
        let visits = d.count("campaign.page_visits");
        s.push("queries_per_s", "1/s", queries / wall_s);
        if self.pages {
            s.push("pages_per_s", "1/s", visits / wall_s);
        }
        if tr.on() {
            self.layer_rows(d, queries, visits, s);
        }
        let digest = records_digest(&ds.records);
        if i == 0 {
            self.first = Some((digest.clone(), wall_s));
        }
        Ok(digest)
    }

    /// Re-run op 0 on one thread: its records must be bit-identical.
    fn finish(&mut self, tr: &mut Tracer, s: &mut Samples) -> Result<(), String> {
        let Some((digest, wall_s)) = self.first.take() else {
            return Ok(());
        };
        let start = Instant::now();
        let serial = Campaign::new(CampaignConfig {
            threads: 1,
            ..self.config
        })
        .run();
        if tr.on() {
            s.push(
                "campaign.scaling_2v1",
                "ratio",
                start.elapsed().as_secs_f64() / wall_s,
            );
        }
        let serial_digest = records_digest(&serial.records);
        if serial_digest != digest {
            return Err(format!(
                "threads 1 digest {serial_digest} differs from threads {THREADS} digest {digest}"
            ));
        }
        Ok(())
    }
}

/// A scratch directory inside the output directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(parent: &Path) -> Result<TempDir, String> {
        let path = parent.join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(TempDir(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one store-io cycle produced.
struct Cycle {
    stats: WriterStats,
    write_ms: f64,
    read: Dataset,
    read_ms: f64,
    headlines: Vec<(String, f64)>,
}

/// store-io: write the dataset to a fresh directory, read it back on
/// [`THREADS`] threads, and re-derive the headline from it [`REANALYSES`]
/// times.
struct StoreRunner {
    ds: Dataset,
    tmp: TempDir,
    source_digest: Option<String>,
    cycle: Option<Cycle>,
    /// The first streaming headline, which every later one must equal.
    headline: Option<String>,
}

impl StoreRunner {
    fn dir(&self) -> PathBuf {
        self.tmp.0.join("cycle")
    }

    fn check_cycle(
        &mut self,
        cycle: &Cycle,
        tr: &mut Tracer,
        s: &mut Samples,
    ) -> Result<String, String> {
        let mb = cycle.stats.bytes as f64 / 1e6;
        s.push("store_write_mb_s", "MB/s", mb / (cycle.write_ms / 1e3));
        s.push("store_read_mb_s", "MB/s", mb / (cycle.read_ms / 1e3));
        for (_, ms) in &cycle.headlines {
            s.push_quantile("reanalysis_ms.p50", "ms", 0.5, *ms);
            s.push_quantile("reanalysis_ms.p90", "ms", 0.9, *ms);
        }

        let source = self
            .source_digest
            .get_or_insert_with(|| records_digest(&self.ds.records))
            .clone();
        let digest = records_digest(&cycle.read.records);
        let (a, b) = (&cycle.read, &self.ds);
        if digest != source
            || a.records != b.records
            || a.countries != b.countries
            || a.atlas_do53_ms != b.atlas_do53_ms
            || a.discarded_mismatches != b.discarded_mismatches
            || (a.observed_ases, a.observed_resolvers) != (b.observed_ases, b.observed_resolvers)
        {
            return Err(format!(
                "read_dataset_threads returned a dataset (digest {digest}) that differs from \
                 the one written (digest {source})"
            ));
        }
        for (headline, _) in &cycle.headlines {
            let reference = self.headline.get_or_insert_with(|| headline.clone());
            if headline != reference {
                return Err("a streaming headline differs from the first one".to_string());
            }
        }
        if tr.on() {
            self.layer_rows(cycle, tr, s)?;
        }
        Ok(digest)
    }

    /// Split the cycle's write and read into layers by calling each layer
    /// alone on the same data.
    fn layer_rows(&self, cycle: &Cycle, tr: &mut Tracer, s: &mut Samples) -> Result<(), String> {
        let (records, to_store_ms) = timed(tr, "core.store_io", "record_to_store", || {
            self.ds
                .records
                .iter()
                .map(record_to_store)
                .collect::<Vec<_>>()
        });
        let mut encoded = Vec::with_capacity(cycle.stats.bytes as usize);
        let (written, encode_ms) = timed(tr, "store", "ChunkWriter::new", || {
            let mut writer = ChunkWriter::new(&mut encoded, 0);
            for r in records {
                writer.push(r)?;
            }
            writer.finish()
        });
        written.map_err(|e| format!("encoding into memory: {e}"))?;
        let file = std::fs::read(self.dir().join(RECORDS_FILE))
            .map_err(|e| format!("reading {RECORDS_FILE}: {e}"))?;
        if file != encoded {
            return Err("ChunkWriter::new bytes differ from write_dataset's file".to_string());
        }
        let (decoded, decode_ms) = timed(tr, "store", "fold_chunks", || {
            let mut out = Vec::with_capacity(cycle.read.records.len());
            dohperf_store::fold_chunks(
                &file[..],
                THREADS,
                |_, batch| Ok(batch),
                |batch| {
                    out.extend(batch);
                    Ok(())
                },
            )
            .map(|_| out)
        });
        let decoded = decoded.map_err(|e| format!("decoding in memory: {e}"))?;
        let (converted, from_store_ms) = timed(tr, "core.store_io", "record_from_store", || {
            decoded
                .iter()
                .map(record_from_store)
                .collect::<Result<Vec<_>, _>>()
        });
        converted.map_err(|e| format!("record_from_store: {e}"))?;
        let (_, fold_ms) = timed(tr, "analysis", "StreamingHeadline", || {
            let mut acc = StreamingHeadline::new();
            for r in &cycle.read.records {
                acc.observe(r);
            }
            acc.finish(&cycle.read.atlas_do53_ms)
        });
        s.push("store_io.to_store_ms", "ms", to_store_ms);
        s.push("store.encode_ms", "ms", encode_ms);
        s.push(
            "store.file_write_ms",
            "ms",
            cycle.write_ms - to_store_ms - encode_ms,
        );
        s.push("store.decode_ms", "ms", decode_ms);
        s.push("store_io.from_store_ms", "ms", from_store_ms);
        s.push(
            "store.file_read_ms",
            "ms",
            cycle.read_ms - decode_ms - from_store_ms,
        );
        s.push(
            "store.bytes_per_record",
            "B",
            cycle.stats.bytes as f64 / cycle.stats.records.max(1) as f64,
        );
        s.push("store.chunks", "count", cycle.stats.chunks as f64);
        s.push("analysis.stream_fold_ms", "ms", fold_ms);
        Ok(())
    }
}

impl Runner for StoreRunner {
    fn op(&mut self, _i: u64, tr: &mut Tracer) -> Result<(), String> {
        let dir = self.dir();
        let (stats, write_ms) = timed(tr, "core.store_io", "write_dataset", || {
            store_io::write_dataset(&self.ds, &dir, 0)
        });
        let stats = stats.map_err(|e| format!("write_dataset: {e}"))?;
        let (read, read_ms) = timed(tr, "core.store_io", "read_dataset_threads", || {
            store_io::read_dataset_threads(&dir, THREADS)
        });
        let read = read.map_err(|e| format!("read_dataset_threads: {e}"))?;
        let mut headlines = Vec::with_capacity(REANALYSES);
        for _ in 0..REANALYSES {
            let (headline, ms) = timed(tr, "analysis", "headline_from_store_threads", || {
                headline_from_store_threads(&dir, THREADS)
            });
            let headline = headline.map_err(|e| format!("headline_from_store_threads: {e}"))?;
            headlines.push((format!("{headline:?}"), ms));
        }
        self.cycle = Some(Cycle {
            stats,
            write_ms,
            read,
            read_ms,
            headlines,
        });
        Ok(())
    }

    fn after_op(
        &mut self,
        _i: u64,
        _wall_s: f64,
        _d: &Delta,
        tr: &mut Tracer,
        s: &mut Samples,
    ) -> Result<String, String> {
        let cycle = self.cycle.take().expect("a successful op leaves its cycle");
        let checked = self.check_cycle(&cycle, tr, s);
        // The next cycle writes into a fresh directory.
        let _ = std::fs::remove_dir_all(self.dir());
        checked
    }

    /// The streaming headline on one decoder thread must equal the
    /// [`THREADS`]-thread ones.
    fn finish(&mut self, _tr: &mut Tracer, _s: &mut Samples) -> Result<(), String> {
        let Some(reference) = self.headline.clone() else {
            return Ok(());
        };
        let dir = self.tmp.0.join("check");
        store_io::write_dataset(&self.ds, &dir, 0).map_err(|e| format!("write_dataset: {e}"))?;
        let serial = headline_from_store_threads(&dir, 1)
            .map_err(|e| format!("headline_from_store_threads: {e}"))?;
        let _ = std::fs::remove_dir_all(&dir);
        if format!("{serial:?}") != reference {
            return Err("the threads-1 streaming headline differs".to_string());
        }
        Ok(())
    }
}

/// paper-tables: render every dataset-only experiment from the cached
/// dataset; each pass must render the same bytes.
struct TablesRunner {
    ctx: ReproContext,
    seed: u64,
    first: Option<String>,
    text: String,
}

impl TablesRunner {
    /// Time the analysis functions the experiments call, one at a time.
    fn layer_rows(&mut self, tr: &mut Tracer, s: &mut Samples) {
        let seed = self.seed;
        let ds = self.ctx.dataset();
        let mut time = |layer, metric: &str, f: &mut dyn FnMut()| {
            let (_, ms) = timed(tr, layer, metric, f);
            s.push(metric, "ms", ms);
        };
        time("analysis", "analysis.headline_stats_ms", &mut || {
            std::hint::black_box(headline_stats(ds));
        });
        time("analysis", "analysis.country_deltas_ms", &mut || {
            std::hint::black_box(country_deltas(ds, 10));
        });
        let mut cov = None;
        time("analysis", "analysis.covariates_ms", &mut || {
            cov = Some(covariates::build(ds))
        });
        let cov = cov.expect("built above");
        time("analysis", "analysis.linear_models_ms", &mut || {
            std::hint::black_box(fit_linear_models(&cov));
        });
        time("analysis", "analysis.logistic_models_ms", &mut || {
            std::hint::black_box(fit_logistic_models(&cov));
        });
        time("analysis", "analysis.provider_cdfs_ms", &mut || {
            std::hint::black_box(provider_cdfs(ds));
        });
        time("analysis", "analysis.region_summaries_ms", &mut || {
            std::hint::black_box(region_summaries(ds));
        });
        time("analysis", "analysis.pop_improvement_ms", &mut || {
            std::hint::black_box(pop_improvement(ds));
        });
        time("stats", "stats.median_ci_ms", &mut || {
            std::hint::black_box(headline_cis(ds, seed));
        });
    }
}

impl Runner for TablesRunner {
    fn op(&mut self, _i: u64, tr: &mut Tracer) -> Result<(), String> {
        let mut text = String::new();
        for (name, render) in EXPERIMENTS {
            text += &tr.span("bench.repro", name, |_| render(&mut self.ctx));
        }
        self.text = text;
        Ok(())
    }

    fn after_op(
        &mut self,
        i: u64,
        wall_s: f64,
        _d: &Delta,
        tr: &mut Tracer,
        s: &mut Samples,
    ) -> Result<String, String> {
        s.push("tables_s.p50", "s", wall_s);
        let text = std::mem::take(&mut self.text);
        let digest = text_digest(&text);
        match &self.first {
            None => self.first = Some(text),
            Some(first) if *first != text => {
                return Err(format!("pass {i} rendered different text than pass 0"));
            }
            Some(_) => {}
        }
        if tr.on() {
            for (name, _) in EXPERIMENTS {
                s.push(&format!("repro.{name}_ms"), "ms", tr.self_ms(i, name));
            }
            self.layer_rows(tr, s);
        }
        Ok(digest)
    }

    fn finish(&mut self, _tr: &mut Tracer, _s: &mut Samples) -> Result<(), String> {
        Ok(())
    }
}
