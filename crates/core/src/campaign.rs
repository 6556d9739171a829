//! The full measurement campaign (§3.1, §5.1).
//!
//! For every country in the population model, the campaign requests exit
//! nodes from the BrightData network and, per client, performs five
//! requests per run: one DoH measurement against each of the four public
//! providers plus one Do53 measurement against the client's default
//! resolver, with two runs per client (§5.1). Fresh UUID subdomains
//! defeat caching throughout. Post-processing applies the Maxmind
//! mismatch discard and the RIPE Atlas remedy.
//!
//! # Determinism contract
//!
//! `seed -> Dataset` is a pure function. The campaign is sharded at
//! sub-country granularity: each work unit is a contiguous client-ID
//! *range* of one country (`[start, end)` in-country offsets), computed
//! by prefix-summing the per-country client counts and slicing each
//! country every [`CampaignConfig::shard_size`] clients. Every client is
//! simulated inside its own *epoch* — the simulator clock rewinds to
//! zero and the jitter/engine RNG streams are re-seeded from a fork keyed
//! by the globally stable client ID — and every per-client node id is
//! anchored at `base_nodes + 2 * offset`, so a client's measurement is a
//! pure function of `(seed, country, client_id)` no matter which range,
//! worker, or split boundary it lands behind. Workers own contiguous
//! blocks of ranges in work-stealing queues (idle workers drain the tail
//! of large countries), and range results merge back in canonical order,
//! so the resulting [`Dataset`] is byte-identical for any
//! [`CampaignConfig::threads`] *and* any [`CampaignConfig::shard_size`]
//! value — both are throughput knobs, never output knobs.

use crate::equations::{
    derive_transport_cold_ms, derive_transport_handshake_ms, derive_transport_resumed_ms,
    derive_transport_warm_ms, record_derivation, record_transport_derivation, DerivationBatch,
};
use crate::pageload;
use crate::records::{
    ClientRecord, Dataset, Do53Source, DohSample, PageSample, TransportSample, WindowSample,
};
use crate::store_io;
use crate::testbed::{format_subdomain, Testbed, SUBDOMAIN_BUF_LEN};
use dohperf_netsim::connection::DnsTransport;
use dohperf_netsim::rng::{fnv1a, splitmix64, SimRng};
use dohperf_netsim::topology::GeoPoint;
use dohperf_providers::anycast::AnycastPolicy;
use dohperf_providers::pops::{PopDeployment, PopRanking};
use dohperf_providers::provider::ALL_PROVIDERS;
use dohperf_proxy::atlas::AtlasNetwork;
use dohperf_proxy::exitnode::ExitNode;
use dohperf_proxy::network::MeasurementOptions;
use dohperf_proxy::superproxy::SuperProxy;
use dohperf_stats::desc::median_in_place;
use dohperf_store::{
    ChunkWriter, Manifest, WriterStats, DEFAULT_CHUNK_BUDGET, MANIFEST_FILE, RECORDS_FILE,
};
use dohperf_telemetry::flight::{self, QueryTrace, TraceId};
use dohperf_telemetry::phases;
use dohperf_world::countries::Country;
use dohperf_world::geoloc::GeolocationService;
use dohperf_world::population::PopulationModel;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Which transports the campaign measures through the
/// connection-lifecycle model, as a bitset over [`DnsTransport::ALL`].
///
/// The legacy DoH/Do53 measurements always run; this set *adds* the
/// per-(transport, provider) cold/warm/resumed lifecycle samples
/// (DESIGN.md §13). The default is the empty set, which keeps legacy
/// campaigns byte-identical — no extra RNG forks are taken, no extra
/// simulation time elapses, and [`ClientRecord::transports`] stays
/// empty.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProtocolSet(u8);

impl ProtocolSet {
    /// The legacy-only campaign: no lifecycle measurements.
    pub const EMPTY: ProtocolSet = ProtocolSet(0);

    fn bit(t: DnsTransport) -> u8 {
        1 << (t as u8)
    }

    /// All four transports (`do53,doh,dot,doq`).
    pub fn all() -> ProtocolSet {
        DnsTransport::ALL
            .iter()
            .fold(ProtocolSet::EMPTY, |set, &t| set.with(t))
    }

    /// This set plus one transport.
    #[must_use]
    pub fn with(self, t: DnsTransport) -> ProtocolSet {
        ProtocolSet(self.0 | Self::bit(t))
    }

    /// Whether the set includes `t`.
    pub fn contains(self, t: DnsTransport) -> bool {
        self.0 & Self::bit(t) != 0
    }

    /// Whether no lifecycle measurements are requested (the legacy
    /// default).
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of transports in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterate the members in canonical [`DnsTransport::ALL`] order —
    /// the measurement (and therefore record) order.
    pub fn iter(self) -> impl Iterator<Item = DnsTransport> {
        DnsTransport::ALL
            .into_iter()
            .filter(move |&t| self.contains(t))
    }

    /// Parse a comma-separated protocol list (`"do53,doh,dot,doq"`).
    /// Unknown names are an error carrying the accepted list, so CLI
    /// typos fail loudly instead of silently measuring nothing.
    pub fn parse_list(s: &str) -> Result<ProtocolSet, String> {
        let mut set = ProtocolSet::EMPTY;
        for token in s.split(',') {
            let token = token.trim();
            if token.is_empty() {
                continue;
            }
            match DnsTransport::parse(token) {
                Some(t) => set = set.with(t),
                None => {
                    return Err(format!(
                        "unknown protocol {token:?} (accepted: do53, doh, dot, doq)"
                    ))
                }
            }
        }
        Ok(set)
    }
}

/// Default clients per work unit when [`CampaignConfig::shard_size`] is 0.
///
/// Small enough that the largest countries split into dozens of
/// stealable ranges (the US alone holds thousands of clients at scale
/// 1.0), large enough that per-range setup (testbed assembly, geoloc
/// service) stays well under a percent of the range's simulation work.
const DEFAULT_SHARD_SIZE: usize = 256;

/// Campaign parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// Master seed; everything descends from it.
    pub seed: u64,
    /// Fraction of the sampled population to actually measure, in
    /// (0, 1]. `1.0` reproduces the paper's 22k-client scale; smaller
    /// values give fast CI runs with the same per-country coverage floor.
    pub scale: f64,
    /// Measurement runs per client (paper: 2).
    pub runs_per_client: u32,
    /// Geolocation mislabeling rate (paper observed 0.88% discards).
    pub geoloc_error_rate: f64,
    /// Atlas probes per remedy country.
    pub atlas_probes_per_country: usize,
    /// Atlas Do53 samples per remedy country.
    pub atlas_samples_per_country: usize,
    /// Measurement-level ablation knobs (TLS version, cache hits).
    pub measurement: MeasurementOptions,
    /// Ablation: replace every provider's anycast policy with perfect
    /// nearest-PoP routing, isolating how much of the DoH slowdown is
    /// routing inefficiency (§7's "providers should ensure clients take
    /// full advantage of nearby PoPs").
    pub perfect_anycast: bool,
    /// Worker threads for the campaign (0 = available parallelism).
    /// Any value yields a byte-identical [`Dataset`]; see the module-level
    /// determinism contract.
    pub threads: usize,
    /// Maximum clients per work unit (0 = the default, 256).
    /// Countries larger than this split into multiple client-ID ranges
    /// that idle workers can steal. Like `threads`, any value yields a
    /// byte-identical [`Dataset`]; see the module-level determinism
    /// contract.
    pub shard_size: usize,
    /// Extra transports measured through the connection-lifecycle model
    /// (empty = legacy DoH/Do53 only; see [`ProtocolSet`]).
    pub protocols: ProtocolSet,
    /// Page visits per (client, transport, provider) triple for the
    /// page-load workload (DESIGN.md §15): one cold visit plus
    /// `pages_per_client - 1` warm revisits. `0` disables the workload
    /// (the legacy default); any enabled value must be at least 2 so
    /// every page has both a cold and a warm PLT.
    pub pages_per_client: u32,
    /// Simulated-time window width in nanoseconds for the windowed
    /// observability series (DESIGN.md §16). `0` disables windowing (the
    /// legacy default): no window samples, no `window.*` metrics, and
    /// byte-identical legacy outputs. When enabled, each client draws a
    /// campaign-time slot from a fresh fork of its own RNG stream (forks
    /// never advance the parent, so windowing never perturbs any
    /// measured sample) and all of its measurements are summarised into
    /// per-(provider, transport) [`crate::records::WindowSample`]s for
    /// that window.
    pub window_nanos: u64,
}

/// Simulated span the windowed series covers: clients are assigned a
/// start time uniformly inside one simulated day, mirroring the paper's
/// day-long vantage-point rotation (§3.1).
pub const CAMPAIGN_DURATION_NANOS: u64 = 24 * 3_600_000_000_000;

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 2021,
            scale: 1.0,
            runs_per_client: 2,
            geoloc_error_rate: 0.0088,
            atlas_probes_per_country: 10,
            atlas_samples_per_country: 250,
            measurement: MeasurementOptions::default(),
            perfect_anycast: false,
            threads: 0,
            shard_size: 0,
            protocols: ProtocolSet::EMPTY,
            pages_per_client: 0,
            window_nanos: 0,
        }
    }
}

impl CampaignConfig {
    /// The clients-per-work-unit granularity actually used (resolves the
    /// `0 = default` convention of [`CampaignConfig::shard_size`]).
    fn effective_shard_size(&self) -> usize {
        if self.shard_size == 0 {
            DEFAULT_SHARD_SIZE
        } else {
            self.shard_size
        }
    }

    /// A reduced-scale config for tests and examples (~10% of clients,
    /// one run each, fewer Atlas samples).
    pub fn quick(seed: u64) -> Self {
        CampaignConfig {
            seed,
            scale: 0.1,
            runs_per_client: 1,
            atlas_probes_per_country: 4,
            atlas_samples_per_country: 25,
            ..CampaignConfig::default()
        }
    }
}

/// The campaign driver.
///
/// ```no_run
/// use dohperf_core::campaign::{Campaign, CampaignConfig};
/// // Reduced scale for examples; scale 1.0 reproduces the paper's 22k clients.
/// let dataset = Campaign::new(CampaignConfig::quick(42)).run();
/// assert!(dataset.countries.len() >= 224);
/// ```
pub struct Campaign {
    config: CampaignConfig,
    flight: Option<FlightPlan>,
}

/// Flight-recorder wiring for a campaign run. Lives on [`Campaign`] rather
/// than [`CampaignConfig`] because it holds collection state, not knobs
/// that define the dataset (tracing never changes the dataset).
struct FlightPlan {
    /// Record 1 in N clients (0 disables probabilistic sampling).
    sample_every: u64,
    /// Record exactly this client, regardless of sampling (explain mode).
    only_client: Option<u64>,
    /// Completed traces, pushed by worker threads; sorted by client id
    /// when taken so the output is thread-count invariant.
    collected: Mutex<Vec<QueryTrace>>,
    /// Explain mode: the targeted client's record and whether the Maxmind
    /// filter retained it.
    explained: Mutex<Option<(ClientRecord, bool)>>,
}

impl FlightPlan {
    fn disabled() -> Self {
        FlightPlan {
            sample_every: 0,
            only_client: None,
            collected: Mutex::new(Vec::new()),
            explained: Mutex::new(None),
        }
    }

    /// Should this client be recorded? `fork_draw` is the client's
    /// dedicated `trace-sample` fork draw.
    fn records(&self, client_id: u64, fork_draw: u64) -> bool {
        self.only_client == Some(client_id) || flight::sampled(fork_draw, self.sample_every)
    }
}

/// Everything `repro explain` needs about one replayed client.
pub struct ClientExplain {
    /// The client's measured record, exactly as the full campaign
    /// computes it (same RNG lineage, bit-identical medians).
    pub record: ClientRecord,
    /// Whether the Maxmind mismatch filter kept the record.
    pub retained: bool,
    /// The client's full span tree.
    pub trace: QueryTrace,
}

impl Campaign {
    /// Create a campaign with the given configuration.
    pub fn new(config: CampaignConfig) -> Self {
        assert!(config.scale > 0.0 && config.scale <= 1.0, "scale in (0,1]");
        assert!(config.runs_per_client >= 1);
        Campaign {
            config,
            flight: None,
        }
    }

    /// Arm the flight recorder for 1-in-`every` clients. The sampling
    /// decision is a position-independent fork of each client's RNG
    /// stream, so arming (or changing `every`) never perturbs the
    /// simulation — only which clients leave a trace behind.
    pub fn with_trace_sampling(mut self, every: u64) -> Self {
        if every > 0 {
            let plan = self.flight.get_or_insert_with(FlightPlan::disabled);
            plan.sample_every = every;
        }
        self
    }

    /// Arm the flight recorder for exactly one client (explain mode).
    fn with_trace_client(mut self, client_id: u64) -> Self {
        let plan = self.flight.get_or_insert_with(FlightPlan::disabled);
        plan.only_client = Some(client_id);
        self
    }

    /// Drain the traces collected by the last run, in client-id order
    /// (client ids are globally ordered by canonical country, so this is
    /// the sequential-walk order for any thread count).
    pub fn take_traces(&self) -> Vec<QueryTrace> {
        let Some(plan) = &self.flight else {
            return Vec::new();
        };
        let mut traces = std::mem::take(&mut *plan.collected.lock().unwrap());
        traces.sort_by_key(|t| t.client_id);
        traces
    }

    /// Replay exactly one client and return its record plus span tree.
    ///
    /// Runs a single-client range — per-client simulation epochs make
    /// every client self-contained, so the replayed record is
    /// bit-identical to the one a full campaign at the same config
    /// produces. Returns `None` if the id is outside the campaign's
    /// client range.
    pub fn explain_client(config: CampaignConfig, client_id: u64) -> Option<ClientExplain> {
        let campaign = Campaign::new(config).with_trace_client(client_id);
        let plan = campaign.plan();
        let country = (0..plan.counts.len()).find(|&i| {
            client_id > plan.bases[i] && client_id <= plan.bases[i] + plan.counts[i] as u64
        })?;
        let offset = (client_id - plan.bases[country] - 1) as usize;
        let spec = ShardSpec {
            country,
            start: offset,
            end: offset + 1,
        };
        campaign
            .run_range(&plan, spec, &mut DiscardSink)
            .expect("the discarding sink never fails");
        let flight = campaign.flight.as_ref().expect("armed above");
        let (record, retained) = flight.explained.lock().unwrap().take()?;
        let trace = std::mem::take(&mut *flight.collected.lock().unwrap()).pop()?;
        Some(ClientExplain {
            record,
            retained,
            trace,
        })
    }

    /// Run the full campaign, returning the dataset.
    ///
    /// The dataset is a pure function of the seed: work is sharded into
    /// per-country client-ID ranges across [`CampaignConfig::threads`]
    /// work-stealing workers, every client derives its own RNG lineage
    /// from the master seed, and results merge in canonical order, so any
    /// thread count and any shard size produce byte-identical output.
    pub fn run(&self) -> Dataset {
        let plan = {
            let _phase = phases::phase("topology-build");
            self.plan()
        };
        let shards = shard_ranges(&plan, self.config.effective_shard_size());
        let results = {
            let _phase = phases::phase("simulate");
            self.run_sharded(&plan, &shards, |i| {
                let spec = shards[i];
                let mut records = Vec::with_capacity(spec.end - spec.start);
                let outcome = self
                    .run_range(
                        &plan,
                        spec,
                        &mut VecSink {
                            records: &mut records,
                        },
                    )
                    .expect("the in-memory sink never fails");
                ((records, outcome), spec.end - spec.start)
            })
        };

        // Merge in canonical range order; workers finished in arbitrary
        // order but each slot holds exactly its range's records.
        let _phase = phases::phase("merge");
        let mut records = Vec::new();
        let mut discarded = 0usize;
        let mut atlas_do53_ms = Vec::new();
        let mut metrics = CountryMetrics::default();
        for (spec, (range_records, outcome)) in shards.iter().zip(results) {
            metrics.push(spec, &outcome);
            records.extend(range_records);
            discarded += outcome.discarded;
            if let Some(samples) = outcome.atlas_do53_ms {
                atlas_do53_ms.push((spec.country, samples));
            }
        }
        metrics.flush();

        let (observed_ases, observed_resolvers) =
            observed_infrastructure(records.len(), plan.country_list.len());

        Dataset {
            records,
            countries: plan.countries,
            atlas_do53_ms,
            discarded_mismatches: discarded,
            observed_ases,
            observed_resolvers,
        }
    }

    /// Run the full campaign, streaming records to a store directory
    /// instead of accumulating them in memory.
    ///
    /// Each client-ID range spills its records through a [`ChunkWriter`]
    /// into `dir/shards/shard-{index:05}.chunks` as clients are
    /// measured, so a worker's peak resident record count is the chunk
    /// budget (`chunk_budget` 0 means the crate default), not the range
    /// size. When all ranges finish, the spill files are concatenated
    /// into `records.chunks` in canonical order and the manifest is
    /// written.
    ///
    /// Chunk boundaries are anchored at in-country client *offsets* that
    /// are multiples of the budget (not at retained-record counts, which
    /// would shift with the discard pattern ahead of a split), and the
    /// range granularity is rounded up to a multiple of the budget, so
    /// every range boundary is also a chunk boundary. The merged store is
    /// therefore byte-identical for any [`CampaignConfig::threads`] *and*
    /// any [`CampaignConfig::shard_size`] value — the same contract
    /// [`Campaign::run`] gives for the in-memory dataset.
    ///
    /// Each shard encodes its chunks (columns and CRC) inline through
    /// its own [`ChunkWriter::new`]; there is no encoder thread, since
    /// the simulation workers already use every core.
    pub fn run_to_store(
        &self,
        dir: &Path,
        chunk_budget: usize,
    ) -> dohperf_store::Result<StoreRunSummary> {
        let plan = {
            let _phase = phases::phase("topology-build");
            self.plan()
        };
        let budget = if chunk_budget == 0 {
            DEFAULT_CHUNK_BUDGET
        } else {
            chunk_budget
        };
        // Round the range granularity up to a multiple of the chunk
        // budget so every range starts exactly on a chunk boundary.
        let granularity = self
            .config
            .effective_shard_size()
            .div_ceil(budget)
            .saturating_mul(budget);
        let shards = shard_ranges(&plan, granularity);
        let shards_dir = dir.join("shards");
        std::fs::create_dir_all(&shards_dir)?;

        let _simulate_phase = phases::phase("simulate");
        let spill_path =
            |i: usize| -> std::path::PathBuf { shards_dir.join(format!("shard-{i:05}.chunks")) };
        let results = self.run_sharded(&plan, &shards, |i| {
            let spec = shards[i];
            let result: dohperf_store::Result<StoreShard> = (|| {
                let file = BufWriter::new(File::create(spill_path(i))?);
                let mut sink = StoreSink {
                    writer: ChunkWriter::new(file, budget),
                    every: budget,
                };
                let outcome = self.run_range(&plan, spec, &mut sink)?;
                let stats = sink.writer.finish()?;
                Ok(StoreShard { outcome, stats })
            })();
            (result, spec.end - spec.start)
        });
        drop(_simulate_phase);

        // Concatenate spill files in canonical range order: chunks are
        // self-contained, so concatenation is the merge.
        let _store_phase = phases::phase("store-merge");
        let mut out = BufWriter::new(File::create(dir.join(RECORDS_FILE))?);
        let mut totals = WriterStats::default();
        let mut retained = 0usize;
        let mut discarded = 0usize;
        let mut atlas_do53_ms: Vec<(u32, Vec<f64>)> = Vec::new();
        let mut metrics = CountryMetrics::default();
        for (range_index, (spec, result)) in shards.iter().zip(results).enumerate() {
            let shard = result?;
            metrics.push(spec, &shard.outcome);
            let path = spill_path(range_index);
            let mut spill = File::open(&path)?;
            std::io::copy(&mut spill, &mut out)?;
            std::fs::remove_file(&path)?;
            totals = totals.merge(shard.stats);
            retained += shard.outcome.retained;
            discarded += shard.outcome.discarded;
            if let Some(samples) = shard.outcome.atlas_do53_ms {
                atlas_do53_ms.push((spec.country as u32, samples));
            }
        }
        metrics.flush();
        out.flush()?;
        drop(out);
        let _ = std::fs::remove_dir(&shards_dir);

        let (observed_ases, observed_resolvers) =
            observed_infrastructure(retained, plan.country_list.len());
        let manifest = Manifest {
            countries: plan
                .countries
                .iter()
                .map(|iso| store_io::iso_bytes(iso))
                .collect(),
            atlas_do53_ms,
            discarded_mismatches: discarded as u64,
            observed_ases: observed_ases as u64,
            observed_resolvers: observed_resolvers as u64,
            total_records: totals.records,
            total_chunks: totals.chunks,
            total_bytes: totals.bytes,
        };
        std::fs::write(dir.join(MANIFEST_FILE), manifest.encode())?;

        dohperf_telemetry::counter!("store.chunks_written").add(totals.chunks);
        dohperf_telemetry::counter!("store.bytes_written").add(totals.bytes);
        Ok(StoreRunSummary {
            stats: totals,
            discarded,
        })
    }

    /// Precompute the campaign layout shared by every execution mode:
    /// population sample, country list, per-country client counts with
    /// prefix-summed exclusive client-ID bases (shard `i` numbers its
    /// clients `bases[i]+1 ..= bases[i]+counts[i]`, exactly the IDs a
    /// sequential walk over the countries would assign), and the worker
    /// thread count.
    fn plan(&self) -> Plan {
        // Register the deterministic stub-cache counters up front: legacy
        // campaigns pin them at zero instead of omitting them (the metrics
        // gate treats a baseline metric missing from a run as drift), and
        // page-load campaigns register their page counters the same way so
        // a loss-free run still reports every pinned metric.
        let _ = dohperf_telemetry::counter!("cache.hits");
        let _ = dohperf_telemetry::counter!("cache.misses");
        let _ = dohperf_telemetry::counter!("cache.evictions");
        if self.config.pages_per_client > 0 {
            let _ = dohperf_telemetry::counter!("campaign.page_visits");
            let _ = dohperf_telemetry::counter!("campaign.page_queries");
            let _ = dohperf_telemetry::counter!("campaign.page_tcp_stalls");
        }
        let root_rng = SimRng::new(self.config.seed).fork("campaign");
        let population = PopulationModel::sample(&mut root_rng.clone());
        let country_list: Vec<&'static Country> = population.countries().to_vec();
        let countries: Vec<&'static str> = country_list.iter().map(|c| c.iso).collect();

        let counts: Vec<usize> = (0..country_list.len())
            .map(|i| {
                let full_count = population.count(i);
                ((full_count as f64 * self.config.scale).round() as usize).clamp(1, full_count)
            })
            .collect();
        let mut bases = Vec::with_capacity(counts.len());
        let mut acc = 0u64;
        for &c in &counts {
            bases.push(acc);
            acc += c as u64;
        }

        let threads = match self.config.threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        };

        Plan {
            root_rng,
            population,
            country_list,
            countries,
            counts,
            bases,
            threads,
        }
    }

    /// Execute every client-ID range across the plan's worker threads
    /// with work stealing over [`RangeQueues`]: each worker walks its own
    /// contiguous block of ranges in canonical order (which keeps
    /// per-country state like latency caches warm), then drains the tail
    /// of its peers' blocks instead of idling.
    /// `shard_fn` receives a range index into `shards` and returns the
    /// range result plus its client count (for throughput accounting);
    /// results come back indexed in canonical range order regardless of
    /// which worker ran what.
    fn run_sharded<T, F>(&self, plan: &Plan, shards: &[ShardSpec], shard_fn: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> (T, usize) + Sync,
    {
        let n = shards.len();
        let threads = plan.threads.min(n.max(1));
        dohperf_telemetry::gauge!("campaign.workers", per_run).set(threads as i64);
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let queues = RangeQueues::new(n, threads);
        std::thread::scope(|scope| {
            for worker in 0..threads {
                let (slots, shard_fn, queues) = (&slots, &shard_fn, &queues);
                scope.spawn(move || {
                    let started = Instant::now();
                    let mut busy = std::time::Duration::ZERO;
                    let mut steals = 0u64;
                    let mut range_count = 0usize;
                    let mut client_count = 0usize;
                    while let Some((i, stolen)) = queues.next(worker) {
                        steals += u64::from(stolen);
                        let shard_started = Instant::now();
                        let (result, clients) = shard_fn(i);
                        let shard_wall = shard_started.elapsed();
                        busy += shard_wall;
                        dohperf_telemetry::histogram!("campaign.shard_wall_ms", per_run)
                            .record_ms(shard_wall.as_secs_f64() * 1_000.0);
                        range_count += 1;
                        client_count += clients;
                        *slots[i].lock().unwrap() = Some(result);
                    }
                    // Scheduler observability (DESIGN.md §16): per-worker
                    // busy/idle/steal series, published even for workers
                    // that never won a range — an all-idle worker is the
                    // signal the utilization report exists to surface.
                    let wall = started.elapsed();
                    dohperf_telemetry::scheduler::publish_worker(
                        worker,
                        busy.as_secs_f64() * 1_000.0,
                        (wall.saturating_sub(busy)).as_secs_f64() * 1_000.0,
                        range_count as u64,
                        client_count as u64,
                        steals,
                    );
                    if range_count > 0 {
                        dohperf_telemetry::histogram!("campaign.worker_wall_ms", per_run)
                            .record_ms(wall.as_secs_f64() * 1_000.0);
                    }
                });
            }
        });

        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap()
                    .expect("every range was processed")
            })
            .collect()
    }

    /// Execute one client-ID range of one country, handing each retained
    /// record to the sink as it is measured.
    ///
    /// Everything stochastic inside the range descends from forks of the
    /// shared (never-advanced) campaign root stream, keyed by the country's
    /// ISO code or by globally stable client IDs — never from worker-local
    /// or range-local state. On top of that, each client is simulated in
    /// its own epoch: the clock rewinds to zero, the jitter/engine RNG
    /// streams re-seed from a `("client-sim", client_id)` fork, and the
    /// client's node ids are anchored at `base_nodes + 2 * offset`. A
    /// client's measurement is therefore a pure function of
    /// `(seed, country, client_id)`, and any split of a country into
    /// ranges concatenates to the unsplit result. The sink decides what a
    /// record costs to hold: the in-memory path pushes into a `Vec`, the
    /// store path pushes into a [`ChunkWriter`] whose budget bounds
    /// residency.
    fn run_range(
        &self,
        plan: &Plan,
        spec: ShardSpec,
        sink: &mut dyn RangeSink,
    ) -> std::io::Result<RangeOutcome> {
        let root_rng = &plan.root_rng;
        let country = plan.country_list[spec.country];
        let count = plan.counts[spec.country];
        let client_id_base = plan.bases[spec.country];
        let iso = country.iso;
        let mut tb = Testbed::new(root_rng.fork_parts(&["testbed-", iso]).seed());
        // The prefix base equals the range's first global client index, so
        // the /24s handed out (and their per-prefix mislabel draws) match
        // the layout of a single sequential allocator.
        let mut geoloc = GeolocationService::with_prefix_base(
            root_rng.fork_parts(&["geoloc-", iso]),
            self.config.geoloc_error_rate,
            plan.countries.clone(),
            (client_id_base + spec.start as u64) as u32,
        );

        // client_sites only forks from the rng it is handed, so a clone of
        // the root stream yields the same sites the sequential walk saw;
        // enumerate before skipping so offsets stay country-absolute.
        let sites = plan
            .population
            .client_sites(spec.country, &mut root_rng.clone());
        let fleet_max = tb.deployments.iter().map(PopDeployment::len).max();
        let mut scratch = ClientScratch {
            batch: DerivationBatch::with_capacity(self.config.runs_per_client as usize),
            ranking: PopRanking::with_capacity(fleet_max.unwrap_or_default()),
        };
        // Page shape parameters are a per-country fork of the root
        // stream, so every range of a country sees the same profile.
        let page_profile = (self.config.pages_per_client > 0)
            .then(|| pageload::PageProfile::for_country(root_rng, iso));
        let chunk_every = sink.chunk_every();
        let mut retained = 0usize;
        let mut discarded = 0usize;
        let mut sim_nanos = 0u64;
        for (offset, site) in sites
            .into_iter()
            .enumerate()
            .skip(spec.start)
            .take(spec.end - spec.start)
        {
            // The range's first client walks every cold path (latency
            // cache fills, scratch-buffer growth); it is warmup
            // for the steady-state allocation gate, the rest are not.
            dohperf_telemetry::alloc::set_warmup(offset == spec.start);
            // Chunk boundaries anchor at country-absolute offsets that are
            // multiples of the budget, so the store's chunk layout is
            // independent of where ranges split.
            if chunk_every > 0 && offset > spec.start && offset % chunk_every == 0 {
                sink.chunk_boundary()?;
            }
            let client_id = client_id_base + offset as u64 + 1;
            let mut client_rng = root_rng.fork_indexed("client", client_id);
            // Per-client simulation epoch: rewind the clock and re-seed
            // the simulator's internal streams from a client-keyed fork,
            // then anchor this client's two node ids (exit host +
            // resolver) at their offset-determined slots.
            tb.sim
                .begin_epoch(&root_rng.fork_indexed("client-sim", client_id));
            tb.sim.anchor_next_node(tb.base_nodes + 2 * offset);
            // The sampling draw is a fork (forks never advance the parent
            // stream), so arming the recorder cannot perturb the
            // simulation — only which clients leave a trace behind.
            let root_span = match &self.flight {
                Some(plan)
                    if plan.records(client_id, client_rng.fork("trace-sample").next_u64()) =>
                {
                    flight::begin(trace_id(self.config.seed, iso, client_id), client_id, iso);
                    Some(flight::start_span(
                        "campaign",
                        format!("client {client_id} [{iso}]"),
                        tb.sim.now().as_nanos(),
                    ))
                }
                _ => None,
            };
            let exit = ExitNode::create(
                &mut tb.sim,
                &mut geoloc,
                country,
                spec.country,
                site.position,
                client_id,
                &mut client_rng,
            );
            let record = self.measure_client(
                &mut tb,
                &exit,
                &geoloc,
                &mut client_rng,
                &mut scratch,
                page_profile.as_ref(),
            );
            let agrees = record.countries_agree();
            if let Some(span) = root_span {
                flight::attr(span, "maxmind_country", record.maxmind_country.to_string());
                flight::attr(span, "retained", agrees.to_string());
                flight::end_span(span, tb.sim.now().as_nanos());
                if let (Some(plan), Some(trace)) = (&self.flight, flight::take()) {
                    plan.collected.lock().unwrap().push(trace);
                }
            }
            if let Some(plan) = &self.flight {
                if plan.only_client == Some(client_id) {
                    *plan.explained.lock().unwrap() = Some((record.clone(), agrees));
                }
            }
            if agrees {
                self.observe_windows(&record);
                sink.emit(record)?;
                retained += 1;
            } else {
                discarded += 1;
            }
            // Summed as integer nanoseconds so any grouping of ranges
            // adds up to the same per-country total bit-for-bit (f64
            // addition is not associative; u64 addition is).
            sim_nanos += tb.sim.now().as_nanos();
        }

        // RIPE Atlas remedy for the Super Proxy countries (§3.5). It runs
        // exactly once per country, in the range that owns the country's
        // final client, inside its own epoch with the probe node ids
        // anchored after the last client's slots — so its samples are
        // identical no matter how the country was split.
        let atlas_do53_ms = if spec.end == count && SuperProxy::resolves_dns_for(iso) {
            tb.sim
                .begin_epoch(&root_rng.fork_parts(&["atlas-sim-", iso]));
            tb.sim.anchor_next_node(tb.base_nodes + 2 * count);
            let mut atlas = AtlasNetwork::new();
            let mut atlas_rng = root_rng.fork_parts(&["atlas-", iso]);
            let probe_indices = atlas.deploy_probes(
                &mut tb.sim,
                country,
                self.config.atlas_probes_per_country,
                &mut atlas_rng,
            );
            let mut samples = Vec::with_capacity(self.config.atlas_samples_per_country);
            for s in 0..self.config.atlas_samples_per_country {
                let probe = probe_indices[s % probe_indices.len()];
                let d = atlas.measure_do53(&mut tb.sim, probe, tb.auth_ns, &mut atlas_rng);
                samples.push(d.as_millis_f64());
            }
            sim_nanos += tb.sim.now().as_nanos();
            Some(samples)
        } else {
            None
        };

        Ok(RangeOutcome {
            retained,
            discarded,
            sim_nanos,
            atlas_do53_ms,
        })
    }

    /// Measure one client: four DoH providers plus Do53, `runs_per_client`
    /// times, keeping the per-client median of runs (the paper's two runs
    /// are averaged; with jitter, medians are the robust equivalent).
    fn measure_client(
        &self,
        tb: &mut Testbed,
        exit: &ExitNode,
        geoloc: &GeolocationService,
        client_rng: &mut SimRng,
        scratch: &mut ClientScratch,
        page_profile: Option<&pageload::PageProfile>,
    ) -> ClientRecord {
        let ClientScratch { batch, ranking } = scratch;
        let mut doh = Vec::with_capacity(ALL_PROVIDERS.len());
        for (pi, &provider) in ALL_PROVIDERS.iter().enumerate() {
            let deployment = &tb.deployments[pi];
            // Sticky anycast assignment per (client, provider).
            let mut anycast_rng = client_rng.fork_parts(&["anycast-", provider.name()]);
            let policy = if self.config.perfect_anycast {
                AnycastPolicy::perfect()
            } else {
                provider.anycast_policy()
            };
            // One ranking per (client, provider) feeds the assignment and
            // both distance columns.
            let pop_index = {
                let _hot = dohperf_telemetry::alloc::hot_scope();
                deployment.rank_into(&exit.position, policy.ranking_depth(), ranking);
                policy.assign_ranked(ranking, &mut anycast_rng)
            };
            batch.clear();
            for run in 0..self.config.runs_per_client {
                let mut run_rng =
                    client_rng.fork_indexed_parts(&["doh-", provider.name()], run.into());
                // The measurement body is the per-query simulation path:
                // under the counting allocator, any allocation in here
                // (outside warmup/exempt scopes) fails the gate.
                let obs = {
                    let _hot = dohperf_telemetry::alloc::hot_scope();
                    tb.network.doh_measurement_with(
                        &mut tb.sim,
                        tb.client,
                        exit,
                        provider,
                        deployment,
                        pop_index,
                        tb.auth_ns,
                        &mut run_rng,
                        &self.config.measurement,
                    )
                };
                dohperf_telemetry::counter!("campaign.doh_queries").inc();
                if flight::active() {
                    // record_derivation calls the same derive_* functions
                    // the batch mirrors op-for-op, so the traced spans
                    // carry exactly the values the batch will derive.
                    record_derivation(&obs);
                }
                batch.push(&obs);
            }
            // Batched Eq 1-8 over the run block: two column-wise loops the
            // compiler can vectorize, bit-identical to the scalar path.
            batch.derive();
            // A severe misroute can land outside the ranked prefix.
            let pop_km = ranking.km_to(pop_index).unwrap_or_else(|| {
                exit.position
                    .distance_km(&deployment.sites()[pop_index].position)
            });
            let t_doh_ms = median_in_place(batch.t_doh_ms_mut());
            let t_dohr_ms = median_in_place(batch.t_dohr_ms_mut());
            if flight::active() {
                let now = tb.sim.now().as_nanos();
                let span = flight::start_span("campaign", format!("summary {provider}"), now);
                flight::attr(span, "median_t_doh_ms", format!("{t_doh_ms}"));
                flight::attr(span, "median_t_dohr_ms", format!("{t_dohr_ms}"));
                flight::attr(span, "pop_index", pop_index.to_string());
                flight::end_span(span, now);
            }
            doh.push(DohSample {
                provider,
                t_doh_ms,
                t_dohr_ms,
                pop_index,
                pop_distance_miles: pop_km / GeoPoint::KM_PER_MILE,
                nearest_pop_distance_miles: ranking.nearest().km / GeoPoint::KM_PER_MILE,
            });
        }

        // Do53 measurement (one per run; header value or Atlas remedy).
        let mut do53_runs = Vec::with_capacity(self.config.runs_per_client as usize);
        let mut hijacked = false;
        let mut qname_buf = [0u8; SUBDOMAIN_BUF_LEN];
        for run in 0..self.config.runs_per_client {
            let mut run_rng = client_rng.fork_indexed("do53", run.into());
            let obs = {
                let _hot = dohperf_telemetry::alloc::hot_scope();
                // Same RNG draw fresh_subdomain would make, formatted on
                // the stack instead of into a fresh String.
                let qname = format_subdomain(tb.fresh_subdomain_id(), &mut qname_buf);
                tb.network.do53_measurement_with(
                    &mut tb.sim,
                    tb.client,
                    exit,
                    tb.web_server,
                    tb.auth_ns,
                    qname,
                    &mut run_rng,
                    &self.config.measurement,
                )
            };
            dohperf_telemetry::counter!("campaign.do53_queries").inc();
            hijacked = obs.resolved_at_super_proxy;
            if !hijacked {
                do53_runs.push(obs.tun.dns.as_millis_f64());
            }
        }
        let (do53_ms, do53_source) = if hijacked {
            (None, Do53Source::RipeAtlasRemedy)
        } else {
            (
                Some(median_in_place(&mut do53_runs)),
                Do53Source::BrightDataHeader,
            )
        };
        if flight::active() {
            let now = tb.sim.now().as_nanos();
            let span = flight::start_span("campaign", "summary do53".to_string(), now);
            flight::attr(span, "source", format!("{do53_source:?}"));
            if let Some(ms) = do53_ms {
                flight::attr(span, "median_t_do53_ms", format!("{ms}"));
            }
            flight::end_span(span, now);
        }

        // Extended transports (DESIGN.md §13): one connection-lifecycle
        // measurement per (transport, provider) pair. This block runs
        // strictly after the legacy loops, draws its measurement noise
        // only from fresh protocol-keyed forks (forks never advance
        // `client_rng`), and checkpoints the simulator's internal
        // streams so its per-sample jitter draws roll back afterwards.
        // An empty set therefore reproduces the legacy dataset
        // byte-for-byte, and a non-empty set never perturbs the legacy
        // samples — not for this client and not for any later one.
        let mut transports = Vec::new();
        transports.reserve_exact(self.config.protocols.len() * ALL_PROVIDERS.len());
        if !self.config.protocols.is_empty() {
            let auth_ns = tb.auth_ns;
            let Testbed {
                sim,
                network,
                deployments,
                ..
            } = tb;
            sim.with_rng_checkpoint(|sim| {
                for transport in self.config.protocols.iter() {
                    for (pi, &provider) in ALL_PROVIDERS.iter().enumerate() {
                        let deployment = &deployments[pi];
                        // Same sticky anycast PoP the legacy DoH loop
                        // used for this (client, provider) pair.
                        let pop_index = doh[pi].pop_index;
                        let mut t_rng = client_rng.fork_parts(&[
                            "transport-",
                            transport.name(),
                            "-",
                            provider.name(),
                        ]);
                        let obs = {
                            let _hot = dohperf_telemetry::alloc::hot_scope();
                            network.transport_measurement(
                                sim,
                                exit,
                                provider,
                                deployment,
                                pop_index,
                                auth_ns,
                                transport,
                                self.config.measurement.extra_loss_p,
                                self.config.measurement.doh_cache_hit_p,
                                &mut t_rng,
                            )
                        };
                        dohperf_telemetry::counter!("campaign.transport_queries").inc();
                        record_transport_derivation(&obs);
                        transports.push(TransportSample {
                            transport,
                            provider,
                            cold_ms: derive_transport_cold_ms(&obs),
                            warm_ms: derive_transport_warm_ms(&obs),
                            resumed_ms: derive_transport_resumed_ms(&obs),
                            handshake_ms: derive_transport_handshake_ms(&obs),
                        });
                    }
                }
            });
        }

        // Page-load workload (DESIGN.md §15): one synthetic dependency
        // DAG per client, replayed over every (transport, provider)
        // pair with a shared connection and the stub cache in the loop.
        // Same isolation discipline as the transports block above: runs
        // strictly after the legacy loops, draws only from page-keyed
        // forks of `client_rng`, and rolls the simulator's internal
        // streams back afterwards — so enabling pages never perturbs
        // the legacy or transports samples, for this client or any
        // later one.
        let mut pages = Vec::new();
        if let Some(profile) = page_profile {
            let visits = self.config.pages_per_client;
            debug_assert!(
                visits >= 2,
                "pages_per_client needs a cold visit plus at least one warm revisit"
            );
            // One page per client, shared by all pairs: the PLT deltas
            // compare transports on the *same* DAG, isolating protocol
            // effects from page-shape noise.
            let mut model_rng = client_rng.fork("page-model");
            let model = pageload::PageModel::generate(profile, &mut model_rng);
            pages.reserve_exact(DnsTransport::ALL.len() * ALL_PROVIDERS.len());
            let auth_ns = tb.auth_ns;
            let Testbed {
                sim, deployments, ..
            } = tb;
            sim.with_rng_checkpoint(|sim| {
                for &transport in DnsTransport::ALL.iter() {
                    for (pi, &provider) in ALL_PROVIDERS.iter().enumerate() {
                        let deployment = &deployments[pi];
                        // Same sticky anycast PoP the legacy DoH loop
                        // used for this (client, provider) pair.
                        let pop_index = doh[pi].pop_index;
                        let mut p_rng = client_rng.fork_parts(&[
                            "page-",
                            transport.name(),
                            "-",
                            provider.name(),
                        ]);
                        let outcome = pageload::measure_page(
                            sim,
                            exit,
                            provider,
                            deployment,
                            pop_index,
                            auth_ns,
                            transport,
                            self.config.measurement.extra_loss_p,
                            &model,
                            visits,
                            &mut p_rng,
                        );
                        pages.push(PageSample {
                            transport,
                            provider,
                            domains: model.len() as u32,
                            unique_names: model.unique_names as u32,
                            depth: model.max_depth(),
                            plt_cold_ms: outcome.plt_cold_ms,
                            plt_warm_ms: outcome.plt_warm_ms,
                            cold_cache_hits: outcome.cold_cache_hits,
                            warm_cache_hits: outcome.warm_cache_hits,
                        });
                    }
                }
            });
        }

        // Windowed series (DESIGN.md §16): assign this client a
        // simulated campaign-time window and summarise every measurement
        // block above into per-(provider, transport) window samples. The
        // slot comes from a fresh fork of the client's stream (forks
        // never advance the parent), and everything else is derived from
        // already-measured values — so enabling windowing never perturbs
        // the legacy, transports, or page samples.
        let mut windows = Vec::new();
        if let Some(width) = std::num::NonZero::new(self.config.window_nanos) {
            let start_nanos = client_rng.fork("window").next_u64() % CAMPAIGN_DURATION_NANOS;
            let window = (start_nanos / width).min(u32::MAX as u64) as u32;
            windows.reserve_exact(doh.len() + transports.len() + pages.len());
            for s in &doh {
                windows.push(WindowSample {
                    window,
                    provider: s.provider,
                    transport: DnsTransport::DoH,
                    queries: self.config.runs_per_client,
                    successes: self.config.runs_per_client,
                    latency_ms: s.t_doh_ms,
                    cache_lookups: 0,
                    cache_hits: 0,
                });
            }
            // One lifecycle measurement derives cold/warm/resumed, i.e.
            // three resolutions; the warm path is the steady-state
            // latency a long-lived stub would see.
            for s in &transports {
                windows.push(WindowSample {
                    window,
                    provider: s.provider,
                    transport: s.transport,
                    queries: 3,
                    successes: 3,
                    latency_ms: s.warm_ms,
                    cache_lookups: 0,
                    cache_hits: 0,
                });
            }
            // Page visits contribute cache activity, not query latency:
            // every DAG node probes the stub cache on every visit.
            for s in &pages {
                windows.push(WindowSample {
                    window,
                    provider: s.provider,
                    transport: s.transport,
                    queries: 0,
                    successes: 0,
                    latency_ms: 0.0,
                    cache_lookups: s.domains * self.config.pages_per_client,
                    cache_hits: s.cold_cache_hits + s.warm_cache_hits,
                });
            }
        }

        let ns_pos = tb.sim.topology().node(tb.auth_ns).spec.position;
        ClientRecord {
            client_id: exit.id,
            country_iso: exit.country_iso,
            country_index: exit.country_index,
            prefix: exit.prefix,
            maxmind_country: geoloc.lookup(exit.prefix).unwrap_or("??"),
            position: exit.position,
            nameserver_distance_miles: exit.position.distance_miles(&ns_pos),
            doh,
            do53_ms,
            do53_source,
            transports,
            pages,
            windows,
        }
    }

    /// Publish a retained record's window samples into the global
    /// `window.*` metric series. All window metrics are integer-atomic
    /// (counters and integer-microsecond histograms), so recording them
    /// from racing workers yields exactly the totals a sequential walk
    /// would — the series stays deterministic for any thread count and
    /// shard size.
    fn observe_windows(&self, record: &ClientRecord) {
        for s in &record.windows {
            dohperf_telemetry::windows::observe(
                s.window as u64,
                &dohperf_telemetry::windows::Observation {
                    transport: s.transport.name(),
                    queries: s.queries as u64,
                    successes: s.successes as u64,
                    timeouts: 0,
                    cache_lookups: s.cache_lookups as u64,
                    cache_hits: s.cache_hits as u64,
                    latency_ms: (s.queries > 0).then_some(s.latency_ms),
                },
            );
        }
    }
}

/// Precomputed campaign layout shared by every execution mode.
struct Plan {
    root_rng: SimRng,
    population: PopulationModel,
    country_list: Vec<&'static Country>,
    countries: Vec<&'static str>,
    /// Scaled client count per country.
    counts: Vec<usize>,
    /// Exclusive client-ID base per country (prefix sums of `counts`).
    bases: Vec<u64>,
    threads: usize,
}

/// One work unit: a contiguous in-country client-offset range
/// `[start, end)` of one country.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ShardSpec {
    /// Canonical country index into the plan's country list.
    country: usize,
    /// First in-country client offset (inclusive).
    start: usize,
    /// One past the last in-country client offset.
    end: usize,
}

/// Slice every country into ranges of at most `granularity` clients, in
/// canonical (country, offset) order. Concatenating the ranges' clients
/// in this order is exactly the sequential walk, for any granularity.
fn shard_ranges(plan: &Plan, granularity: usize) -> Vec<ShardSpec> {
    let granularity = granularity.max(1);
    let mut shards = Vec::new();
    for (country, &count) in plan.counts.iter().enumerate() {
        let mut start = 0usize;
        while start < count {
            let end = count.min(start.saturating_add(granularity));
            shards.push(ShardSpec {
                country,
                start,
                end,
            });
            start = end;
        }
    }
    shards
}

/// The work-stealing range queues behind [`Campaign::run_sharded`]: one
/// mutex-guarded queue of range indices per worker. Stealing happens
/// only when a worker's own queue runs dry, so the locks are cold.
struct RangeQueues {
    queues: Vec<Mutex<VecDeque<usize>>>,
}

impl RangeQueues {
    /// Split ranges `0..n` into `workers` contiguous blocks, worker `w`
    /// owning `[w·n/workers, (w+1)·n/workers)`.
    fn new(n: usize, workers: usize) -> Self {
        let queues = (0..workers)
            .map(|w| Mutex::new(((w * n / workers)..((w + 1) * n / workers)).collect()))
            .collect();
        RangeQueues { queues }
    }

    /// The next range for worker `me`, and whether it was stolen. The
    /// owner pops the *front* of its own queue (canonical order); once
    /// that is empty it steals from the *back* of a peer's — the
    /// victim's farthest-away work — scanning peers round-robin from
    /// just past itself so contention spreads instead of piling onto
    /// worker 0. `None` once every queue is empty.
    fn next(&self, me: usize) -> Option<(usize, bool)> {
        if let Some(i) = self.queues[me].lock().unwrap().pop_front() {
            return Some((i, false));
        }
        let n = self.queues.len();
        (1..n)
            .find_map(|k| self.queues[(me + k) % n].lock().unwrap().pop_back())
            .map(|i| (i, true))
    }
}

/// Where a range's retained records go, plus the chunk-boundary protocol
/// the store path uses to keep chunk layout split-invariant.
trait RangeSink {
    /// Accept one retained record.
    fn emit(&mut self, record: ClientRecord) -> std::io::Result<()>;
    /// Chunk boundary interval in clients (0 = no boundaries).
    fn chunk_every(&self) -> usize {
        0
    }
    /// Called when the walk crosses a country-absolute offset that is a
    /// multiple of [`RangeSink::chunk_every`].
    fn chunk_boundary(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The in-memory path: records accumulate in a `Vec`.
struct VecSink<'a> {
    records: &'a mut Vec<ClientRecord>,
}

impl RangeSink for VecSink<'_> {
    fn emit(&mut self, record: ClientRecord) -> std::io::Result<()> {
        self.records.push(record);
        Ok(())
    }
}

/// The explain path: the targeted record is captured via the flight
/// plan, everything else is dropped.
struct DiscardSink;

impl RangeSink for DiscardSink {
    fn emit(&mut self, _record: ClientRecord) -> std::io::Result<()> {
        Ok(())
    }
}

/// The store path: records spill through a [`ChunkWriter`], with chunks
/// cut at offset-anchored boundaries.
struct StoreSink<W: std::io::Write> {
    writer: ChunkWriter<W>,
    every: usize,
}

impl<W: std::io::Write> RangeSink for StoreSink<W> {
    fn emit(&mut self, record: ClientRecord) -> std::io::Result<()> {
        self.writer
            .push(store_io::record_to_store(&record))
            .map_err(std::io::Error::from)
    }

    fn chunk_every(&self) -> usize {
        self.every
    }

    fn chunk_boundary(&mut self) -> std::io::Result<()> {
        self.writer.flush_boundary().map_err(std::io::Error::from)
    }
}

/// Buffers one range reuses for every client it measures, so the
/// steady-state hot path allocates nothing.
struct ClientScratch {
    /// Eq 1-8 over one (client, provider) run block.
    batch: DerivationBatch,
    /// The nearest-PoP ranking of one (client, provider) pair.
    ranking: PopRanking,
}

/// What a client-ID range reports after its records have gone to the sink.
struct RangeOutcome {
    retained: usize,
    discarded: usize,
    /// Simulated time spent in this range, in integer nanoseconds so any
    /// grouping of ranges sums to the same per-country total.
    sim_nanos: u64,
    /// Atlas Do53 samples, present only in the country-final range of
    /// Super-Proxy remedy countries.
    atlas_do53_ms: Option<Vec<f64>>,
}

/// A store-mode range: its outcome plus the spill file's chunk totals.
struct StoreShard {
    outcome: RangeOutcome,
    stats: WriterStats,
}

/// Merge-time aggregation of range outcomes back into the per-country
/// telemetry the per-country sharding used to publish from workers.
/// Publishing from the merge walk (canonical order, one thread) makes
/// metric totals independent of worker scheduling.
#[derive(Default)]
struct CountryMetrics {
    current: Option<usize>,
    retained: usize,
    discarded: usize,
    sim_nanos: u64,
}

impl CountryMetrics {
    /// Fold in one range outcome; ranges must arrive in canonical order.
    fn push(&mut self, spec: &ShardSpec, outcome: &RangeOutcome) {
        if self.current != Some(spec.country) {
            self.flush();
            self.current = Some(spec.country);
        }
        self.retained += outcome.retained;
        self.discarded += outcome.discarded;
        self.sim_nanos += outcome.sim_nanos;
    }

    /// Publish the current country's totals, if any.
    fn flush(&mut self) {
        if self.current.take().is_none() {
            return;
        }
        let sim_ms = self.sim_nanos as f64 / 1e6;
        dohperf_telemetry::histogram!("campaign.shard_sim_ms").record_ms(sim_ms);
        dohperf_telemetry::counter!("campaign.countries_measured").inc();
        dohperf_telemetry::counter!("campaign.clients_measured").add(self.retained as u64);
        dohperf_telemetry::counter!("campaign.clients_discarded").add(self.discarded as u64);
        self.retained = 0;
        self.discarded = 0;
        self.sim_nanos = 0;
    }
}

/// Totals from a [`Campaign::run_to_store`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreRunSummary {
    /// Record/chunk/byte totals of the merged `records.chunks`.
    pub stats: WriterStats,
    /// Records discarded by the Maxmind mismatch filter.
    pub discarded: usize,
}

/// Observed-infrastructure bookkeeping: the paper reports 2,190 client
/// ASes and 1,896 recursive resolvers. We synthesise the counts from the
/// retained record total (one resolver node per client, pooled by
/// country as a proxy for AS diversity).
fn observed_infrastructure(records: usize, countries: usize) -> (usize, usize) {
    let observed_resolvers = records.min(1_896 * records / 22_052 + 1);
    let observed_ases = (records / 10).max(countries);
    (observed_ases, observed_resolvers)
}

/// The deterministic trace id of a recorded query: a pure function of
/// `(seed, country ISO, client id)`, built from the FNV-1a label hash and
/// the splitmix64 finalizer that `SimRng`'s forks use.
fn trace_id(seed: u64, country_iso: &str, client_id: u64) -> TraceId {
    TraceId(splitmix64(
        splitmix64(seed ^ fnv1a(country_iso.as_bytes())) ^ splitmix64(client_id),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dohperf_providers::provider::ProviderKind;

    fn quick_dataset() -> Dataset {
        Campaign::new(CampaignConfig::quick(42)).run()
    }

    #[test]
    fn trace_ids_are_deterministic_and_distinct() {
        let a = trace_id(2021, "US", 7);
        let b = trace_id(2021, "US", 7);
        let c = trace_id(2021, "US", 8);
        let d = trace_id(2021, "BR", 7);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(a.to_hex().len(), 16);
    }

    #[test]
    fn range_queue_owner_takes_front_and_thief_takes_back() {
        // Two workers over ranges 0..4: worker 0 owns [0, 1], worker 1 [2, 3].
        let queues = RangeQueues::new(4, 2);
        assert_eq!(queues.next(0), Some((0, false)));
        assert_eq!(queues.next(1), Some((2, false)));
        assert_eq!(queues.next(1), Some((3, false)));
        // Worker 1 is dry: it steals the back of worker 0's block.
        assert_eq!(queues.next(1), Some((1, true)));
        assert_eq!(queues.next(0), None);
        assert_eq!(queues.next(1), None);
    }

    #[test]
    fn range_queue_drains_every_range_exactly_once() {
        let n = 1000;
        let queues = RangeQueues::new(n, 4);
        let taken: Vec<Vec<usize>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|w| {
                    let queues = &queues;
                    scope.spawn(move || {
                        std::iter::from_fn(|| queues.next(w).map(|(i, _)| i)).collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut all: Vec<usize> = taken.concat();
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>());
        // More workers than ranges: worker 2 owns the only range, and an
        // empty-handed worker steals it.
        let sparse = RangeQueues::new(1, 3);
        assert_eq!(sparse.next(0), Some((0, true)));
        assert_eq!((0..3).find_map(|w| sparse.next(w)), None);
    }

    #[test]
    fn campaign_covers_every_country() {
        let ds = quick_dataset();
        assert!(ds.countries.len() >= 224);
        // At scale 0.1 every country still contributes at least 1 client.
        assert!(ds.country_count() >= 220, "{}", ds.country_count());
        assert!(!ds.records.is_empty());
    }

    #[test]
    fn every_record_has_four_providers() {
        let ds = quick_dataset();
        for r in &ds.records {
            assert_eq!(r.doh.len(), 4, "client {}", r.client_id);
            for provider in ALL_PROVIDERS {
                assert!(r.sample(provider).is_some());
            }
        }
    }

    #[test]
    fn super_proxy_countries_use_the_atlas_remedy() {
        let ds = quick_dataset();
        let us_index = ds.countries.iter().position(|&c| c == "US").unwrap();
        for r in ds.records_in(us_index) {
            assert_eq!(r.do53_source, Do53Source::RipeAtlasRemedy);
            assert!(r.do53_ms.is_none());
        }
        assert!(ds.atlas_median_ms(us_index).is_some());
        // 11 remedy countries, all covered by Atlas samples.
        assert_eq!(ds.atlas_do53_ms.len(), 11);
    }

    #[test]
    fn non_sp_countries_have_header_do53() {
        let ds = quick_dataset();
        let br_index = ds.countries.iter().position(|&c| c == "BR").unwrap();
        let mut count = 0;
        for r in ds.records_in(br_index) {
            assert_eq!(r.do53_source, Do53Source::BrightDataHeader);
            assert!(r.do53_ms.unwrap() > 0.0);
            count += 1;
        }
        assert!(count >= 1);
    }

    #[test]
    fn mismatch_discard_rate_is_small() {
        let ds = quick_dataset();
        let frac = ds.discard_fraction();
        assert!(frac < 0.05, "discard fraction {frac}");
        // All retained records agree.
        assert!(ds.records.iter().all(|r| r.countries_agree()));
    }

    #[test]
    fn derived_times_are_plausible() {
        let ds = quick_dataset();
        let mut bad = 0;
        for r in &ds.records {
            for s in &r.doh {
                // Derived values can be slightly negative under jitter but
                // should overwhelmingly be positive and sub-10s.
                if !(0.0..10_000.0).contains(&s.t_doh_ms) {
                    bad += 1;
                }
                assert!(s.t_dohr_ms < s.t_doh_ms + 50.0);
            }
        }
        let frac = bad as f64 / (ds.records.len() * 4) as f64;
        assert!(frac < 0.01, "implausible fraction {frac}");
    }

    #[test]
    fn dohr_is_faster_than_doh1_in_aggregate() {
        let ds = quick_dataset();
        let mut doh: Vec<f64> = Vec::new();
        let mut dohr: Vec<f64> = Vec::new();
        for r in &ds.records {
            if let Some(s) = r.sample(ProviderKind::Cloudflare) {
                doh.push(s.t_doh_ms);
                dohr.push(s.t_dohr_ms);
            }
        }
        let med = |xs: &mut Vec<f64>| {
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            xs[xs.len() / 2]
        };
        assert!(med(&mut dohr) < med(&mut doh));
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = Campaign::new(CampaignConfig::quick(7)).run();
        let b = Campaign::new(CampaignConfig::quick(7)).run();
        assert_eq!(a.records.len(), b.records.len());
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra.client_id, rb.client_id);
            assert_eq!(ra.doh[0].t_doh_ms, rb.doh[0].t_doh_ms);
        }
    }

    #[test]
    fn store_run_reproduces_the_in_memory_dataset() {
        let config = CampaignConfig {
            scale: 0.02,
            ..CampaignConfig::quick(11)
        };
        let direct = Campaign::new(config).run();
        let dir =
            std::env::temp_dir().join(format!("dohperf-campaign-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let summary = Campaign::new(config).run_to_store(&dir, 64).unwrap();
        assert_eq!(summary.stats.records as usize, direct.records.len());
        assert_eq!(summary.discarded, direct.discarded_mismatches);
        assert!(summary.stats.chunks > 0);
        let back = crate::store_io::read_dataset(&dir).unwrap();
        assert_eq!(back.records, direct.records);
        assert_eq!(back.countries, direct.countries);
        assert_eq!(back.atlas_do53_ms, direct.atlas_do53_ms);
        assert_eq!(back.observed_ases, direct.observed_ases);
        assert_eq!(back.observed_resolvers, direct.observed_resolvers);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trace_sampling_never_perturbs_the_dataset() {
        let config = CampaignConfig {
            scale: 0.02,
            ..CampaignConfig::quick(7)
        };
        let plain = Campaign::new(config).run();
        let traced_campaign = Campaign::new(config).with_trace_sampling(4);
        let traced = traced_campaign.run();
        assert_eq!(plain.records, traced.records, "tracing must be invisible");
        let traces = traced_campaign.take_traces();
        assert!(!traces.is_empty(), "1-in-4 sampling should catch clients");
        assert!(
            traces.windows(2).all(|w| w[0].client_id < w[1].client_id),
            "traces drain in canonical client order"
        );
        for trace in &traces {
            let root = trace.root();
            assert!(root.name.starts_with("client "), "{}", root.name);
            assert!(
                trace.spans.iter().any(|s| s.target == "proxy"),
                "proxy spans recorded"
            );
        }
    }

    #[test]
    fn explain_client_replays_the_full_campaign_record() {
        let config = CampaignConfig {
            scale: 0.02,
            ..CampaignConfig::quick(11)
        };
        let ds = Campaign::new(config).run();
        let target = &ds.records[3];
        let explain = Campaign::explain_client(config, target.client_id).unwrap();
        assert!(explain.retained);
        // Bit-for-bit: the replayed shard derives the same RNG lineage.
        assert_eq!(explain.record, *target);
        assert_eq!(explain.trace.client_id, target.client_id);
        assert!(
            explain
                .trace
                .spans
                .iter()
                .any(|s| s.name == "derive Eq 1-8"),
            "derivation spans present"
        );
        // Out-of-range ids are rejected, not mis-attributed.
        assert!(Campaign::explain_client(config, u64::MAX).is_none());
    }

    #[test]
    fn pageload_never_perturbs_legacy_or_transport_samples() {
        // The DESIGN.md §15 fork-discipline contract, stacked on §13's:
        // enabling the page-load workload must leave every legacy field
        // *and* every transports sample bit-identical, because the page
        // draws come only from fresh page-keyed forks taken after both
        // blocks, under the same simulator-RNG checkpoint discipline.
        let base = CampaignConfig {
            scale: 0.02,
            protocols: ProtocolSet::all(),
            ..CampaignConfig::quick(7)
        };
        let without = Campaign::new(base).run();
        let with = Campaign::new(CampaignConfig {
            pages_per_client: 2,
            ..base
        })
        .run();
        assert_eq!(without.records.len(), with.records.len());
        for (l, e) in without.records.iter().zip(&with.records) {
            assert_eq!(l.client_id, e.client_id);
            assert_eq!(l.doh, e.doh, "client {}", l.client_id);
            assert_eq!(l.do53_ms, e.do53_ms);
            assert_eq!(l.do53_source, e.do53_source);
            assert_eq!(l.transports, e.transports, "client {}", l.client_id);
            assert!(l.pages.is_empty());
            assert_eq!(e.pages.len(), 4 * ALL_PROVIDERS.len());
        }
        assert_eq!(without.atlas_do53_ms, with.atlas_do53_ms);
        assert_eq!(without.discarded_mismatches, with.discarded_mismatches);
    }

    #[test]
    fn page_samples_cover_every_pair_and_share_one_dag() {
        let ds = Campaign::new(CampaignConfig {
            scale: 0.02,
            pages_per_client: 3,
            ..CampaignConfig::quick(13)
        })
        .run();
        let mut warm_savings = 0usize;
        let mut warm_hits = 0u64;
        for record in &ds.records {
            assert_eq!(record.pages.len(), 4 * ALL_PROVIDERS.len());
            let first = &record.pages[0];
            for transport in DnsTransport::ALL {
                for &provider in ALL_PROVIDERS.iter() {
                    let s = record
                        .page_sample(transport, provider)
                        .unwrap_or_else(|| panic!("missing {transport:?} {provider:?} page"));
                    // All sixteen pairs replay the same client DAG, so
                    // the shape columns must agree exactly.
                    assert_eq!(s.domains, first.domains);
                    assert_eq!(s.unique_names, first.unique_names);
                    assert_eq!(s.depth, first.depth);
                    assert!((4..=32).contains(&s.domains));
                    assert!(s.unique_names <= s.domains);
                    assert!((1..=4).contains(&s.depth));
                    assert!(s.plt_cold_ms > 0.0, "{transport:?} cold PLT");
                    assert!(s.plt_warm_ms > 0.0, "{transport:?} warm PLT");
                    if s.plt_warm_ms < s.plt_cold_ms {
                        warm_savings += 1;
                    }
                    warm_hits += u64::from(s.warm_cache_hits);
                }
            }
        }
        let total = ds.records.len() * 4 * ALL_PROVIDERS.len();
        // Warm visits skip the handshake and mostly hit the cache; the
        // overwhelming majority must come out faster than cold.
        assert!(
            warm_savings * 10 >= total * 9,
            "only {warm_savings}/{total} pages were faster warm"
        );
        assert!(warm_hits > 0, "warm revisits should hit the stub cache");
    }

    #[test]
    fn pageload_campaign_round_trips_through_the_store() {
        let config = CampaignConfig {
            scale: 0.02,
            protocols: ProtocolSet::all(),
            pages_per_client: 2,
            ..CampaignConfig::quick(11)
        };
        let direct = Campaign::new(config).run();
        let dir =
            std::env::temp_dir().join(format!("dohperf-campaign-pageload-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let summary = Campaign::new(config).run_to_store(&dir, 64).unwrap();
        assert_eq!(summary.stats.records as usize, direct.records.len());
        let back = crate::store_io::read_dataset(&dir).unwrap();
        assert_eq!(back.records, direct.records);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pageload_store_bytes_are_invariant_across_threads_and_shard_sizes() {
        // The per-client epoch discipline extends to the event-driven
        // page visits: every page event drains inside its client's
        // epoch, so the merged store stays a pure function of the seed.
        let base = CampaignConfig {
            scale: 0.02,
            pages_per_client: 2,
            ..CampaignConfig::quick(11)
        };
        let run = |shard_size: usize, threads: usize, tag: &str| {
            let dir = std::env::temp_dir().join(format!(
                "dohperf-campaign-pageshard-{}-{tag}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let config = CampaignConfig {
                shard_size,
                threads,
                ..base
            };
            Campaign::new(config).run_to_store(&dir, 16).unwrap();
            let records = std::fs::read(dir.join(RECORDS_FILE)).unwrap();
            let manifest = std::fs::read(dir.join(MANIFEST_FILE)).unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
            (records, manifest)
        };
        let reference = run(usize::MAX, 1, "ref");
        for (shard_size, threads, tag) in [(8usize, 3usize, "s8t3"), (1, 2, "s1t2")] {
            let got = run(shard_size, threads, tag);
            assert_eq!(reference.0, got.0, "records bytes, shard_size {shard_size}");
            assert_eq!(
                reference.1, got.1,
                "manifest bytes, shard_size {shard_size}"
            );
        }
    }

    #[test]
    fn explain_replays_a_page_timeline() {
        let config = CampaignConfig {
            scale: 0.02,
            pages_per_client: 2,
            ..CampaignConfig::quick(11)
        };
        let ds = Campaign::new(config).run();
        let target = &ds.records[1];
        let explain = Campaign::explain_client(config, target.client_id).unwrap();
        assert_eq!(explain.record, *target);
        let spans = &explain.trace.spans;
        let pages = spans
            .iter()
            .filter(|s| s.target == "pageload" && s.name.starts_with("page "))
            .count();
        assert_eq!(pages, 4 * ALL_PROVIDERS.len(), "one page span per pair");
        let visits = spans
            .iter()
            .filter(|s| s.target == "pageload" && s.name.starts_with("visit "))
            .count();
        assert_eq!(visits, 2 * 4 * ALL_PROVIDERS.len(), "cold + warm per pair");
        let resolves: Vec<_> = spans
            .iter()
            .filter(|s| s.target == "pageload" && s.name.starts_with("resolve "))
            .collect();
        let per_pair = target.pages[0].domains as usize;
        assert_eq!(
            resolves.len(),
            2 * per_pair * 4 * ALL_PROVIDERS.len(),
            "every node of every visit leaves a resolve span"
        );
        assert!(
            resolves
                .iter()
                .any(|s| s.attrs.iter().any(|(k, v)| k == &"cache" && v == "hit")),
            "warm revisit resolves should include cache hits"
        );
    }

    #[test]
    fn protocol_set_parses_and_iterates_canonically() {
        let set = ProtocolSet::parse_list("doq,dot").unwrap();
        assert_eq!(set.len(), 2);
        assert!(set.contains(DnsTransport::DoT));
        assert!(set.contains(DnsTransport::DoQ));
        assert!(!set.contains(DnsTransport::Do53));
        // Iteration order is canonical regardless of parse order.
        let order: Vec<_> = set.iter().collect();
        assert_eq!(order, vec![DnsTransport::DoT, DnsTransport::DoQ]);
        assert_eq!(ProtocolSet::all().len(), 4);
        assert!(ProtocolSet::parse_list("").unwrap().is_empty());
        let err = ProtocolSet::parse_list("do53,dohh").unwrap_err();
        assert!(err.contains("unknown protocol \"dohh\""), "{err}");
        assert!(err.contains("do53, doh, dot, doq"), "{err}");
    }

    #[test]
    fn extended_campaign_measures_every_transport_provider_pair() {
        let config = CampaignConfig {
            scale: 0.02,
            protocols: ProtocolSet::all(),
            ..CampaignConfig::quick(13)
        };
        let ds = Campaign::new(config).run();
        assert!(!ds.records.is_empty());
        for r in &ds.records {
            assert_eq!(r.transports.len(), 4 * ALL_PROVIDERS.len());
            for transport in DnsTransport::ALL {
                for provider in ALL_PROVIDERS {
                    let s = r.transport_sample(transport, provider).unwrap();
                    assert!(s.cold_ms > 0.0, "{transport:?} {provider:?}");
                    assert!(s.warm_ms > 0.0);
                    assert!(s.resumed_ms > 0.0);
                    // The cold path pays at least the handshake on top of
                    // a warm-equivalent query.
                    assert!(
                        s.cold_ms >= s.handshake_ms,
                        "cold {} < handshake {}",
                        s.cold_ms,
                        s.handshake_ms
                    );
                    if transport == DnsTransport::Do53 {
                        assert_eq!(s.handshake_ms, 0.0, "Do53 is connectionless");
                    } else {
                        assert!(s.handshake_ms > 0.0);
                    }
                }
            }
        }
    }

    #[test]
    fn extended_protocols_never_perturb_the_legacy_samples() {
        // The DESIGN.md §13 fork-discipline contract: adding lifecycle
        // measurements must leave every legacy field bit-identical,
        // because the new draws come only from fresh protocol-keyed
        // forks taken after the legacy loops.
        let legacy = Campaign::new(CampaignConfig {
            scale: 0.02,
            ..CampaignConfig::quick(7)
        })
        .run();
        let extended = Campaign::new(CampaignConfig {
            scale: 0.02,
            protocols: ProtocolSet::all(),
            ..CampaignConfig::quick(7)
        })
        .run();
        assert_eq!(legacy.records.len(), extended.records.len());
        for (l, e) in legacy.records.iter().zip(&extended.records) {
            assert_eq!(l.client_id, e.client_id);
            assert_eq!(l.doh, e.doh, "client {}", l.client_id);
            assert_eq!(l.do53_ms, e.do53_ms);
            assert_eq!(l.do53_source, e.do53_source);
            assert!(l.transports.is_empty());
            assert_eq!(e.transports.len(), 4 * ALL_PROVIDERS.len());
        }
        assert_eq!(legacy.atlas_do53_ms, extended.atlas_do53_ms);
        assert_eq!(legacy.discarded_mismatches, extended.discarded_mismatches);
    }

    #[test]
    fn extended_campaign_round_trips_through_the_store() {
        let config = CampaignConfig {
            scale: 0.02,
            protocols: ProtocolSet::all(),
            ..CampaignConfig::quick(11)
        };
        let direct = Campaign::new(config).run();
        let dir = std::env::temp_dir().join(format!(
            "dohperf-campaign-transports-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let summary = Campaign::new(config).run_to_store(&dir, 64).unwrap();
        assert_eq!(summary.stats.records as usize, direct.records.len());
        let back = crate::store_io::read_dataset(&dir).unwrap();
        assert_eq!(back.records, direct.records);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn windowing_never_perturbs_legacy_or_extended_samples() {
        // The DESIGN.md §16 fork-discipline contract, stacked on §13 and
        // §15: enabling windowing must leave every other field
        // bit-identical, because the window slot is a fresh fork of the
        // client stream and every window sample is derived from
        // already-measured values.
        let base = CampaignConfig {
            scale: 0.02,
            protocols: ProtocolSet::all(),
            pages_per_client: 2,
            ..CampaignConfig::quick(7)
        };
        let without = Campaign::new(base).run();
        let with = Campaign::new(CampaignConfig {
            window_nanos: 3_600_000_000_000,
            ..base
        })
        .run();
        assert_eq!(without.records.len(), with.records.len());
        for (l, e) in without.records.iter().zip(&with.records) {
            assert_eq!(l.client_id, e.client_id);
            assert_eq!(l.doh, e.doh, "client {}", l.client_id);
            assert_eq!(l.do53_ms, e.do53_ms);
            assert_eq!(l.transports, e.transports, "client {}", l.client_id);
            assert_eq!(l.pages, e.pages, "client {}", l.client_id);
            assert!(l.windows.is_empty());
            // Every legacy-DoH, lifecycle, and page block contributes
            // one sample, all sharing the client's one window.
            assert_eq!(
                e.windows.len(),
                e.doh.len() + e.transports.len() + e.pages.len()
            );
            assert!(e.windows.iter().all(|w| w.window == e.windows[0].window));
            assert!(e.windows.iter().all(|w| (w.window as u64) < 24));
            assert!(e.windows.iter().all(|w| w.availability() == 1.0));
        }
        assert_eq!(without.atlas_do53_ms, with.atlas_do53_ms);
        assert_eq!(without.discarded_mismatches, with.discarded_mismatches);
    }

    #[test]
    fn windowed_campaign_round_trips_through_the_store() {
        let config = CampaignConfig {
            scale: 0.02,
            protocols: ProtocolSet::all(),
            window_nanos: 3_600_000_000_000,
            ..CampaignConfig::quick(11)
        };
        let direct = Campaign::new(config).run();
        let dir =
            std::env::temp_dir().join(format!("dohperf-campaign-windows-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let summary = Campaign::new(config).run_to_store(&dir, 64).unwrap();
        assert_eq!(summary.stats.records as usize, direct.records.len());
        let back = crate::store_io::read_dataset(&dir).unwrap();
        assert_eq!(back.records, direct.records);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn windowed_store_bytes_are_invariant_across_threads_and_shard_sizes() {
        // The §16 determinism contract: the windowed column group rides
        // the same offset-anchored chunk discipline as every other
        // group, so the merged store stays a pure function of the seed.
        let base = CampaignConfig {
            scale: 0.02,
            window_nanos: 3_600_000_000_000,
            ..CampaignConfig::quick(11)
        };
        let run = |shard_size: usize, threads: usize, tag: &str| {
            let dir = std::env::temp_dir().join(format!(
                "dohperf-campaign-windowshard-{}-{tag}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let config = CampaignConfig {
                shard_size,
                threads,
                ..base
            };
            Campaign::new(config).run_to_store(&dir, 16).unwrap();
            let records = std::fs::read(dir.join(RECORDS_FILE)).unwrap();
            let manifest = std::fs::read(dir.join(MANIFEST_FILE)).unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
            (records, manifest)
        };
        let reference = run(usize::MAX, 1, "ref");
        for (shard_size, threads, tag) in [(8usize, 3usize, "s8t3"), (1, 2, "s1t2")] {
            let got = run(shard_size, threads, tag);
            assert_eq!(reference.0, got.0, "records bytes, shard_size {shard_size}");
            assert_eq!(
                reference.1, got.1,
                "manifest bytes, shard_size {shard_size}"
            );
        }
    }

    #[test]
    fn shard_ranges_partition_every_country_in_order() {
        let campaign = Campaign::new(CampaignConfig::quick(5));
        let plan = campaign.plan();
        for granularity in [1, 7, 256, usize::MAX] {
            let shards = shard_ranges(&plan, granularity);
            let mut expected_country = 0usize;
            let mut expected_start = 0usize;
            for spec in &shards {
                if spec.country != expected_country {
                    assert_eq!(expected_start, plan.counts[expected_country]);
                    expected_country = spec.country;
                    expected_start = 0;
                }
                assert_eq!(spec.start, expected_start, "granularity {granularity}");
                assert!(spec.end > spec.start);
                assert!(spec.end - spec.start <= granularity);
                assert!(spec.end <= plan.counts[spec.country]);
                expected_start = spec.end;
            }
            assert_eq!(expected_country, plan.counts.len() - 1);
            assert_eq!(expected_start, plan.counts[expected_country]);
        }
    }

    #[test]
    fn shard_size_zero_means_default() {
        assert_eq!(
            CampaignConfig::default().effective_shard_size(),
            DEFAULT_SHARD_SIZE
        );
        let cfg = CampaignConfig {
            shard_size: 7,
            ..CampaignConfig::default()
        };
        assert_eq!(cfg.effective_shard_size(), 7);
    }

    #[test]
    fn shard_size_is_invisible_to_the_dataset() {
        // The tentpole contract: shard size (like thread count) is a
        // throughput knob, never an output knob. A per-country reference
        // (shard_size large enough that no country splits) must match any
        // split granularity bit-for-bit, traces and Atlas included.
        let base = CampaignConfig {
            scale: 0.02,
            ..CampaignConfig::quick(7)
        };
        let reference = Campaign::new(CampaignConfig {
            shard_size: usize::MAX,
            threads: 1,
            ..base
        })
        .run();
        for shard_size in [1usize, 3, 256] {
            let ds = Campaign::new(CampaignConfig {
                shard_size,
                threads: 3,
                ..base
            })
            .run();
            assert_eq!(reference.records, ds.records, "shard_size {shard_size}");
            assert_eq!(reference.atlas_do53_ms, ds.atlas_do53_ms);
            assert_eq!(reference.discarded_mismatches, ds.discarded_mismatches);
        }
    }

    #[test]
    fn store_bytes_are_invariant_across_threads_and_shard_sizes() {
        // Offset-anchored chunk boundaries plus budget-aligned range
        // granularity make the merged store a pure function of the seed:
        // identical bytes for any (threads, shard_size).
        let base = CampaignConfig {
            scale: 0.02,
            ..CampaignConfig::quick(11)
        };
        let run = |shard_size: usize, threads: usize, tag: &str| {
            let dir = std::env::temp_dir().join(format!(
                "dohperf-campaign-shardstore-{}-{tag}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let config = CampaignConfig {
                shard_size,
                threads,
                ..base
            };
            Campaign::new(config).run_to_store(&dir, 16).unwrap();
            let records = std::fs::read(dir.join(RECORDS_FILE)).unwrap();
            let manifest = std::fs::read(dir.join(MANIFEST_FILE)).unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
            (records, manifest)
        };
        let reference = run(usize::MAX, 1, "ref");
        for (shard_size, threads, tag) in [(8usize, 3usize, "s8t3"), (1, 2, "s1t2")] {
            let got = run(shard_size, threads, tag);
            assert_eq!(reference.0, got.0, "records bytes, shard_size {shard_size}");
            assert_eq!(
                reference.1, got.1,
                "manifest bytes, shard_size {shard_size}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "scale in (0,1]")]
    fn zero_scale_rejected() {
        Campaign::new(CampaignConfig {
            scale: 0.0,
            ..CampaignConfig::default()
        });
    }
}
