//! Table/figure regeneration.
//!
//! One function per experiment, each returning the rendered text the
//! `repro` binary prints. Paper-reported values are embedded alongside so
//! every output is a paper-vs-measured comparison.

use dohperf_analysis::covariates;
use dohperf_analysis::dataset::client_positions;
use dohperf_analysis::deltas::{country_deltas, country_speedup_fraction};
use dohperf_analysis::geography::country_median_for;
use dohperf_analysis::pop_improvement::stats_for;
use dohperf_analysis::prelude::*;
use dohperf_analysis::render::{f, pct, pval, table};
use dohperf_analysis::{
    fit_logistic_models_threads, fit_table5_threads, fit_table6_threads, headline_cis_threads,
};
use dohperf_core::campaign::{
    Campaign, CampaignConfig, ClientExplain, ProtocolSet, CAMPAIGN_DURATION_NANOS,
};
use dohperf_core::records::Dataset;
use dohperf_core::validation;
use dohperf_netsim::connection::{DnsTransport, TlsVersion};
use dohperf_providers::provider::{ProviderKind, ALL_PROVIDERS};
use dohperf_stats::desc::median;
use dohperf_telemetry::flight::{QueryTrace, SpanRecord};
use dohperf_telemetry::{perfetto, phases};
use std::fmt::Write as _;

/// What the `export` experiment writes, and how the campaign stores its
/// records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutFormat {
    /// CSV and JSON Lines (the historical default).
    #[default]
    Both,
    /// CSV only.
    Csv,
    /// JSON Lines only.
    Jsonl,
    /// Columnar store directory: the campaign *streams* its records to
    /// disk as shards finish ([`Campaign::run_to_store`]), so peak
    /// record residency is the chunk budget, not the dataset size.
    Store,
}

impl OutFormat {
    /// Parse a `--out-format` argument.
    pub fn parse(s: &str) -> Option<OutFormat> {
        match s {
            "both" => Some(OutFormat::Both),
            "csv" => Some(OutFormat::Csv),
            "jsonl" => Some(OutFormat::Jsonl),
            "store" => Some(OutFormat::Store),
            _ => None,
        }
    }
}

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct ReproConfig {
    /// Master seed.
    pub seed: u64,
    /// Campaign scale in (0, 1]; 1.0 is the paper's 22k clients.
    pub scale: f64,
    /// Worker threads (0 = available parallelism) for the campaign, the
    /// store decoder, and the independent statistics of one render
    /// (bootstrap CIs, Table 4 horizons, Table 5/6 blocks). Output is
    /// byte-identical regardless of the value.
    pub threads: usize,
    /// Export format; `Store` also switches the campaign to the
    /// streaming store writer.
    pub out_format: OutFormat,
    /// Skip the campaign and load the dataset from this store directory
    /// instead. The materialised dataset is bit-exact with the one the
    /// writing run produced, so every experiment reproduces identically.
    pub from_store: Option<std::path::PathBuf>,
    /// Where `OutFormat::Store` writes the store directory.
    pub store_dir: std::path::PathBuf,
    /// Write a Chrome-trace-event JSON file of sampled query traces
    /// here after the campaign runs. Requires `trace_sample > 0`.
    pub trace_out: Option<std::path::PathBuf>,
    /// Flight-record 1 in N clients (0 = tracing off). Sampling is keyed
    /// off each client's RNG stream and never perturbs the simulation.
    pub trace_sample: u64,
    /// Extra transports to measure with the full connection-lifecycle
    /// model (`--protocols do53,doh,dot,doq`). Empty (the default) keeps
    /// the campaign byte-identical to the legacy pipeline; non-empty
    /// additionally records cold/warm/resumed samples per (client,
    /// provider) pair without perturbing the legacy draws (DESIGN.md §13).
    pub protocols: ProtocolSet,
    /// Clients per campaign work unit (0 = crate default). Like
    /// `threads`, a throughput knob only: output is byte-identical for
    /// every shard size (DESIGN.md §14).
    pub shard_size: usize,
    /// Page visits per (client, transport, provider) for the page-load
    /// workload (`--pages N`, N >= 2: one cold visit plus N-1 warm
    /// revisits). 0 (the default) disables the workload and keeps the
    /// campaign byte-identical to the legacy pipeline (DESIGN.md §15).
    pub pages: u32,
    /// Simulated-hour width of the windowed observability series
    /// (`--window-hours H`, H > 0). 0.0 (the default) disables
    /// windowing and keeps the campaign byte-identical to the legacy
    /// pipeline (DESIGN.md §16).
    pub window_hours: f64,
}

impl Default for ReproConfig {
    fn default() -> Self {
        ReproConfig {
            seed: 2021,
            scale: 0.25,
            threads: 0,
            out_format: OutFormat::Both,
            from_store: None,
            store_dir: std::path::PathBuf::from("target/store"),
            trace_out: None,
            trace_sample: 0,
            protocols: ProtocolSet::EMPTY,
            shard_size: 0,
            pages: 0,
            window_hours: 0.0,
        }
    }
}

/// Convert `--window-hours` into the campaign's integer window width.
/// Non-positive and non-finite values disable windowing.
pub fn window_nanos(hours: f64) -> u64 {
    if hours.is_finite() && hours > 0.0 {
        (hours * 3_600_000_000_000.0).round().max(1.0) as u64
    } else {
        0
    }
}

/// One `repro` experiment: its CLI name and the function that renders it.
pub type Experiment = (&'static str, fn(&mut ReproContext) -> String);

/// Every experiment `repro` knows, in paper order (`repro all` runs them
/// in this order). The artifact writers record a write failure for
/// exit-code propagation: a run that lost its artifacts must not exit 0.
pub const EXPERIMENTS: &[Experiment] = &[
    ("table1", |c| c.table1()),
    ("table2", |c| c.table2()),
    ("sec4-3", |c| c.sec4_3()),
    ("sec4-4", |c| c.sec4_4()),
    ("table3", |c| c.table3()),
    ("fig3", |c| c.fig3()),
    ("fig8", |c| c.fig8()),
    ("headline", |c| c.headline()),
    ("fig4", |c| c.fig4()),
    ("fig5", |c| c.fig5()),
    ("fig6", |c| c.fig6()),
    ("fig9", |c| c.fig9()),
    ("fig7", |c| c.fig7()),
    ("table4", |c| c.table4()),
    ("table5", |c| c.table5()),
    ("table6", |c| c.table6()),
    ("regions", |c| c.regions()),
    ("robustness", |c| c.robustness()),
    ("ablation-tls12", |c| c.ablation_tls12()),
    ("ablation-anycast", |c| c.ablation_anycast()),
    ("ablation-cache", |c| c.ablation_cache()),
    ("ablation-loss", |c| c.ablation_loss()),
    ("ablation-vantage", |c| c.ablation_vantage()),
    ("transports", |c| c.transports()),
    ("pageload", |c| c.pageload()),
    ("timeline", |c| c.timeline()),
    ("export", |c| {
        let written = c.export(std::path::Path::new("target/dataset"));
        c.or_io_error("export", written)
    }),
    ("figdata", |c| {
        let written = c.figdata(std::path::Path::new("target/figdata"));
        c.or_io_error("figdata", written)
    }),
    ("report", |c| {
        let written = c.report(std::path::Path::new("target/report.md"));
        c.or_io_error("report", written)
    }),
];

/// Lazily runs the campaign once and serves every experiment from it.
pub struct ReproContext {
    config: ReproConfig,
    dataset: Option<Dataset>,
    /// Failures from artifact writers and inconsistent inputs; the
    /// binary turns a non-empty list into a nonzero exit.
    errors: Vec<String>,
}

impl ReproContext {
    /// Create a context.
    pub fn new(config: ReproConfig) -> Self {
        ReproContext {
            config,
            dataset: None,
            errors: Vec::new(),
        }
    }

    /// Failures recorded so far (trace export, store writes, a
    /// `--window-hours` the data contradicts). The process must not exit
    /// 0 while this is non-empty.
    pub fn errors(&self) -> &[String] {
        &self.errors
    }

    /// Report a failure on stderr and record it for exit-code propagation.
    pub fn record_error(&mut self, message: String) {
        eprintln!("error: {message}");
        self.errors.push(message);
    }

    /// Record an I/O failure for exit-code propagation.
    pub fn record_io_error(&mut self, context: &str, err: &std::io::Error) {
        self.record_error(format!("{context}: {err}"));
    }

    /// An artifact writer's text, or its failure recorded and reported.
    fn or_io_error(&mut self, what: &str, written: std::io::Result<String>) -> String {
        written.unwrap_or_else(|e| {
            self.record_io_error(&format!("{what} failed"), &e);
            format!("{what} failed: {e}\n")
        })
    }

    /// The campaign configuration every dataset-producing path uses.
    fn campaign_config(&self) -> CampaignConfig {
        CampaignConfig {
            seed: self.config.seed,
            scale: self.config.scale,
            threads: self.config.threads,
            protocols: self.config.protocols,
            shard_size: self.config.shard_size,
            pages_per_client: self.config.pages,
            window_nanos: window_nanos(self.config.window_hours),
            ..CampaignConfig::default()
        }
    }

    /// The (cached) campaign dataset.
    ///
    /// Three sources, in precedence order: an existing store directory
    /// (`--from-store`), a streaming store-writing campaign run
    /// (`--out-format store`, which spills records to `store_dir` with
    /// bounded memory and reads them back), or the in-memory campaign.
    /// All three yield bit-identical datasets for the same seed/scale.
    pub fn dataset(&mut self) -> &Dataset {
        if self.dataset.is_none() {
            let ds = if let Some(dir) = self.config.from_store.clone() {
                let _phase = phases::phase("load-store");
                // `--threads` governs the decoder fan-out here exactly as
                // it governs campaign workers: 0 = all cores, and the
                // materialised dataset is bit-identical at any value.
                dohperf_core::store_io::read_dataset_threads(&dir, self.config.threads)
                    .unwrap_or_else(|e| {
                        panic!("loading store {}: {e}", dir.display());
                    })
            } else {
                let campaign = Campaign::new(self.campaign_config())
                    .with_trace_sampling(self.config.trace_sample);
                let ds = if self.config.out_format == OutFormat::Store {
                    let dir = self.config.store_dir.clone();
                    campaign
                        .run_to_store(&dir, 0)
                        .unwrap_or_else(|e| panic!("writing store {}: {e}", dir.display()));
                    dohperf_core::store_io::read_dataset_threads(&dir, self.config.threads)
                        .unwrap_or_else(|e| {
                            panic!("reading back store {}: {e}", dir.display());
                        })
                } else {
                    campaign.run()
                };
                self.write_trace(&campaign);
                ds
            };
            self.dataset = Some(ds);
        }
        self.dataset.as_ref().expect("just initialised")
    }

    /// Export the campaign's sampled flight traces as a Chrome
    /// trace-event JSON file (open in Perfetto or `chrome://tracing`).
    /// Write failures are recorded, not swallowed: the process exits
    /// nonzero even though the dataset itself is fine.
    fn write_trace(&mut self, campaign: &Campaign) {
        let Some(path) = self.config.trace_out.clone() else {
            return;
        };
        let _phase = phases::phase("trace-export");
        let traces = campaign.take_traces();
        let json = perfetto::to_chrome_trace(&traces);
        let written = (|| -> std::io::Result<()> {
            if let Some(parent) = path.parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent)?;
                }
            }
            std::fs::write(&path, &json)
        })();
        match written {
            Ok(()) => eprintln!(
                "# trace written to {} ({} traces, {} bytes)",
                path.display(),
                traces.len(),
                json.len()
            ),
            Err(e) => self.record_io_error(&format!("writing trace {}", path.display()), &e),
        }
    }

    /// `repro explain --query <id>`: replay one client and render its
    /// annotated timeline — every span, every header timestamp, and the
    /// Eq 1–8 arithmetic line by line.
    pub fn explain(&self, client_id: u64) -> Result<String, String> {
        if self.config.trace_sample > 0 || self.config.trace_out.is_some() {
            // Explain always records its one client; sampling flags are
            // for the export path and would be misleading here.
            eprintln!("# note: explain ignores --trace-out/--trace-sample");
        }
        let explain =
            Campaign::explain_client(self.campaign_config(), client_id).ok_or_else(|| {
                format!(
                    "client {client_id} is outside this campaign's id range \
                 (seed {}, scale {}); ids start at 1",
                    self.config.seed, self.config.scale
                )
            })?;
        Ok(render_explain(&explain))
    }

    /// Table 1: ground-truth DoH/DoHR validation.
    pub fn table1(&self) -> String {
        let rows = validation::run_table1(self.config.seed, 10);
        let mut out = String::from(
            "Table 1: Ground-truth experiments for DoH and DoHR (median ms; paper: diffs <= ~9ms)\n",
        );
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.country.to_string(),
                    f(r.derived_doh_ms, 0),
                    f(r.truth_doh_ms, 0),
                    f(r.doh_error_ms(), 1),
                    f(r.derived_dohr_ms, 0),
                    f(r.truth_dohr_ms, 0),
                    f(r.dohr_error_ms(), 1),
                ]
            })
            .collect();
        out += &table(
            &[
                "Country",
                "DoH est",
                "DoH truth",
                "|err|",
                "DoHR est",
                "DoHR truth",
                "|err|",
            ],
            &body,
        );
        out
    }

    /// Table 2: ground-truth Do53 validation.
    pub fn table2(&self) -> String {
        let rows = validation::run_table2(self.config.seed, 10);
        let mut out = String::from(
            "Table 2: Ground-truth experiments for Do53 (median ms; paper: diffs <= 2ms)\n",
        );
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.country.to_string(),
                    f(r.derived_ms, 0),
                    f(r.truth_ms, 0),
                    f(r.error_ms(), 2),
                ]
            })
            .collect();
        out += &table(&["Country", "Header", "Ground truth", "|err|"], &body);
        out
    }

    /// Table 3: dataset composition.
    pub fn table3(&mut self) -> String {
        let scale = self.config.scale;
        let ds = self.dataset();
        let rows = composition(ds);
        let mut out = String::from(
            "Table 3: Dataset composition (paper: >=21,858 clients, >=222 countries per resolver at full scale)\n",
        );
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.resolver.clone(),
                    r.clients.to_string(),
                    r.countries.to_string(),
                ]
            })
            .collect();
        out += &table(&["Resolver", "Clients", "Countries"], &body);
        let _ = writeln!(
            out,
            "(scale = {:.2}; mismatch-discarded: {} = {})",
            scale,
            ds.discarded_mismatches,
            pct(ds.discard_fraction())
        );
        out
    }

    /// Table 4: logistic model of slowdowns.
    pub fn table4(&mut self) -> String {
        let threads = self.config.threads;
        let cov = covariates::build(self.dataset());
        let report = fit_logistic_models_threads(&cov, threads);
        let mut out = String::from("Table 4: Modeling DoH vs Do53 slowdowns (odds ratios)\n");
        let _ = writeln!(
            out,
            "global median multipliers (paper 1.84/1.24/1.18/1.17): {:.2} / {:.2} / {:.2} / {:.2}",
            report.median_multipliers[0],
            report.median_multipliers[1],
            report.median_multipliers[2],
            report.median_multipliers[3]
        );
        let body: Vec<Vec<String>> = report
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.variable.clone(),
                    format!("{:.2}x", r.odds_ratios[0]),
                    format!("{:.2}x", r.odds_ratios[1]),
                    format!("{:.2}x", r.odds_ratios[2]),
                    format!("{:.2}x", r.odds_ratios[3]),
                    pval(r.p_values[0]),
                ]
            })
            .collect();
        out += &table(
            &["Variable", "OR", "OR_10", "OR_100", "OR_1000", "p(OR)"],
            &body,
        );
        out += "paper:   Slow 1.81/1.69/1.66/1.65 | Low income 1.98/1.37/1.27/1.25 | Low ASes 1.99/1.76/1.70/1.69\n";
        out += "paper:   Google 1.76/1.77/1.71/1.70 | NextDNS 2.25/1.99/1.91/1.90 | Quad9 1.78/1.34/1.27/1.25\n";
        out
    }

    /// Table 5: linear models of the delta.
    pub fn table5(&mut self) -> String {
        let threads = self.config.threads;
        let cov = covariates::build(self.dataset());
        let mut out = String::from("Table 5: Linear modeling of DNS performance\n");
        for block in &fit_table5_threads(&cov, threads) {
            let _ = writeln!(
                out,
                "Output: {} (n = {}, R^2 = {:.3})",
                block.output, block.n, block.r_squared
            );
            let body: Vec<Vec<String>> = block
                .rows
                .iter()
                .map(|r| {
                    vec![
                        r.metric.to_string(),
                        format!("{:.3e}", r.coef),
                        f(r.scaled_coef, 1),
                        pval(r.p_value),
                    ]
                })
                .collect();
            out += &table(&["Metric", "Coef (ms)", "Scaled (ms)", "p"], &body);
        }
        out += "paper (Delta, scaled): GDP -13.8 (n.s.) | Bandwidth -134.5 | Num ASes -80.8 | NS Dist +30.0 | Resolver Dist +93.4\n";
        out
    }

    /// Table 6: per-resolver linear models.
    pub fn table6(&mut self) -> String {
        let threads = self.config.threads;
        let cov = covariates::build(self.dataset());
        let mut out = String::from("Table 6: Linear modeling by resolver (Delta-1)\n");
        for block in &fit_table6_threads(&cov, threads) {
            let _ = writeln!(
                out,
                "Resolver: {} (n = {}, R^2 = {:.3})",
                block.output, block.n, block.r_squared
            );
            let body: Vec<Vec<String>> = block
                .rows
                .iter()
                .map(|r| {
                    vec![
                        r.metric.to_string(),
                        format!("{:.3e}", r.coef),
                        f(r.scaled_coef, 1),
                        pval(r.p_value),
                    ]
                })
                .collect();
            out += &table(&["Metric", "Coef (ms)", "Scaled (ms)", "p"], &body);
        }
        out
    }

    /// Figure 3: clients per country.
    pub fn fig3(&mut self) -> String {
        let ds = self.dataset();
        let rows = clients_per_country(ds);
        let counts: Vec<f64> = rows.iter().map(|&(_, n)| n as f64).collect();
        let med = median(&counts);
        let over_200 = counts.iter().filter(|&&n| n >= 200.0).count() as f64 / counts.len() as f64;
        let mut out = String::from("Figure 3: Clients per country (paper: median 103, >=200 for 17% of countries at full scale)\n");
        let _ = writeln!(
            out,
            "countries: {}   median clients: {:.0}   >=200 clients: {}",
            counts.len(),
            med,
            pct(over_200)
        );
        let (vals, probs) = dohperf_stats::desc::ecdf(&counts);
        out += &dohperf_analysis::render::ascii_cdf(&vals, &probs, 50);
        out
    }

    /// Figure 4: resolution-time CDFs per resolver.
    pub fn fig4(&mut self) -> String {
        let ds = self.dataset();
        let panels = provider_cdfs(ds);
        let mut out = String::from(
            "Figure 4: Resolution times by resolver (paper medians: DoH1 CF 338 / GG 429 / ND 467 / Q9 447; DoHR CF 257 / GG 315 / Q9 298; Do53 ~250)\n",
        );
        for p in &panels {
            let _ = writeln!(
                out,
                "{:<11} DoH1 p50 {:>6.0}ms p90 {:>6.0}ms | DoHR p50 {:>6.0}ms p90 {:>6.0}ms | Do53 p50 {:>6.0}ms",
                p.provider.name(),
                p.doh1.median(),
                p.doh1.quantile(0.9),
                p.dohr.median(),
                p.dohr.quantile(0.9),
                p.do53.median(),
            );
        }
        let cf = panels
            .iter()
            .find(|p| p.provider == ProviderKind::Cloudflare)
            .expect("cloudflare panel");
        out += "\nCloudflare DoH1 CDF:\n";
        out += &dohperf_analysis::render::ascii_cdf(&cf.doh1.values, &cf.doh1.probs, 50);
        out
    }

    /// Figure 5: per-country medians and PoP counts.
    pub fn fig5(&mut self) -> String {
        let ds = self.dataset();
        let rows = country_medians(ds);
        let mut out = String::from(
            "Figure 5: Median DoH per country + PoPs (paper PoPs: CF 146 / GG 26 / ND 107)\n",
        );
        for &provider in &ALL_PROVIDERS {
            let meds: Vec<f64> = rows
                .iter()
                .filter(|r| r.provider == provider)
                .map(|r| r.median_doh1_ms)
                .collect();
            let _ = writeln!(
                out,
                "{:<11} PoPs {:>3}   country-median DoH1: p10 {:>6.0}ms  p50 {:>6.0}ms  p90 {:>6.0}ms",
                provider.name(),
                provider.pop_count(),
                dohperf_stats::desc::quantile(&meds, 0.1),
                median(&meds),
                dohperf_stats::desc::quantile(&meds, 0.9),
            );
        }
        // The Senegal story (§5.2).
        let cf_sn = country_median_for(&rows, "SN", ProviderKind::Cloudflare);
        let gg_sn = country_median_for(&rows, "SN", ProviderKind::Google);
        if let (Some(cf), Some(gg)) = (cf_sn, gg_sn) {
            let _ = writeln!(
                out,
                "Senegal (paper: CF 274ms beats GG 381ms thanks to the Dakar PoP): CF {cf:.0}ms vs GG {gg:.0}ms"
            );
        }
        // Extremes (§5.3: Chad 2011ms, Bermuda 204ms).
        for iso in ["TD", "BM"] {
            let all: Vec<f64> = ALL_PROVIDERS
                .iter()
                .filter_map(|&p| country_median_for(&rows, iso, p))
                .collect();
            if !all.is_empty() {
                let _ = writeln!(
                    out,
                    "{iso} median DoH1 across providers: {:.0}ms",
                    median(&all)
                );
            }
        }
        out
    }

    /// Figure 6: potential improvement in distance to PoP.
    pub fn fig6(&mut self) -> String {
        let ds = self.dataset();
        let stats = pop_improvement(ds);
        let mut out = String::from(
            "Figure 6: Potential improvement (paper medians: ND 6mi / GG 44mi / CF 46mi / Q9 769mi; >=1000mi: CF 26%, GG 10%)\n",
        );
        for s in &stats {
            let _ = writeln!(
                out,
                "{:<11} median {:>6.0}mi   >=1000mi {:>6}   assigned-to-closest {:>6}",
                s.provider.name(),
                s.median_improvement_miles,
                pct(s.over_1000_miles_fraction),
                pct(s.optimal_fraction),
            );
        }
        let q9 = stats_for(&stats, ProviderKind::Quad9);
        out += "\nQuad9 potential-improvement CDF:\n";
        let (vals, probs) = dohperf_stats::desc::ecdf(&q9.improvements_miles);
        out += &dohperf_analysis::render::ascii_cdf(&vals, &probs, 50);
        out
    }

    /// Figure 7: per-country deltas by resolver.
    pub fn fig7(&mut self) -> String {
        let ds = self.dataset();
        let deltas = country_deltas(ds, 10);
        let summary = resolver_delta_summary(&deltas);
        let mut out = String::from(
            "Figure 7: Do53 -> DoH10 delta per country (paper: CF +49.65ms median, ND +159.62ms; 8.8% of countries speed up)\n",
        );
        for s in &summary {
            let _ = writeln!(
                out,
                "{:<11} median country delta {:>7.1}ms   countries speeding up {:>6}   (n = {})",
                s.provider.name(),
                s.median_delta_ms,
                pct(s.speedup_fraction),
                s.countries,
            );
        }
        let _ = writeln!(
            out,
            "overall countries benefiting from DoH (median across providers): {}",
            pct(country_speedup_fraction(&deltas))
        );
        out
    }

    /// Figure 8: the client map.
    pub fn fig8(&mut self) -> String {
        let ds = self.dataset();
        let positions = client_positions(ds);
        let mut out = String::from(
            "Figure 8: Clients in the dataset (paper: 22,052 clients, 224 countries)\n",
        );
        let _ = writeln!(
            out,
            "clients: {}   countries: {}",
            positions.len(),
            ds.country_count()
        );
        // Coarse ASCII world density map: 18 rows x 72 cols.
        let (rows, cols) = (18usize, 72usize);
        let mut grid = vec![vec![0u32; cols]; rows];
        for p in &positions {
            let r = (((90.0 - p.lat) / 180.0) * rows as f64).clamp(0.0, rows as f64 - 1.0) as usize;
            let c =
                (((p.lon + 180.0) / 360.0) * cols as f64).clamp(0.0, cols as f64 - 1.0) as usize;
            grid[r][c] += 1;
        }
        for row in grid {
            let line: String = row
                .iter()
                .map(|&n| match n {
                    0 => ' ',
                    1..=2 => '.',
                    3..=9 => '+',
                    _ => '#',
                })
                .collect();
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Figure 9: per-client distance to the servicing PoP.
    pub fn fig9(&mut self) -> String {
        let ds = self.dataset();
        let stats = pop_improvement(ds);
        let mut out = String::from("Figure 9: Per-client distance to servicing PoP\n");
        for s in &stats {
            let _ = writeln!(
                out,
                "{:<11} p25 {:>6.0}mi  p50 {:>6.0}mi  p75 {:>6.0}mi  p90 {:>6.0}mi",
                s.provider.name(),
                dohperf_stats::desc::quantile(&s.distances_miles, 0.25),
                median(&s.distances_miles),
                dohperf_stats::desc::quantile(&s.distances_miles, 0.75),
                s.p90_distance_miles,
            );
        }
        out
    }

    /// §4.3: resolver confirmation.
    pub fn sec4_3(&self) -> String {
        let ok = validation::run_resolver_confirmation(self.config.seed, 10);
        format!(
            "Section 4.3: exit nodes use the OS-configured resolver: {}\n",
            if ok {
                "CONFIRMED (all trace packets target the default resolver)"
            } else {
                "VIOLATED"
            }
        )
    }

    /// §4.4: BrightData vs RIPE Atlas.
    pub fn sec4_4(&self) -> String {
        let result = validation::run_platform_consistency(self.config.seed, 100);
        let mut out = String::from(
            "Section 4.4: BrightData vs RIPE Atlas Do53 consistency (paper: mean 7.6ms, sd 5.2ms)\n",
        );
        for (iso, diff) in &result.per_country_diff_ms {
            let _ = writeln!(out, "  {iso}: |median diff| = {diff:.1}ms");
        }
        let _ = writeln!(
            out,
            "mean |diff| = {:.1}ms, sd = {:.1}ms",
            result.mean_diff_ms, result.sd_diff_ms
        );
        out
    }

    /// Ablation: TLS 1.2 vs TLS 1.3 (the paper's §7 limitation note).
    pub fn ablation_tls12(&self) -> String {
        let base = self.variant_dataset(|_| {});
        let tls12 = self.variant_dataset(|cfg| cfg.measurement.tls = TlsVersion::V1_2);
        let h13 = headline_stats(&base);
        let h12 = headline_stats(&tls12);
        let mut out = String::from(
            "Ablation: TLS 1.2 clients (paper §7: \"clients that still use TLS 1.2 will have slower DoH performance overall\")
",
        );
        let _ = writeln!(
            out,
            "median DoH1:  TLS 1.3 {:>6.1}ms   TLS 1.2 {:>6.1}ms   (+{:.1}ms for the extra handshake round trip)",
            h13.median_doh1_ms,
            h12.median_doh1_ms,
            h12.median_doh1_ms - h13.median_doh1_ms
        );
        let _ = writeln!(
            out,
            "median DoHR:  TLS 1.3 {:>6.1}ms   TLS 1.2 {:>6.1}ms",
            h13.median_dohr_ms, h12.median_dohr_ms
        );
        out += "note: both derived numbers inflate under TLS 1.2 because Equations 7-8 hard-code a one-RTT
";
        out += "handshake — reproducing exactly the overestimate the paper's pipeline would produce for 1.2 clients.
";
        let _ = writeln!(
            out,
            "first-request speedups: {} -> {}",
            pct(h13.first_request_speedup_fraction),
            pct(h12.first_request_speedup_fraction)
        );
        out
    }

    /// Ablation: perfect anycast routing for every provider.
    pub fn ablation_anycast(&self) -> String {
        let base = self.variant_dataset(|_| {});
        let perfect = self.variant_dataset(|cfg| cfg.perfect_anycast = true);
        let mut out = String::from(
            "Ablation: perfect nearest-PoP anycast (how much of the slowdown is routing?)
",
        );
        let base_cdfs = provider_cdfs(&base);
        let perf_cdfs = provider_cdfs(&perfect);
        for (b, p) in base_cdfs.iter().zip(&perf_cdfs) {
            let _ = writeln!(
                out,
                "{:<11} DoH1 median {:>6.0}ms -> {:>6.0}ms ({:+.0}ms)   DoHR median {:>6.0}ms -> {:>6.0}ms",
                b.provider.name(),
                b.doh1.median(),
                p.doh1.median(),
                p.doh1.median() - b.doh1.median(),
                b.dohr.median(),
                p.dohr.median(),
            );
        }
        let imp = pop_improvement(&perfect);
        let _ = writeln!(
            out,
            "(sanity: with perfect routing every provider's median potential improvement is ~0: {})",
            imp.iter()
                .map(|s| format!("{} {:.0}mi", s.provider.name(), s.median_improvement_miles))
                .collect::<Vec<_>>()
                .join(", ")
        );
        out += "Quad9 gains the most — its default policy leaves only ~21% of clients on the nearest PoP.
";
        out
    }

    /// Ablation: warm caches (the §7 "cache hits and misses" future work).
    pub fn ablation_cache(&self) -> String {
        let base = self.variant_dataset(|_| {});
        let warm = self.variant_dataset(|cfg| {
            cfg.measurement.doh_cache_hit_p = 0.7;
            cfg.measurement.do53_cache_hit_p = 0.7;
        });
        let hb = headline_stats(&base);
        let hw = headline_stats(&warm);
        let mut out = String::from(
            "Ablation: 70% cache-hit world vs the paper's forced misses (§7 future work)
",
        );
        let _ = writeln!(
            out,
            "median Do53: miss-only {:>6.1}ms   70% hits {:>6.1}ms",
            hb.median_do53_ms, hw.median_do53_ms
        );
        let _ = writeln!(
            out,
            "median DoH1: miss-only {:>6.1}ms   70% hits {:>6.1}ms",
            hb.median_doh1_ms, hw.median_doh1_ms
        );
        let _ = writeln!(
            out,
            "median DoHR: miss-only {:>6.1}ms   70% hits {:>6.1}ms",
            hb.median_dohr_ms, hw.median_dohr_ms
        );
        let _ = writeln!(
            out,
            "10-request speedup fraction: {} -> {}",
            pct(hb.ten_request_speedup_fraction),
            pct(hw.ten_request_speedup_fraction)
        );
        out += "Caching helps Do53 mostly at the resolver and DoH mostly at the PoP; the handshake cost is untouched,
so DoH-by-default remains a first-connection tax even in a warm-cache world.
";
        out
    }

    /// Regional (continent-level) summary — the §8 claim that every
    /// provider shows high regional variance.
    pub fn regions(&mut self) -> String {
        let ds = self.dataset();
        let summaries = dohperf_analysis::regions::region_summaries(ds);
        let mut out = String::from(
            "Regional analysis (§8: all resolvers, including Cloudflare, vary strongly across regions)
",
        );
        for &provider in &ALL_PROVIDERS {
            let cv = dohperf_analysis::regions::regional_variation(&summaries, provider);
            let mut meds: Vec<String> = Vec::new();
            for s in summaries.iter().filter(|s| s.provider == provider) {
                meds.push(format!(
                    "{} {:.0}ms",
                    dohperf_analysis::regions::region_name(s.region),
                    s.median_doh1_ms
                ));
            }
            let _ = writeln!(
                out,
                "{:<11} CV {:.2}   {}",
                provider.name(),
                cv,
                meds.join(" | ")
            );
        }
        out
    }

    /// Write gnuplot-ready .dat files for every figure into `dir`.
    pub fn figdata(&mut self, dir: &std::path::Path) -> std::io::Result<String> {
        let ds = self.dataset();
        std::fs::create_dir_all(dir)?;
        let files = [
            ("fig3.dat", dohperf_analysis::fig_export::fig3_dat(ds)),
            (
                "fig4.dat",
                dohperf_analysis::fig_export::fig4_dat(&provider_cdfs(ds)),
            ),
            (
                "fig6.dat",
                dohperf_analysis::fig_export::fig6_dat(&pop_improvement(ds)),
            ),
            (
                "fig7.dat",
                dohperf_analysis::fig_export::fig7_dat(&country_deltas(ds, 10)),
            ),
            ("fig8.dat", dohperf_analysis::fig_export::fig8_dat(ds)),
            ("dohn.dat", dohperf_analysis::fig_export::dohn_dat(ds)),
        ];
        // Windowed campaigns additionally export the timeline series.
        let tl = timeline(ds);
        let timeline_file = (!tl.is_empty()).then(|| {
            (
                "timeline.dat",
                dohperf_analysis::timeline::timeline_dat(&tl),
            )
        });
        let mut out = String::from(
            "figure data written:
",
        );
        for (name, contents) in files.into_iter().chain(timeline_file) {
            let path = dir.join(name);
            std::fs::write(&path, &contents)?;
            let _ = writeln!(out, "  {} ({} bytes)", path.display(), contents.len());
        }
        Ok(out)
    }

    /// Write the one-document markdown report to `path`.
    pub fn report(&mut self, path: &std::path::Path) -> std::io::Result<String> {
        let seed = self.config.seed;
        let ds = self.dataset();
        let md = dohperf_analysis::report::full_report(ds, seed);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, &md)?;
        Ok(format!(
            "report written to {} ({} bytes)
",
            path.display(),
            md.len()
        ))
    }

    /// Robustness report: bootstrap CIs + rank correlations.
    pub fn robustness(&mut self) -> String {
        let (seed, threads) = (self.config.seed, self.config.threads);
        let ds = self.dataset();
        let mut out = String::from(
            "Robustness: bootstrap CIs and rank correlations (beyond the paper)
",
        );
        if let Some(cis) = headline_cis_threads(ds, seed, threads) {
            let _ = writeln!(
                out,
                "median DoH1 {:.1}ms [{:.1}, {:.1}]   DoHR {:.1}ms [{:.1}, {:.1}]   Do53 {:.1}ms [{:.1}, {:.1}]  (95% bootstrap)",
                cis.doh1.estimate, cis.doh1.lo, cis.doh1.hi,
                cis.dohr.estimate, cis.dohr.lo, cis.dohr.hi,
                cis.do53.estimate, cis.do53.lo, cis.do53.hi,
            );
            let _ = writeln!(
                out,
                "headline slowdown significant at 95%: {}",
                cis.slowdown_is_significant()
            );
        }
        let deltas = country_deltas(ds, 1);
        if let Some(corr) = dohperf_analysis::robustness::covariate_correlations(&deltas) {
            let _ = writeln!(
                out,
                "Spearman rho vs country-median delta (n={}): bandwidth {:+.2}, AS count {:+.2}, GDP {:+.2}",
                corr.n, corr.bandwidth, corr.as_count, corr.gdp
            );
            out += "(nonparametric confirmation of Table 5's signs, immune to min-max scaling outliers)
";
        }
        out
    }

    /// Export the dataset into `dir` in the configured `--out-format`:
    /// CSV, JSON Lines, both (default), or the columnar store.
    pub fn export(&mut self, dir: &std::path::Path) -> std::io::Result<String> {
        let format = self.config.out_format;
        let store_dir = self.config.store_dir.clone();
        let from_store = self.config.from_store.clone();
        let ds = self.dataset();
        std::fs::create_dir_all(dir)?;
        let mut out = format!("exported {} clients:\n", ds.records.len());
        if matches!(format, OutFormat::Both | OutFormat::Csv) {
            let csv = dohperf_core::export::to_csv(ds);
            let path = dir.join("dataset.csv");
            std::fs::write(&path, &csv)?;
            let _ = writeln!(out, "  {} ({} bytes)", path.display(), csv.len());
        }
        if matches!(format, OutFormat::Both | OutFormat::Jsonl) {
            let jsonl = dohperf_core::export::to_jsonl(ds);
            let path = dir.join("dataset.jsonl");
            std::fs::write(&path, &jsonl)?;
            let _ = writeln!(out, "  {} ({} bytes)", path.display(), jsonl.len());
        }
        if format == OutFormat::Store {
            // Without --from-store, this context's own campaign streamed
            // the dataset to `store_dir`. With it, write the loaded
            // records there, unless `store_dir` is the source itself: a
            // store left by an earlier run must never be reported as
            // this dataset's.
            let streamed_here = match &from_store {
                None => true,
                Some(source) => same_dir(source, &store_dir),
            };
            if !streamed_here {
                dohperf_core::store_io::write_dataset(ds, &store_dir, 0)
                    .map_err(std::io::Error::from)?;
            }
            let manifest =
                dohperf_core::store_io::read_manifest(&store_dir).map_err(std::io::Error::from)?;
            let _ = writeln!(
                out,
                "  {} ({} records, {} chunks, {} bytes)",
                store_dir.display(),
                manifest.total_records,
                manifest.total_chunks,
                manifest.total_bytes,
            );
        }
        Ok(out)
    }

    /// Ablation: vantage-point bias (the §7 single-proxy limitation).
    pub fn ablation_vantage(&mut self) -> String {
        let ds = self.dataset();
        let cmp = dohperf_analysis::vantage::vantage_comparison(ds);
        let mut out = String::from(
            "Ablation: vantage reweighting (clients reweighted by national AS-count share, §7's single-proxy bias)
",
        );
        let _ = writeln!(
            out,
            "median DoH1: BrightData distribution {:>6.1}ms   ecosystem-weighted {:>6.1}ms   ({:+.1}% bias)",
            cmp.doh1_unweighted_ms,
            cmp.doh1_weighted_ms,
            cmp.doh1_bias_fraction() * 100.0
        );
        let _ = writeln!(
            out,
            "median Do53: BrightData distribution {:>6.1}ms   ecosystem-weighted {:>6.1}ms",
            cmp.do53_unweighted_ms, cmp.do53_weighted_ms
        );
        out += "BrightData's exit distribution over-represents thin markets, inflating both medians relative to
a traffic-weighted view of the Internet — the direction of bias the paper's §7 anticipates.
";
        out
    }

    /// Ablation: 2% access-link packet loss — UDP timers vs TCP
    /// head-of-line stalls.
    pub fn ablation_loss(&self) -> String {
        let base = self.variant_dataset(|_| {});
        let lossy = self.variant_dataset(|cfg| cfg.measurement.extra_loss_p = 0.02);
        let hb = headline_stats(&base);
        let hl = headline_stats(&lossy);
        let mut out = format!(
            "Ablation: 2% access-link loss (UDP pays ~1s retransmission timers; TCP stalls \
             head-of-line for {} RTTs)\n",
            DnsTransport::DoH.loss_stall_rtts()
        );
        let _ = writeln!(
            out,
            "median Do53: clean {:>6.1}ms   lossy {:>6.1}ms",
            hb.median_do53_ms, hl.median_do53_ms
        );
        let _ = writeln!(
            out,
            "median DoHR: clean {:>6.1}ms   lossy {:>6.1}ms",
            hb.median_dohr_ms, hl.median_dohr_ms
        );
        let p95 = |ds: &Dataset, pick: fn(&dohperf_core::records::ClientRecord) -> Option<f64>| {
            let xs: Vec<f64> = ds.records.iter().filter_map(pick).collect();
            dohperf_stats::desc::quantile(&xs, 0.95)
        };
        let _ = writeln!(
            out,
            "p95 Do53:    clean {:>6.1}ms   lossy {:>6.1}ms   <- the timer tail",
            p95(&base, |r| r.do53_ms),
            p95(&lossy, |r| r.do53_ms)
        );
        let _ = writeln!(
            out,
            "10-request speedup fraction: {} -> {}  (loss shifts the comparison toward DoH)",
            pct(hb.ten_request_speedup_fraction),
            pct(hl.ten_request_speedup_fraction)
        );
        out
    }

    fn variant_dataset(&self, tweak: impl FnOnce(&mut CampaignConfig)) -> Dataset {
        let mut cfg = CampaignConfig {
            seed: self.config.seed,
            scale: (self.config.scale * 0.5).clamp(0.02, 0.25),
            runs_per_client: 1,
            atlas_probes_per_country: 4,
            atlas_samples_per_country: 25,
            threads: self.config.threads,
            shard_size: self.config.shard_size,
            ..CampaignConfig::default()
        };
        tweak(&mut cfg);
        Campaign::new(cfg).run()
    }

    /// §5 headline statistics.
    pub fn headline(&mut self) -> String {
        let ds = self.dataset();
        let h = headline_stats(ds);
        let mut out = String::from("Section 5 headline statistics (paper values in parentheses)\n");
        let _ = writeln!(
            out,
            "global median DoH1:  {:>6.1}ms  (415ms)",
            h.median_doh1_ms
        );
        let _ = writeln!(
            out,
            "global median Do53:  {:>6.1}ms  (234ms)",
            h.median_do53_ms
        );
        let _ = writeln!(out, "global median DoHR:  {:>6.1}ms", h.median_dohr_ms);
        let _ = writeln!(
            out,
            "first-request speedups: {}  (19.1%)",
            pct(h.first_request_speedup_fraction)
        );
        let _ = writeln!(
            out,
            "10-request speedups:    {}  (28%)",
            pct(h.ten_request_speedup_fraction)
        );
        let _ = writeln!(
            out,
            "median DoH10 slowdown:  {:>6.1}ms (65ms per query)",
            h.median_doh10_slowdown_ms
        );
        let _ = writeln!(
            out,
            "median country DoH1 / Do53: {:.1} / {:.1}ms  (564.7 / 332.9ms)",
            h.median_country_doh1_ms, h.median_country_do53_ms
        );
        let _ = writeln!(
            out,
            "clients whose DoH1 >= 3x Do53: {}  (~10%)",
            pct(h.tripled_fraction)
        );
        out
    }

    /// Per-protocol lifecycle comparison: Do53/DoH/DoT/DoQ headline
    /// medians, the (transport × provider) grid, and cold/warm/resumed
    /// CDFs. Requires a `--protocols` campaign; legacy datasets carry no
    /// transport samples.
    pub fn transports(&mut self) -> String {
        let requested = self.config.protocols;
        let ds = self.dataset();
        let rows = transport_headlines(ds);
        if rows.is_empty() {
            return format!(
                "Transport comparison: no lifecycle samples in this dataset.\n\
                 Run with --protocols {} (or any subset) to measure them.\n",
                DnsTransport::ALL
                    .iter()
                    .map(|t| t.name())
                    .collect::<Vec<_>>()
                    .join(",")
            );
        }
        let mut out = String::from(
            "Transport comparison: full connection-lifecycle model \
             (RFC 1035 Do53 / RFC 8484 DoH / RFC 7858 DoT / RFC 9250 DoQ)\n",
        );
        let _ = writeln!(
            out,
            "protocols requested: {}   samples per transport: {}",
            requested
                .iter()
                .map(|t| t.name())
                .collect::<Vec<_>>()
                .join(","),
            rows[0].samples,
        );
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.transport.name().to_string(),
                    f(r.median_handshake_ms, 1),
                    f(r.median_cold_ms, 1),
                    f(r.median_warm_ms, 1),
                    f(r.median_resumed_ms, 1),
                    f(r.median_amortized10_ms, 1),
                ]
            })
            .collect();
        out += &table(
            &[
                "Transport",
                "Handshake",
                "Cold",
                "Warm",
                "Resumed",
                "Amortized-10",
            ],
            &body,
        );
        out += "(median ms; Cold = first request incl. connection establishment, Warm = reuse,\n\
                 Resumed = first request after idle timeout via session ticket / QUIC 0-RTT)\n\n";

        let grid = transport_provider_grid(ds);
        out += "cold / warm medians per (transport, provider):\n";
        let grid_body: Vec<Vec<String>> = grid
            .iter()
            .map(|c| {
                vec![
                    c.transport.name().to_string(),
                    c.provider.name().to_string(),
                    f(c.median_cold_ms, 1),
                    f(c.median_warm_ms, 1),
                ]
            })
            .collect();
        out += &table(&["Transport", "Provider", "Cold", "Warm"], &grid_body);

        for panel in transport_cdfs(ds) {
            let _ = writeln!(
                out,
                "\n{} cold CDF (p50 {:.0}ms, p90 {:.0}ms; warm p50 {:.0}ms, resumed p50 {:.0}ms):",
                panel.transport.name(),
                panel.cold.median(),
                panel.cold.quantile(0.9),
                panel.warm.median(),
                panel.resumed.median(),
            );
            out += &dohperf_analysis::render::ascii_cdf(&panel.cold.values, &panel.cold.probs, 50);
        }
        out
    }

    /// Page-load workload: critical-path PLT of a synthetic dependency
    /// DAG per transport, cold (empty cache, cold connection) vs warm
    /// (live cache, kept-alive connection), with paired PLT deltas
    /// against Do53 on the same page. Requires a `--pages` campaign;
    /// legacy datasets carry no page samples.
    pub fn pageload(&mut self) -> String {
        let pages = self.config.pages;
        let ds = self.dataset();
        let rows = page_headlines(ds);
        if rows.is_empty() {
            return String::from(
                "Page-load workload: no page samples in this dataset.\n\
                 Run with --pages 2 (or more visits) to measure it.\n",
            );
        }
        let mut out = String::from(
            "Page-load workload: dependency-graph resolution over one multiplexed \
             connection per (client, provider, transport)\n",
        );
        if let Some(shape) = page_shape_summary(ds) {
            let _ = writeln!(
                out,
                "visits per page: {}   pages: {}   median shape: {:.0} domains, \
                 {:.0} unique names, depth {:.0}",
                pages,
                shape.pages,
                shape.median_domains,
                shape.median_unique_names,
                shape.median_depth,
            );
        }
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.transport.name().to_string(),
                    f(r.median_plt_cold_ms, 1),
                    f(r.median_plt_warm_ms, 1),
                    f(r.median_warm_savings_ms, 1),
                    f(r.median_cold_cache_hits, 1),
                    f(r.median_warm_cache_hits, 1),
                ]
            })
            .collect();
        out += &table(
            &[
                "Transport",
                "PLT cold",
                "PLT warm",
                "Warm saves",
                "Hits cold",
                "Hits warm",
            ],
            &body,
        );
        out += "(median ms; PLT = critical path through the page's resolution DAG,\n\
                 cold = empty cache + cold connection, warm = revisit with both live)\n\n";

        out += "PLT delta vs Do53 on the same page (paired per client and provider):\n";
        let delta_body: Vec<Vec<String>> = page_plt_deltas(ds)
            .iter()
            .map(|d| {
                vec![
                    d.transport.name().to_string(),
                    f(d.median_cold_delta_ms, 1),
                    f(d.median_warm_delta_ms, 1),
                    pct(d.warm_wins_fraction),
                ]
            })
            .collect();
        out += &table(
            &["Transport", "Cold delta", "Warm delta", "Warm wins"],
            &delta_body,
        );
        out += "(median ms added over Do53; warm wins = share of pages the encrypted\n\
                 transport loads faster than Do53 once caches and connections are warm)\n";

        for panel in page_cdfs(ds) {
            let _ = writeln!(
                out,
                "\n{} PLT CDF (cold p50 {:.0}ms, p90 {:.0}ms; warm p50 {:.0}ms, p90 {:.0}ms):",
                panel.transport.name(),
                panel.cold.median(),
                panel.cold.quantile(0.9),
                panel.warm.median(),
                panel.warm.quantile(0.9),
            );
            out += &dohperf_analysis::render::ascii_cdf(&panel.cold.values, &panel.cold.probs, 50);
        }
        out
    }

    /// Windowed timeline: per-window p50/p95/p99 latency, availability,
    /// and cache-hit-rate series per (provider, transport) pair
    /// (DESIGN.md §16). Requires a `--window-hours` campaign; legacy
    /// datasets carry no window samples.
    pub fn timeline(&mut self) -> String {
        let hours = self.config.window_hours;
        let ds = self.dataset();
        let (tl, clients) = (timeline(ds), ds.records.len());
        if tl.is_empty() {
            return String::from(
                "Timeline: no window samples in this dataset.\n\
                 Run with --window-hours 1 to record windowed series.\n",
            );
        }
        // A store keeps window indices, not the width that produced
        // them: the width comes from the flag, checked against the data.
        let width = match window_nanos(hours) {
            0 => "not recorded in the store (pass --window-hours H)".to_string(),
            nanos => {
                let per_day = CAMPAIGN_DURATION_NANOS.div_ceil(nanos);
                let last = tl.windows().last().copied().unwrap_or(0);
                if u64::from(last) >= per_day {
                    let message = format!(
                        "timeline: --window-hours {hours} gives {per_day} window(s) per simulated \
                         day (indices 0..={}), but the dataset holds window index {last}",
                        per_day - 1
                    );
                    self.record_error(message.clone());
                    return format!("{message}\n");
                }
                format!("{hours} simulated hour(s)")
            }
        };
        let mut out = String::from(
            "Timeline: per-window latency/availability/cache series \
             over one simulated day\n",
        );
        let _ = writeln!(
            out,
            "window width: {width}   windows: {}   cells: {}   clients: {}",
            tl.windows().len(),
            tl.cells.len(),
            clients,
        );
        out += &dohperf_analysis::timeline::render(&tl);
        out += "\n(p50/p95/p99 = per-window query-latency quantiles from mergeable GK sketches;\n\
                 avail = success fraction; cache-hit = page-load stub-cache hit rate)\n";
        out
    }
}

/// Whether two paths name the same directory: equal as written, or
/// equal once both resolve (so `./s` and `s` match).
fn same_dir(a: &std::path::Path, b: &std::path::Path) -> bool {
    a == b || matches!((a.canonicalize(), b.canonicalize()), (Ok(a), Ok(b)) if a == b)
}

/// Render one replayed client's annotated timeline: the span tree with
/// header-timestamp events, the Eq 1–8 arithmetic line by line (from the
/// `equations` span attributes, which carry shortest-round-trip values),
/// and the stored medians with a bit-for-bit cross-check against the
/// trace's own summary spans.
fn render_explain(explain: &ClientExplain) -> String {
    let trace = &explain.trace;
    let record = &explain.record;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "query {} [{}] — trace {}",
        record.client_id,
        record.country_iso,
        trace.trace_id.to_hex()
    );
    let _ = writeln!(
        out,
        "maxmind geolocates the /24 to {} — record {}",
        record.maxmind_country,
        if explain.retained {
            "retained"
        } else {
            "DISCARDED (country mismatch)"
        }
    );
    let _ = writeln!(
        out,
        "simulated client time: {:.3} ms across {} spans\n",
        trace.duration_ms(),
        trace.spans.len()
    );

    out += "span tree (simulated milliseconds):\n";
    render_span(&mut out, trace, trace.root(), 0);

    out += "\nEq 1-8 derivations (one per DoH run, in measurement order):\n";
    let mut run = 0usize;
    for span in &trace.spans {
        if span.target != "equations" {
            continue;
        }
        let _ = writeln!(
            out,
            "  derivation {run} (at {:.3} ms):",
            span.start_nanos as f64 / 1e6
        );
        for (key, value) in &span.attrs {
            let _ = writeln!(out, "    {key} = {value}");
        }
        run += 1;
    }

    out += "\nstored medians (shortest-round-trip f64 — exact bits):\n";
    for sample in &record.doh {
        let _ = writeln!(
            out,
            "  {:<11} t_DoH = {} ms   t_DoHR = {} ms",
            sample.provider.name(),
            sample.t_doh_ms,
            sample.t_dohr_ms
        );
    }
    match record.do53_ms {
        Some(ms) => {
            let _ = writeln!(
                out,
                "  {:<11} t_Do53 = {} ms ({:?})",
                "do53", ms, record.do53_source
            );
        }
        None => {
            let _ = writeln!(
                out,
                "  {:<11} hijacked by the Super Proxy — Do53 comes from the RIPE Atlas remedy",
                "do53"
            );
        }
    }

    let _ = writeln!(
        out,
        "\ntrace-vs-record agreement: {}",
        match medians_agree(trace, record) {
            Ok(n) => format!("OK ({n} medians bit-for-bit identical)"),
            Err(e) => format!("MISMATCH — {e}"),
        }
    );
    out
}

fn render_span(out: &mut String, trace: &QueryTrace, span: &SpanRecord, depth: usize) {
    let indent = "  ".repeat(depth + 1);
    let _ = writeln!(
        out,
        "{indent}[{:.3}..{:.3}] {}::{}",
        span.start_nanos as f64 / 1e6,
        span.end_nanos as f64 / 1e6,
        span.target,
        span.name
    );
    for (key, value) in &span.attrs {
        let _ = writeln!(out, "{indent}  · {key} = {value}");
    }
    for event in &span.events {
        let _ = writeln!(
            out,
            "{indent}  @ {:.3} {}",
            event.at_nanos as f64 / 1e6,
            event.label
        );
    }
    for child in trace.children(span.id) {
        render_span(out, trace, child, depth + 1);
    }
}

/// Cross-check the medians embedded in the trace's `summary` spans
/// against the replayed record, requiring exact f64 bits.
fn medians_agree(
    trace: &QueryTrace,
    record: &dohperf_core::records::ClientRecord,
) -> Result<usize, String> {
    let mut checked = 0usize;
    for sample in &record.doh {
        let name = format!("summary {}", sample.provider);
        let span = trace
            .spans
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| format!("trace has no {name:?} span"))?;
        for (key, want) in [
            ("median_t_doh_ms", sample.t_doh_ms),
            ("median_t_dohr_ms", sample.t_dohr_ms),
        ] {
            let got: f64 = span
                .attrs
                .iter()
                .find(|(k, _)| *k == key)
                .and_then(|(_, v)| v.parse().ok())
                .ok_or_else(|| format!("{name}: missing/unparsable {key}"))?;
            if got.to_bits() != want.to_bits() {
                return Err(format!("{name}.{key}: trace {got} != record {want}"));
            }
            checked += 1;
        }
    }
    if let Some(want) = record.do53_ms {
        let span = trace
            .spans
            .iter()
            .find(|s| s.name == "summary do53")
            .ok_or_else(|| "trace has no \"summary do53\" span".to_string())?;
        let got: f64 = span
            .attrs
            .iter()
            .find(|(k, _)| *k == "median_t_do53_ms")
            .and_then(|(_, v)| v.parse().ok())
            .ok_or_else(|| "summary do53: missing/unparsable median".to_string())?;
        if got.to_bits() != want.to_bits() {
            return Err(format!("summary do53: trace {got} != record {want}"));
        }
        checked += 1;
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_context() -> ReproContext {
        ReproContext::new(ReproConfig {
            seed: 7,
            scale: 0.05,
            ..ReproConfig::default()
        })
    }

    #[test]
    fn every_experiment_renders() {
        let mut ctx = quick_context();
        for (name, text) in [
            ("table3", ctx.table3()),
            ("table4", ctx.table4()),
            ("table5", ctx.table5()),
            ("table6", ctx.table6()),
            ("fig3", ctx.fig3()),
            ("fig4", ctx.fig4()),
            ("fig5", ctx.fig5()),
            ("fig6", ctx.fig6()),
            ("fig7", ctx.fig7()),
            ("fig8", ctx.fig8()),
            ("fig9", ctx.fig9()),
            ("headline", ctx.headline()),
        ] {
            assert!(text.len() > 50, "{name} output too short:\n{text}");
            assert!(!text.contains("NaN"), "{name} contains NaN:\n{text}");
        }
    }

    #[test]
    fn validation_experiments_render() {
        let ctx = quick_context();
        assert!(ctx.table1().contains("Table 1"));
        assert!(ctx.table2().contains("Table 2"));
        assert!(ctx.sec4_3().contains("CONFIRMED"));
        assert!(ctx.sec4_4().contains("mean |diff|"));
    }

    #[test]
    fn transports_experiment_renders_per_protocol_tables() {
        let mut ctx = ReproContext::new(ReproConfig {
            seed: 7,
            scale: 0.02,
            protocols: ProtocolSet::all(),
            ..ReproConfig::default()
        });
        let text = ctx.transports();
        for needle in [
            "RFC 9250",
            "Resumed",
            "Amortized-10",
            "cold CDF",
            "doq",
            "dot",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        assert!(!text.contains("NaN"), "transports output contains NaN");
        // A legacy campaign has no lifecycle samples; the experiment
        // says so instead of rendering an empty table.
        let mut legacy = quick_context();
        assert!(legacy.transports().contains("no lifecycle samples"));
    }

    #[test]
    fn pageload_experiment_renders_plt_tables_and_cdfs() {
        let mut ctx = ReproContext::new(ReproConfig {
            seed: 7,
            scale: 0.02,
            pages: 2,
            ..ReproConfig::default()
        });
        let text = ctx.pageload();
        for needle in [
            "Page-load workload",
            "PLT cold",
            "PLT warm",
            "Warm saves",
            "PLT delta vs Do53",
            "Warm wins",
            "PLT CDF",
            "doq",
            "dot",
            "median shape",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        assert!(!text.contains("NaN"), "pageload output contains NaN");
        // A legacy campaign has no page samples; the experiment says so
        // and points at the flag instead of rendering an empty table.
        let mut legacy = quick_context();
        let guidance = legacy.pageload();
        assert!(guidance.contains("no page samples"), "{guidance}");
        assert!(guidance.contains("--pages 2"), "{guidance}");
    }

    #[test]
    fn timeline_experiment_renders_per_pair_window_series() {
        let mut ctx = ReproContext::new(ReproConfig {
            seed: 7,
            scale: 0.02,
            window_hours: 1.0,
            ..ReproConfig::default()
        });
        let text = ctx.timeline();
        for needle in [
            "Timeline: per-window",
            "window width: 1 simulated hour(s)",
            "Cloudflare over doh",
            "Quad9 over doh",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "avail%",
            "cache-hit%",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        assert!(!text.contains("NaN"), "timeline output contains NaN");
        // A legacy campaign has no window samples; the experiment says
        // so and points at the flag instead of rendering nothing.
        let mut legacy = quick_context();
        let guidance = legacy.timeline();
        assert!(guidance.contains("no window samples"), "{guidance}");
        assert!(guidance.contains("--window-hours 1"), "{guidance}");
    }

    #[test]
    fn window_hours_parse_to_integer_nanos() {
        assert_eq!(window_nanos(0.0), 0);
        assert_eq!(window_nanos(-2.0), 0);
        assert_eq!(window_nanos(f64::NAN), 0);
        assert_eq!(window_nanos(f64::INFINITY), 0);
        assert_eq!(window_nanos(1.0), 3_600_000_000_000);
        assert_eq!(window_nanos(0.5), 1_800_000_000_000);
    }

    #[test]
    fn explain_renders_the_full_derivation() {
        let ctx = quick_context();
        let text = ctx.explain(3).expect("client 3 exists at any scale");
        for needle in [
            "span tree",
            "proxy::connect-tunnel",
            "x-luminati-tun-timeline",
            "eq7.t_doh_ms",
            "stored medians",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        assert!(
            text.contains("medians bit-for-bit identical"),
            "cross-check failed:\n{text}"
        );
        assert!(ctx.explain(u64::MAX).is_err());
    }
}
