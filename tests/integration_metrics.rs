//! Telemetry determinism and snapshot contracts.
//!
//! The telemetry registry is process-global and cumulative, so these tests
//! (a) serialize against each other with a mutex and (b) assert on
//! *snapshot diffs* around each campaign rather than absolute values.
//! The headline contract mirrors DESIGN.md §9: every deterministic metric
//! recorded by a campaign is a pure function of (seed, scale) — the JSON
//! of the deterministic section must be byte-identical for any
//! `--threads` setting.

use dohperf_core::campaign::{Campaign, CampaignConfig};
use dohperf_telemetry::{global, Determinism, Snapshot};
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

/// Run a quick campaign and return the snapshot *delta* it produced.
fn campaign_metrics(seed: u64, threads: usize) -> Snapshot {
    let before = global().snapshot();
    let config = CampaignConfig {
        threads,
        ..CampaignConfig::quick(seed)
    };
    let _ = Campaign::new(config).run();
    global().snapshot().since(&before)
}

#[test]
fn deterministic_metrics_are_thread_count_invariant() {
    let _guard = SERIAL.lock().unwrap();
    let sequential = campaign_metrics(2021, 1);
    let reference = sequential.deterministic_json();
    assert!(
        sequential.counter_value("campaign.doh_queries").unwrap() > 0,
        "campaign recorded no queries: instrumentation is disconnected"
    );
    for threads in [2, 8] {
        let parallel = campaign_metrics(2021, threads);
        assert_eq!(
            reference,
            parallel.deterministic_json(),
            "deterministic metrics diverged at {threads} threads"
        );
    }
}

#[test]
fn campaign_metrics_cover_every_instrumented_subsystem() {
    let _guard = SERIAL.lock().unwrap();
    let delta = campaign_metrics(7, 2);
    for name in [
        "campaign.doh_queries",
        "campaign.do53_queries",
        "campaign.clients_measured",
        "campaign.countries_measured",
        "proxy.connect_tunnels",
        "proxy.superproxy_dns_hijacks",
        "proxy.atlas_probes_deployed",
        "proxy.atlas_remedy_queries",
    ] {
        assert!(
            delta.counter_value(name).unwrap_or(0) > 0,
            "expected counter {name} to move during a campaign"
        );
    }
    let shard = delta.histogram("campaign.shard_sim_ms").expect("histogram");
    let countries = delta.counter_value("campaign.countries_measured").unwrap();
    assert_eq!(shard.count, countries, "one shard timing per country");
    assert!(shard.min_micros > 0, "shards take nonzero simulated time");

    // Tunnels: every DoH and Do53 run opens one CONNECT tunnel.
    let tunnels = delta.counter_value("proxy.connect_tunnels").unwrap();
    let doh = delta.counter_value("campaign.doh_queries").unwrap();
    let do53 = delta.counter_value("campaign.do53_queries").unwrap();
    assert_eq!(tunnels, doh + do53);
}

#[test]
fn snapshot_json_round_trips_through_files() {
    let _guard = SERIAL.lock().unwrap();
    let delta = campaign_metrics(3, 2);
    let json = delta.to_json();
    let parsed = Snapshot::from_json(&json).expect("parse back");
    assert_eq!(parsed.to_json(), json, "serialization is not stable");

    // The per-run section exists and holds the worker telemetry, which
    // must never leak into the deterministic comparison surface.
    let det = delta.deterministic_json();
    assert!(!det.contains("campaign.workers"));
    assert!(parsed
        .section(Determinism::PerRun)
        .any(|(name, _)| name == "campaign.workers"));
}

#[test]
fn baseline_comparison_accepts_same_seed_and_rejects_other() {
    let _guard = SERIAL.lock().unwrap();
    let base = campaign_metrics(11, 1);
    let same = campaign_metrics(11, 4);
    assert!(
        same.compare_deterministic(&base).ok(),
        "same seed must match its own baseline exactly"
    );
    let other = campaign_metrics(12, 4);
    let report = other.compare_deterministic(&base);
    assert!(
        !report.ok(),
        "a different seed should drift from the baseline"
    );
    assert!(report.render().contains("DRIFT"));
}
