//! End-to-end integration: a reduced-scale campaign through the full
//! stack — netsim, world, providers, proxy, core — and the dataset
//! invariants the paper's dataset exhibits.

use dohperf::core::campaign::{Campaign, CampaignConfig, ProtocolSet};
use dohperf::core::records::{Dataset, Do53Source};
use dohperf::prelude::*;
use dohperf::proxy::network::MeasurementOptions;
use dohperf::telemetry::global;
use dohperf::world::countries::SUPER_PROXY_COUNTRIES;
use std::sync::Mutex;

fn dataset() -> Dataset {
    Campaign::new(CampaignConfig::quick(99)).run()
}

#[test]
fn campaign_spans_at_least_224_countries() {
    let ds = dataset();
    assert!(ds.countries.len() >= 224, "{}", ds.countries.len());
    assert!(ds.country_count() >= 220);
}

#[test]
fn china_and_north_korea_are_excluded() {
    let ds = dataset();
    assert!(!ds.countries.contains(&"CN"));
    assert!(!ds.countries.contains(&"KP"));
}

#[test]
fn every_client_measured_against_all_four_providers() {
    let ds = dataset();
    for r in &ds.records {
        for provider in ALL_PROVIDERS {
            let s = r.sample(provider).expect("provider measured");
            assert!(s.pop_distance_miles >= 0.0);
            assert!(s.nearest_pop_distance_miles <= s.pop_distance_miles + 1e-9);
        }
    }
}

#[test]
fn super_proxy_countries_have_atlas_do53_everyone_else_header() {
    let ds = dataset();
    for r in &ds.records {
        let is_sp = SUPER_PROXY_COUNTRIES.contains(&r.country_iso);
        match r.do53_source {
            Do53Source::RipeAtlasRemedy => assert!(is_sp, "{}", r.country_iso),
            Do53Source::BrightDataHeader => {
                assert!(!is_sp, "{}", r.country_iso);
                assert!(r.do53_ms.unwrap() > 0.0);
            }
        }
    }
    assert_eq!(ds.atlas_do53_ms.len(), SUPER_PROXY_COUNTRIES.len());
}

#[test]
fn mismatch_discard_near_paper_rate() {
    // Paper: 0.88% of data points discarded.
    let ds = dataset();
    let frac = ds.discard_fraction();
    assert!(frac < 0.03, "{frac}");
}

#[test]
fn campaign_fully_deterministic_end_to_end() {
    let a = dataset();
    let b = dataset();
    assert_eq!(a.records.len(), b.records.len());
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra.client_id, rb.client_id);
        assert_eq!(ra.do53_ms, rb.do53_ms);
        for (sa, sb) in ra.doh.iter().zip(&rb.doh) {
            assert_eq!(sa.t_doh_ms, sb.t_doh_ms);
            assert_eq!(sa.pop_index, sb.pop_index);
        }
    }
}

#[test]
fn different_seeds_produce_different_measurements() {
    let a = Campaign::new(CampaignConfig::quick(1)).run();
    let b = Campaign::new(CampaignConfig::quick(2)).run();
    let xa: Vec<f64> = a
        .records
        .iter()
        .take(20)
        .map(|r| r.doh[0].t_doh_ms)
        .collect();
    let xb: Vec<f64> = b
        .records
        .iter()
        .take(20)
        .map(|r| r.doh[0].t_doh_ms)
        .collect();
    assert_ne!(xa, xb);
}

/// FNV-1a over the raw bits of a sequence of latencies.
fn bits_digest(latencies: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for ms in latencies {
        for b in ms.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// FNV-1a over the raw bits of every transport and page-load latency.
fn latency_bits_digest(ds: &Dataset) -> u64 {
    bits_digest(ds.records.iter().flat_map(|r| {
        let transports = r
            .transports
            .iter()
            .flat_map(|t| [t.cold_ms, t.warm_ms, t.resumed_ms, t.handshake_ms]);
        let pages = r.pages.iter().flat_map(|p| [p.plt_cold_ms, p.plt_warm_ms]);
        transports.chain(pages)
    }))
}

/// Run a small campaign (seed 515, scale 0.02) at 5% and then 30% extra
/// loss, check that every named loss counter moved in each run (the
/// loss branch really ran), and return `digest` of each dataset.
fn lossy_digests(
    protocols: ProtocolSet,
    pages_per_client: u32,
    counters: &[&str],
    digest: impl Fn(&Dataset) -> u64,
) -> Vec<u64> {
    // The counters live in the process-wide registry: hold this lock so
    // that the other lossy test's losses cannot move them.
    static REGISTRY: Mutex<()> = Mutex::new(());
    let _serial = REGISTRY
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    [0.05, 0.3]
        .into_iter()
        .map(|loss| {
            let config = CampaignConfig {
                scale: 0.02,
                protocols,
                pages_per_client,
                measurement: MeasurementOptions {
                    extra_loss_p: loss,
                    ..MeasurementOptions::default()
                },
                ..CampaignConfig::quick(515)
            };
            let before = global().snapshot();
            let ds = Campaign::new(config).run();
            let delta = global().snapshot().since(&before);
            for counter in counters {
                assert!(
                    delta.counter_value(counter).unwrap_or(0) > 0,
                    "{counter} never moved at loss {loss}"
                );
            }
            digest(&ds)
        })
        .collect()
}

/// No gate row runs with loss, so this pins the loss branch of the
/// transport and page-load query bill: a small all-protocol campaign
/// with page loads must keep its latency bits under loss.
#[test]
fn lossy_transport_and_page_latencies_are_pinned() {
    let counters = [
        "proxy.h2_loss_stalls",
        "proxy.quic_loss_stalls",
        "proxy.transport_udp_timeouts",
        "campaign.page_tcp_stalls",
    ];
    let digests = lossy_digests(ProtocolSet::all(), 2, &counters, |ds| {
        assert!(ds
            .records
            .iter()
            .all(|r| !r.transports.is_empty() && !r.pages.is_empty()));
        latency_bits_digest(ds)
    });
    assert_eq!(
        digests,
        [3_215_175_294_679_875_784, 3_422_748_676_756_977_850],
        "lossy latency bits moved"
    );
}

/// The tunnel methodology's loss branch: a legacy-only campaign under
/// loss must keep the bits of every derived DoH, DoHR and Do53 latency,
/// and count its losses under the lifecycle's per-kind loss counters
/// (the tunnel charges the lifecycle's loss stall).
#[test]
fn lossy_tunnel_latencies_are_pinned() {
    let counters = ["proxy.h2_loss_stalls", "proxy.transport_udp_timeouts"];
    let digests = lossy_digests(ProtocolSet::EMPTY, 0, &counters, |ds| {
        bits_digest(ds.records.iter().flat_map(|r| {
            let doh = r.doh.iter().flat_map(|s| [s.t_doh_ms, s.t_dohr_ms]);
            doh.chain(r.do53_ms)
        }))
    });
    assert_eq!(
        digests,
        [12_117_777_349_279_441_717, 5_478_820_753_256_782_224],
        "lossy tunnel latency bits moved"
    );
}
