//! A `DnsCache` counts its hits, misses and evictions locally and
//! publishes them to the global metrics registry once, when dropped.
//!
//! This is its own test binary because the registry is process-global:
//! no other test in this binary creates a cache, so the counter deltas
//! below are this test's alone.

use dohperf_dns::cache::{CacheKey, DnsCache};
use dohperf_dns::name::DnsName;
use dohperf_dns::rdata::RData;
use dohperf_dns::record::ResourceRecord;
use dohperf_dns::types::RecordType;
use std::net::Ipv4Addr;

fn key(name: &str) -> CacheKey {
    CacheKey {
        name: DnsName::parse(name).unwrap(),
        rtype: RecordType::A,
    }
}

fn answer(name: &str) -> Vec<ResourceRecord> {
    vec![ResourceRecord::new(
        DnsName::parse(name).unwrap(),
        60,
        RData::A(Ipv4Addr::new(192, 0, 2, 1)),
    )]
}

fn registry_counts() -> [u64; 3] {
    [
        dohperf_telemetry::counter!("cache.hits").get(),
        dohperf_telemetry::counter!("cache.misses").get(),
        dohperf_telemetry::counter!("cache.evictions").get(),
    ]
}

#[test]
fn a_cache_publishes_its_counts_to_the_registry_exactly_once() {
    let before = registry_counts();
    let mut cache = DnsCache::with_capacity(2);
    cache.insert(key("a.example"), answer("a.example"), 0, 10);
    cache.insert(key("b.example"), answer("b.example"), 0, 60);
    assert!(cache.get(&key("a.example"), 1).is_some()); // hit
    assert!(cache.get(&key("c.example"), 1).is_none()); // miss
    cache.insert(key("c.example"), answer("c.example"), 1, 60); // LRU evicts b
    assert!(cache.get(&key("b.example"), 2).is_none()); // miss
    assert!(cache.get(&key("a.example"), 10).is_none()); // lazy expiry: miss + eviction
    assert!(cache.get(&key("c.example"), 11).is_some()); // hit
    assert_eq!(cache.evict_expired(61), 1); // sweeps c
    let (hits, misses) = cache.stats();
    let local = [hits, misses, cache.eviction_count()];
    assert_eq!(local, [2, 3, 3]);

    assert_eq!(
        registry_counts(),
        before,
        "a live cache must not touch the registry"
    );
    drop(cache);
    let after = registry_counts();
    let published: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    assert_eq!(
        published, local,
        "the registry must receive each count exactly once"
    );
}
