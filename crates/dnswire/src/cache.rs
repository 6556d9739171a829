//! A TTL-driven DNS cache with a bounded footprint.
//!
//! The paper deliberately measures *cache misses* (fresh UUID subdomains),
//! but the surrounding system still needs a cache: resolvers cache the NS
//! records of the measurement zone, exit nodes cache the DoH provider's
//! bootstrap A record, and the page-load workload (DESIGN.md §15) keeps a
//! per-(client, provider, transport) cache in the resolution loop so
//! intra-page and cross-page hits shape PLT.
//!
//! Time is supplied by the caller in whole seconds, so the cache works with
//! both simulated and wall-clock time.
//!
//! # Bounded memory and deterministic LRU
//!
//! A cache built with [`DnsCache::with_capacity`] never holds more than
//! `capacity` entries: inserting a fresh key into a full cache first evicts
//! the least-recently-used entry. Recency is tracked by a monotonic
//! operation tick stamped on insert and on every hit — ticks are unique, so
//! the LRU victim is always well defined and the eviction order never
//! depends on `HashMap` iteration order (which is seeded per-process and
//! would break the byte-identity contract). [`DnsCache::new`] keeps the
//! historical unbounded behaviour for callers that manage their own bounds.
//!
//! Every removal of a live entry — LRU pressure, [`DnsCache::evict_expired`]
//! sweeps, or lazy expiry during [`DnsCache::get`] — counts as an
//! eviction; lookups count as hits or misses. The cache keeps these counts
//! itself and publishes them to the deterministic `cache.hits`,
//! `cache.misses` and `cache.evictions` registry counters once, when it is
//! dropped, so the lookup path touches no shared atomic.
//!
//! # One hash per lookup
//!
//! The key map stores each entry's slot in a slab, not the entry itself.
//! A lookup copies the slot index out of the map and then reads the slab,
//! so a hit hashes its key once and can still return a borrow of the
//! records. Only the lazy removal of an expired entry hashes it again.

use crate::name::DnsName;
use crate::record::ResourceRecord;
use crate::types::RecordType;
use std::collections::HashMap;

/// Cache key: (owner name, record type).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Owner name.
    pub name: DnsName,
    /// Record type.
    pub rtype: RecordType,
}

#[derive(Debug, Clone)]
struct CacheEntry {
    records: Vec<ResourceRecord>,
    expires_at: u64,
    /// Monotonic recency stamp: updated on insert and on every hit.
    /// Unique per cache, so LRU selection is deterministic.
    last_used: u64,
}

/// A positive-answer cache with per-entry absolute expiry and an optional
/// capacity bound enforced by deterministic LRU eviction.
#[derive(Debug)]
pub struct DnsCache {
    /// Each live key's slot in `slots`.
    index: HashMap<CacheKey, u32>,
    /// Entry storage; a slot no key points at is on `free`.
    slots: Vec<CacheEntry>,
    free: Vec<u32>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Default for DnsCache {
    fn default() -> Self {
        DnsCache::new()
    }
}

impl DnsCache {
    /// An empty, unbounded cache (the historical behaviour).
    pub fn new() -> Self {
        DnsCache::with_capacity(usize::MAX)
    }

    /// An empty cache holding at most `capacity` entries; inserting into a
    /// full cache evicts the least-recently-used entry first.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 1, "DnsCache capacity must be at least 1");
        DnsCache {
            index: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            capacity,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// The configured capacity bound (`usize::MAX` when unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Return a slot whose key was just unmapped to the free list, dropping
    /// its records.
    fn release(slots: &mut [CacheEntry], free: &mut Vec<u32>, slot: u32) {
        slots[slot as usize].records = Vec::new();
        free.push(slot);
    }

    /// Evict the least-recently-used entry. Ticks are unique, so the
    /// minimum is unambiguous and independent of HashMap iteration order.
    fn evict_lru(&mut self) {
        let slots = &self.slots;
        let victim = self
            .index
            .values()
            .copied()
            .min_by_key(|&slot| slots[slot as usize].last_used);
        if let Some(victim) = victim {
            self.index.retain(|_, slot| *slot != victim);
            Self::release(&mut self.slots, &mut self.free, victim);
            self.evictions += 1;
        }
    }

    /// Insert records under `key`, expiring `ttl` seconds after `now`.
    /// A zero TTL is honoured as "do not cache". Refreshing an existing
    /// key updates its recency; a fresh key entering a full cache evicts
    /// the least-recently-used entry first.
    pub fn insert(&mut self, key: CacheKey, records: Vec<ResourceRecord>, now: u64, ttl: u32) {
        if ttl == 0 {
            return;
        }
        let existing = self.index.get(&key).copied();
        if existing.is_none() && self.index.len() >= self.capacity {
            self.evict_lru();
        }
        let entry = CacheEntry {
            records,
            expires_at: now.saturating_add(u64::from(ttl)),
            last_used: self.next_tick(),
        };
        if let Some(slot) = existing {
            self.slots[slot as usize] = entry;
            return;
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = entry;
                slot
            }
            None => {
                self.slots.push(entry);
                (self.slots.len() - 1) as u32
            }
        };
        self.index.insert(key, slot);
    }

    /// Look up `key` at time `now`; expired entries are evicted lazily.
    /// A hit refreshes the entry's LRU recency.
    pub fn get(&mut self, key: &CacheKey, now: u64) -> Option<&[ResourceRecord]> {
        let Some(&slot) = self.index.get(key) else {
            self.misses += 1;
            return None;
        };
        if self.slots[slot as usize].expires_at > now {
            self.hits += 1;
            let tick = self.next_tick();
            let entry = &mut self.slots[slot as usize];
            entry.last_used = tick;
            return Some(&entry.records);
        }
        self.index.remove(key);
        Self::release(&mut self.slots, &mut self.free, slot);
        self.misses += 1;
        self.evictions += 1;
        None
    }

    /// Remove every expired entry eagerly; returns how many were evicted.
    /// Campaigns call this from a periodic sweep event so long runs
    /// stay bounded even when lookups never touch stale keys.
    pub fn evict_expired(&mut self, now: u64) -> usize {
        let before = self.index.len();
        let (slots, free) = (&mut self.slots, &mut self.free);
        self.index.retain(|_, &mut slot| {
            let live = slots[slot as usize].expires_at > now;
            if !live {
                Self::release(slots, free, slot);
            }
            live
        });
        let evicted = before - self.index.len();
        self.evictions += evicted as u64;
        evicted
    }

    /// Number of live entries (may include expired-but-unevicted ones).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// (hits, misses) counters since creation.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Entries removed since creation (LRU pressure, eager sweeps, and
    /// lazy expiry during lookups).
    pub fn eviction_count(&self) -> u64 {
        self.evictions
    }

    /// Hit ratio in \[0,1\]; zero when no lookups have happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.free.clear();
    }
}

impl Drop for DnsCache {
    /// Publish this cache's counts to the global registry, once. A
    /// counter is touched only when its count is non-zero, so a cache
    /// registers exactly the counters a live increment would have.
    fn drop(&mut self) {
        // Registering a counter takes the registry lock, which panics if
        // poisoned; a second panic while unwinding would abort.
        if std::thread::panicking() {
            return;
        }
        if self.hits > 0 {
            dohperf_telemetry::counter!("cache.hits").add(self.hits);
        }
        if self.misses > 0 {
            dohperf_telemetry::counter!("cache.misses").add(self.misses);
        }
        if self.evictions > 0 {
            dohperf_telemetry::counter!("cache.evictions").add(self.evictions);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdata::RData;
    use proptest::prelude::*;
    use std::net::Ipv4Addr;

    fn key(name: &str) -> CacheKey {
        CacheKey {
            name: DnsName::parse(name).unwrap(),
            rtype: RecordType::A,
        }
    }

    fn record(name: &str, ttl: u32) -> ResourceRecord {
        ResourceRecord::new(
            DnsName::parse(name).unwrap(),
            ttl,
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        )
    }

    #[test]
    fn hit_within_ttl() {
        let mut c = DnsCache::new();
        c.insert(key("a.com"), vec![record("a.com", 300)], 1000, 300);
        assert!(c.get(&key("a.com"), 1299).is_some());
        assert_eq!(c.stats(), (1, 0));
    }

    #[test]
    fn miss_after_expiry() {
        let mut c = DnsCache::new();
        c.insert(key("a.com"), vec![record("a.com", 300)], 1000, 300);
        assert!(c.get(&key("a.com"), 1300).is_none());
        assert!(c.is_empty(), "expired entry should be evicted lazily");
        assert_eq!(c.eviction_count(), 1);
    }

    #[test]
    fn zero_ttl_not_cached() {
        let mut c = DnsCache::new();
        c.insert(key("a.com"), vec![record("a.com", 0)], 1000, 0);
        assert!(c.get(&key("a.com"), 1000).is_none());
    }

    #[test]
    fn distinct_types_do_not_collide() {
        let mut c = DnsCache::new();
        c.insert(key("a.com"), vec![record("a.com", 60)], 0, 60);
        let aaaa = CacheKey {
            name: DnsName::parse("a.com").unwrap(),
            rtype: RecordType::Aaaa,
        };
        assert!(c.get(&aaaa, 10).is_none());
        assert!(c.get(&key("a.com"), 10).is_some());
    }

    #[test]
    fn eager_eviction_counts() {
        let mut c = DnsCache::new();
        for i in 0..10 {
            c.insert(
                key(&format!("h{i}.a.com")),
                vec![record("a.com", 10)],
                0,
                10,
            );
        }
        assert_eq!(c.len(), 10);
        assert_eq!(c.evict_expired(5), 0);
        assert_eq!(c.evict_expired(10), 10);
        assert!(c.is_empty());
        assert_eq!(c.eviction_count(), 10);
    }

    #[test]
    fn capacity_bound_is_enforced() {
        let mut c = DnsCache::with_capacity(3);
        for i in 0..8 {
            c.insert(
                key(&format!("h{i}.a.com")),
                vec![record("a.com", 100)],
                0,
                100,
            );
            assert!(c.len() <= 3, "cache exceeded capacity at insert {i}");
        }
        assert_eq!(c.len(), 3);
        assert_eq!(c.eviction_count(), 5);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let mut c = DnsCache::with_capacity(2);
        c.insert(key("old.a.com"), vec![record("a.com", 100)], 0, 100);
        c.insert(key("new.a.com"), vec![record("a.com", 100)], 0, 100);
        // Touch the older entry: it becomes most recent.
        assert!(c.get(&key("old.a.com"), 1).is_some());
        c.insert(key("third.a.com"), vec![record("a.com", 100)], 2, 100);
        assert!(c.get(&key("old.a.com"), 3).is_some(), "touched entry kept");
        assert!(
            c.get(&key("new.a.com"), 3).is_none(),
            "untouched entry evicted"
        );
        assert!(c.get(&key("third.a.com"), 3).is_some());
    }

    #[test]
    fn refreshing_an_existing_key_does_not_evict() {
        let mut c = DnsCache::with_capacity(2);
        c.insert(key("a.a.com"), vec![record("a.com", 100)], 0, 100);
        c.insert(key("b.a.com"), vec![record("a.com", 100)], 0, 100);
        c.insert(key("a.a.com"), vec![record("a.com", 100)], 1, 100);
        assert_eq!(c.len(), 2);
        assert_eq!(c.eviction_count(), 0);
    }

    #[test]
    fn capacity_one_holds_exactly_the_latest_entry() {
        let mut c = DnsCache::with_capacity(1);
        c.insert(key("a.a.com"), vec![record("a.com", 100)], 0, 100);
        c.insert(key("b.a.com"), vec![record("a.com", 100)], 0, 100);
        assert_eq!(c.len(), 1);
        assert!(c.get(&key("b.a.com"), 1).is_some());
    }

    #[test]
    fn hit_ratio_tracks_lookups() {
        let mut c = DnsCache::new();
        c.insert(key("a.com"), vec![record("a.com", 100)], 0, 100);
        c.get(&key("a.com"), 1);
        c.get(&key("b.com"), 1);
        assert!((c.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn clear_empties_cache() {
        let mut c = DnsCache::new();
        c.insert(key("a.com"), vec![record("a.com", 100)], 0, 100);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn uuid_subdomains_always_miss() {
        // The paper's cache-miss methodology: every query uses a fresh
        // UUID subdomain, so the cache never helps.
        let mut c = DnsCache::new();
        for i in 0..100 {
            let k = key(&format!("uuid{i}.a.com"));
            assert!(c.get(&k, i).is_none());
            c.insert(k, vec![record("a.com", 300)], i, 300);
        }
        assert_eq!(c.stats().0, 0);
    }

    /// Pure-Rust LRU reference model: (key index, expires_at, last_used)
    /// triples driven by the same op sequence as the real cache.
    #[derive(Default)]
    struct ModelCache {
        entries: Vec<(usize, u64, u64)>,
        tick: u64,
    }

    impl ModelCache {
        fn insert(&mut self, k: usize, now: u64, ttl: u32, cap: usize) {
            if ttl == 0 {
                return;
            }
            if !self.entries.iter().any(|e| e.0 == k) && self.entries.len() >= cap {
                let victim = self
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.2)
                    .map(|(i, _)| i)
                    .unwrap();
                self.entries.remove(victim);
            }
            self.tick += 1;
            self.entries.retain(|e| e.0 != k);
            self.entries.push((k, now + u64::from(ttl), self.tick));
        }

        fn get(&mut self, k: usize, now: u64) -> bool {
            match self.entries.iter().position(|e| e.0 == k) {
                Some(i) if self.entries[i].1 > now => {
                    self.tick += 1;
                    self.entries[i].2 = self.tick;
                    true
                }
                Some(i) => {
                    self.entries.remove(i);
                    false
                }
                None => false,
            }
        }
    }

    proptest! {
        /// TTL expiry and LRU pressure interact exactly like the flat
        /// reference model: same hits, same residents, same sizes.
        #[test]
        fn lru_ttl_interaction_matches_reference_model(
            cap in 1usize..6,
            ops in proptest::collection::vec(
                (0usize..10, 0u64..40, 0u32..20, any::<bool>()),
                1..60,
            ),
        ) {
            let mut real = DnsCache::with_capacity(cap);
            let mut model = ModelCache::default();
            let mut now = 0u64;
            for (k, dt, ttl, is_insert) in ops {
                now += dt;
                let name = format!("k{k}.a.com");
                if is_insert {
                    real.insert(key(&name), vec![record("a.com", ttl)], now, ttl);
                    model.insert(k, now, ttl, cap);
                } else {
                    let real_hit = real.get(&key(&name), now).is_some();
                    let model_hit = model.get(k, now);
                    prop_assert_eq!(real_hit, model_hit);
                }
                prop_assert_eq!(real.len(), model.entries.len());
                prop_assert!(real.len() <= cap);
            }
            // Residency agrees key-for-key at the end.
            for k in 0..10usize {
                let name = format!("k{k}.a.com");
                let real_hit = real.get(&key(&name), now).is_some();
                let model_hit = model.get(k, now);
                prop_assert_eq!(real_hit, model_hit);
            }
        }
    }
}
