//! The page-load workload's stub cache (DESIGN.md §15).
//!
//! Every hostname of a page is a dense id below
//! [`MAX_PAGE_DOMAINS`](crate::pageload::MAX_PAGE_DOMAINS) (the
//! `name_of` ids of a `PageModel`), and the page only asks whether a name
//! is cached, never for its records. So the cache is a fixed table with
//! one entry per id: no map, no key, no stored answer, and no lookup,
//! insert, eviction or drop allocates.
//!
//! Time is supplied by the caller in whole seconds.
//!
//! # Bounded memory and deterministic LRU
//!
//! The cache never holds more than `capacity` entries: inserting a fresh
//! id into a full cache first evicts the least-recently-used entry.
//! Recency is a monotonic operation tick stamped on insert and on every
//! hit. Ticks are unique, so the LRU victim is always well defined. An
//! expired entry that no lookup or sweep has removed yet still occupies
//! its slot: it counts towards the capacity, may be the LRU victim, and
//! re-inserting its id refreshes it in place.
//!
//! Every removal of an entry — LRU pressure, [`DnsCache::evict_expired`]
//! sweeps, or lazy expiry during [`DnsCache::get`] — counts as an
//! eviction; lookups count as hits or misses. The cache keeps these
//! counts itself, and [`DnsCache::publish`] adds them to the
//! deterministic `cache.hits`, `cache.misses` and `cache.evictions`
//! registry counters once per page, so the lookup path touches no shared
//! atomic.

use crate::pageload::MAX_PAGE_DOMAINS;

#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    /// Whether the id holds an entry (expired or not).
    live: bool,
    /// Whole second at which the entry expires.
    expires_at: u64,
    /// Monotonic recency stamp: updated on insert and on every hit.
    last_used: u64,
}

const EMPTY: CacheEntry = CacheEntry {
    live: false,
    expires_at: 0,
    last_used: 0,
};

/// A positive-answer cache of page hostname ids with per-entry absolute
/// expiry and a capacity bound enforced by deterministic LRU eviction.
#[derive(Debug)]
pub(crate) struct DnsCache {
    entries: [CacheEntry; MAX_PAGE_DOMAINS],
    /// Live entries, expired-but-unevicted ones included.
    len: usize,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl DnsCache {
    /// An empty cache holding at most `capacity` entries; inserting into a
    /// full cache evicts the least-recently-used entry first.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 1, "DnsCache capacity must be at least 1");
        DnsCache {
            entries: [EMPTY; MAX_PAGE_DOMAINS],
            len: 0,
            capacity,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn remove(&mut self, id: usize) {
        self.entries[id].live = false;
        self.len -= 1;
        self.evictions += 1;
    }

    /// Evict the live entry with the smallest recency stamp.
    fn evict_lru(&mut self) {
        let victim = (0..MAX_PAGE_DOMAINS)
            .filter(|&id| self.entries[id].live)
            .min_by_key(|&id| self.entries[id].last_used);
        if let Some(id) = victim {
            self.remove(id);
        }
    }

    /// Cache `id`, expiring `ttl` seconds after `now`. A zero TTL is
    /// honoured as "do not cache". Refreshing an existing id updates its
    /// recency; a fresh id entering a full cache evicts the
    /// least-recently-used entry first.
    pub(crate) fn insert(&mut self, id: u16, now: u64, ttl: u32) {
        if ttl == 0 {
            return;
        }
        let id = usize::from(id);
        if !self.entries[id].live {
            if self.len >= self.capacity {
                self.evict_lru();
            }
            self.len += 1;
        }
        let last_used = self.next_tick();
        self.entries[id] = CacheEntry {
            live: true,
            expires_at: now.saturating_add(u64::from(ttl)),
            last_used,
        };
    }

    /// Whether `id` is cached at time `now`; an expired entry is evicted
    /// lazily. A hit refreshes the entry's LRU recency.
    pub(crate) fn get(&mut self, id: u16, now: u64) -> bool {
        let id = usize::from(id);
        if !self.entries[id].live {
            self.misses += 1;
            return false;
        }
        if self.entries[id].expires_at > now {
            self.hits += 1;
            self.entries[id].last_used = self.next_tick();
            return true;
        }
        self.remove(id);
        self.misses += 1;
        false
    }

    /// Remove every expired entry eagerly; returns how many were evicted.
    pub(crate) fn evict_expired(&mut self, now: u64) -> usize {
        let before = self.len;
        for id in 0..MAX_PAGE_DOMAINS {
            if self.entries[id].live && self.entries[id].expires_at <= now {
                self.remove(id);
            }
        }
        before - self.len
    }

    /// Add this cache's counts to the global registry. A counter is
    /// touched only when its count is non-zero, so a cache registers
    /// exactly the counters a live increment would have.
    pub(crate) fn publish(&self) {
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
    use proptest::prelude::*;

    #[test]
    fn hit_within_ttl() {
        let mut c = DnsCache::with_capacity(4);
        c.insert(0, 1000, 300);
        assert!(c.get(0, 1299));
        assert_eq!((c.hits, c.misses), (1, 0));
    }

    #[test]
    fn miss_after_expiry() {
        let mut c = DnsCache::with_capacity(4);
        c.insert(0, 1000, 300);
        assert!(!c.get(0, 1300));
        assert_eq!(c.len, 0, "expired entry should be evicted lazily");
        assert_eq!((c.misses, c.evictions), (1, 1));
    }

    #[test]
    fn zero_ttl_not_cached() {
        let mut c = DnsCache::with_capacity(4);
        c.insert(0, 1000, 0);
        assert!(!c.get(0, 1000));
        assert_eq!(c.len, 0);
    }

    #[test]
    fn eager_eviction_counts() {
        let mut c = DnsCache::with_capacity(MAX_PAGE_DOMAINS);
        for id in 0..10 {
            c.insert(id, 0, 10);
        }
        assert_eq!(c.len, 10);
        assert_eq!(c.evict_expired(5), 0);
        assert_eq!(c.evict_expired(10), 10);
        assert_eq!(c.len, 0);
        assert_eq!(c.evictions, 10);
    }

    #[test]
    fn capacity_bound_is_enforced() {
        let mut c = DnsCache::with_capacity(3);
        for id in 0..8 {
            c.insert(id, 0, 100);
            assert!(c.len <= 3, "cache exceeded capacity at insert {id}");
        }
        assert_eq!(c.len, 3);
        assert_eq!(c.evictions, 5);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let (old, new, third) = (0, 1, 2);
        let mut c = DnsCache::with_capacity(2);
        c.insert(old, 0, 100);
        c.insert(new, 0, 100);
        // Touch the older entry: it becomes most recent.
        assert!(c.get(old, 1));
        c.insert(third, 2, 100);
        assert!(c.get(old, 3), "touched entry kept");
        assert!(!c.get(new, 3), "untouched entry evicted");
        assert!(c.get(third, 3));
    }

    #[test]
    fn refreshing_an_existing_key_does_not_evict() {
        let mut c = DnsCache::with_capacity(2);
        c.insert(0, 0, 100);
        c.insert(1, 0, 100);
        c.insert(0, 1, 100);
        assert_eq!(c.len, 2);
        assert_eq!(c.evictions, 0);
    }

    #[test]
    fn an_expired_unswept_entry_still_counts_on_insert() {
        let mut c = DnsCache::with_capacity(2);
        c.insert(0, 0, 1);
        c.insert(1, 0, 100);
        // Id 0 expired at 1 but nothing removed it: re-inserting it
        // refreshes its slot instead of evicting id 1.
        c.insert(0, 5, 100);
        assert_eq!((c.len, c.evictions), (2, 0));
        assert!(c.get(1, 6));
    }

    #[test]
    fn capacity_one_holds_exactly_the_latest_entry() {
        let mut c = DnsCache::with_capacity(1);
        c.insert(0, 0, 100);
        c.insert(1, 0, 100);
        assert_eq!(c.len, 1);
        assert!(c.get(1, 1));
    }

    /// Flat LRU reference model: (id, expires_at, last_used) triples
    /// driven by the same op sequence as the real cache.
    #[derive(Default)]
    struct ModelCache {
        entries: Vec<(u16, u64, u64)>,
        tick: u64,
        hits: u64,
        misses: u64,
        evictions: u64,
    }

    impl ModelCache {
        fn insert(&mut self, id: u16, now: u64, ttl: u32, cap: usize) {
            if ttl == 0 {
                return;
            }
            if !self.entries.iter().any(|e| e.0 == id) && self.entries.len() >= cap {
                let victim = self
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.2)
                    .map(|(i, _)| i)
                    .unwrap();
                self.entries.remove(victim);
                self.evictions += 1;
            }
            self.tick += 1;
            self.entries.retain(|e| e.0 != id);
            self.entries.push((id, now + u64::from(ttl), self.tick));
        }

        fn get(&mut self, id: u16, now: u64) -> bool {
            match self.entries.iter().position(|e| e.0 == id) {
                Some(i) if self.entries[i].1 > now => {
                    self.tick += 1;
                    self.entries[i].2 = self.tick;
                    self.hits += 1;
                    true
                }
                Some(i) => {
                    self.entries.remove(i);
                    self.misses += 1;
                    self.evictions += 1;
                    false
                }
                None => {
                    self.misses += 1;
                    false
                }
            }
        }

        fn evict_expired(&mut self, now: u64) -> usize {
            let before = self.entries.len();
            self.entries.retain(|e| e.1 > now);
            let evicted = before - self.entries.len();
            self.evictions += evicted as u64;
            evicted
        }
    }

    proptest! {
        /// TTL expiry, sweeps and LRU pressure interact exactly like the
        /// flat reference model: same hits, misses, evictions, residents
        /// and sizes.
        #[test]
        fn lru_ttl_interaction_matches_reference_model(
            cap in 1usize..6,
            ops in proptest::collection::vec(
                (0u16..10, 0u64..40, 0u32..20, 0u8..3),
                1..60,
            ),
        ) {
            let mut real = DnsCache::with_capacity(cap);
            let mut model = ModelCache::default();
            let mut now = 0u64;
            for (id, dt, ttl, op) in ops {
                now += dt;
                match op {
                    0 => {
                        real.insert(id, now, ttl);
                        model.insert(id, now, ttl, cap);
                    }
                    1 => prop_assert_eq!(real.get(id, now), model.get(id, now)),
                    _ => prop_assert_eq!(real.evict_expired(now), model.evict_expired(now)),
                }
                prop_assert_eq!(real.len, model.entries.len());
                prop_assert!(real.len <= cap);
            }
            // Residency agrees id for id at the end.
            for id in 0..10u16 {
                prop_assert_eq!(real.get(id, now), model.get(id, now));
            }
            prop_assert_eq!(
                (real.hits, real.misses, real.evictions),
                (model.hits, model.misses, model.evictions)
            );
        }

        /// Entries honour TTL boundaries exactly.
        #[test]
        fn cache_ttl_boundary(now in 0u64..1_000_000, ttl in 1u32..86_400) {
            let mut cache = DnsCache::with_capacity(1);
            cache.insert(0, now, ttl);
            prop_assert!(cache.get(0, now + u64::from(ttl) - 1));
            prop_assert!(!cache.get(0, now + u64::from(ttl)));
        }
    }
}
