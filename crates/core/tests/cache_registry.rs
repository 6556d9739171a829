//! A page's stub cache counts its hits, misses and evictions locally,
//! and `measure_page` publishes them to the global metrics registry
//! once, at the end of the page.
//!
//! This is its own test binary because the registry is process-global:
//! no other test in this binary measures a page, so the counter deltas
//! below are this test's alone.

use dohperf_core::pageload::{measure_page, PageModel, PageProfile, PAGE_CACHE_CAPACITY};
use dohperf_core::testbed::Testbed;
use dohperf_netsim::connection::DnsTransport;
use dohperf_netsim::rng::SimRng;
use dohperf_providers::provider::ALL_PROVIDERS;
use dohperf_proxy::exitnode::ExitNode;
use dohperf_world::countries::country;
use dohperf_world::geoloc::GeolocationService;

fn registry_counts() -> [u64; 3] {
    [
        dohperf_telemetry::counter!("cache.hits").get(),
        dohperf_telemetry::counter!("cache.misses").get(),
        dohperf_telemetry::counter!("cache.evictions").get(),
    ]
}

/// A page with more distinct names than the cache holds, so LRU
/// pressure and lazy expiry both add evictions.
fn wide_page() -> PageModel {
    let root = SimRng::new(2021).fork("campaign");
    let profile = PageProfile {
        mean_domains: 28.0,
        max_depth: 4,
    };
    (0..)
        .map(|client| {
            PageModel::generate(
                &profile,
                &mut root.fork_indexed("client", client).fork("page-model"),
            )
        })
        .find(|model| model.unique_names > PAGE_CACHE_CAPACITY)
        .expect("some client draws a wide page")
}

/// Cache evictions of each page below, pinned: the registry is the only
/// place the eviction count leaves `measure_page`.
const PINNED_EVICTIONS: [u64; 2] = [30, 31];

#[test]
fn a_cache_publishes_its_counts_to_the_registry_exactly_once() {
    let model = wide_page();
    let mut tb = Testbed::new(2021);
    tb.sim
        .begin_epoch(&SimRng::new(2021).fork("registry-epoch"));
    let c = country("BR").expect("BR in table");
    let mut geoloc = GeolocationService::new(SimRng::new(77), 0.0, vec![c.iso]);
    let exit = ExitNode::create(
        &mut tb.sim,
        &mut geoloc,
        c,
        0,
        c.centroid(),
        7,
        &mut SimRng::new(7),
    );

    // (transport, index into ALL_PROVIDERS, extra loss) per page.
    for (page, (transport, pi, extra_loss_p)) in
        [(DnsTransport::DoH, 0, 0.0), (DnsTransport::DoT, 1, 0.3)]
            .into_iter()
            .enumerate()
    {
        let provider = ALL_PROVIDERS[pi];
        let deployment = &tb.deployments[pi];
        let pop_index = deployment.nearest_index(&exit.position);
        let before = registry_counts();
        let outcome = measure_page(
            &mut tb.sim,
            &exit,
            provider,
            deployment,
            pop_index,
            tb.auth_ns,
            transport,
            extra_loss_p,
            &model,
            3,
            &mut SimRng::new(2021).fork_indexed("page", page as u64),
        );
        let after = registry_counts();
        let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        // Every lookup is a hit or a query, and each is published once.
        let hits = u64::from(outcome.cold_cache_hits + outcome.warm_cache_hits);
        assert_eq!(
            delta,
            [hits, u64::from(outcome.queries), PINNED_EVICTIONS[page]],
            "page {page}: the registry must receive each count exactly once"
        );
    }
}
