//! Web page-load workload (DESIGN.md §15).
//!
//! The paper's per-query timings answer "how much slower is one DoH
//! query"; this module answers the question users actually feel: how
//! much slower is a *page*. A synthetic page is a dependency DAG of
//! DNS resolutions — the root HTML names stylesheets, which name fonts,
//! which name CDN hosts — and page-load time (PLT) is the critical path
//! through that DAG, not the sum of its queries.
//!
//! Three mechanisms interact along that path, and each is modeled
//! explicitly rather than averaged away:
//!
//! 1. **Connection multiplexing.** Every resolution of one
//!    (client, provider, transport) page shares a single
//!    [`Connection`]: the cold visit pays bootstrap + full handshake
//!    once, then every query rides the established session. On loss,
//!    the transports diverge — a lost TCP segment (DoH/DoT) stalls
//!    *every* in-flight stream on the connection (head-of-line
//!    blocking), while QUIC (DoQ) re-transmits inside the affected
//!    stream and plain Do53 burns its per-datagram retry timer.
//! 2. **The stub cache.** A capacity-bounded [`DnsCache`] sits in the
//!    resolution path: duplicate hostnames inside one page hit
//!    intra-page, and warm revisits hit cross-page until TTLs expire. A
//!    periodic timer-wheel tick sweeps expired entries during the visit.
//! 3. **Dependency scheduling.** Ready nodes resolve concurrently
//!    through the simulator's timer wheel; a node becomes ready only
//!    when all its parents have resolved. PLT is therefore the last
//!    completion time minus the visit start — the DAG's critical path
//!    under whatever concurrency the dependency structure allows.
//!
//! # Determinism contract
//!
//! Page *shape* (node count, depths, duplicate names, TTLs) is drawn
//! from a per-country profile stream and a per-client model stream —
//! both forks of the campaign lineage, so the same client builds the
//! same page in any shard layout. Execution consumes only the
//! per-(client, transport, provider) fork handed to [`measure_page`]
//! plus the simulator's checkpointed jitter streams; event ties break
//! on insertion order, which is itself deterministic. The campaign
//! wraps the whole block in `with_rng_checkpoint`, so enabling the
//! workload never perturbs legacy or transports samples.

use dohperf_dns::cache::{CacheKey, DnsCache};
use dohperf_dns::name::DnsName;
use dohperf_dns::rdata::RData;
use dohperf_dns::record::ResourceRecord;
use dohperf_dns::types::RecordType;
use dohperf_netsim::connection::{Connection, DnsTransport, Warmth};
use dohperf_netsim::engine::Simulator;
use dohperf_netsim::event::EventId;
use dohperf_netsim::rng::SimRng;
use dohperf_netsim::time::{SimDuration, SimTime};
use dohperf_netsim::topology::NodeId;
use dohperf_providers::pops::PopDeployment;
use dohperf_providers::provider::ProviderKind;
use dohperf_proxy::exitnode::ExitNode;
use dohperf_telemetry::flight;
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// Fewest resolutions a page can need (root + a handful of assets).
pub const MIN_PAGE_DOMAINS: usize = 4;
/// Most resolutions a page can need; keeps node indices in `u16` and
/// the per-page state small enough to reset without reallocating.
pub const MAX_PAGE_DOMAINS: usize = 32;
/// Stub-cache capacity. Deliberately below [`MAX_PAGE_DOMAINS`] so the
/// widest pages overflow it and the LRU policy is exercised on the
/// measurement path, not only in unit tests.
pub const PAGE_CACHE_CAPACITY: usize = 24;

/// Probability a non-root node reuses an already-drawn hostname (shared
/// CDN hosts), producing intra-page cache hits on the cold visit.
const DUPLICATE_NAME_P: f64 = 0.15;
/// Probability a node depends on a second parent (when one exists).
const TWO_PARENT_P: f64 = 0.4;
/// Parse delay between a parent resolving and its children being
/// discovered in the document.
const PARSE_GAP: SimDuration = SimDuration::from_millis(2);
/// Think time between visits: long enough for short TTLs to expire,
/// short enough that the connection survives its idle timeout.
const INTER_VISIT_GAP: SimDuration = SimDuration::from_millis(5_000);
/// Period of the expired-entry sweep while a visit is in flight.
const EVICT_TICK: SimDuration = SimDuration::from_millis(1_000);
/// TTLs assigned to unique names. The 2 s bucket expires inside the
/// inter-visit gap, so warm visits still pay for some re-resolutions.
const TTL_CHOICES: [u32; 4] = [2, 30, 60, 300];
/// Probability the exit node's resolver has the provider's bootstrap A
/// record cached (mirrors `proxy::lifecycle`).
const BOOTSTRAP_CACHE_HIT_P: f64 = 0.8;

/// Per-country page-shape distribution parameters, drawn once per
/// country from the campaign root stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageProfile {
    /// Mean node count for pages in this country.
    pub mean_domains: f64,
    /// Deepest dependency chain pages in this country may have.
    pub max_depth: u32,
}

impl PageProfile {
    /// Derive the profile for one country. Forks never advance their
    /// parent, so any range of the same country computes the same
    /// profile regardless of shard layout.
    pub fn for_country(root_rng: &SimRng, iso: &str) -> PageProfile {
        let mut rng = root_rng.fork_parts(&["page-profile-", iso]);
        PageProfile {
            mean_domains: rng.uniform(8.0, 24.0),
            max_depth: 2 + rng.index(3) as u32,
        }
    }
}

/// One client's synthetic page: a DAG of resolutions in CSR form.
///
/// Nodes are stored in non-decreasing depth order with node 0 (the root
/// document) at depth 0, and every edge points from a node to a parent
/// of *strictly smaller* depth — so the graph is acyclic by
/// construction and every parent index is smaller than its child's.
#[derive(Debug, Clone, PartialEq)]
pub struct PageModel {
    /// Per-node depth, non-decreasing, `depths[0] == 0`.
    pub depths: Vec<u32>,
    /// CSR offsets into `edges`: node `i`'s parents are
    /// `edges[edge_index[i]..edge_index[i + 1]]`.
    pub edge_index: Vec<u32>,
    /// Parent node indices, flattened.
    pub edges: Vec<u16>,
    /// Per-node hostname id in `0..unique_names` (duplicates share one).
    pub name_of: Vec<u16>,
    /// Per-unique-name TTL, seconds.
    pub ttl_of: Vec<u32>,
    /// Number of distinct hostnames.
    pub unique_names: usize,
}

impl PageModel {
    /// Draw one page from a country profile. Consumes only `rng`.
    pub fn generate(profile: &PageProfile, rng: &mut SimRng) -> PageModel {
        let n = (rng
            .normal(profile.mean_domains, profile.mean_domains / 4.0)
            .round() as i64)
            .clamp(MIN_PAGE_DOMAINS as i64, MAX_PAGE_DOMAINS as i64) as usize;

        let mut depths = Vec::with_capacity(n);
        depths.push(0u32);
        for _ in 1..n {
            depths.push(1 + rng.index(profile.max_depth as usize) as u32);
        }
        depths[1..].sort_unstable();

        let mut name_of = Vec::with_capacity(n);
        name_of.push(0u16);
        let mut unique_names = 1usize;
        for _ in 1..n {
            if rng.chance(DUPLICATE_NAME_P) {
                name_of.push(rng.index(unique_names) as u16);
            } else {
                name_of.push(unique_names as u16);
                unique_names += 1;
            }
        }
        let ttl_of = (0..unique_names)
            .map(|_| TTL_CHOICES[rng.index(TTL_CHOICES.len())])
            .collect();

        let mut edge_index = Vec::with_capacity(n + 1);
        let mut edges = Vec::new();
        edge_index.push(0u32);
        for i in 0..n {
            if i > 0 {
                // Depths are sorted, so the nodes of strictly smaller
                // depth are exactly the prefix before this depth's first
                // occurrence; the root guarantees it is non-empty.
                let eligible = depths[..i].partition_point(|&d| d < depths[i]);
                let first = rng.index(eligible) as u16;
                edges.push(first);
                if eligible > 1 && rng.chance(TWO_PARENT_P) {
                    let second = rng.index(eligible) as u16;
                    if second != first {
                        edges.push(second);
                    }
                }
            }
            edge_index.push(edges.len() as u32);
        }

        PageModel {
            depths,
            edge_index,
            edges,
            name_of,
            ttl_of,
            unique_names,
        }
    }

    /// Node count.
    pub fn len(&self) -> usize {
        self.depths.len()
    }

    /// Whether the page has no nodes (never true for generated pages).
    pub fn is_empty(&self) -> bool {
        self.depths.is_empty()
    }

    /// Longest dependency chain (root is depth 0).
    pub fn max_depth(&self) -> u32 {
        *self.depths.last().expect("pages have at least a root")
    }

    /// Node `i`'s parents.
    pub fn parents_of(&self, i: usize) -> &[u16] {
        &self.edges[self.edge_index[i] as usize..self.edge_index[i + 1] as usize]
    }
}

/// Outcome of one full page measurement: a cold visit plus one or more
/// warm revisits of the same page over the same connection and cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageOutcome {
    /// Critical-path PLT of the cold visit (empty cache, cold
    /// connection, bootstrap included), ms.
    pub plt_cold_ms: f64,
    /// Median critical-path PLT over the warm revisits, ms.
    pub plt_warm_ms: f64,
    /// Cache hits during the cold visit (intra-page duplicates).
    pub cold_cache_hits: u32,
    /// Cache hits summed over the warm revisits (cross-page reuse).
    pub warm_cache_hits: u32,
    /// Resolutions that actually went to the network, all visits.
    pub queries: u32,
}

/// Mutable per-page state shared by the scheduled events.
///
/// The event closures hold `Rc` clones; each event borrows the state
/// for its own duration only, and no event re-enters another, so the
/// `RefCell` discipline is trivially upheld.
struct PageRun {
    exit: ExitNode,
    pop: NodeId,
    auth: NodeId,
    provider: ProviderKind,
    transport: DnsTransport,
    extra_loss_p: f64,
    model: PageModel,
    /// Cache key per unique name (names are client-independent so the
    /// global label-intern arena stays bounded).
    keys: Vec<CacheKey>,
    rng: SimRng,
    cache: DnsCache,
    /// Connection generation of the current visit, for span attrs.
    generation: u32,
    // --- per-visit state, reset by `reset_visit` ---
    /// Unresolved parents per node; a node schedules when it hits 0.
    remaining: Vec<u32>,
    /// When each node's resolution started (for spans).
    started_at: Vec<SimTime>,
    /// Whether each node's resolution was a cache hit.
    was_hit: Vec<bool>,
    /// In-flight resolutions: (node, completion event, completion time).
    /// TCP loss stalls rewrite this list wholesale.
    in_flight: Vec<(u16, EventId, SimTime)>,
    /// Nodes resolved so far this visit.
    done: u32,
    /// Completion time of the latest resolution — PLT's right edge.
    last_done: SimTime,
    /// Visit in progress: the evict tick re-arms only while set.
    active: bool,
    // --- cumulative across visits ---
    cache_hits: u32,
    queries: u32,
    recording: bool,
}

impl PageRun {
    fn reset_visit(&mut self, start: SimTime) {
        let n = self.model.len();
        self.remaining.clear();
        for i in 0..n {
            self.remaining.push(self.model.parents_of(i).len() as u32);
        }
        self.started_at.clear();
        self.started_at.resize(n, start);
        self.was_hit.clear();
        self.was_hit.resize(n, false);
        self.in_flight.clear();
        self.done = 0;
        self.last_done = start;
        self.active = true;
    }
}

/// Whole seconds of simulated time — the cache's clock granularity.
fn cache_now(at: SimTime) -> u64 {
    at.as_nanos() / 1_000_000_000
}

/// A node's dependencies are satisfied: resolve its hostname. Cache
/// hits answer locally; misses cost a request leg + framing + optional
/// loss stall + recursion + provider processing, all multiplexed on the
/// page's shared connection. Schedules the completion event.
fn node_ready(sim: &mut Simulator, run: &Rc<RefCell<PageRun>>, node: u16, at: SimTime) {
    let mut s = run.borrow_mut();
    let s = &mut *s;
    s.started_at[node as usize] = at;
    let name_id = s.model.name_of[node as usize] as usize;
    let hit = s.cache.get(&s.keys[name_id], cache_now(at)).is_some();
    s.was_hit[node as usize] = hit;
    let mut stall_others = SimDuration::ZERO;
    let elapsed = if hit {
        s.cache_hits += 1;
        let _hot = dohperf_telemetry::alloc::hot_scope();
        // Local answer: stub processing only, no network.
        SimDuration::from_millis_f64(s.rng.lognormal_median(0.2, 0.2))
    } else {
        s.queries += 1;
        let transport = s.transport;
        let _hot = dohperf_telemetry::alloc::hot_scope();
        // Same cost model as `proxy::lifecycle::transport_query`, with
        // the loss asymmetry lifted to page granularity: TCP stalls
        // every in-flight sibling, QUIC and UDP stay stream-local.
        let mut leg = sim.rtt(s.exit.node, s.pop);
        let framing = s
            .exit
            .https_overhead(&mut s.rng)
            .mul_f64(transport.framing_factor());
        if s.rng.chance(s.extra_loss_p) {
            match transport {
                DnsTransport::Do53 => {
                    leg += dohperf_netsim::transport::UDP_RETRY_TIMEOUT;
                }
                DnsTransport::DoH | DnsTransport::DoT => {
                    let mut stall = SimDuration::ZERO;
                    for _ in 0..transport.loss_stall_rtts() {
                        stall += sim.rtt(s.exit.node, s.pop);
                    }
                    leg += stall;
                    stall_others = stall;
                }
                DnsTransport::DoQ => {
                    for _ in 0..transport.loss_stall_rtts() {
                        leg += sim.rtt(s.exit.node, s.pop);
                    }
                }
            }
        }
        // Page hostnames are synthetic and per-campaign, so the
        // provider's recursive cache never has them: full recursion.
        let recursion = sim.rtt(s.pop, s.auth);
        let processing = s.provider.processing_time(&mut s.rng)
            + s.provider.forwarding_penalty(s.exit.id, &mut s.rng);
        leg + framing + recursion + processing
    };
    if !hit {
        dohperf_telemetry::counter!("campaign.page_queries").inc();
    }
    if stall_others > SimDuration::ZERO {
        dohperf_telemetry::counter!("campaign.page_tcp_stalls").inc();
        // Head-of-line blocking: push every in-flight sibling's
        // completion out by the stall and re-arm their events.
        for slot in s.in_flight.iter_mut() {
            sim.cancel(slot.1);
            slot.2 += stall_others;
            let sibling = slot.0;
            let rc = run.clone();
            slot.1 = sim.schedule_at(slot.2, move |sim, t| node_complete(sim, &rc, sibling, t));
        }
    }
    let completes = at + elapsed;
    let rc = run.clone();
    let ev = sim.schedule_at(completes, move |sim, t| node_complete(sim, &rc, node, t));
    s.in_flight.push((node, ev, completes));
}

/// A node's resolution finished: cache the answer, emit its span, and
/// release any children whose parents are now all resolved.
fn node_complete(sim: &mut Simulator, run: &Rc<RefCell<PageRun>>, node: u16, at: SimTime) {
    let mut s = run.borrow_mut();
    let s = &mut *s;
    if let Some(pos) = s.in_flight.iter().position(|slot| slot.0 == node) {
        s.in_flight.swap_remove(pos);
    }
    let name_id = s.model.name_of[node as usize] as usize;
    if !s.was_hit[node as usize] {
        let ttl = s.model.ttl_of[name_id];
        let key = &s.keys[name_id];
        let answer = vec![ResourceRecord::new(
            key.name.clone(),
            ttl,
            RData::A(Ipv4Addr::new(198, 51, 100, name_id as u8 + 1)),
        )];
        s.cache.insert(key.clone(), answer, cache_now(at), ttl);
    }
    if s.recording {
        let span = flight::start_span(
            "pageload",
            format!("resolve n{node} r{name_id}"),
            s.started_at[node as usize].as_nanos(),
        );
        flight::attr(span, "depth", s.model.depths[node as usize].to_string());
        flight::attr(
            span,
            "cache",
            if s.was_hit[node as usize] {
                "hit"
            } else {
                "miss"
            },
        );
        flight::attr(span, "generation", s.generation.to_string());
        flight::end_span(span, at.as_nanos());
    }
    s.done += 1;
    if at > s.last_done {
        s.last_done = at;
    }
    if s.done == s.model.len() as u32 {
        s.active = false;
        return;
    }
    for child in (node as usize + 1)..s.model.len() {
        let parents = s.model.parents_of(child);
        if !parents.contains(&node) {
            continue;
        }
        s.remaining[child] -= 1;
        if s.remaining[child] == 0 {
            let rc = run.clone();
            let c = child as u16;
            sim.schedule_at(at + PARSE_GAP, move |sim, t| node_ready(sim, &rc, c, t));
        }
    }
}

/// Re-arming expired-entry sweep: runs every [`EVICT_TICK`] while the
/// visit is active, then lets the queue drain (the per-client epoch
/// asserts an empty queue, so nothing may keep re-arming forever).
fn schedule_evict_tick(sim: &mut Simulator, run: &Rc<RefCell<PageRun>>, at: SimTime) {
    let rc = run.clone();
    sim.schedule_at(at, move |sim, t| {
        let still_active = {
            let mut s = rc.borrow_mut();
            if s.active {
                s.cache.evict_expired(cache_now(t));
            }
            s.active
        };
        if still_active {
            schedule_evict_tick(sim, &rc, t + EVICT_TICK);
        }
    });
}

/// Measure one page over one (client, provider, transport) triple:
/// a cold visit (empty cache, cold connection) followed by
/// `visits - 1` warm revisits, every resolution multiplexed on one
/// shared [`Connection`].
///
/// `rng` must be a dedicated fork — the campaign derives one per
/// (client, transport, provider) so these draws never perturb the
/// legacy measurement lineage. The simulator clock is left wherever the
/// last visit ended; callers run inside a per-client epoch.
#[allow(clippy::too_many_arguments)]
pub fn measure_page(
    sim: &mut Simulator,
    exit: &ExitNode,
    provider: ProviderKind,
    deployment: &PopDeployment,
    pop_index: usize,
    auth: NodeId,
    transport: DnsTransport,
    extra_loss_p: f64,
    model: &PageModel,
    visits: u32,
    rng: &mut SimRng,
) -> PageOutcome {
    assert!(
        visits >= 2,
        "a page measurement needs a cold visit plus at least one revisit"
    );
    let pop = deployment.sites()[pop_index].node;
    let recording = flight::active();
    let n = model.len();

    // Fixed hostnames r0..r31: bounded label-intern footprint, and the
    // per-pair cache is fresh so clients cannot observe each other.
    let keys: Vec<CacheKey> = (0..model.unique_names)
        .map(|i| CacheKey {
            name: DnsName::parse(&format!("r{i}.page.example")).expect("static page names parse"),
            rtype: RecordType::A,
        })
        .collect();

    let mut conn = Connection::new(transport);
    let run = Rc::new(RefCell::new(PageRun {
        exit: exit.clone(),
        pop,
        auth,
        provider,
        transport,
        extra_loss_p,
        model: model.clone(),
        keys,
        rng: rng.fork("page-run"),
        cache: DnsCache::with_capacity(PAGE_CACHE_CAPACITY),
        generation: 0,
        remaining: Vec::with_capacity(n),
        started_at: Vec::with_capacity(n),
        was_hit: Vec::with_capacity(n),
        in_flight: Vec::with_capacity(n),
        done: 0,
        last_done: sim.now(),
        active: false,
        cache_hits: 0,
        queries: 0,
        recording,
    }));

    let page_span = if recording {
        flight::start_span(
            "pageload",
            format!("page {} {}", transport.name(), provider.hostname()),
            sim.now().as_nanos(),
        )
    } else {
        flight::SpanToken::NOOP
    };

    let mut plt_cold_ms = 0.0;
    let mut warm_plts: Vec<f64> = Vec::with_capacity(visits as usize - 1);
    let mut cold_hits = 0u32;

    for visit in 0..visits {
        if visit > 0 {
            sim.advance(INTER_VISIT_GAP);
        }
        dohperf_telemetry::counter!("campaign.page_visits").inc();
        let visit_start = sim.now();
        let visit_span = if recording {
            flight::start_span(
                "pageload",
                format!(
                    "visit {visit} ({})",
                    if visit == 0 { "cold" } else { "warm" }
                ),
                visit_start.as_nanos(),
            )
        } else {
            flight::SpanToken::NOOP
        };
        let hits_before;
        {
            let mut s = run.borrow_mut();
            let s = &mut *s;
            hits_before = s.cache_hits;
            s.reset_visit(visit_start);
            // Sweep entries that expired during the think-time gap so
            // the eviction counter sees them deterministically.
            s.cache.evict_expired(cache_now(visit_start));
            // Cold visits bootstrap the provider hostname over Do53
            // (encrypted transports only; Do53 targets the resolver
            // address directly), then pay the full handshake. Warm
            // visits re-acquire inside the keep-alive window for free.
            if visit == 0 && transport.is_encrypted() {
                let bootstrap = s.exit.do53_bootstrap(
                    sim,
                    pop,
                    provider.hostname(),
                    BOOTSTRAP_CACHE_HIT_P,
                    &mut s.rng,
                );
                sim.advance(bootstrap);
            }
            let acq = conn.acquire(sim.now());
            s.generation = acq.generation;
            let mut handshake = SimDuration::ZERO;
            for _ in 0..transport.handshake_rtts(acq.warmth) {
                handshake += sim.rtt(s.exit.node, pop);
            }
            if transport.is_encrypted() && acq.warmth == Warmth::Cold {
                handshake += s.exit.handshake_crypto_overhead(&mut s.rng);
            }
            sim.advance(handshake);
            s.last_done = sim.now();
            if recording {
                flight::attr(visit_span, "warmth", acq.warmth.name());
                flight::attr(visit_span, "generation", acq.generation.to_string());
            }
        }
        let root_at = sim.now();
        let rc = run.clone();
        sim.schedule_at(root_at, move |sim, t| node_ready(sim, &rc, 0, t));
        schedule_evict_tick(sim, &run, root_at + EVICT_TICK);
        sim.run_to_completion();

        let (plt_ms, visit_hits) = {
            let s = run.borrow();
            debug_assert_eq!(s.done, n as u32, "every page node must resolve");
            (
                s.last_done.saturating_since(visit_start).as_millis_f64(),
                s.cache_hits - hits_before,
            )
        };
        if visit == 0 {
            plt_cold_ms = plt_ms;
            cold_hits = visit_hits;
        } else {
            warm_plts.push(plt_ms);
        }
        if recording {
            flight::attr(visit_span, "plt_ms", format!("{plt_ms}"));
            flight::attr(visit_span, "cache_hits", visit_hits.to_string());
            flight::end_span(visit_span, sim.now().as_nanos());
        }
    }
    if recording {
        flight::end_span(page_span, sim.now().as_nanos());
    }

    let s = run.borrow();
    PageOutcome {
        plt_cold_ms,
        plt_warm_ms: median(&mut warm_plts),
        cold_cache_hits: cold_hits,
        warm_cache_hits: s.cache_hits - cold_hits,
        queries: s.queries,
    }
}

/// Median of a non-empty slice (lower middle for even lengths — with
/// the default single warm revisit this is the identity).
fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty());
    xs.sort_by(|a, b| a.partial_cmp(b).expect("PLTs are finite"));
    xs[(xs.len() - 1) / 2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn model_for(seed: u64) -> (PageProfile, PageModel) {
        let root = SimRng::new(seed).fork("campaign");
        let profile = PageProfile::for_country(&root, "BR");
        let mut rng = root.fork_indexed("client", 7).fork("page-model");
        let model = PageModel::generate(&profile, &mut rng);
        (profile, model)
    }

    #[test]
    fn generation_is_deterministic() {
        let (_, a) = model_for(42);
        let (_, b) = model_for(42);
        assert_eq!(a, b);
        let (_, c) = model_for(43);
        assert_ne!(a, c, "different seeds should draw different pages");
    }

    #[test]
    fn profile_is_a_pure_function_of_seed_and_country() {
        let root = SimRng::new(9).fork("campaign");
        let a = PageProfile::for_country(&root, "US");
        let b = PageProfile::for_country(&root, "US");
        assert_eq!(a, b);
        assert!((8.0..=24.0).contains(&a.mean_domains));
        assert!((2..=4).contains(&a.max_depth));
    }

    fn assert_invariants(profile: &PageProfile, model: &PageModel) {
        let n = model.len();
        assert!((MIN_PAGE_DOMAINS..=MAX_PAGE_DOMAINS).contains(&n));
        assert_eq!(model.depths[0], 0, "node 0 is the root document");
        assert!(model.max_depth() <= profile.max_depth);
        assert!(model.depths.windows(2).all(|w| w[0] <= w[1]));
        assert!(model.parents_of(0).is_empty(), "the root has no parents");
        assert!(model.unique_names <= n);
        assert_eq!(model.ttl_of.len(), model.unique_names);
        assert!(model
            .name_of
            .iter()
            .all(|&id| (id as usize) < model.unique_names));
        for i in 1..n {
            let parents = model.parents_of(i);
            assert!(!parents.is_empty(), "non-root node {i} must have a parent");
            assert!(parents.len() <= 2);
            for &p in parents {
                // Strictly-smaller parent depth makes the DAG acyclic by
                // construction; smaller index proves topological order.
                assert!((p as usize) < i);
                assert!(model.depths[p as usize] < model.depths[i]);
            }
        }
    }

    proptest! {
        #[test]
        fn generated_pages_are_acyclic_and_in_bounds(seed in any::<u64>(), client in 0u64..512) {
            let root = SimRng::new(seed).fork("campaign");
            let profile = PageProfile::for_country(&root, "DE");
            let mut rng = root.fork_indexed("client", client).fork("page-model");
            let model = PageModel::generate(&profile, &mut rng);
            assert_invariants(&profile, &model);
        }
    }

    #[test]
    fn duplicate_names_appear_at_scale() {
        // Over many clients some pages must reuse hostnames — that is
        // what produces intra-page (cold-visit) cache hits.
        let root = SimRng::new(2021).fork("campaign");
        let profile = PageProfile::for_country(&root, "JP");
        let mut dupes = 0;
        for client in 0..64 {
            let mut rng = root.fork_indexed("client", client).fork("page-model");
            let model = PageModel::generate(&profile, &mut rng);
            if model.unique_names < model.len() {
                dupes += 1;
            }
        }
        assert!(dupes > 10, "only {dupes}/64 pages had duplicate names");
    }

    #[test]
    fn median_takes_the_lower_middle() {
        assert_eq!(median(&mut [3.0]), 3.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&mut [4.0, 1.0]), 1.0);
    }
}
