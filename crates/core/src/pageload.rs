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
use dohperf_netsim::connection::{Connection, DnsTransport};
use dohperf_netsim::engine::Simulator;
use dohperf_netsim::event::EventId;
use dohperf_netsim::rng::SimRng;
use dohperf_netsim::time::{SimDuration, SimTime};
use dohperf_netsim::topology::NodeId;
use dohperf_providers::pops::PopDeployment;
use dohperf_providers::provider::ProviderKind;
use dohperf_proxy::exitnode::{ExitNode, BOOTSTRAP_CACHE_HIT_P};
use dohperf_proxy::lifecycle::{handshake_bill, pop_answer, query_leg};
use dohperf_telemetry::flight;
use std::net::Ipv4Addr;
use std::sync::OnceLock;

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
/// The same edges are also kept child-wise, so a completing node finds
/// its children without scanning the later nodes' parents.
#[derive(Debug, Clone, PartialEq)]
pub struct PageModel {
    /// Per-node depth, non-decreasing, `depths[0] == 0`.
    pub depths: Vec<u32>,
    /// CSR offsets into `edges`: node `i`'s parents are
    /// `edges[edge_index[i]..edge_index[i + 1]]`.
    pub edge_index: Vec<u32>,
    /// Parent node indices, flattened.
    pub edges: Vec<u16>,
    /// CSR offsets into `children`: node `i`'s children are
    /// `children[child_index[i]..child_index[i + 1]]`.
    pub child_index: Vec<u32>,
    /// Child node indices, flattened; each node's run is ascending.
    pub children: Vec<u16>,
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

        // Transpose the parent lists: count each node's children, prefix
        // sum the counts, then place children in ascending index order.
        let mut child_index = vec![0u32; n + 1];
        for &p in &edges {
            child_index[p as usize + 1] += 1;
        }
        for i in 0..n {
            child_index[i + 1] += child_index[i];
        }
        let mut fill: Vec<u32> = child_index[..n].to_vec();
        let mut children = vec![0u16; edges.len()];
        for child in 1..n {
            for &p in &edges[edge_index[child] as usize..edge_index[child + 1] as usize] {
                children[fill[p as usize] as usize] = child as u16;
                fill[p as usize] += 1;
            }
        }

        PageModel {
            depths,
            edge_index,
            edges,
            child_index,
            children,
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

    /// Node `i`'s children, in ascending index order.
    pub fn children_of(&self, i: usize) -> &[u16] {
        &self.children[self.child_index[i] as usize..self.child_index[i + 1] as usize]
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

/// One page event, carried through the simulator's timer wheel as a
/// `u32` token: the kind in the high half, the node in the low half.
#[derive(Debug, Clone, Copy)]
enum PageEvent {
    /// A node's parents have all resolved: start resolving it.
    Ready(u16),
    /// A node's resolution finished.
    Complete(u16),
    /// The periodic expired-entry sweep.
    Tick,
}

impl PageEvent {
    fn token(self) -> u32 {
        match self {
            PageEvent::Ready(node) => u32::from(node),
            PageEvent::Complete(node) => 1 << 16 | u32::from(node),
            PageEvent::Tick => 2 << 16,
        }
    }

    fn from_token(token: u32) -> PageEvent {
        let node = token as u16;
        match token >> 16 {
            0 => PageEvent::Ready(node),
            1 => PageEvent::Complete(node),
            2 => PageEvent::Tick,
            kind => unreachable!("page event kind {kind}: the queue holds only page events"),
        }
    }
}

/// Cache keys for the fixed page hostnames `r0..r31.page.example`,
/// built once per process. Names are client-independent, so the global
/// label-intern arena stays bounded, and no page parses a name.
fn page_keys() -> &'static [CacheKey] {
    static KEYS: OnceLock<Vec<CacheKey>> = OnceLock::new();
    KEYS.get_or_init(|| {
        (0..MAX_PAGE_DOMAINS)
            .map(|i| CacheKey {
                name: DnsName::parse(&format!("r{i}.page.example"))
                    .expect("static page names parse"),
                rtype: RecordType::A,
            })
            .collect()
    })
}

/// Mutable state of one page measurement. Events mutate it one at a time
/// from [`measure_page`]'s dispatch loop.
struct PageRun<'a> {
    exit: &'a ExitNode,
    model: &'a PageModel,
    /// Cache key per unique name.
    keys: &'static [CacheKey],
    pop: NodeId,
    auth: NodeId,
    provider: ProviderKind,
    transport: DnsTransport,
    extra_loss_p: f64,
    rng: SimRng,
    cache: DnsCache,
    /// Connection generation of the current visit, for span attrs.
    generation: u32,
    // --- per-visit state, reset by `reset_visit` ---
    /// Unresolved parents per node; a node schedules when it hits 0.
    remaining: [u8; MAX_PAGE_DOMAINS],
    /// When each node's resolution started (for spans).
    started_at: [SimTime; MAX_PAGE_DOMAINS],
    /// Whether each node's resolution was a cache hit.
    was_hit: [bool; MAX_PAGE_DOMAINS],
    /// In-flight resolutions: (node, completion event, completion time).
    /// TCP loss stalls rewrite this list wholesale.
    in_flight: Vec<(u16, EventId, SimTime)>,
    /// Nodes resolved so far this visit.
    done: u32,
    /// Completion time of the latest resolution — PLT's right edge.
    last_done: SimTime,
    /// Visit in progress: the evict tick re-arms only while set.
    active: bool,
    // --- cumulative across visits, published once per page ---
    cache_hits: u32,
    queries: u32,
    tcp_stalls: u64,
    events: u64,
    recording: bool,
}

impl PageRun<'_> {
    fn reset_visit(&mut self, start: SimTime) {
        for i in 0..self.model.len() {
            self.remaining[i] = self.model.parents_of(i).len() as u8;
        }
        self.started_at = [start; MAX_PAGE_DOMAINS];
        self.was_hit = [false; MAX_PAGE_DOMAINS];
        self.in_flight.clear();
        self.done = 0;
        self.last_done = start;
        self.active = true;
    }

    /// Drain the simulator's queue, dispatching each popped event.
    fn run_visit(&mut self, sim: &mut Simulator) {
        while let Some((at, token)) = sim.next_event() {
            self.events += 1;
            match PageEvent::from_token(token) {
                PageEvent::Ready(node) => self.node_ready(sim, node, at),
                PageEvent::Complete(node) => self.node_complete(sim, node, at),
                PageEvent::Tick => self.evict_tick(sim, at),
            }
        }
    }

    /// A node's dependencies are satisfied: resolve its hostname. Cache
    /// hits answer locally; misses cost a request leg + framing +
    /// optional loss stall + recursion + provider processing, all
    /// multiplexed on the page's shared connection. Schedules the
    /// completion event.
    fn node_ready(&mut self, sim: &mut Simulator, node: u16, at: SimTime) {
        self.started_at[node as usize] = at;
        let name_id = self.model.name_of[node as usize] as usize;
        let hit = self.cache.get(&self.keys[name_id], cache_now(at)).is_some();
        self.was_hit[node as usize] = hit;
        let mut stall_others = SimDuration::ZERO;
        let elapsed = if hit {
            self.cache_hits += 1;
            let _hot = dohperf_telemetry::alloc::hot_scope();
            // Local answer: stub processing only, no network.
            SimDuration::from_millis_f64(self.rng.lognormal_median(0.2, 0.2))
        } else {
            self.queries += 1;
            let (exit, pop, transport, rng) = (self.exit, self.pop, self.transport, &mut self.rng);
            let _hot = dohperf_telemetry::alloc::hot_scope();
            // The lifecycle query bill, with the loss asymmetry lifted to
            // page granularity: TCP stalls every in-flight sibling, QUIC
            // and UDP stay stream-local.
            let q = query_leg(sim, exit, pop, transport, self.extra_loss_p, rng);
            if let (Some(stall), DnsTransport::DoH | DnsTransport::DoT) = (q.stall, transport) {
                stall_others = stall;
            }
            // Page hostnames are synthetic and per-campaign, so the
            // provider's recursive cache never has them: full recursion.
            let answer = pop_answer(sim, exit, pop, self.auth, self.provider, 0.0, rng);
            q.leg + q.framing + answer.elapsed()
        };
        if stall_others > SimDuration::ZERO {
            self.tcp_stalls += 1;
            // Head-of-line blocking: push every in-flight sibling's
            // completion out by the stall and re-arm their events.
            for slot in self.in_flight.iter_mut() {
                sim.cancel(slot.1);
                slot.2 += stall_others;
                slot.1 = sim.schedule(slot.2, PageEvent::Complete(slot.0).token());
            }
        }
        let completes = at + elapsed;
        let ev = sim.schedule(completes, PageEvent::Complete(node).token());
        self.in_flight.push((node, ev, completes));
    }

    /// A node's resolution finished: cache the answer, emit its span, and
    /// release any children whose parents are now all resolved.
    fn node_complete(&mut self, sim: &mut Simulator, node: u16, at: SimTime) {
        if let Some(pos) = self.in_flight.iter().position(|slot| slot.0 == node) {
            self.in_flight.swap_remove(pos);
        }
        let name_id = self.model.name_of[node as usize] as usize;
        if !self.was_hit[node as usize] {
            // The one allocating step of a page event: the cache owns a
            // copy of the key and the answer. It runs outside the hot
            // scope, so the steady-state gate does not cover it.
            let ttl = self.model.ttl_of[name_id];
            let key = &self.keys[name_id];
            let answer = vec![ResourceRecord::new(
                key.name.clone(),
                ttl,
                RData::A(Ipv4Addr::new(198, 51, 100, name_id as u8 + 1)),
            )];
            self.cache.insert(key.clone(), answer, cache_now(at), ttl);
        }
        if self.recording {
            let span = flight::start_span(
                "pageload",
                format!("resolve n{node} r{name_id}"),
                self.started_at[node as usize].as_nanos(),
            );
            flight::attr(span, "depth", self.model.depths[node as usize].to_string());
            flight::attr(
                span,
                "cache",
                if self.was_hit[node as usize] {
                    "hit"
                } else {
                    "miss"
                },
            );
            flight::attr(span, "generation", self.generation.to_string());
            flight::end_span(span, at.as_nanos());
        }
        self.done += 1;
        if at > self.last_done {
            self.last_done = at;
        }
        if self.done == self.model.len() as u32 {
            self.active = false;
            return;
        }
        for &child in self.model.children_of(node as usize) {
            let remaining = &mut self.remaining[child as usize];
            *remaining -= 1;
            if *remaining == 0 {
                sim.schedule(at + PARSE_GAP, PageEvent::Ready(child).token());
            }
        }
    }

    /// Re-arming expired-entry sweep: runs every [`EVICT_TICK`] while the
    /// visit is active, then lets the queue drain (the per-client epoch
    /// asserts an empty queue, so nothing may keep re-arming forever).
    fn evict_tick(&mut self, sim: &mut Simulator, at: SimTime) {
        if self.active {
            self.cache.evict_expired(cache_now(at));
            sim.schedule(at + EVICT_TICK, PageEvent::Tick.token());
        }
    }
}

/// Whole seconds of simulated time — the cache's clock granularity.
fn cache_now(at: SimTime) -> u64 {
    at.as_nanos() / 1_000_000_000
}

/// Measure one page over one (client, provider, transport) triple:
/// a cold visit (empty cache, cold connection) followed by
/// `visits - 1` warm revisits, every resolution multiplexed on one
/// shared [`Connection`].
///
/// `rng` must be a dedicated fork — the campaign derives one per
/// (client, transport, provider) so these draws never perturb the
/// legacy measurement lineage. The simulator clock is left wherever the
/// last visit ended; callers run inside a per-client epoch. The
/// simulator's event queue must be empty on entry: every event this
/// function pops is decoded as a page event.
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
    debug_assert_eq!(sim.pending_events(), 0, "foreign events in the queue");
    let pop = deployment.sites()[pop_index].node;
    let recording = flight::active();
    let n = model.len();

    let mut conn = Connection::new(transport);
    let mut run = PageRun {
        exit,
        model,
        keys: page_keys(),
        pop,
        auth,
        provider,
        transport,
        extra_loss_p,
        rng: rng.fork("page-run"),
        // The per-pair cache is fresh, so clients cannot observe each
        // other.
        cache: DnsCache::with_capacity(PAGE_CACHE_CAPACITY),
        generation: 0,
        remaining: [0; MAX_PAGE_DOMAINS],
        started_at: [SimTime::ZERO; MAX_PAGE_DOMAINS],
        was_hit: [false; MAX_PAGE_DOMAINS],
        in_flight: Vec::with_capacity(n),
        done: 0,
        last_done: sim.now(),
        active: false,
        cache_hits: 0,
        queries: 0,
        tcp_stalls: 0,
        events: 0,
        recording,
    };

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
        let hits_before = run.cache_hits;
        run.reset_visit(visit_start);
        // Sweep entries that expired during the think-time gap so the
        // eviction counter sees them deterministically.
        run.cache.evict_expired(cache_now(visit_start));
        // Cold visits bootstrap the provider hostname over Do53
        // (encrypted transports only; Do53 targets the resolver address
        // directly), then pay the full handshake. Warm visits re-acquire
        // inside the keep-alive window for free.
        if visit == 0 && transport.is_encrypted() {
            let bootstrap = exit.do53_bootstrap(
                sim,
                pop,
                provider.hostname(),
                BOOTSTRAP_CACHE_HIT_P,
                &mut run.rng,
            );
            sim.advance(bootstrap);
        }
        let acq = conn.acquire(sim.now());
        run.generation = acq.generation;
        handshake_bill(sim, exit, pop, transport, acq.warmth, &mut run.rng);
        run.last_done = sim.now();
        if recording {
            flight::attr(visit_span, "warmth", acq.warmth.name());
            flight::attr(visit_span, "generation", acq.generation.to_string());
        }
        let root_at = sim.now();
        sim.schedule(root_at, PageEvent::Ready(0).token());
        sim.schedule(root_at + EVICT_TICK, PageEvent::Tick.token());
        run.run_visit(sim);

        debug_assert_eq!(run.done, n as u32, "every page node must resolve");
        let plt_ms = run.last_done.saturating_since(visit_start).as_millis_f64();
        let visit_hits = run.cache_hits - hits_before;
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

    // Shared counters take one add per page, not one per event; the
    // cache publishes its own when `run` drops.
    dohperf_telemetry::counter!("campaign.page_visits").add(u64::from(visits));
    if run.queries > 0 {
        dohperf_telemetry::counter!("campaign.page_queries").add(u64::from(run.queries));
    }
    if run.tcp_stalls > 0 {
        dohperf_telemetry::counter!("campaign.page_tcp_stalls").add(run.tcp_stalls);
    }
    dohperf_telemetry::counter!("netsim.events_dispatched").add(run.events);

    PageOutcome {
        plt_cold_ms,
        plt_warm_ms: median(&mut warm_plts),
        cold_cache_hits: cold_hits,
        warm_cache_hits: run.cache_hits - cold_hits,
        queries: run.queries,
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

        /// The CSR child lists equal the definition they replace: the
        /// later nodes that list a node among their parents, ascending.
        #[test]
        fn child_lists_match_a_scan_of_later_parents(seed in any::<u64>(), client in 0u64..512) {
            let root = SimRng::new(seed).fork("campaign");
            let profile = PageProfile::for_country(&root, "IN");
            let mut rng = root.fork_indexed("client", client).fork("page-model");
            let model = PageModel::generate(&profile, &mut rng);
            for node in 0..model.len() {
                let scanned: Vec<u16> = (node + 1..model.len())
                    .filter(|&child| model.parents_of(child).contains(&(node as u16)))
                    .map(|child| child as u16)
                    .collect();
                prop_assert_eq!(model.children_of(node), scanned.as_slice());
            }
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

    /// Every (transport, provider) outcome of one fixed client, as
    /// `[plt_cold_ms bits, plt_warm_ms bits, cold hits, warm hits,
    /// queries]`, in `DnsTransport::ALL` × `ALL_PROVIDERS` order. The
    /// pairs share one simulator and epoch, as in the campaign, so the
    /// simulator's jitter streams carry from pair to pair.
    fn pinned_outcomes(extra_loss_p: f64) -> Vec<[u64; 5]> {
        use crate::testbed::Testbed;
        use dohperf_providers::provider::ALL_PROVIDERS;
        use dohperf_world::countries::country;
        use dohperf_world::geoloc::GeolocationService;

        let model = pinned_page();
        let mut tb = Testbed::new(2021);
        tb.sim.begin_epoch(&SimRng::new(2021).fork("pin-epoch"));
        let c = country("BR").expect("BR in table");
        let mut geoloc = GeolocationService::new(SimRng::new(77), 0.0, vec![c.iso]);
        let mut exit_rng = SimRng::new(7);
        let exit = ExitNode::create(
            &mut tb.sim,
            &mut geoloc,
            c,
            0,
            c.centroid(),
            7,
            &mut exit_rng,
        );
        let client_rng = SimRng::new(2021).fork_indexed("pin-client", 7);
        let mut out = Vec::new();
        for transport in DnsTransport::ALL {
            for (pi, &provider) in ALL_PROVIDERS.iter().enumerate() {
                let deployment = &tb.deployments[pi];
                let pop_index = deployment.nearest_index(&exit.position);
                let mut rng = client_rng.fork_parts(&[transport.name(), provider.name()]);
                let o = measure_page(
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
                    &mut rng,
                );
                out.push([
                    o.plt_cold_ms.to_bits(),
                    o.plt_warm_ms.to_bits(),
                    u64::from(o.cold_cache_hits),
                    u64::from(o.warm_cache_hits),
                    u64::from(o.queries),
                ]);
            }
        }
        assert_eq!(tb.sim.pending_events(), 0, "every page event drained");
        out
    }

    /// A page wider than the stub cache with intra-page duplicate names,
    /// so the pins cover LRU pressure and cold-visit hits.
    fn pinned_page() -> PageModel {
        let root = SimRng::new(2021).fork("campaign");
        let profile = PageProfile {
            mean_domains: 28.0,
            max_depth: 4,
        };
        let mut client = 0;
        loop {
            let mut rng = root.fork_indexed("client", client).fork("page-model");
            let model = PageModel::generate(&profile, &mut rng);
            if model.unique_names > PAGE_CACHE_CAPACITY && model.unique_names < model.len() {
                return model;
            }
            client += 1;
        }
    }

    /// [`pinned_outcomes`] at `extra_loss_p` 0: Do53, DoH, DoT, DoQ rows
    /// of Cloudflare, Google, Quad9, NextDNS.
    const PINNED_LOSS_FREE: [[u64; 5]; 16] = [
        [0x4080ec0f416bdb1a, 0x40763bdbf8b9baa1, 3, 37, 56],
        [0x4083df92da122fad, 0x4082ac7c91d14e3c, 3, 36, 57],
        [0x408b6319567dbb17, 0x40823c4b89d6adf7, 4, 35, 57],
        [0x40817960620ab713, 0x4080fc508893b7d8, 3, 35, 58],
        [0x408a0d519934efcc, 0x407e9a7faf42784b, 4, 33, 59],
        [0x408d8cf58afc47e5, 0x408442b242070b8d, 4, 35, 57],
        [0x4090bd15a57646ae, 0x408204bd556084a5, 4, 36, 56],
        [0x408d040384ba0e84, 0x408211950b955f78, 4, 34, 58],
        [0x4086944a07f66e87, 0x407e3243c18b502b, 4, 35, 57],
        [0x409109731fcd24e1, 0x407e48fae7924af1, 3, 37, 56],
        [0x40916ea382e44b6f, 0x408a73ce1deacc92, 4, 33, 59],
        [0x408a7fbc46d82ba6, 0x407ba39d60631727, 4, 36, 56],
        [0x408bca2e34fc610f, 0x40777d9a6a444178, 3, 35, 58],
        [0x408d17cfdeb52c9d, 0x4083652443914f48, 4, 35, 57],
        [0x4093bcdda22f6a51, 0x408705cfd86a8fc1, 5, 35, 56],
        [0x4089fc61626b2f23, 0x40830d208aefb2ab, 5, 36, 55],
    ];

    /// [`pinned_outcomes`] at `extra_loss_p` 0.3: TCP head-of-line stalls
    /// on DoH/DoT, stream-local stalls on DoQ, retry timers on Do53.
    const PINNED_LOSSY: [[u64; 5]; 16] = [
        [0x40a34a181669ced1, 0x40a18ccf2ef0ae53, 3, 36, 57],
        [0x40a314e60ac7da1f, 0x40a32a0b1a6d6990, 5, 39, 52],
        [0x40a54d147325918a, 0x4094fcb27e953155, 5, 38, 53],
        [0x40a3e634a42aed14, 0x407980168e820e63, 3, 37, 56],
        [0x4092850bb906466b, 0x4084cbce115592da, 4, 35, 57],
        [0x409636644d877250, 0x408bdeba2b5a20de, 4, 35, 57],
        [0x409718844e0daa0d, 0x408d3746c54bcf0b, 4, 35, 57],
        [0x40981905881a1555, 0x408aa67940fecdd1, 4, 35, 57],
        [0x408fb1c9fadafd11, 0x4083aa38a2a90cd4, 4, 36, 56],
        [0x409471ea00e27e0f, 0x408310ec881e4713, 4, 35, 57],
        [0x409509e78854cdb8, 0x408ba68d9513f8db, 3, 34, 59],
        [0x4093b96c3d68405b, 0x4088503cc39ffd61, 4, 35, 57],
        [0x408b8c1f3bea91da, 0x40805fd38a3b57c5, 4, 35, 57],
        [0x408f31d2becedd48, 0x4084b754eebf65dc, 4, 35, 57],
        [0x4091401e90bc7b46, 0x40865715286b5914, 4, 35, 57],
        [0x408ee757c88e79ab, 0x4082ebd66490a351, 4, 35, 57],
    ];

    /// The page-execution rewrite must fire every event at the same
    /// instant, in the same order, with the same RNG draws: every bit of
    /// every outcome field is pinned for all 16 pairs, loss-free and lossy.
    #[test]
    fn page_outcomes_are_pinned_bit_for_bit() {
        let model = pinned_page();
        assert_eq!((model.len(), model.unique_names), (32, 27));
        for (loss, pinned) in [(0.0, &PINNED_LOSS_FREE), (0.3, &PINNED_LOSSY)] {
            let got = pinned_outcomes(loss);
            for (i, (g, p)) in got.iter().zip(pinned.iter()).enumerate() {
                assert_eq!(g, p, "pair {i} at extra_loss_p {loss}");
            }
        }
    }

    #[test]
    fn median_takes_the_lower_middle() {
        assert_eq!(median(&mut [3.0]), 3.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&mut [4.0, 1.0]), 1.0);
    }
}
