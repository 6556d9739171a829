//! The transport cost model: per-(client, provider) connection
//! lifecycle for the DNS transports (DESIGN.md §13).
//!
//! Every handshake, framing and loss cost the simulator charges is
//! written here once: the TLS round-trip table ([`TlsVersion`]), the
//! Do53 retransmission timer ([`UDP_RETRY_TIMEOUT`]) and the
//! per-transport tables of [`DnsTransport`]. The paper measures DoH
//! against Do53 only; the connection-state machinery compares the full
//! encrypted-DNS family — DoH (RFC 8484), DoT (RFC 7858) and DoQ
//! (RFC 9250) — under explicit cold/warm/resumed connection states:
//!
//! * **Cold** — no prior state. DoT and DoH pay a TCP three-way
//!   handshake (1 RTT) plus a TLS 1.3 full handshake (1 RTT). DoQ
//!   combines transport and crypto setup in a single QUIC Initial
//!   flight (1 RTT).
//! * **Warm** — an established connection inside its keep-alive window
//!   is reused for free (HTTP/2 stream for DoH, pipelined query for
//!   DoT, new QUIC stream for DoQ).
//! * **Resumed** — the connection idled out but a session ticket
//!   survives. DoT/DoH rebuild TCP (1 RTT) and resume TLS 1.3 for free;
//!   DoQ sends the query as 0-RTT early data (0 RTTs).
//!
//! Loss recovery also differs per stack: a lost segment under TCP
//! stalls every HTTP/2 stream behind the retransmission
//! (head-of-line blocking, ≈2 RTTs until recovery), while QUIC
//! retransmits within the affected stream only (≈1 RTT). The
//! [`loss_stall_rtts`](DnsTransport::loss_stall_rtts) constants encode
//! that asymmetry so the campaign's loss knob (`extra_loss_p`) visibly
//! separates H2 from QUIC in the tail quantiles.
//!
//! Everything here is deterministic: the state machine consumes no
//! randomness, idle timeouts are fixed per transport, and each
//! re-established connection carries a monotonically increasing
//! *generation* tag so reuse-after-timeout can never be confused with
//! reuse of the original connection.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Round trips of a TCP three-way handshake (SYN/SYN-ACK; the first
/// data segment rides with the final ACK).
const TCP_HANDSHAKE_RTTS: u32 = 1;

/// Stub-resolver retransmission timeout: what a lost Do53 datagram
/// costs.
pub const UDP_RETRY_TIMEOUT: SimDuration = SimDuration::from_millis(1000);

/// TLS protocol version, which determines handshake round trips. The
/// encrypted transports run TLS 1.3; the tunnel methodology's
/// `ablation-tls12` measures DoH over TLS 1.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TlsVersion {
    /// Two round-trip full handshake (RFC 5246), one when resumed.
    V1_2,
    /// One round-trip full handshake (RFC 8446), zero when resumed.
    V1_3,
}

impl TlsVersion {
    /// Round trips for a full handshake.
    pub fn full_handshake_rtts(self) -> u32 {
        match self {
            TlsVersion::V1_2 => 2,
            TlsVersion::V1_3 => 1,
        }
    }

    /// Round trips for a resumed handshake (session tickets / PSK;
    /// TLS 1.3 sends the query as 0-RTT early data).
    pub fn resumed_handshake_rtts(self) -> u32 {
        match self {
            TlsVersion::V1_2 => 1,
            TlsVersion::V1_3 => 0,
        }
    }
}

/// The four DNS transports of the extended campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DnsTransport {
    /// Classic UDP port-53 DNS (RFC 1035) — connectionless.
    Do53,
    /// DNS over HTTPS (RFC 8484): TCP + TLS 1.3 + HTTP/2 framing.
    DoH,
    /// DNS over TLS (RFC 7858): TCP + TLS 1.3, 2-byte length framing.
    DoT,
    /// DNS over dedicated QUIC (RFC 9250): 1-RTT setup, 0-RTT resume.
    DoQ,
}

impl DnsTransport {
    /// All transports, in canonical campaign order.
    pub const ALL: [DnsTransport; 4] = [
        DnsTransport::Do53,
        DnsTransport::DoH,
        DnsTransport::DoT,
        DnsTransport::DoQ,
    ];

    /// Lower-case wire name, as accepted by `repro --protocols`.
    pub fn name(self) -> &'static str {
        match self {
            DnsTransport::Do53 => "do53",
            DnsTransport::DoH => "doh",
            DnsTransport::DoT => "dot",
            DnsTransport::DoQ => "doq",
        }
    }

    /// The RFC defining the transport.
    pub fn rfc(self) -> &'static str {
        match self {
            DnsTransport::Do53 => "RFC 1035",
            DnsTransport::DoH => "RFC 8484",
            DnsTransport::DoT => "RFC 7858",
            DnsTransport::DoQ => "RFC 9250",
        }
    }

    /// Parse a lower-case protocol name (`do53`, `doh`, `dot`, `doq`).
    pub fn parse(s: &str) -> Option<DnsTransport> {
        DnsTransport::ALL.into_iter().find(|t| t.name() == s)
    }

    /// Whether the transport encrypts queries (everything but Do53).
    pub fn is_encrypted(self) -> bool {
        !matches!(self, DnsTransport::Do53)
    }

    /// Round trips to establish a usable connection from the given
    /// warmth. Do53 is connectionless and always free.
    pub fn handshake_rtts(self, warmth: Warmth) -> u32 {
        match (self, warmth) {
            (DnsTransport::Do53, _) => 0,
            (_, Warmth::Warm) => 0,
            (DnsTransport::DoH | DnsTransport::DoT, Warmth::Cold) => {
                TCP_HANDSHAKE_RTTS + TlsVersion::V1_3.full_handshake_rtts()
            }
            // A fresh TCP connection, then TLS 1.3 PSK resumption.
            (DnsTransport::DoH | DnsTransport::DoT, Warmth::Resumed) => {
                TCP_HANDSHAKE_RTTS + TlsVersion::V1_3.resumed_handshake_rtts()
            }
            // QUIC combines transport + crypto in one Initial flight.
            (DnsTransport::DoQ, Warmth::Cold) => 1,
            // QUIC 0-RTT: the query rides in the first flight.
            (DnsTransport::DoQ, Warmth::Resumed) => 0,
        }
    }

    /// Round trips stalled when a segment of an in-flight query is
    /// lost. TCP-based stacks (DoH's HTTP/2, DoT) block every stream
    /// behind the retransmission — detection plus recovery costs about
    /// two extra round trips. QUIC recovers within the affected stream
    /// in one. Do53 instead waits out the stub-resolver retransmission
    /// timer ([`UDP_RETRY_TIMEOUT`]).
    pub fn loss_stall_rtts(self) -> u32 {
        match self {
            DnsTransport::Do53 => 0,
            DnsTransport::DoH | DnsTransport::DoT => 2,
            DnsTransport::DoQ => 1,
        }
    }

    /// Application-framing multiplier applied to the HTTPS message
    /// overhead draw. DoH pays full HTTP/2 HEADERS+DATA framing
    /// (factor 1); DoT's 2-byte length prefix carries no HTTP headers
    /// to serialise or parse, which trims it to 0.65; DoQ's
    /// QUIC+"doq" framing sits between the two. Do53 carries bare
    /// DNS messages.
    pub fn framing_factor(self) -> f64 {
        match self {
            DnsTransport::Do53 => 0.0,
            DnsTransport::DoH => 1.0,
            DnsTransport::DoT => 0.65,
            DnsTransport::DoQ => 0.8,
        }
    }

    /// Deterministic keep-alive idle timeout. TCP-based transports use
    /// a conservative 10 s server keep-alive; QUIC advertises a longer
    /// 30 s `max_idle_timeout`, reflecting RFC 9250's guidance to keep
    /// connections open across queries. Do53 is connectionless — there
    /// is nothing to time out, so its reuse window never closes (every
    /// query costs the same regardless of warmth).
    pub fn idle_timeout(self) -> SimDuration {
        match self {
            DnsTransport::Do53 => SimDuration::MAX,
            DnsTransport::DoH | DnsTransport::DoT => SimDuration::from_millis(10_000),
            DnsTransport::DoQ => SimDuration::from_millis(30_000),
        }
    }
}

/// Connection warmth at the moment a query is issued — the campaign's
/// cold/warm dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Warmth {
    /// No prior state: full handshake required.
    Cold,
    /// Session ticket held, connection idled out: abbreviated
    /// (TLS 1.3 PSK / QUIC 0-RTT) re-establishment.
    Resumed,
    /// Established connection inside its keep-alive window.
    Warm,
}

impl Warmth {
    /// Lower-case label used in flight-recorder span attributes.
    pub fn name(self) -> &'static str {
        match self {
            Warmth::Cold => "cold",
            Warmth::Resumed => "resumed",
            Warmth::Warm => "warm",
        }
    }
}

/// Observable connection state (the nodes of the lifecycle diagram in
/// DESIGN.md §13).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Never connected.
    Idle,
    /// Handshake in flight.
    Handshaking,
    /// Usable connection inside its keep-alive window.
    Established,
    /// Keep-alive expired; a session ticket is retained.
    TimedOut,
}

/// What [`Connection::acquire`] decided for one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Acquired {
    /// Cold, resumed or warm — determines the handshake bill.
    pub warmth: Warmth,
    /// Generation of the connection servicing the query. Starts at 1
    /// on the first handshake and increments on every
    /// re-establishment, so a reuse after timeout is distinguishable
    /// from a reuse of the original connection.
    pub generation: u32,
}

/// A per-(client, provider) connection state machine.
///
/// The machine is purely mechanical — it consumes no randomness and
/// performs no I/O; callers charge the RTT bill that
/// [`DnsTransport::handshake_rtts`] prescribes for the returned
/// [`Warmth`]. Transitions:
///
/// ```text
/// Idle ── begin_handshake ──► Handshaking ── complete ──► Established
///                                  ▲                          │ idle
///                                  │ begin_handshake          ▼ timeout
///                                  └────────────────────── TimedOut
/// ```
///
/// ```
/// use dohperf_netsim::connection::{Connection, DnsTransport, Warmth};
/// use dohperf_netsim::time::SimTime;
///
/// let mut conn = Connection::new(DnsTransport::DoQ);
/// let t0 = SimTime::ZERO;
/// let first = conn.acquire(t0);
/// assert_eq!(first.warmth, Warmth::Cold);
/// assert_eq!(first.generation, 1);
/// // Same keep-alive window: free reuse on the same connection.
/// let again = conn.acquire(t0 + DnsTransport::DoQ.idle_timeout().halved());
/// assert_eq!(again.warmth, Warmth::Warm);
/// assert_eq!(again.generation, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Connection {
    transport: DnsTransport,
    state: ConnState,
    generation: u32,
    last_used: SimTime,
    has_ticket: bool,
}

impl Connection {
    /// A fresh, never-connected lifecycle for one transport.
    pub fn new(transport: DnsTransport) -> Connection {
        Connection {
            transport,
            state: ConnState::Idle,
            generation: 0,
            last_used: SimTime::ZERO,
            has_ticket: false,
        }
    }

    /// The transport this lifecycle models.
    pub fn transport(&self) -> DnsTransport {
        self.transport
    }

    /// Current lifecycle state, with the idle-timeout check applied as
    /// of `now`.
    pub fn state(&self, now: SimTime) -> ConnState {
        match self.state {
            ConnState::Established if self.idle_expired(now) => ConnState::TimedOut,
            other => other,
        }
    }

    /// Generation of the current (or most recent) connection; 0 before
    /// the first handshake.
    pub fn generation(&self) -> u32 {
        self.generation
    }

    fn idle_expired(&self, now: SimTime) -> bool {
        now.saturating_since(self.last_used) > self.transport.idle_timeout()
    }

    /// Step 1 of an explicit handshake: decide the warmth and move to
    /// `Handshaking`. Callers that don't need the intermediate state
    /// can use [`Connection::acquire`] instead.
    ///
    /// Panics if called while a usable connection exists — check
    /// [`Connection::try_reuse`] first.
    pub fn begin_handshake(&mut self, now: SimTime) -> Warmth {
        assert!(
            !matches!(
                self.state(now),
                ConnState::Established | ConnState::Handshaking
            ),
            "handshake started over a usable connection"
        );
        self.state = ConnState::Handshaking;
        if self.has_ticket {
            Warmth::Resumed
        } else {
            Warmth::Cold
        }
    }

    /// Step 2: the handshake flight completed at `now`. Bumps the
    /// generation, stores a session ticket for future resumption and
    /// opens the keep-alive window.
    pub fn complete_handshake(&mut self, now: SimTime) {
        debug_assert_eq!(self.state, ConnState::Handshaking, "no handshake in flight");
        self.state = ConnState::Established;
        self.generation += 1;
        self.has_ticket = true;
        self.last_used = now;
    }

    /// Reuse the established connection if its keep-alive window is
    /// still open at `now`. On success the window restarts; on idle
    /// expiry the state decays to `TimedOut` and `None` is returned.
    pub fn try_reuse(&mut self, now: SimTime) -> Option<Acquired> {
        if self.state != ConnState::Established {
            return None;
        }
        if self.idle_expired(now) {
            self.state = ConnState::TimedOut;
            return None;
        }
        self.last_used = now;
        Some(Acquired {
            warmth: Warmth::Warm,
            generation: self.generation,
        })
    }

    /// Acquire a usable connection for a query at `now`, running the
    /// begin/complete handshake pair when reuse is impossible. The
    /// caller charges the RTT bill for the returned warmth
    /// ([`DnsTransport::handshake_rtts`]) and advances its own clock;
    /// the state machine itself is time-bill-agnostic.
    pub fn acquire(&mut self, now: SimTime) -> Acquired {
        if let Some(reused) = self.try_reuse(now) {
            return reused;
        }
        let warmth = self.begin_handshake(now);
        self.complete_handshake(now);
        Acquired {
            warmth,
            generation: self.generation,
        }
    }

    /// Explicitly drop the connection and its session ticket (e.g. the
    /// peer sent a fatal alert). The next acquire is cold again.
    pub fn reset(&mut self) {
        self.state = ConnState::Idle;
        self.has_ticket = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: SimDuration = SimDuration::from_millis(1);

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + MS.saturating_mul(ms)
    }

    /// Satellite: the state-machine table test. Every transition of the
    /// lifecycle diagram — idle → handshaking → established → reused →
    /// timed-out → re-established — is driven per encrypted transport,
    /// with the generation tag checked at each step.
    #[test]
    fn lifecycle_table_covers_every_transition_per_transport() {
        for transport in [DnsTransport::DoH, DnsTransport::DoT, DnsTransport::DoQ] {
            let idle = transport.idle_timeout();
            let mut conn = Connection::new(transport);

            // idle: nothing to reuse, generation 0.
            assert_eq!(conn.state(at(0)), ConnState::Idle);
            assert_eq!(conn.generation(), 0);
            assert_eq!(conn.try_reuse(at(0)), None);

            // idle -> handshaking: first handshake is cold.
            let warmth = conn.begin_handshake(at(0));
            assert_eq!(warmth, Warmth::Cold, "{transport:?}");
            assert_eq!(conn.state(at(0)), ConnState::Handshaking);

            // handshaking -> established: generation 1, window open.
            conn.complete_handshake(at(0));
            assert_eq!(conn.state(at(0)), ConnState::Established);
            assert_eq!(conn.generation(), 1);

            // established -> reused: inside the keep-alive window.
            let reused = conn.try_reuse(at(1)).expect("reuse inside window");
            assert_eq!(reused.warmth, Warmth::Warm);
            assert_eq!(reused.generation, 1);

            // established -> timed-out: one tick past the idle window
            // (measured from the reuse, which restarted it).
            let expiry = at(1) + idle + MS;
            assert_eq!(conn.state(expiry), ConnState::TimedOut);
            assert_eq!(conn.try_reuse(expiry), None, "reuse after timeout");
            assert_eq!(conn.state(expiry), ConnState::TimedOut);

            // timed-out -> re-established: resumption, generation 2.
            let warmth = conn.begin_handshake(expiry);
            assert_eq!(warmth, Warmth::Resumed, "{transport:?}");
            conn.complete_handshake(expiry);
            assert_eq!(conn.state(expiry), ConnState::Established);
            assert_eq!(conn.generation(), 2);

            // The generation-tagged reuse-after-timeout edge: a reuse
            // on the re-established connection carries the new tag.
            let reused = conn
                .try_reuse(expiry + MS)
                .expect("reuse after re-establish");
            assert_eq!(reused.warmth, Warmth::Warm);
            assert_eq!(reused.generation, 2, "stale generation after timeout");
        }
    }

    #[test]
    fn acquire_composes_the_full_lifecycle() {
        let transport = DnsTransport::DoT;
        let idle = transport.idle_timeout();
        let mut conn = Connection::new(transport);

        let a = conn.acquire(at(0));
        assert_eq!((a.warmth, a.generation), (Warmth::Cold, 1));
        let b = conn.acquire(at(5));
        assert_eq!((b.warmth, b.generation), (Warmth::Warm, 1));
        let c = conn.acquire(at(5) + idle + MS);
        assert_eq!((c.warmth, c.generation), (Warmth::Resumed, 2));
        let d = conn.acquire(at(6) + idle + MS);
        assert_eq!((d.warmth, d.generation), (Warmth::Warm, 2));
    }

    #[test]
    fn reuse_exactly_at_the_idle_boundary_still_succeeds() {
        // The window is inclusive: `now - last_used > timeout` expires.
        let mut conn = Connection::new(DnsTransport::DoH);
        conn.acquire(at(0));
        let boundary = SimTime::ZERO + DnsTransport::DoH.idle_timeout();
        assert_eq!(
            conn.try_reuse(boundary).map(|a| a.warmth),
            Some(Warmth::Warm)
        );
    }

    #[test]
    fn reset_drops_the_session_ticket() {
        let mut conn = Connection::new(DnsTransport::DoQ);
        conn.acquire(at(0));
        conn.reset();
        assert_eq!(conn.state(at(1)), ConnState::Idle);
        let again = conn.acquire(at(1));
        assert_eq!(again.warmth, Warmth::Cold, "ticket survived reset");
        assert_eq!(again.generation, 2);
    }

    #[test]
    fn do53_is_always_free_and_connectionless() {
        for warmth in [Warmth::Cold, Warmth::Resumed, Warmth::Warm] {
            assert_eq!(DnsTransport::Do53.handshake_rtts(warmth), 0);
        }
        assert_eq!(DnsTransport::Do53.loss_stall_rtts(), 0);
        assert!(!DnsTransport::Do53.is_encrypted());
    }

    #[test]
    fn handshake_rtt_table_matches_the_rfcs() {
        use DnsTransport::*;
        // RFC 7858/8484: TCP + TLS 1.3 = 2 cold, 1 resumed (ticket).
        for t in [DoH, DoT] {
            assert_eq!(t.handshake_rtts(Warmth::Cold), 2);
            assert_eq!(t.handshake_rtts(Warmth::Resumed), 1);
            assert_eq!(t.handshake_rtts(Warmth::Warm), 0);
        }
        // RFC 9250: QUIC 1-RTT cold, 0-RTT resumption.
        assert_eq!(DoQ.handshake_rtts(Warmth::Cold), 1);
        assert_eq!(DoQ.handshake_rtts(Warmth::Resumed), 0);
        assert_eq!(DoQ.handshake_rtts(Warmth::Warm), 0);
    }

    #[test]
    fn tls13_is_one_rtt_and_tls12_is_two() {
        assert_eq!(TlsVersion::V1_3.full_handshake_rtts(), 1);
        assert_eq!(TlsVersion::V1_2.full_handshake_rtts(), 2);
        assert_eq!(TlsVersion::V1_2.resumed_handshake_rtts(), 1);
    }

    #[test]
    fn resumed_tls13_is_free() {
        assert_eq!(TlsVersion::V1_3.resumed_handshake_rtts(), 0);
        assert_eq!(
            DnsTransport::DoH.handshake_rtts(Warmth::Resumed),
            TCP_HANDSHAKE_RTTS,
            "a resumed DoH connection pays for TCP only"
        );
    }

    #[test]
    fn loss_separates_h2_from_quic() {
        assert!(DnsTransport::DoH.loss_stall_rtts() > DnsTransport::DoQ.loss_stall_rtts());
        assert_eq!(
            DnsTransport::DoH.loss_stall_rtts(),
            DnsTransport::DoT.loss_stall_rtts()
        );
    }

    #[test]
    fn names_round_trip_and_rfcs_are_cited() {
        for t in DnsTransport::ALL {
            assert_eq!(DnsTransport::parse(t.name()), Some(t));
            assert!(t.rfc().starts_with("RFC "));
        }
        assert_eq!(DnsTransport::parse("dns-over-carrier-pigeon"), None);
        assert_eq!(DnsTransport::parse("DoH"), None, "names are lower-case");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Satellite (differential suite, cost-model layer): for any
            /// nonnegative RTT, DoQ 0-RTT ≤ DoQ 1-RTT ≤ DoT cold.
            #[test]
            fn doq_resumption_dominates_for_any_rtt(rtt_ms in 0.0f64..2000.0) {
                let zero_rtt = DnsTransport::DoQ.handshake_rtts(Warmth::Resumed) as f64 * rtt_ms;
                let one_rtt = DnsTransport::DoQ.handshake_rtts(Warmth::Cold) as f64 * rtt_ms;
                let dot_cold = DnsTransport::DoT.handshake_rtts(Warmth::Cold) as f64 * rtt_ms;
                prop_assert!(zero_rtt <= one_rtt);
                prop_assert!(one_rtt <= dot_cold);
            }

            /// Warmth ordering holds for every transport: warm ≤ resumed
            /// ≤ cold, in handshake round trips.
            #[test]
            fn warmth_ordering_is_monotone(idx in 0usize..4) {
                let t = DnsTransport::ALL[idx];
                prop_assert!(t.handshake_rtts(Warmth::Warm) <= t.handshake_rtts(Warmth::Resumed));
                prop_assert!(t.handshake_rtts(Warmth::Resumed) <= t.handshake_rtts(Warmth::Cold));
            }

            /// The lifecycle is deterministic in time alone: any sequence
            /// of monotone acquire instants yields warmths that are a
            /// pure function of the inter-acquire gaps, and generations
            /// never decrease.
            #[test]
            fn generation_is_monotone_under_any_schedule(
                idx in 1usize..4,
                gaps in proptest::collection::vec(0u64..100_000, 1..20),
            ) {
                let t = DnsTransport::ALL[idx];
                let mut conn = Connection::new(t);
                let mut now = SimTime::ZERO;
                let mut last_gen = 0;
                for (i, gap) in gaps.iter().enumerate() {
                    now += SimDuration::from_millis(*gap);
                    let got = conn.acquire(now);
                    prop_assert!(got.generation >= last_gen);
                    let expected = if i == 0 {
                        Warmth::Cold
                    } else if SimDuration::from_millis(*gap) > t.idle_timeout() {
                        Warmth::Resumed
                    } else {
                        Warmth::Warm
                    };
                    prop_assert_eq!(got.warmth, expected);
                    prop_assert_eq!(got.generation > last_gen, got.warmth != Warmth::Warm);
                    last_gen = got.generation;
                }
            }
        }
    }
}
