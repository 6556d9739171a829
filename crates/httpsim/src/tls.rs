//! A TLS handshake state machine.
//!
//! This is a *protocol-shape* model, not a cryptographic implementation:
//! it tracks the message flights of TLS 1.2 and 1.3 (full and resumed) so
//! the transport cost model (`dohperf_netsim::connection`) provably
//! corresponds to real handshake round trips, and so tests can assert
//! ordering invariants (e.g. "Finished never precedes ServerHello").

use dohperf_netsim::connection::TlsVersion;
use serde::{Deserialize, Serialize};

/// Which side of the handshake this endpoint plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TlsEndpoint {
    /// Initiator.
    Client,
    /// Responder.
    Server,
}

/// Full or resumed handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HandshakeKind {
    /// Fresh session: certificate exchange and key agreement.
    Full,
    /// Resumption via session ticket / PSK.
    Resumed,
}

/// Handshake progress states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TlsState {
    /// Nothing sent yet.
    Start,
    /// Client has sent ClientHello, awaiting ServerHello.
    AwaitServerHello,
    /// (TLS 1.2 only) awaiting the server's final Finished flight.
    AwaitServerFinished,
    /// Handshake complete; application data may flow.
    Established,
    /// Handshake aborted.
    Failed,
}

/// Events driving the state machine — the TLS flights of RFC 5246/8446.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TlsFlight {
    /// ClientHello (+ key share / PSK in 1.3).
    ClientHello,
    /// ServerHello (+ EncryptedExtensions/Certificate/Finished in 1.3, or
    /// Certificate/ServerHelloDone in 1.2).
    ServerHello,
    /// Client Finished (+ key exchange/change cipher spec in 1.2).
    ClientFinished,
    /// Server Finished (1.2's second server flight).
    ServerFinished,
}

/// The client-side handshake driver.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TlsHandshake {
    /// Protocol version.
    pub version: TlsVersion,
    /// Full or resumed.
    pub kind: HandshakeKind,
    state: TlsState,
    flights_sent: u32,
    round_trips: u32,
}

impl TlsHandshake {
    /// Begin a handshake.
    pub fn new(version: TlsVersion, kind: HandshakeKind) -> Self {
        TlsHandshake {
            version,
            kind,
            state: TlsState::Start,
            flights_sent: 0,
            round_trips: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> TlsState {
        self.state
    }

    /// Completed round trips so far.
    pub fn round_trips(&self) -> u32 {
        self.round_trips
    }

    /// True once application data may be sent.
    ///
    /// Note: TLS 1.3 0-RTT resumption allows early data with the first
    /// flight; we model that as immediately established.
    pub fn is_established(&self) -> bool {
        self.state == TlsState::Established
    }

    /// Advance the machine with a flight. Returns the new state, or `Err`
    /// with the offending flight if it is illegal in the current state.
    pub fn advance(&mut self, flight: TlsFlight) -> Result<TlsState, TlsFlight> {
        use TlsFlight as F;
        use TlsState as S;
        let next = match (self.state, flight, self.version, self.kind) {
            // 0-RTT: a resumed 1.3 handshake is established upon ClientHello
            // (early data rides along; the ServerHello confirmation overlaps
            // application data).
            (S::Start, F::ClientHello, TlsVersion::V1_3, HandshakeKind::Resumed) => S::Established,
            (S::Start, F::ClientHello, _, _) => S::AwaitServerHello,
            (S::AwaitServerHello, F::ServerHello, TlsVersion::V1_3, _) => {
                // 1.3: server's first flight completes its side; client
                // Finished rides with the first application data.
                self.round_trips += 1;
                S::Established
            }
            (S::AwaitServerHello, F::ServerHello, TlsVersion::V1_2, HandshakeKind::Resumed) => {
                self.round_trips += 1;
                S::Established
            }
            (S::AwaitServerHello, F::ServerHello, TlsVersion::V1_2, HandshakeKind::Full) => {
                self.round_trips += 1;
                S::AwaitServerFinished
            }
            (S::AwaitServerFinished, F::ClientFinished, TlsVersion::V1_2, _) => {
                S::AwaitServerFinished
            }
            (S::AwaitServerFinished, F::ServerFinished, TlsVersion::V1_2, _) => {
                self.round_trips += 1;
                S::Established
            }
            _ => {
                self.state = S::Failed;
                return Err(flight);
            }
        };
        self.flights_sent += 1;
        self.state = next;
        Ok(next)
    }

    /// Drive the whole handshake to completion, returning the number of
    /// round trips consumed. This is the reference the transport cost model
    /// is validated against.
    pub fn run_to_completion(&mut self) -> u32 {
        use TlsFlight as F;
        let script: &[F] = match (self.version, self.kind) {
            (TlsVersion::V1_3, HandshakeKind::Resumed) => &[F::ClientHello],
            (TlsVersion::V1_3, HandshakeKind::Full) => &[F::ClientHello, F::ServerHello],
            (TlsVersion::V1_2, HandshakeKind::Resumed) => &[F::ClientHello, F::ServerHello],
            (TlsVersion::V1_2, HandshakeKind::Full) => &[
                F::ClientHello,
                F::ServerHello,
                F::ClientFinished,
                F::ServerFinished,
            ],
        };
        for &flight in script {
            self.advance(flight).expect("scripted handshake is legal");
        }
        debug_assert!(self.is_established());
        self.round_trips
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tls13_full_is_one_round_trip() {
        let mut hs = TlsHandshake::new(TlsVersion::V1_3, HandshakeKind::Full);
        assert_eq!(hs.run_to_completion(), 1);
        assert!(hs.is_established());
    }

    #[test]
    fn tls13_resumed_is_zero_round_trips() {
        let mut hs = TlsHandshake::new(TlsVersion::V1_3, HandshakeKind::Resumed);
        assert_eq!(hs.run_to_completion(), 0);
        assert!(hs.is_established());
    }

    #[test]
    fn tls12_full_is_two_round_trips() {
        let mut hs = TlsHandshake::new(TlsVersion::V1_2, HandshakeKind::Full);
        assert_eq!(hs.run_to_completion(), 2);
    }

    #[test]
    fn tls12_resumed_is_one_round_trip() {
        let mut hs = TlsHandshake::new(TlsVersion::V1_2, HandshakeKind::Resumed);
        assert_eq!(hs.run_to_completion(), 1);
    }

    #[test]
    fn machine_matches_transport_cost_model() {
        use dohperf_netsim::connection::{DnsTransport, Warmth};
        // The netsim cost model must charge exactly as many RTTs as the
        // protocol state machine performs: the TLS table itself, and the
        // DoH/DoT lifecycle rows as one TCP round trip plus TLS 1.3.
        for (kind, warmth) in [
            (HandshakeKind::Full, Warmth::Cold),
            (HandshakeKind::Resumed, Warmth::Resumed),
        ] {
            let tls13 = TlsHandshake::new(TlsVersion::V1_3, kind).run_to_completion();
            for transport in [DnsTransport::DoH, DnsTransport::DoT] {
                assert_eq!(
                    transport.handshake_rtts(warmth),
                    1 + tls13,
                    "{transport:?} {warmth:?}"
                );
            }
        }
        for (version, kind) in [
            (TlsVersion::V1_3, HandshakeKind::Full),
            (TlsVersion::V1_3, HandshakeKind::Resumed),
            (TlsVersion::V1_2, HandshakeKind::Full),
            (TlsVersion::V1_2, HandshakeKind::Resumed),
        ] {
            let mut hs = TlsHandshake::new(version, kind);
            let machine_rtts = hs.run_to_completion();
            let model_rtts = match kind {
                HandshakeKind::Full => version.full_handshake_rtts(),
                HandshakeKind::Resumed => version.resumed_handshake_rtts(),
            };
            assert_eq!(machine_rtts, model_rtts, "{version:?} {kind:?}");
        }
    }

    #[test]
    fn out_of_order_flights_fail() {
        let mut hs = TlsHandshake::new(TlsVersion::V1_3, HandshakeKind::Full);
        assert!(hs.advance(TlsFlight::ServerHello).is_err());
        assert_eq!(hs.state(), TlsState::Failed);
    }

    #[test]
    fn server_finished_before_client_finished_ok_in_12_wait() {
        let mut hs = TlsHandshake::new(TlsVersion::V1_2, HandshakeKind::Full);
        hs.advance(TlsFlight::ClientHello).unwrap();
        hs.advance(TlsFlight::ServerHello).unwrap();
        // ServerFinished may arrive after ClientFinished only; sending it
        // straight away is also accepted at the wait state (flights can be
        // coalesced), completing the handshake.
        hs.advance(TlsFlight::ServerFinished).unwrap();
        assert!(hs.is_established());
    }

    #[test]
    fn failed_machine_stays_failed() {
        let mut hs = TlsHandshake::new(TlsVersion::V1_3, HandshakeKind::Full);
        let _ = hs.advance(TlsFlight::ClientFinished);
        assert_eq!(hs.state(), TlsState::Failed);
        assert!(hs.advance(TlsFlight::ClientHello).is_err());
    }

    #[test]
    fn application_data_gate() {
        let mut hs = TlsHandshake::new(TlsVersion::V1_3, HandshakeKind::Full);
        assert!(!hs.is_established());
        hs.advance(TlsFlight::ClientHello).unwrap();
        assert!(!hs.is_established());
        hs.advance(TlsFlight::ServerHello).unwrap();
        assert!(hs.is_established());
    }
}
