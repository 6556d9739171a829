//! Packet trace log.
//!
//! A lightweight record of every simulated exchange. The §4.3
//! reproduction ("which resolver do exit nodes actually use?") works by
//! inspecting this log for the destination of the exit node's DNS query —
//! the simulated analogue of running Wireshark on a controlled exit node.
//! Records are logged by the sender ([`crate::Simulator::trace_packet`]).

use crate::time::SimTime;
use crate::topology::NodeId;

/// One logged exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketRecord {
    /// Simulated timestamp of the exchange.
    pub at: SimTime,
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Protocol label, e.g. `"dns/udp"`, `"tcp/handshake"`, `"tls"`, `"http"`.
    pub proto: &'static str,
    /// Free-form annotation (query name, header summary, …).
    pub note: String,
}

/// An append-only packet trace. Disabled by default; enabling costs one
/// `Vec` push per exchange. Unbounded by design — tracing is opt-in and
/// scoped to one simulator.
#[derive(Debug, Default)]
pub struct TraceLog {
    enabled: bool,
    records: Vec<PacketRecord>,
}

impl TraceLog {
    /// A disabled log (records are discarded).
    pub fn disabled() -> Self {
        TraceLog::default()
    }

    /// An enabled log.
    pub fn enabled() -> Self {
        TraceLog {
            enabled: true,
            records: Vec::new(),
        }
    }

    /// Turn recording on or off.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether records are being kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Append a record (no-op when disabled).
    pub fn record(&mut self, record: PacketRecord) {
        if self.enabled {
            self.records.push(record);
        }
    }

    /// All records in arrival order.
    pub fn records(&self) -> &[PacketRecord] {
        &self.records
    }

    /// Records matching a protocol label.
    pub fn by_proto<'a>(&'a self, proto: &'a str) -> impl Iterator<Item = &'a PacketRecord> + 'a {
        self.records.iter().filter(move |r| r.proto == proto)
    }

    /// Drop all records.
    pub fn clear(&mut self) {
        self.records.clear();
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no records are kept.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TraceLog {
        /// Records sent by a node.
        fn sent_by(&self, node: NodeId) -> impl Iterator<Item = &PacketRecord> + '_ {
            self.records.iter().filter(move |r| r.src == node)
        }
    }

    fn rec(src: u32, dst: u32, proto: &'static str) -> PacketRecord {
        PacketRecord {
            at: SimTime::ZERO,
            src: NodeId(src),
            dst: NodeId(dst),
            proto,
            note: String::new(),
        }
    }

    #[test]
    fn disabled_log_discards() {
        let mut log = TraceLog::disabled();
        assert!(!log.is_enabled());
        log.record(rec(0, 1, "dns/udp"));
        assert!(log.is_empty());
        assert!(log.records().is_empty());
    }

    #[test]
    fn enabled_log_keeps_order() {
        let mut log = TraceLog::enabled();
        log.record(rec(0, 1, "dns/udp"));
        log.record(PacketRecord {
            at: SimTime::from_nanos(123_456_789),
            note: "GET /dns-query".to_string(),
            ..rec(1, 2, "http")
        });
        assert_eq!(log.len(), 2);
        assert_eq!(log.records()[0], rec(0, 1, "dns/udp"));
        assert_eq!(log.records()[1].proto, "http");
        assert_eq!(log.records()[1].at, SimTime::from_nanos(123_456_789));
        assert_eq!(log.records()[1].note, "GET /dns-query");
    }

    #[test]
    fn filters_by_proto_and_sender() {
        let mut log = TraceLog::enabled();
        log.record(rec(0, 1, "dns/udp"));
        log.record(rec(0, 2, "http"));
        log.record(rec(3, 1, "dns/udp"));
        let dns: Vec<u32> = log.by_proto("dns/udp").map(|r| r.src.0).collect();
        assert_eq!(dns, [0, 3]);
        let from_zero: Vec<&str> = log.sent_by(NodeId(0)).map(|r| r.proto).collect();
        assert_eq!(from_zero, ["dns/udp", "http"]);
    }

    #[test]
    fn toggling_enables_capture() {
        let mut log = TraceLog::disabled();
        log.set_enabled(true);
        assert!(log.is_enabled());
        log.record(rec(0, 1, "tls"));
        assert_eq!(log.len(), 1);
        log.set_enabled(false);
        log.record(rec(1, 0, "tls"));
        assert_eq!(
            log.len(),
            1,
            "a disabled log keeps what it has, adds nothing"
        );
        log.clear();
        assert!(log.is_empty());
    }
}
