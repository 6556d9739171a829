//! Packet trace log.
//!
//! A lightweight, pcap-inspired record of every simulated exchange. The
//! §4.3 reproduction ("which resolver do exit nodes actually use?") works by
//! inspecting this log for the destination of the exit node's DNS query —
//! the simulated analogue of running Wireshark on a controlled exit node.
//!
//! Storage lives in [`dohperf_telemetry::trace::PacketLog`] — the one
//! packet-trace type in the workspace — and this module layers the typed
//! view on top: [`PacketRecord`] carries [`SimTime`] / [`NodeId`] instead
//! of the raw nanosecond/index form the dependency-free telemetry crate
//! stores.

use crate::time::SimTime;
use crate::topology::NodeId;
use dohperf_telemetry::trace::{PacketEntry, PacketLog};

/// Direction of a record relative to the node that logged it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketDirection {
    /// Transmitted by `src`.
    Tx,
    /// Received by `dst`.
    Rx,
}

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
    /// Direction relative to the logging perspective.
    pub direction: PacketDirection,
}

impl PacketRecord {
    fn to_entry(&self) -> PacketEntry {
        PacketEntry {
            at_nanos: self.at.as_nanos(),
            src: self.src.0,
            dst: self.dst.0,
            proto: self.proto,
            note: self.note.clone(),
            tx: self.direction == PacketDirection::Tx,
        }
    }

    fn from_entry(entry: &PacketEntry) -> PacketRecord {
        PacketRecord {
            at: SimTime::from_nanos(entry.at_nanos),
            src: NodeId(entry.src),
            dst: NodeId(entry.dst),
            proto: entry.proto,
            note: entry.note.clone(),
            direction: if entry.tx {
                PacketDirection::Tx
            } else {
                PacketDirection::Rx
            },
        }
    }
}

/// An append-only trace backed by the telemetry packet log. Disabled by
/// default; enabling costs one `Vec` push per exchange.
#[derive(Debug, Default)]
pub struct TraceLog {
    log: PacketLog,
}

impl TraceLog {
    /// A disabled log (records are discarded).
    pub fn disabled() -> Self {
        TraceLog {
            log: PacketLog::disabled(),
        }
    }

    /// An enabled log.
    pub fn enabled() -> Self {
        TraceLog {
            log: PacketLog::enabled(),
        }
    }

    /// Turn recording on or off.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.log.set_enabled(enabled);
    }

    /// Whether records are being kept.
    pub fn is_enabled(&self) -> bool {
        self.log.is_enabled()
    }

    /// Append a record (no-op when disabled).
    pub fn record(&mut self, record: PacketRecord) {
        if self.log.is_enabled() {
            self.log.record(record.to_entry());
        }
    }

    /// All records in arrival order.
    pub fn records(&self) -> Vec<PacketRecord> {
        self.log
            .entries()
            .iter()
            .map(PacketRecord::from_entry)
            .collect()
    }

    /// Records matching a protocol label.
    pub fn by_proto<'a>(&'a self, proto: &'a str) -> impl Iterator<Item = PacketRecord> + 'a {
        self.log
            .entries()
            .iter()
            .filter(move |e| e.proto == proto)
            .map(PacketRecord::from_entry)
    }

    /// Records sent by a node.
    pub fn sent_by(&self, node: NodeId) -> impl Iterator<Item = PacketRecord> + '_ {
        self.log
            .entries()
            .iter()
            .filter(move |e| e.src == node.0)
            .map(PacketRecord::from_entry)
    }

    /// Drop all records.
    pub fn clear(&mut self) {
        self.log.clear();
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// True if no records are kept.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NodeId;

    fn rec(src: u32, dst: u32, proto: &'static str) -> PacketRecord {
        PacketRecord {
            at: SimTime::ZERO,
            src: NodeId(src),
            dst: NodeId(dst),
            proto,
            note: String::new(),
            direction: PacketDirection::Tx,
        }
    }

    #[test]
    fn disabled_log_discards() {
        let mut log = TraceLog::disabled();
        log.record(rec(0, 1, "dns/udp"));
        assert!(log.is_empty());
    }

    #[test]
    fn enabled_log_keeps_order() {
        let mut log = TraceLog::enabled();
        log.record(rec(0, 1, "dns/udp"));
        log.record(rec(1, 2, "http"));
        assert_eq!(log.len(), 2);
        assert_eq!(log.records()[0].proto, "dns/udp");
        assert_eq!(log.records()[1].proto, "http");
    }

    #[test]
    fn filters_by_proto_and_sender() {
        let mut log = TraceLog::enabled();
        log.record(rec(0, 1, "dns/udp"));
        log.record(rec(0, 2, "http"));
        log.record(rec(3, 1, "dns/udp"));
        assert_eq!(log.by_proto("dns/udp").count(), 2);
        assert_eq!(log.sent_by(NodeId(0)).count(), 2);
    }

    #[test]
    fn toggling_enables_capture() {
        let mut log = TraceLog::disabled();
        log.set_enabled(true);
        assert!(log.is_enabled());
        log.record(rec(0, 1, "tls"));
        assert_eq!(log.len(), 1);
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn typed_view_round_trips_through_raw_entries() {
        let mut log = TraceLog::enabled();
        let original = PacketRecord {
            at: SimTime::from_nanos(123_456_789),
            src: NodeId(7),
            dst: NodeId(9),
            proto: "tls",
            note: "ClientHello".to_string(),
            direction: PacketDirection::Rx,
        };
        log.record(original.clone());
        assert_eq!(log.records()[0], original);
    }
}
