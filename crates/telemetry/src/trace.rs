//! Packet trace storage.
//!
//! [`PacketLog`] is the raw, dependency-free store behind every
//! simulator-side packet tracer. Nothing here reads a wall clock —
//! timestamps are simulated nanoseconds supplied by the caller, keeping
//! traces as deterministic as the workload that produced them.

/// One logged packet exchange, in raw representation.
///
/// This is the *storage* type shared by every simulator-side packet
/// tracer: timestamps are simulated nanoseconds and endpoints are bare
/// node indices, so this crate stays dependency-free while `netsim`
/// layers its typed `PacketRecord` view (SimTime / NodeId) on top.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketEntry {
    /// Simulated timestamp, nanoseconds.
    pub at_nanos: u64,
    /// Sending node index.
    pub src: u32,
    /// Receiving node index.
    pub dst: u32,
    /// Protocol label, e.g. `"dns/udp"`, `"tcp/handshake"`, `"tls"`.
    pub proto: &'static str,
    /// Free-form annotation (query name, header summary, …).
    pub note: String,
    /// True when logged from the sender's perspective.
    pub tx: bool,
}

/// An append-only packet log. Disabled by default; enabling costs one
/// `Vec` push per exchange. Unbounded by design — packet tracing is
/// opt-in and scoped to one simulator.
#[derive(Debug, Default)]
pub struct PacketLog {
    enabled: bool,
    entries: Vec<PacketEntry>,
}

impl PacketLog {
    /// A disabled log (entries are discarded).
    pub fn disabled() -> Self {
        PacketLog::default()
    }

    /// An enabled log.
    pub fn enabled() -> Self {
        PacketLog {
            enabled: true,
            entries: Vec::new(),
        }
    }

    /// Turn recording on or off.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether entries are being kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Append an entry (no-op when disabled).
    pub fn record(&mut self, entry: PacketEntry) {
        if self.enabled {
            self.entries.push(entry);
        }
    }

    /// All entries in arrival order.
    pub fn entries(&self) -> &[PacketEntry] {
        &self.entries
    }

    /// Drop all entries.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are kept.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_log_respects_enable_flag() {
        let entry = |src: u32, proto: &'static str| PacketEntry {
            at_nanos: 5,
            src,
            dst: 1,
            proto,
            note: String::new(),
            tx: true,
        };
        let mut log = PacketLog::disabled();
        log.record(entry(0, "dns/udp"));
        assert!(log.is_empty());
        log.set_enabled(true);
        assert!(log.is_enabled());
        log.record(entry(0, "dns/udp"));
        log.record(entry(2, "http"));
        assert_eq!(log.len(), 2);
        assert_eq!(log.entries()[1].proto, "http");
        log.clear();
        assert!(log.is_empty());
    }
}
