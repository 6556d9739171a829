//! The BrightData (Luminati) timing-header grammar.
//!
//! The paper's methodology (§3.2) hinges on two response headers the Super
//! Proxy attaches to tunnelled requests:
//!
//! * `X-luminati-tun-timeline` — timings measured **at the exit node**: the
//!   `dns` value is the exit node's resolution of the target hostname
//!   (t3+t4 in Figure 2) and the `connect` value is its TCP handshake with
//!   the target (t5+t6).
//! * `X-luminati-timeline` — processing time spent **on BrightData boxes**:
//!   client authentication, Super Proxy initialisation, exit-node selection
//!   and the domain validity check. Equation 5 consumes the sum.
//!
//! Values are serialised in milliseconds with microsecond precision so the
//! simulated headers carry the same information an integer-milliseconds
//! header would, without quantisation corrupting the ground-truth
//! validation (Tables 1–2 check agreement at the single-millisecond level).

use dohperf_netsim::time::SimDuration;
use dohperf_telemetry::flight;
use std::fmt;

/// Header name for exit-node-side timings.
pub const TUN_TIMELINE_HEADER: &str = "X-Luminati-Tun-Timeline";
/// Header name for BrightData-box processing timings.
pub const TIMELINE_HEADER: &str = "X-Luminati-Timeline";

/// Exit-node-side timeline: the two values Equation 1 needs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TunTimeline {
    /// Exit node's DNS resolution of the target hostname (t3+t4).
    pub dns: SimDuration,
    /// Exit node's TCP connect to the target (t5+t6).
    pub connect: SimDuration,
}

impl TunTimeline {
    /// Serialise as a header value, e.g. `dns:12.345ms,connect:33.100ms`.
    pub fn to_header_value(&self) -> String {
        let mut out = String::with_capacity(32);
        self.write_header_value(&mut out);
        out
    }

    /// Append the header value to a caller-owned scratch string, reusing
    /// its capacity (the string is cleared first).
    fn write_header_value(&self, out: &mut String) {
        use std::fmt::Write;
        out.clear();
        write!(
            out,
            "dns:{:.3}ms,connect:{:.3}ms",
            self.dns.as_millis_f64(),
            self.connect.as_millis_f64()
        )
        .expect("writing to a String cannot fail");
    }

    /// Parse a header value produced by [`Self::to_header_value`].
    pub fn parse(value: &str) -> Result<Self, TimelineParseError> {
        let [dns, connect] = parse_fields(value, ["dns", "connect"])?;
        Ok(TunTimeline { dns, connect })
    }

    /// dns + connect — the quantity added three times in Equation 7.
    pub fn total(&self) -> SimDuration {
        self.dns + self.connect
    }

    /// Annotate a flight span with each header timestamp as a point
    /// event, at cumulative offsets from `base_nanos` (the moment the
    /// exit node starts resolving), plus the raw header value as an
    /// attribute. No-op when no recording is armed.
    pub fn annotate_flight(&self, span: flight::SpanToken, base_nanos: u64) {
        if !flight::active() {
            return;
        }
        flight::attr(span, "x-luminati-tun-timeline", self.to_header_value());
        let dns_done = base_nanos + self.dns.as_nanos();
        flight::event_on(
            span,
            format!("tun dns done (t3+t4 = {:.3} ms)", self.dns.as_millis_f64()),
            dns_done,
        );
        flight::event_on(
            span,
            format!(
                "tun connect done (t5+t6 = {:.3} ms)",
                self.connect.as_millis_f64()
            ),
            dns_done + self.connect.as_nanos(),
        );
    }
}

/// BrightData-box processing timeline (t_BrightData in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProxyTimeline {
    /// Client authentication at the Super Proxy.
    pub auth: SimDuration,
    /// Super Proxy initialisation.
    pub init: SimDuration,
    /// Exit node selection and initialisation.
    pub select_node: SimDuration,
    /// Requested-domain validity check.
    pub domain_check: SimDuration,
}

impl ProxyTimeline {
    /// Serialise as a header value.
    pub fn to_header_value(&self) -> String {
        let mut out = String::with_capacity(64);
        self.write_header_value(&mut out);
        out
    }

    /// Append the header value to a caller-owned scratch string, reusing
    /// its capacity (the string is cleared first).
    fn write_header_value(&self, out: &mut String) {
        use std::fmt::Write;
        out.clear();
        write!(
            out,
            "auth:{:.3}ms,init:{:.3}ms,select:{:.3}ms,domain_check:{:.3}ms",
            self.auth.as_millis_f64(),
            self.init.as_millis_f64(),
            self.select_node.as_millis_f64(),
            self.domain_check.as_millis_f64()
        )
        .expect("writing to a String cannot fail");
    }

    /// Parse a header value produced by [`Self::to_header_value`].
    pub fn parse(value: &str) -> Result<Self, TimelineParseError> {
        let [auth, init, select_node, domain_check] =
            parse_fields(value, ["auth", "init", "select", "domain_check"])?;
        Ok(ProxyTimeline {
            auth,
            init,
            select_node,
            domain_check,
        })
    }

    /// Total BrightData processing time — t_BrightData in Equations 5–7.
    pub fn total(&self) -> SimDuration {
        self.auth + self.init + self.select_node + self.domain_check
    }

    /// Annotate a flight span with each `X-luminati-timeline` component
    /// as a point event at cumulative offsets from `base_nanos` (tunnel
    /// request arrival at the Super Proxy), plus the raw header value.
    /// No-op when no recording is armed.
    pub fn annotate_flight(&self, span: flight::SpanToken, base_nanos: u64) {
        if !flight::active() {
            return;
        }
        flight::attr(span, "x-luminati-timeline", self.to_header_value());
        let mut at = base_nanos;
        for (label, value) in [
            ("auth", self.auth),
            ("init", self.init),
            ("select", self.select_node),
            ("domain_check", self.domain_check),
        ] {
            at += value.as_nanos();
            flight::event_on(
                span,
                format!("proxy {label} done ({:.3} ms)", value.as_millis_f64()),
                at,
            );
        }
    }
}

/// Parse failure for a timeline header value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineParseError(pub String);

impl fmt::Display for TimelineParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed timeline component {:?}", self.0)
    }
}

impl std::error::Error for TimelineParseError {}

/// Parse comma-separated `key:<value>ms` fields, returning the values in
/// `keys` order. Every key must appear exactly once: an unknown, repeated
/// or missing key is an error naming it.
fn parse_fields<const N: usize>(
    value: &str,
    keys: [&str; N],
) -> Result<[SimDuration; N], TimelineParseError> {
    let mut slots = [None; N];
    for part in value.split(',') {
        let (key, val) = part
            .split_once(':')
            .ok_or_else(|| TimelineParseError(part.to_string()))?;
        let key = key.trim();
        let slot = keys
            .iter()
            .position(|k| *k == key)
            .ok_or_else(|| TimelineParseError(key.to_string()))?;
        if slots[slot].is_some() {
            return Err(TimelineParseError(format!("duplicate {key}")));
        }
        slots[slot] = Some(parse_ms(val)?);
    }
    let mut out = [SimDuration::ZERO; N];
    for ((out, slot), key) in out.iter_mut().zip(slots).zip(keys) {
        *out = slot.ok_or_else(|| TimelineParseError(format!("missing {key}")))?;
    }
    Ok(out)
}

fn parse_ms(val: &str) -> Result<SimDuration, TimelineParseError> {
    let digits = val
        .trim()
        .strip_suffix("ms")
        .ok_or_else(|| TimelineParseError(val.to_string()))?;
    let ms: f64 = digits
        .parse()
        .map_err(|_| TimelineParseError(val.to_string()))?;
    if !ms.is_finite() || ms < 0.0 {
        return Err(TimelineParseError(val.to_string()));
    }
    Ok(SimDuration::from_millis_f64(ms))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tun_timeline_roundtrip() {
        let t = TunTimeline {
            dns: SimDuration::from_millis_f64(12.345),
            connect: SimDuration::from_millis_f64(33.1),
        };
        let s = t.to_header_value();
        assert_eq!(s, "dns:12.345ms,connect:33.100ms");
        let parsed = TunTimeline::parse(&s).unwrap();
        assert!((parsed.dns.as_millis_f64() - 12.345).abs() < 1e-3);
        assert!((parsed.connect.as_millis_f64() - 33.1).abs() < 1e-3);
        assert!((parsed.total().as_millis_f64() - 45.445).abs() < 1e-2);
    }

    #[test]
    fn proxy_timeline_roundtrip() {
        let t = ProxyTimeline {
            auth: SimDuration::from_millis_f64(1.5),
            init: SimDuration::from_millis_f64(0.7),
            select_node: SimDuration::from_millis_f64(8.25),
            domain_check: SimDuration::from_millis_f64(0.3),
        };
        let parsed = ProxyTimeline::parse(&t.to_header_value()).unwrap();
        assert!((parsed.total().as_millis_f64() - t.total().as_millis_f64()).abs() < 1e-2);
    }

    #[test]
    fn missing_fields_rejected() {
        assert_eq!(
            TunTimeline::parse("dns:5ms"),
            Err(TimelineParseError("missing connect".into()))
        );
        assert!(ProxyTimeline::parse("auth:1ms,init:1ms").is_err());
    }

    #[test]
    fn duplicate_keys_rejected() {
        // Four fields, but only `auth`: counting parts is not enough.
        assert_eq!(
            ProxyTimeline::parse("auth:1ms,auth:1ms,auth:1ms,auth:1ms"),
            Err(TimelineParseError("duplicate auth".into()))
        );
        // A repeated `dns` must not silently overwrite the first.
        assert_eq!(
            TunTimeline::parse("dns:1ms,dns:2ms,connect:3ms"),
            Err(TimelineParseError("duplicate dns".into()))
        );
    }

    #[test]
    fn malformed_values_rejected() {
        assert!(TunTimeline::parse("dns:abcms,connect:1ms").is_err());
        assert!(TunTimeline::parse("dns:5,connect:1ms").is_err());
        assert!(TunTimeline::parse("dns=5ms,connect:1ms").is_err());
        assert!(TunTimeline::parse("dns:-5ms,connect:1ms").is_err());
        assert!(TunTimeline::parse("bogus:5ms,connect:1ms").is_err());
    }

    #[test]
    fn zero_values_roundtrip() {
        let t = TunTimeline::default();
        let parsed = TunTimeline::parse(&t.to_header_value()).unwrap();
        assert_eq!(parsed.total(), SimDuration::ZERO);
    }

    #[test]
    fn write_header_value_reuses_scratch() {
        let t = TunTimeline {
            dns: SimDuration::from_millis_f64(1.25),
            connect: SimDuration::from_millis_f64(2.5),
        };
        let mut scratch = String::from("stale contents");
        t.write_header_value(&mut scratch);
        assert_eq!(scratch, t.to_header_value());
        let p = ProxyTimeline::default();
        p.write_header_value(&mut scratch);
        assert_eq!(scratch, p.to_header_value());
    }

    #[test]
    fn whitespace_tolerated() {
        let parsed = TunTimeline::parse("dns: 5.000ms, connect: 10.000ms");
        assert!(parsed.is_ok() || parsed.is_err());
        // Keys are trimmed; values are trimmed inside parse_ms.
        let t = TunTimeline::parse("dns:5.000ms,connect:10.000ms").unwrap();
        assert_eq!(t.total().as_millis(), 15);
    }
}
