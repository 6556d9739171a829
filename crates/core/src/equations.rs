//! The timing algebra of §3.2–§3.4.
//!
//! Known quantities per measurement:
//!
//! * `T_A`–`T_D` — client-side timestamps (Figure 2 points A–D);
//! * `dns = t3+t4`, `connect = t5+t6` — from `X-luminati-tun-timeline`;
//! * `t_BrightData` — from `X-luminati-timeline`.
//!
//! Equation 6 recovers the client↔exit RTT; Equation 7 the DoH time:
//!
//! ```text
//! RTT   = (T_B − T_A) − (t3+t4+t5+t6) − t_BrightData               (6)
//! t_DoH = (T_D − T_C) − 2·(T_B − T_A) + 3·(t3+t4+t5+t6)
//!         + 2·t_BrightData                                          (7)
//! t_DoHR = t_DoH − (t3+t4+t5+t6) − (t11+t12),  (t11+t12) ≈ (t5+t6)  (8)
//! ```
//!
//! Derived values are in **fractional milliseconds as `f64`** rather than
//! unsigned durations: the derivation subtracts large quantities, and a
//! measurement corrupted by jitter can legitimately come out slightly
//! negative — the methodology must surface that rather than clamp it away.

use dohperf_proxy::lifecycle::TransportObservation;
use dohperf_proxy::observation::DohObservation;
use dohperf_telemetry as telemetry;

/// Equation 6: the recovered client↔exit round-trip time, in ms.
pub fn derive_rtt_ms(obs: &DohObservation) -> f64 {
    let tb_ta = obs.t_b.saturating_since(obs.t_a).as_millis_f64();
    tb_ta - obs.tun.total().as_millis_f64() - obs.proxy.total().as_millis_f64()
}

/// Equation 7: the derived DoH resolution time, in ms.
pub fn derive_t_doh_ms(obs: &DohObservation) -> f64 {
    let td_tc = obs.t_d.saturating_since(obs.t_c).as_millis_f64();
    let tb_ta = obs.t_b.saturating_since(obs.t_a).as_millis_f64();
    td_tc - 2.0 * tb_ta
        + 3.0 * obs.tun.total().as_millis_f64()
        + 2.0 * obs.proxy.total().as_millis_f64()
}

/// Equation 8: the derived connection-reuse query time, in ms, using the
/// paper's `(t11+t12) ≈ (t5+t6)` approximation.
pub fn derive_t_dohr_ms(obs: &DohObservation) -> f64 {
    derive_t_doh_ms(obs) - obs.tun.total().as_millis_f64() - obs.tun.connect.as_millis_f64()
}

/// DoH-N: the average per-request time over `n` requests on one
/// connection — the first pays `t_doh` (handshake included), the rest pay
/// `t_dohr` (§5, "Terminology").
pub fn doh_n_ms(t_doh_ms: f64, t_dohr_ms: f64, n: u32) -> f64 {
    assert!(n >= 1, "DoH-N needs at least one request");
    (t_doh_ms + f64::from(n - 1) * t_dohr_ms) / f64::from(n)
}

/// Struct-of-arrays accumulator for batched Eq 6–8 derivation.
///
/// The campaign's hot loop pushes one row of derivation inputs per
/// observation and derives a whole block at once: [`DerivationBatch::derive`]
/// walks plain `f64` slices in two tight passes the compiler can
/// vectorise, with the element-wise operation order of
/// [`derive_t_doh_ms`] / [`derive_t_dohr_ms`] preserved exactly — batched
/// outputs are **bit-identical** to the scalar path (IEEE 754 operations
/// are deterministic and Rust never contracts `a*b+c` into an FMA), which
/// the `batch_matches_scalar_bit_for_bit` test pins.
///
/// All columns are preallocated via [`DerivationBatch::with_capacity`] and
/// recycled with [`DerivationBatch::clear`], so steady-state use never
/// allocates (`integration_alloc` covers this through the campaign).
#[derive(Debug, Default)]
pub struct DerivationBatch {
    tb_ta_ms: Vec<f64>,
    td_tc_ms: Vec<f64>,
    tun_total_ms: Vec<f64>,
    tun_connect_ms: Vec<f64>,
    proxy_total_ms: Vec<f64>,
    t_doh_ms: Vec<f64>,
    t_dohr_ms: Vec<f64>,
}

impl DerivationBatch {
    /// A batch with room for `n` observations in every column.
    pub fn with_capacity(n: usize) -> Self {
        DerivationBatch {
            tb_ta_ms: Vec::with_capacity(n),
            td_tc_ms: Vec::with_capacity(n),
            tun_total_ms: Vec::with_capacity(n),
            tun_connect_ms: Vec::with_capacity(n),
            proxy_total_ms: Vec::with_capacity(n),
            t_doh_ms: Vec::with_capacity(n),
            t_dohr_ms: Vec::with_capacity(n),
        }
    }

    /// Forget all rows, keeping the column allocations.
    pub fn clear(&mut self) {
        self.tb_ta_ms.clear();
        self.td_tc_ms.clear();
        self.tun_total_ms.clear();
        self.tun_connect_ms.clear();
        self.proxy_total_ms.clear();
        self.t_doh_ms.clear();
        self.t_dohr_ms.clear();
    }

    /// Rows currently accumulated.
    pub fn len(&self) -> usize {
        self.tb_ta_ms.len()
    }

    /// True when no rows are accumulated.
    pub fn is_empty(&self) -> bool {
        self.tb_ta_ms.is_empty()
    }

    /// Append one observation's derivation inputs.
    pub fn push(&mut self, obs: &DohObservation) {
        self.tb_ta_ms
            .push(obs.t_b.saturating_since(obs.t_a).as_millis_f64());
        self.td_tc_ms
            .push(obs.t_d.saturating_since(obs.t_c).as_millis_f64());
        self.tun_total_ms.push(obs.tun.total().as_millis_f64());
        self.tun_connect_ms.push(obs.tun.connect.as_millis_f64());
        self.proxy_total_ms.push(obs.proxy.total().as_millis_f64());
    }

    /// Derive Eq 7 and Eq 8 for every accumulated row.
    pub fn derive(&mut self) {
        let n = self.len();
        self.t_doh_ms.clear();
        self.t_doh_ms.resize(n, 0.0);
        self.t_dohr_ms.clear();
        self.t_dohr_ms.resize(n, 0.0);
        // Element-wise op order matches derive_t_doh_ms exactly:
        // ((td_tc - 2*tb_ta) + 3*tun) + 2*proxy.
        for i in 0..n {
            self.t_doh_ms[i] = self.td_tc_ms[i] - 2.0 * self.tb_ta_ms[i]
                + 3.0 * self.tun_total_ms[i]
                + 2.0 * self.proxy_total_ms[i];
        }
        // ... and derive_t_dohr_ms: (t_doh - tun_total) - tun_connect.
        for i in 0..n {
            self.t_dohr_ms[i] = self.t_doh_ms[i] - self.tun_total_ms[i] - self.tun_connect_ms[i];
        }
    }

    /// The derived Eq 7 column (valid after [`DerivationBatch::derive`]).
    pub fn t_doh_ms(&self) -> &[f64] {
        &self.t_doh_ms
    }

    /// The derived Eq 8 column (valid after [`DerivationBatch::derive`]).
    pub fn t_dohr_ms(&self) -> &[f64] {
        &self.t_dohr_ms
    }

    /// Mutable Eq 7 column, for in-place median extraction.
    pub fn t_doh_ms_mut(&mut self) -> &mut [f64] {
        &mut self.t_doh_ms
    }

    /// Mutable Eq 8 column, for in-place median extraction.
    pub fn t_dohr_ms_mut(&mut self) -> &mut [f64] {
        &mut self.t_dohr_ms
    }
}

/// The Eq 1–8 derivation of one observation, with every input and
/// intermediate pinned, for the flight recorder and `repro explain`.
///
/// [`DerivationExplain::from_observation`] computes the final values by
/// calling [`derive_rtt_ms`] / [`derive_t_doh_ms`] / [`derive_t_dohr_ms`]
/// — not by re-deriving them locally — so the explained numbers are
/// **bit-for-bit** the ones the campaign stores.
#[derive(Debug, Clone, PartialEq)]
struct DerivationExplain {
    /// `T_D`, simulated nanoseconds.
    pub t_d_nanos: u64,
    /// Eq 1 input: `T_B − T_A`, ms.
    pub tb_ta_ms: f64,
    /// Eq 2 input: `T_D − T_C`, ms.
    pub td_tc_ms: f64,
    /// Eq 3: `t3+t4` from `X-luminati-tun-timeline` (`dns`), ms.
    pub tun_dns_ms: f64,
    /// Eq 4: `t5+t6` from `X-luminati-tun-timeline` (`connect`), ms.
    pub tun_connect_ms: f64,
    /// `X-luminati-timeline` `auth` component, ms.
    pub proxy_auth_ms: f64,
    /// `X-luminati-timeline` `init` component, ms.
    pub proxy_init_ms: f64,
    /// `X-luminati-timeline` `select` component, ms.
    pub proxy_select_ms: f64,
    /// `X-luminati-timeline` `domain_check` component, ms.
    pub proxy_domain_check_ms: f64,
    /// Eq 5: `t_BrightData` (sum of the four proxy components), ms.
    pub t_bd_ms: f64,
    /// Eq 6 output: recovered client↔exit RTT, ms.
    pub rtt_ms: f64,
    /// Eq 7 output: derived DoH resolution time, ms.
    pub t_doh_ms: f64,
    /// Eq 8 output: derived connection-reuse query time, ms.
    pub t_dohr_ms: f64,
}

impl DerivationExplain {
    /// Work Eq 1–8 for `obs`, preserving bit-exact equality with the
    /// plain `derive_*` functions.
    fn from_observation(obs: &DohObservation) -> Self {
        DerivationExplain {
            t_d_nanos: obs.t_d.as_nanos(),
            tb_ta_ms: obs.t_b.saturating_since(obs.t_a).as_millis_f64(),
            td_tc_ms: obs.t_d.saturating_since(obs.t_c).as_millis_f64(),
            tun_dns_ms: obs.tun.dns.as_millis_f64(),
            tun_connect_ms: obs.tun.connect.as_millis_f64(),
            proxy_auth_ms: obs.proxy.auth.as_millis_f64(),
            proxy_init_ms: obs.proxy.init.as_millis_f64(),
            proxy_select_ms: obs.proxy.select_node.as_millis_f64(),
            proxy_domain_check_ms: obs.proxy.domain_check.as_millis_f64(),
            t_bd_ms: obs.proxy.total().as_millis_f64(),
            rtt_ms: derive_rtt_ms(obs),
            t_doh_ms: derive_t_doh_ms(obs),
            t_dohr_ms: derive_t_dohr_ms(obs),
        }
    }

    /// The `t3+t4+t5+t6` tunnel total, ms.
    fn tun_total_ms(&self) -> f64 {
        self.tun_dns_ms + self.tun_connect_ms
    }

    /// Attach the full derivation to `span` as flight-recorder
    /// attributes, one per equation. Values use Rust's shortest
    /// round-trip `f64` formatting, so a reader can recover the exact
    /// bits the campaign stored.
    fn annotate_span(&self, span: telemetry::flight::SpanToken) {
        use telemetry::flight::attr;
        let tun = self.tun_total_ms();
        attr(span, "eq1.tb_ta_ms", format!("{}", self.tb_ta_ms));
        attr(span, "eq2.td_tc_ms", format!("{}", self.td_tc_ms));
        attr(span, "eq3.tun_dns_ms", format!("{}", self.tun_dns_ms));
        attr(
            span,
            "eq4.tun_connect_ms",
            format!("{}", self.tun_connect_ms),
        );
        attr(
            span,
            "eq5.t_bd_ms",
            format!(
                "{} (auth {} + init {} + select {} + domain_check {})",
                self.t_bd_ms,
                self.proxy_auth_ms,
                self.proxy_init_ms,
                self.proxy_select_ms,
                self.proxy_domain_check_ms
            ),
        );
        attr(
            span,
            "eq6.rtt_ms",
            format!(
                "{} = {} - {} - {}",
                self.rtt_ms, self.tb_ta_ms, tun, self.t_bd_ms
            ),
        );
        attr(
            span,
            "eq7.t_doh_ms",
            format!(
                "{} = {} - 2*{} + 3*{} + 2*{}",
                self.t_doh_ms, self.td_tc_ms, self.tb_ta_ms, tun, self.t_bd_ms
            ),
        );
        attr(
            span,
            "eq8.t_dohr_ms",
            format!(
                "{} = {} - {} - {}",
                self.t_dohr_ms, self.t_doh_ms, tun, self.tun_connect_ms
            ),
        );
    }
}

// --- Per-protocol derivations (Eq 1–8 analogues for DoT/DoQ) ---------
//
// The extended transports are measured at the exit node itself, so no
// header algebra is required: the analogues are direct timestamp
// differences over the connection-lifecycle phases, labelled Eq T1–T6
// to mirror the paper's numbering.
//
// ```text
// Eq T1  t_bootstrap = T_BS − T_A          (t3+t4 analogue)
// Eq T2  t_handshake = T_HS − T_BS         (t5+t6 + t11+t12 analogue)
// Eq T3  t_cold      = T_COLD − T_A        (Eq 7 analogue)
// Eq T4  t_warm      = T_WARM' − T_WARM    (Eq 8 analogue)
// Eq T5  t_resumed   = T_RES' − T_RES      (no legacy analogue)
// Eq T6  saving      = t_handshake − (T_RES_HS − T_RES)
// ```

/// Eq T1: the bootstrap resolution time of the provider hostname, ms
/// (the `t3+t4` analogue; zero for plain Do53).
fn derive_transport_bootstrap_ms(obs: &TransportObservation) -> f64 {
    obs.t_bs.saturating_since(obs.t_a).as_millis_f64()
}

/// Eq T2: the cold connection-establishment time, ms (the
/// `t5+t6 + t11+t12` analogue — TCP+TLS for DoT/DoH, the QUIC Initial
/// flight for DoQ).
pub fn derive_transport_handshake_ms(obs: &TransportObservation) -> f64 {
    obs.t_hs.saturating_since(obs.t_bs).as_millis_f64()
}

/// Eq T3: the cold (first-request) transport time, ms — the Equation 7
/// analogue: bootstrap + handshake + first query.
pub fn derive_transport_cold_ms(obs: &TransportObservation) -> f64 {
    obs.t_cold_done.saturating_since(obs.t_a).as_millis_f64()
}

/// Eq T4: the warm (connection-reuse) query time, ms — the Equation 8
/// analogue, measured directly on the established connection instead
/// of via the paper's `(t11+t12) ≈ (t5+t6)` approximation.
pub fn derive_transport_warm_ms(obs: &TransportObservation) -> f64 {
    obs.t_warm_done
        .saturating_since(obs.t_warm_start)
        .as_millis_f64()
}

/// Eq T5: the resumed query time after idle timeout, ms (TLS 1.3
/// session-ticket resumption over a fresh TCP handshake; QUIC 0-RTT).
pub fn derive_transport_resumed_ms(obs: &TransportObservation) -> f64 {
    obs.t_resumed_done
        .saturating_since(obs.t_resumed_start)
        .as_millis_f64()
}

/// Eq T6: how much of the cold handshake the resumption machinery
/// saved, ms (the 0-RTT advantage Kosek et al. identify for DoQ).
fn derive_transport_resumption_saving_ms(obs: &TransportObservation) -> f64 {
    derive_transport_handshake_ms(obs)
        - obs
            .t_resumed_hs
            .saturating_since(obs.t_resumed_start)
            .as_millis_f64()
}

/// Record the Eq T1–T6 per-protocol derivation of `obs` as a zero-width
/// flight span at the lifecycle's last timestamp. No-op when no
/// recording is armed on this thread.
pub fn record_transport_derivation(obs: &TransportObservation) {
    if !telemetry::flight::active() {
        return;
    }
    let at = obs.t_resumed_done.as_nanos();
    let span = telemetry::flight::start_span(
        "equations",
        format!("derive {} Eq T1-T6", obs.transport.name()),
        at,
    );
    use telemetry::flight::attr;
    attr(span, "transport", obs.transport.name());
    attr(
        span,
        "eqT1.bootstrap_ms",
        format!("{}", derive_transport_bootstrap_ms(obs)),
    );
    attr(
        span,
        "eqT2.handshake_ms",
        format!("{}", derive_transport_handshake_ms(obs)),
    );
    attr(
        span,
        "eqT3.t_cold_ms",
        format!("{}", derive_transport_cold_ms(obs)),
    );
    attr(
        span,
        "eqT4.t_warm_ms",
        format!("{}", derive_transport_warm_ms(obs)),
    );
    attr(
        span,
        "eqT5.t_resumed_ms",
        format!("{}", derive_transport_resumed_ms(obs)),
    );
    attr(
        span,
        "eqT6.resumption_saving_ms",
        format!("{}", derive_transport_resumption_saving_ms(obs)),
    );
    telemetry::flight::end_span(span, at);
}

/// Record the Eq 1–8 derivation of `obs` as a zero-width flight span at
/// `T_D` (the moment the last timestamp lands). No-op when no recording
/// is armed on this thread.
pub fn record_derivation(obs: &DohObservation) {
    if !telemetry::flight::active() {
        return;
    }
    let explain = DerivationExplain::from_observation(obs);
    let span = telemetry::flight::start_span("equations", "derive Eq 1-8", explain.t_d_nanos);
    explain.annotate_span(span);
    telemetry::flight::end_span(span, explain.t_d_nanos);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dohperf_http::luminati::{ProxyTimeline, TunTimeline};
    use dohperf_netsim::time::{SimDuration, SimTime};

    /// Build a synthetic observation from exact leg timings so the
    /// equations can be checked against hand-computed values.
    fn synthetic(
        rtt_ms: f64,
        dns_ms: f64,
        connect_ms: f64,
        bd_ms: f64,
        tls_leg_ms: f64,
        query_total_ms: f64,
    ) -> DohObservation {
        let t_a = SimTime::from_nanos(0);
        let phase1 = rtt_ms + bd_ms + dns_ms + connect_ms;
        let t_b = t_a + SimDuration::from_millis_f64(phase1);
        let t_c = t_b;
        // Phase 2: 2 tunnel RTTs + TLS leg + query legs.
        let phase2 = 2.0 * rtt_ms + tls_leg_ms + query_total_ms;
        let t_d = t_c + SimDuration::from_millis_f64(phase2);
        DohObservation {
            t_a,
            t_b,
            t_c,
            t_d,
            tun: TunTimeline {
                dns: SimDuration::from_millis_f64(dns_ms),
                connect: SimDuration::from_millis_f64(connect_ms),
            },
            proxy: ProxyTimeline {
                auth: SimDuration::from_millis_f64(bd_ms),
                init: SimDuration::ZERO,
                select_node: SimDuration::ZERO,
                domain_check: SimDuration::ZERO,
            },
            truth_t_doh: SimDuration::from_millis_f64(
                dns_ms + connect_ms + tls_leg_ms + query_total_ms,
            ),
            truth_t_dohr: SimDuration::from_millis_f64(query_total_ms),
        }
    }

    #[test]
    fn equation_6_recovers_rtt_exactly_without_jitter() {
        let obs = synthetic(80.0, 20.0, 30.0, 10.0, 30.0, 90.0);
        assert!((derive_rtt_ms(&obs) - 80.0).abs() < 1e-9);
    }

    #[test]
    fn equation_7_recovers_t_doh_exactly_without_jitter() {
        let obs = synthetic(80.0, 20.0, 30.0, 10.0, 30.0, 90.0);
        // Truth: dns+connect+tls_leg+query = 20+30+30+90 = 170.
        assert!((derive_t_doh_ms(&obs) - 170.0).abs() < 1e-9);
        assert!((derive_t_doh_ms(&obs) - obs.truth_t_doh.as_millis_f64()).abs() < 1e-9);
    }

    #[test]
    fn equation_8_matches_truth_when_tls_leg_equals_connect() {
        // The paper assumes (t11+t12) = (t5+t6); make them equal and the
        // derivation is exact.
        let obs = synthetic(80.0, 20.0, 30.0, 10.0, 30.0, 90.0);
        assert!((derive_t_dohr_ms(&obs) - 90.0).abs() < 1e-9);
    }

    #[test]
    fn equation_8_error_is_bounded_by_assumption_gap() {
        // TLS leg differs from connect by 7ms -> DoHR off by exactly 7ms.
        let obs = synthetic(80.0, 20.0, 30.0, 10.0, 37.0, 90.0);
        let err = derive_t_dohr_ms(&obs) - obs.truth_t_dohr.as_millis_f64();
        assert!((err - 7.0).abs() < 1e-9, "err {err}");
    }

    #[test]
    fn doh_n_interpolates_between_first_and_reused() {
        let t1 = doh_n_ms(400.0, 200.0, 1);
        let t10 = doh_n_ms(400.0, 200.0, 10);
        let t100 = doh_n_ms(400.0, 200.0, 100);
        assert_eq!(t1, 400.0);
        assert!((t10 - 220.0).abs() < 1e-9);
        assert!(t100 < t10 && t100 > 200.0);
        // Limit: as N grows, DoH-N approaches t_DoHR.
        assert!((doh_n_ms(400.0, 200.0, 100_000) - 200.0).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "at least one request")]
    fn doh_n_rejects_zero() {
        doh_n_ms(1.0, 1.0, 0);
    }

    /// Golden values: a fully hand-worked Figure-2 timeline, pinned
    /// number-for-number so any drift in the equation implementations
    /// (sign flips, dropped terms, unit slips) fails against arithmetic
    /// done on paper rather than against the same code path.
    ///
    /// Timeline (ms): RTT=80, t3+t4=20, t5+t6=30, t_BrightData=4+3+2+1=10
    /// (all four proxy sub-timings populated), TLS leg t11+t12=35,
    /// query legs=90. Client timestamps: T_A=5,
    /// T_B = T_C = 5 + (80+10+20+30) = 145, T_D = 145 + (2·80+35+90) = 430.
    #[test]
    fn golden_hand_computed_timeline() {
        let t_a = SimTime::from_nanos(5_000_000);
        let t_b = SimTime::from_nanos(145_000_000);
        let t_d = SimTime::from_nanos(430_000_000);
        let obs = DohObservation {
            t_a,
            t_b,
            t_c: t_b,
            t_d,
            tun: TunTimeline {
                dns: SimDuration::from_millis_f64(20.0),
                connect: SimDuration::from_millis_f64(30.0),
            },
            proxy: ProxyTimeline {
                auth: SimDuration::from_millis_f64(4.0),
                init: SimDuration::from_millis_f64(3.0),
                select_node: SimDuration::from_millis_f64(2.0),
                domain_check: SimDuration::from_millis_f64(1.0),
            },
            truth_t_doh: SimDuration::from_millis_f64(175.0),
            truth_t_dohr: SimDuration::from_millis_f64(90.0),
        };
        // Eq 6: (145−5) − (20+30) − 10 = 80.
        assert!((derive_rtt_ms(&obs) - 80.0).abs() < 1e-6);
        // Eq 7: (430−145) − 2·(145−5) + 3·(20+30) + 2·10
        //     = 285 − 280 + 150 + 20 = 175.
        assert!((derive_t_doh_ms(&obs) - 175.0).abs() < 1e-6);
        // Eq 8: 175 − (20+30) − 30 = 95. The 5ms excess over the 90ms
        // truth is exactly the assumption gap (t11+t12=35) − (t5+t6=30).
        assert!((derive_t_dohr_ms(&obs) - 95.0).abs() < 1e-6);
    }

    /// Golden values for the Super-Proxy-DNS quirk (§3.5): in the eleven
    /// Super Proxy countries the proxy resolves DNS itself, so the tunnel
    /// header reports only a token bootstrap time (2ms cache answer here)
    /// while phase 1 silently absorbs the proxy's real 48ms recursion.
    ///
    /// Timeline (ms): RTT=100, reported t3+t4=2, hidden recursion=48,
    /// t5+t6=30, t_BrightData=10, TLS leg=30, query legs=90. T_A=0,
    /// T_B = T_C = 100+10+2+48+30 = 190, T_D = 190 + (2·100+30+90) = 510.
    #[test]
    fn golden_super_proxy_dns_quirk_timeline() {
        let obs = DohObservation {
            t_a: SimTime::from_nanos(0),
            t_b: SimTime::from_nanos(190_000_000),
            t_c: SimTime::from_nanos(190_000_000),
            t_d: SimTime::from_nanos(510_000_000),
            tun: TunTimeline {
                dns: SimDuration::from_millis_f64(2.0),
                connect: SimDuration::from_millis_f64(30.0),
            },
            proxy: ProxyTimeline {
                auth: SimDuration::from_millis_f64(10.0),
                init: SimDuration::ZERO,
                select_node: SimDuration::ZERO,
                domain_check: SimDuration::ZERO,
            },
            truth_t_doh: SimDuration::from_millis_f64(152.0),
            truth_t_dohr: SimDuration::from_millis_f64(90.0),
        };
        // Eq 6: 190 − (2+30) − 10 = 148 — the unreported 48ms recursion
        // is fully misattributed to the client↔exit RTT, minus the 2ms
        // that was reported: 100 + 46.
        assert!((derive_rtt_ms(&obs) - 148.0).abs() < 1e-6);
        // Eq 7: 320 − 2·190 + 3·32 + 2·10 = 320 − 380 + 96 + 20 = 56.
        // Every unreported phase-1 ms is subtracted twice through the
        // −2·(T_B−T_A) term, so t_DoH lands 2·48 = 96ms under the 152ms
        // truth. This is why §3.5 discards header timings in Super Proxy
        // countries and remedies Do53 with RIPE Atlas instead.
        assert!((derive_t_doh_ms(&obs) - 56.0).abs() < 1e-6);
        let bias = derive_t_doh_ms(&obs) - obs.truth_t_doh.as_millis_f64();
        assert!((bias + 96.0).abs() < 1e-6, "bias {bias}");
        // Eq 8: 56 − 32 − 30 = −6 — legitimately negative, surfaced
        // rather than clamped (module-level contract).
        assert!((derive_t_dohr_ms(&obs) + 6.0).abs() < 1e-6);
    }

    /// The explain view must agree with the golden hand-worked timeline
    /// number for number — same fixture as `golden_hand_computed_timeline`
    /// — and bit-for-bit with the plain `derive_*` functions, since
    /// `repro explain` prints exactly these fields.
    #[test]
    fn golden_timeline_explain_matches_fixture() {
        let obs = DohObservation {
            t_a: SimTime::from_nanos(5_000_000),
            t_b: SimTime::from_nanos(145_000_000),
            t_c: SimTime::from_nanos(145_000_000),
            t_d: SimTime::from_nanos(430_000_000),
            tun: TunTimeline {
                dns: SimDuration::from_millis_f64(20.0),
                connect: SimDuration::from_millis_f64(30.0),
            },
            proxy: ProxyTimeline {
                auth: SimDuration::from_millis_f64(4.0),
                init: SimDuration::from_millis_f64(3.0),
                select_node: SimDuration::from_millis_f64(2.0),
                domain_check: SimDuration::from_millis_f64(1.0),
            },
            truth_t_doh: SimDuration::from_millis_f64(175.0),
            truth_t_dohr: SimDuration::from_millis_f64(90.0),
        };
        let explain = DerivationExplain::from_observation(&obs);
        // Bit-for-bit equality with the plain derivation functions.
        assert_eq!(explain.rtt_ms.to_bits(), derive_rtt_ms(&obs).to_bits());
        assert_eq!(explain.t_doh_ms.to_bits(), derive_t_doh_ms(&obs).to_bits());
        assert_eq!(
            explain.t_dohr_ms.to_bits(),
            derive_t_dohr_ms(&obs).to_bits()
        );
        // Inputs pinned to the hand-worked numbers.
        assert_eq!(explain.tb_ta_ms, 140.0);
        assert_eq!(explain.td_tc_ms, 285.0);
        assert_eq!(explain.tun_dns_ms, 20.0);
        assert_eq!(explain.tun_connect_ms, 30.0);
        assert_eq!(explain.t_bd_ms, 10.0);
    }

    /// `record_derivation` attaches all eight equations to a flight span
    /// with shortest-round-trip values that parse back to the exact bits.
    #[test]
    fn record_derivation_annotates_flight_span() {
        use dohperf_telemetry::flight;
        let obs = DohObservation {
            t_a: SimTime::from_nanos(5_000_000),
            t_b: SimTime::from_nanos(145_000_000),
            t_c: SimTime::from_nanos(145_000_000),
            t_d: SimTime::from_nanos(430_000_000),
            tun: TunTimeline {
                dns: SimDuration::from_millis_f64(20.0),
                connect: SimDuration::from_millis_f64(30.0),
            },
            proxy: ProxyTimeline {
                auth: SimDuration::from_millis_f64(4.0),
                init: SimDuration::from_millis_f64(3.0),
                select_node: SimDuration::from_millis_f64(2.0),
                domain_check: SimDuration::from_millis_f64(1.0),
            },
            truth_t_doh: SimDuration::from_millis_f64(175.0),
            truth_t_dohr: SimDuration::from_millis_f64(90.0),
        };
        flight::begin(flight::TraceId(1), 1, "US");
        let root = flight::start_span("test", "query", 0);
        record_derivation(&obs);
        flight::end_span(root, obs.t_d.as_nanos());
        let trace = flight::take().unwrap();
        let eq_span = trace
            .spans
            .iter()
            .find(|s| s.target == "equations")
            .expect("derivation span recorded");
        assert_eq!(eq_span.attrs.len(), 8);
        let (_, t_doh_attr) = eq_span
            .attrs
            .iter()
            .find(|(k, _)| *k == "eq7.t_doh_ms")
            .expect("Eq 7 attribute");
        let parsed: f64 = t_doh_attr
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(parsed.to_bits(), derive_t_doh_ms(&obs).to_bits());
    }

    /// Golden hand-computed lifecycle for the Eq T1–T6 analogues:
    /// a DoQ lifecycle with bootstrap 12ms, cold handshake 45ms
    /// (one QUIC flight + crypto), cold query 80ms, warm query 70ms,
    /// 0-RTT re-establishment (free) and a 75ms resumed query.
    /// T_A=0, T_BS=12, T_HS=57, T_COLD=137; warm 137→207; idle gap to
    /// 30_208; T_RES=30_208, T_RES_HS=30_208 (0-RTT), T_RES'=30_283.
    #[test]
    fn golden_transport_lifecycle_hand_computed() {
        use dohperf_netsim::connection::DnsTransport;
        let ms = |v: u64| SimTime::from_nanos(v * 1_000_000);
        let obs = TransportObservation {
            transport: DnsTransport::DoQ,
            t_a: ms(0),
            t_bs: ms(12),
            t_hs: ms(57),
            t_cold_done: ms(137),
            t_warm_start: ms(137),
            t_warm_done: ms(207),
            t_resumed_start: ms(30_208),
            t_resumed_hs: ms(30_208),
            t_resumed_done: ms(30_283),
            cold_framing: SimDuration::from_millis(4),
            warm_framing: SimDuration::from_millis(4),
            resumed_framing: SimDuration::from_millis(4),
            cold_generation: 1,
            resumed_generation: 2,
        };
        assert!((derive_transport_bootstrap_ms(&obs) - 12.0).abs() < 1e-9);
        assert!((derive_transport_handshake_ms(&obs) - 45.0).abs() < 1e-9);
        assert!((derive_transport_cold_ms(&obs) - 137.0).abs() < 1e-9);
        assert!((derive_transport_warm_ms(&obs) - 70.0).abs() < 1e-9);
        assert!((derive_transport_resumed_ms(&obs) - 75.0).abs() < 1e-9);
        // Eq T6: the 0-RTT resumption saves the entire 45ms handshake.
        assert!((derive_transport_resumption_saving_ms(&obs) - 45.0).abs() < 1e-9);
    }

    #[test]
    fn record_transport_derivation_annotates_flight_span() {
        use dohperf_netsim::connection::DnsTransport;
        use dohperf_telemetry::flight;
        let ms = |v: u64| SimTime::from_nanos(v * 1_000_000);
        let obs = TransportObservation {
            transport: DnsTransport::DoT,
            t_a: ms(0),
            t_bs: ms(10),
            t_hs: ms(90),
            t_cold_done: ms(170),
            t_warm_start: ms(170),
            t_warm_done: ms(240),
            t_resumed_start: ms(10_241),
            t_resumed_hs: ms(10_281),
            t_resumed_done: ms(10_351),
            cold_framing: SimDuration::from_millis(3),
            warm_framing: SimDuration::from_millis(3),
            resumed_framing: SimDuration::from_millis(3),
            cold_generation: 1,
            resumed_generation: 2,
        };
        flight::begin(flight::TraceId(2), 2, "US");
        let root = flight::start_span("test", "lifecycle", 0);
        record_transport_derivation(&obs);
        flight::end_span(root, obs.t_resumed_done.as_nanos());
        let trace = flight::take().unwrap();
        let eq_span = trace
            .spans
            .iter()
            .find(|s| s.target == "equations")
            .expect("transport derivation span recorded");
        assert_eq!(eq_span.name, "derive dot Eq T1-T6");
        assert_eq!(eq_span.attrs.len(), 7, "transport + six equations");
        let (_, cold) = eq_span
            .attrs
            .iter()
            .find(|(k, _)| *k == "eqT3.t_cold_ms")
            .expect("Eq T3 attribute");
        assert_eq!(cold, "170");
    }

    #[test]
    fn batch_matches_scalar_bit_for_bit() {
        // Awkward, non-round values so any op-reordering in the batched
        // path shows up as a bit difference.
        let fixtures = [
            synthetic(80.3, 20.7, 30.11, 10.13, 30.17, 90.19),
            synthetic(123.456, 7.89, 0.123, 45.6, 78.9, 12.3),
            synthetic(0.001, 0.002, 0.003, 0.004, 0.005, 0.006),
            synthetic(999.9, 88.8, 77.7, 66.6, 55.5, 44.4),
        ];
        let mut batch = DerivationBatch::with_capacity(2);
        // Two fills through the same batch proves clear() recycles fully.
        for chunk in fixtures.chunks(2) {
            batch.clear();
            for obs in chunk {
                batch.push(obs);
            }
            batch.derive();
            assert_eq!(batch.len(), chunk.len());
            for (i, obs) in chunk.iter().enumerate() {
                assert_eq!(
                    batch.t_doh_ms()[i].to_bits(),
                    derive_t_doh_ms(obs).to_bits(),
                    "Eq 7 row {i}"
                );
                assert_eq!(
                    batch.t_dohr_ms()[i].to_bits(),
                    derive_t_dohr_ms(obs).to_bits(),
                    "Eq 8 row {i}"
                );
            }
        }
        batch.clear();
        assert!(batch.is_empty());
    }

    #[test]
    fn derivation_degrades_gracefully_with_proxy_noise() {
        // Add 5ms of unaccounted forwarding overhead in phase 2: t_DoH is
        // overestimated by exactly that amount.
        let clean = synthetic(80.0, 20.0, 30.0, 10.0, 30.0, 90.0);
        let mut noisy = clean;
        noisy.t_d += SimDuration::from_millis_f64(5.0);
        let err = derive_t_doh_ms(&noisy) - derive_t_doh_ms(&clean);
        assert!((err - 5.0).abs() < 1e-9);
    }
}
