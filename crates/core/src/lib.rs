//! # dohperf-core
//!
//! The paper's primary contribution: a methodology for measuring absolute
//! DoH and Do53 resolution times at proxy-network exit nodes **without
//! controlling the exit node**, using only four client-side timestamps and
//! the Super Proxy's timing headers.
//!
//! * [`equations`] — the §3.2–§3.4 timing algebra: recovering the
//!   client↔exit RTT (Equation 6), the DoH resolution time t_DoH
//!   (Equation 7), the connection-reuse time t_DoHR (Equation 8), and the
//!   DoH-N amortisation used throughout §5–§6.
//! * [`testbed`] — the fixed experimental infrastructure of Figure 1:
//!   measurement client, web server and authoritative name server (all in
//!   the US), the BrightData network, and the four provider deployments.
//! * [`records`] — the dataset schema: one record per client with
//!   per-provider DoH samples and the Do53 baseline.
//! * [`campaign`] — the full measurement campaign over 224 countries,
//!   including the Maxmind mismatch discard (§3.5) and the RIPE Atlas
//!   remedy for the 11 Super Proxy countries. Runs either in memory
//!   ([`Campaign::run`]) or streamed to a columnar store directory with
//!   bounded memory ([`Campaign::run_to_store`]).
//! * [`store_io`] — lossless conversion between [`ClientRecord`]s and
//!   `dohperf-store`'s primitive schema, plus store-directory read/write
//!   entry points.
//! * [`validation`] — the §4 ground-truth experiments (Tables 1 and 2,
//!   the §4.3 resolver-confirmation trace, and the §4.4 BrightData vs
//!   RIPE Atlas consistency check).

mod cache;
pub mod campaign;
pub mod equations;
pub mod export;
pub mod pageload;
pub mod records;
pub mod store_io;
pub mod testbed;
pub mod validation;

pub use campaign::{Campaign, CampaignConfig, ProtocolSet, StoreRunSummary};
pub use equations::{
    derive_rtt_ms, derive_t_doh_ms, derive_t_dohr_ms, derive_transport_cold_ms,
    derive_transport_handshake_ms, derive_transport_resumed_ms, derive_transport_warm_ms, doh_n_ms,
};
pub use export::{to_csv, to_jsonl};
pub use pageload::{PageModel, PageOutcome, PageProfile};
pub use records::{ClientRecord, Dataset, Do53Source, DohSample, PageSample, TransportSample};
pub use store_io::{fold_chunks, read_dataset, read_dataset_threads, write_dataset};
pub use testbed::Testbed;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::campaign::{Campaign, CampaignConfig, ProtocolSet};
    pub use crate::equations::{derive_rtt_ms, derive_t_doh_ms, derive_t_dohr_ms, doh_n_ms};
    pub use crate::records::{
        ClientRecord, Dataset, Do53Source, DohSample, PageSample, TransportSample,
    };
    pub use crate::testbed::Testbed;
    pub use crate::validation;
}
