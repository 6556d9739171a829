//! End-to-end properties of the columnar store (DESIGN.md §10).
//!
//! Two contracts are exercised at quick scale:
//!
//! * **Thread invariance on disk** — `run_to_store` at 1 and 8 workers
//!   must produce byte-identical `records.chunks` and `manifest.bin`,
//!   extending the in-memory determinism contract (DESIGN.md §2) to the
//!   streamed byte stream itself.
//! * **`--from-store` equivalence** — a dataset read back from a store
//!   directory must reproduce the direct pipeline's headline numbers
//!   exactly, because the codec round-trips every f64 bit-for-bit.

use dohperf_analysis::headline::headline_stats;
use dohperf_analysis::streaming::{
    cdfs_from_store, cdfs_from_store_threads, headline_from_store, headline_from_store_threads,
};
use dohperf_core::campaign::{Campaign, CampaignConfig, ProtocolSet};
use dohperf_core::records::{ClientRecord, Dataset};
use dohperf_core::store_io::write_dataset;
use dohperf_core::{read_dataset, read_dataset_threads};
use dohperf_store::{PipelineConfig, StoreError, MANIFEST_FILE, RECORDS_FILE};
use std::fs;
use std::path::PathBuf;

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dohperf-int-store-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn write_store(seed: u64, threads: usize, chunk_budget: usize, tag: &str) -> PathBuf {
    let dir = temp_store(tag);
    let config = CampaignConfig {
        threads,
        ..CampaignConfig::quick(seed)
    };
    Campaign::new(config)
        .run_to_store(&dir, chunk_budget)
        .unwrap_or_else(|e| panic!("streaming campaign to {}: {e}", dir.display()));
    dir
}

#[test]
fn store_bytes_are_identical_across_thread_counts() {
    let sequential = write_store(2021, 1, 0, "t1");
    let chunks_1 = fs::read(sequential.join(RECORDS_FILE)).expect("read t1 chunks");
    let manifest_1 = fs::read(sequential.join(MANIFEST_FILE)).expect("read t1 manifest");
    assert!(!chunks_1.is_empty(), "store wrote no chunk bytes");

    for threads in [2, 8] {
        let parallel = write_store(2021, threads, 0, &format!("t{threads}"));
        let chunks_n = fs::read(parallel.join(RECORDS_FILE)).expect("read parallel chunks");
        let manifest_n = fs::read(parallel.join(MANIFEST_FILE)).expect("read parallel manifest");
        assert!(
            chunks_1 == chunks_n,
            "records.chunks diverged at {threads} threads ({} vs {} bytes)",
            chunks_1.len(),
            chunks_n.len()
        );
        assert!(
            manifest_1 == manifest_n,
            "manifest.bin diverged at {threads} threads"
        );
        let _ = fs::remove_dir_all(&parallel);
    }
    let _ = fs::remove_dir_all(&sequential);
}

#[test]
fn from_store_reproduces_the_direct_headline() {
    let seed = 77;
    let dir = write_store(seed, 0, 0, "headline");

    let direct = Campaign::new(CampaignConfig::quick(seed)).run();
    let restored = read_dataset(&dir).expect("read dataset back from store");
    assert_eq!(direct.records, restored.records, "records diverged");
    assert_eq!(direct.atlas_do53_ms, restored.atlas_do53_ms);

    let expected = headline_stats(&direct);
    let actual = headline_stats(&restored);
    // Bit-exact equality: every float crossed the store as raw IEEE bits.
    assert_eq!(expected.median_doh1_ms, actual.median_doh1_ms);
    assert_eq!(expected.median_do53_ms, actual.median_do53_ms);
    assert_eq!(expected.median_dohr_ms, actual.median_dohr_ms);
    assert_eq!(
        expected.first_request_speedup_fraction,
        actual.first_request_speedup_fraction
    );
    assert_eq!(
        expected.ten_request_speedup_fraction,
        actual.ten_request_speedup_fraction
    );
    assert_eq!(
        expected.median_country_doh1_ms,
        actual.median_country_doh1_ms
    );
    assert_eq!(
        expected.median_country_do53_ms,
        actual.median_country_do53_ms
    );
    assert_eq!(expected.tripled_fraction, actual.tripled_fraction);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn four_protocol_store_round_trips_and_stays_thread_invariant() {
    // The FLAG_TRANSPORTS column group must round-trip every lifecycle
    // sample bit-for-bit and keep the on-disk bytes thread-invariant.
    let config = |threads| CampaignConfig {
        threads,
        scale: 0.05,
        protocols: ProtocolSet::all(),
        ..CampaignConfig::quick(2021)
    };
    let dir = temp_store("protocols");
    Campaign::new(config(1))
        .run_to_store(&dir, 0)
        .unwrap_or_else(|e| panic!("streaming 4-protocol campaign: {e}"));
    let chunks_1 = fs::read(dir.join(RECORDS_FILE)).expect("read chunks");

    let direct = Campaign::new(config(1)).run();
    assert!(
        direct.records.iter().all(|r| r.transports.len() == 16),
        "expected 4 transports x 4 providers per record"
    );
    let restored = read_dataset(&dir).expect("read 4-protocol dataset back");
    assert_eq!(
        direct.records, restored.records,
        "transport samples diverged across the store round trip"
    );
    let _ = fs::remove_dir_all(&dir);

    let dir8 = temp_store("protocols-t8");
    Campaign::new(config(8))
        .run_to_store(&dir8, 0)
        .unwrap_or_else(|e| panic!("streaming 4-protocol campaign at 8 threads: {e}"));
    let chunks_8 = fs::read(dir8.join(RECORDS_FILE)).expect("read t8 chunks");
    assert!(
        chunks_1 == chunks_8,
        "4-protocol records.chunks diverged at 8 threads"
    );
    let _ = fs::remove_dir_all(&dir8);
}

#[test]
fn encoder_pool_shape_never_changes_store_bytes() {
    // The off-thread encode pipeline (DESIGN.md §17) must be invisible
    // on disk: inline encoding and every (workers x queue_depth) pool
    // shape produce the same records.chunks and manifest.bin.
    let run = |pipeline: PipelineConfig, tag: &str| {
        let dir = temp_store(tag);
        Campaign::new(CampaignConfig::quick(2021))
            .run_to_store_with(&dir, 0, pipeline)
            .unwrap_or_else(|e| panic!("streaming campaign to {}: {e}", dir.display()));
        dir
    };
    let serial = run(PipelineConfig::serial(), "pool-serial");
    let chunks = fs::read(serial.join(RECORDS_FILE)).expect("serial chunks");
    let manifest = fs::read(serial.join(MANIFEST_FILE)).expect("serial manifest");
    assert!(!chunks.is_empty(), "store wrote no chunk bytes");
    let _ = fs::remove_dir_all(&serial);

    for (workers, queue_depth) in [(1, 1), (1, 4), (2, 1), (4, 8)] {
        let tag = format!("pool-w{workers}q{queue_depth}");
        let dir = run(
            PipelineConfig {
                workers,
                queue_depth,
            },
            &tag,
        );
        let chunks_p = fs::read(dir.join(RECORDS_FILE)).expect("pipelined chunks");
        let manifest_p = fs::read(dir.join(MANIFEST_FILE)).expect("pipelined manifest");
        assert!(
            chunks == chunks_p,
            "records.chunks diverged with {workers} encoder workers, queue depth {queue_depth}"
        );
        assert!(
            manifest == manifest_p,
            "manifest.bin diverged with {workers} encoder workers, queue depth {queue_depth}"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn parallel_from_store_reads_are_identical_to_serial() {
    // The parallel decoder fans chunks across threads but folds them in
    // canonical order, so the materialised dataset AND every sketch-based
    // streaming analysis are identical — not just close — at any thread
    // count.
    let dir = write_store(2021, 0, 0, "parallel-read");

    let serial = read_dataset_threads(&dir, 1).expect("serial read");
    for threads in [2, 8] {
        let parallel = read_dataset_threads(&dir, threads).expect("parallel read");
        assert_eq!(
            serial.records, parallel.records,
            "records diverged at {threads} decoder threads"
        );
        assert_eq!(serial.countries, parallel.countries);
        assert_eq!(serial.atlas_do53_ms, parallel.atlas_do53_ms);
    }

    let headline_1 = headline_from_store(&dir).expect("serial headline");
    let cdfs_1 = cdfs_from_store(&dir).expect("serial cdfs");
    for threads in [2, 8] {
        let headline_n = headline_from_store_threads(&dir, threads).expect("parallel headline");
        assert_eq!(
            headline_1.median_doh1_ms, headline_n.median_doh1_ms,
            "sketch median diverged at {threads} decoder threads"
        );
        assert_eq!(headline_1.median_do53_ms, headline_n.median_do53_ms);
        assert_eq!(headline_1.median_dohr_ms, headline_n.median_dohr_ms);
        assert_eq!(
            headline_1.first_request_speedup_fraction,
            headline_n.first_request_speedup_fraction
        );
        assert_eq!(headline_1.tripled_fraction, headline_n.tripled_fraction);

        let cdfs_n = cdfs_from_store_threads(&dir, threads).expect("parallel cdfs");
        assert_eq!(cdfs_1.len(), cdfs_n.len());
        for (a, b) in cdfs_1.iter().zip(&cdfs_n) {
            assert_eq!(a.provider, b.provider);
            assert_eq!(
                a.doh1.values, b.doh1.values,
                "{}: CDF support diverged at {threads} decoder threads",
                a.provider
            );
            assert_eq!(a.dohr.values, b.dohr.values);
            assert_eq!(a.do53.values, b.do53.values);
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn tiny_chunk_budget_changes_bytes_but_not_records() {
    // The chunk budget shapes the byte stream (more, smaller chunks) but
    // never the decoded record sequence.
    let roomy = write_store(13, 1, 0, "roomy");
    let tight = write_store(13, 1, 7, "tight");
    let roomy_bytes = fs::read(roomy.join(RECORDS_FILE)).expect("roomy chunks");
    let tight_bytes = fs::read(tight.join(RECORDS_FILE)).expect("tight chunks");
    assert!(
        roomy_bytes != tight_bytes,
        "a 7-record budget should repack the chunks"
    );

    let a = read_dataset(&roomy).expect("roomy dataset");
    let b = read_dataset(&tight).expect("tight dataset");
    assert_eq!(a.records, b.records);
    assert_eq!(a.countries, b.countries);
    let _ = fs::remove_dir_all(&roomy);
    let _ = fs::remove_dir_all(&tight);
}

type Poison = fn(&mut ClientRecord);

/// Write `clean` with each poison applied to one client in turn and
/// assert the read fails with `StoreError::Corrupt` naming the client and
/// the poisoned field. The store keeps raw f64 bits, so a chunk with
/// valid CRCs can carry a NaN; reading it back must fail cleanly instead
/// of panicking in the analysis medians downstream.
fn assert_poisons_rejected(clean: &Dataset, poisons: &[(&str, Poison)]) {
    let at = clean
        .records
        .iter()
        .position(|r| {
            r.do53_ms.is_some()
                && !r.doh.is_empty()
                && !r.transports.is_empty()
                && !r.pages.is_empty()
                && !r.windows.is_empty()
        })
        .expect("a client with every column group");
    let client = clean.records[at].client_id;
    for (field, poison) in poisons {
        let mut ds = clean.clone();
        poison(&mut ds.records[at]);
        let dir = temp_store(&format!("nan-{field}"));
        write_dataset(&ds, &dir, 0).expect("the writer stores any bits");
        match read_dataset_threads(&dir, 2) {
            Err(StoreError::Corrupt(msg)) => {
                assert!(msg.contains(&format!("client {client}")), "{msg}");
                assert!(msg.contains(&format!("{field} is ")), "{msg}");
            }
            other => panic!(
                "{field}: expected StoreError::Corrupt, got {:?}",
                other.map(|ds| ds.records.len())
            ),
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// A small campaign with every column group filled: DoH and Do53,
/// extended transports, page loads and window samples.
fn every_column_group() -> Dataset {
    Campaign::new(CampaignConfig {
        scale: 0.01,
        protocols: ProtocolSet::all(),
        pages_per_client: 2,
        window_nanos: 3_600_000_000_000,
        ..CampaignConfig::quick(2021)
    })
    .run()
}

#[test]
fn non_finite_latencies_are_rejected_with_a_typed_error() {
    assert_poisons_rejected(
        &every_column_group(),
        &[
            ("t_doh_ms", |r| r.doh[0].t_doh_ms = f64::NAN),
            ("t_dohr_ms", |r| r.doh[0].t_dohr_ms = f64::INFINITY),
            ("do53_ms", |r| r.do53_ms = Some(f64::NAN)),
        ],
    );
}

#[test]
fn non_finite_distances_are_rejected_with_a_typed_error() {
    assert_poisons_rejected(
        &every_column_group(),
        &[
            ("pop_distance_miles", |r| {
                r.doh[1].pop_distance_miles = f64::NAN
            }),
            ("nearest_pop_distance_miles", |r| {
                r.doh[2].nearest_pop_distance_miles = f64::INFINITY
            }),
            ("nameserver_distance_miles", |r| {
                r.nameserver_distance_miles = f64::NAN
            }),
        ],
    );
}

#[test]
fn non_finite_transport_latencies_are_rejected_with_a_typed_error() {
    assert_poisons_rejected(
        &every_column_group(),
        &[
            ("cold_ms", |r| r.transports[0].cold_ms = f64::NAN),
            ("warm_ms", |r| r.transports[1].warm_ms = f64::NEG_INFINITY),
            ("resumed_ms", |r| r.transports[2].resumed_ms = f64::NAN),
            ("handshake_ms", |r| r.transports[3].handshake_ms = f64::NAN),
        ],
    );
}

#[test]
fn non_finite_page_load_times_are_rejected_with_a_typed_error() {
    assert_poisons_rejected(
        &every_column_group(),
        &[
            ("plt_cold_ms", |r| r.pages[0].plt_cold_ms = f64::NAN),
            ("plt_warm_ms", |r| r.pages[0].plt_warm_ms = f64::INFINITY),
        ],
    );
}

#[test]
fn non_finite_window_latency_is_rejected_with_a_typed_error() {
    assert_poisons_rejected(
        &every_column_group(),
        &[("latency_ms", |r| r.windows[0].latency_ms = f64::NAN)],
    );
}
