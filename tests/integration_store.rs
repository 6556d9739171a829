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

use dohperf_analysis::headline::{headline_from_store_threads, headline_stats, HeadlineStats};
use dohperf_core::campaign::{Campaign, CampaignConfig, ProtocolSet};
use dohperf_core::records::{ClientRecord, Dataset};
use dohperf_core::store_io::{read_manifest, write_dataset};
use dohperf_core::{read_dataset, read_dataset_threads};
use dohperf_store::chunk::CHUNK_HEADER_LEN;
use dohperf_store::{StoreError, MANIFEST_FILE, RECORDS_FILE};
use std::fs;
use std::path::{Path, PathBuf};

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
fn parallel_from_store_reads_are_identical_to_serial() {
    // The parallel decoder fans chunks across threads but folds them in
    // canonical order, so the materialised dataset and the headline
    // re-derived from the store's columns are identical at any thread
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

    let headline = headline_bits(&headline_stats(&serial));
    for threads in [1, 2, 8] {
        let scanned = headline_from_store_threads(&dir, threads).expect("column headline");
        assert_eq!(
            headline_bits(&scanned),
            headline,
            "headline diverged at {threads} decoder threads"
        );
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

/// The `StoreError::Corrupt` message of `outcome`, or a panic naming
/// `what` if it is anything else.
fn corrupt_message<T>(what: &str, outcome: Result<T, StoreError>) -> String {
    match outcome {
        Err(StoreError::Corrupt(msg)) => msg,
        Err(other) => panic!("{what}: expected StoreError::Corrupt, got {other}"),
        Ok(_) => panic!("{what}: expected StoreError::Corrupt, got Ok"),
    }
}

/// Every way to read a store directory: the full materialising read and
/// the headline's column scan, at one and two decode threads.
fn every_reader(dir: &Path) -> Vec<(String, Result<(), StoreError>)> {
    let mut outcomes = Vec::new();
    for threads in [1, 2] {
        outcomes.push((
            format!("read_dataset_threads({threads})"),
            read_dataset_threads(dir, threads).map(drop),
        ));
        outcomes.push((
            format!("headline_from_store_threads({threads})"),
            headline_from_store_threads(dir, threads).map(drop),
        ));
    }
    outcomes
}

/// A defect planted in one client record; the `usize` is the length of
/// the dataset's country table.
type Poison = fn(&mut ClientRecord, usize);

/// Write `clean` with each poison applied to one client in turn and
/// assert every reader — `read_dataset_threads` and the column scan
/// behind `headline_from_store_threads`, at one and two threads — fails
/// with `StoreError::Corrupt` naming the client and the poisoned field.
/// The store keeps raw f64 bits, so a chunk with valid CRCs can carry a
/// NaN; reading it back must fail cleanly instead of panicking in the
/// analysis medians downstream, and the column scan, which builds no
/// record, must drop none of the record path's checks.
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
        poison(&mut ds.records[at], clean.countries.len());
        let dir = temp_store(&format!("nan-{field}"));
        write_dataset(&ds, &dir, 0).expect("the writer stores any bits");
        for (reader, outcome) in every_reader(&dir) {
            let msg = corrupt_message(&format!("{field} via {reader}"), outcome);
            assert!(msg.contains(&format!("client {client}")), "{reader}: {msg}");
            assert!(msg.contains(&format!("{field} is ")), "{reader}: {msg}");
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
            ("t_doh_ms", |r, _| r.doh[0].t_doh_ms = f64::NAN),
            ("t_dohr_ms", |r, _| r.doh[0].t_dohr_ms = f64::INFINITY),
            ("do53_ms", |r, _| r.do53_ms = Some(f64::NAN)),
        ],
    );
}

#[test]
fn non_finite_distances_are_rejected_with_a_typed_error() {
    assert_poisons_rejected(
        &every_column_group(),
        &[
            ("pop_distance_miles", |r, _| {
                r.doh[1].pop_distance_miles = f64::NAN
            }),
            ("nearest_pop_distance_miles", |r, _| {
                r.doh[2].nearest_pop_distance_miles = f64::INFINITY
            }),
            ("nameserver_distance_miles", |r, _| {
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
            ("cold_ms", |r, _| r.transports[0].cold_ms = f64::NAN),
            ("warm_ms", |r, _| {
                r.transports[1].warm_ms = f64::NEG_INFINITY
            }),
            ("resumed_ms", |r, _| r.transports[2].resumed_ms = f64::NAN),
            ("handshake_ms", |r, _| {
                r.transports[3].handshake_ms = f64::NAN
            }),
        ],
    );
}

#[test]
fn non_finite_page_load_times_are_rejected_with_a_typed_error() {
    assert_poisons_rejected(
        &every_column_group(),
        &[
            ("plt_cold_ms", |r, _| r.pages[0].plt_cold_ms = f64::NAN),
            ("plt_warm_ms", |r, _| r.pages[0].plt_warm_ms = f64::INFINITY),
        ],
    );
}

#[test]
fn non_finite_window_latency_is_rejected_with_a_typed_error() {
    assert_poisons_rejected(
        &every_column_group(),
        &[("latency_ms", |r, _| r.windows[0].latency_ms = f64::NAN)],
    );
}

#[test]
fn out_of_range_country_index_is_rejected_with_a_typed_error() {
    // The analyses index per-country arrays by `country_index`, so a
    // stored index past the manifest's country table must fail the read,
    // not panic or size an array downstream.
    assert_poisons_rejected(
        &every_column_group(),
        &[("country_index", |r, countries| {
            r.country_index = countries + 1000
        })],
    );
}

#[test]
fn a_store_cut_at_a_chunk_boundary_is_rejected_by_every_reader() {
    // A store truncated right after a chunk scans cleanly — every chunk
    // left is whole and checksummed — so only the manifest totals can
    // tell a reader that records are missing.
    let dir = write_store(2021, 1, 7, "cut");
    let manifest = read_manifest(&dir).expect("manifest");
    let chunks_path = dir.join(RECORDS_FILE);
    let whole = fs::read(&chunks_path).expect("records.chunks");
    let first_payload = u32::from_le_bytes(whole[12..16].try_into().unwrap()) as usize;
    fs::write(&chunks_path, &whole[..CHUNK_HEADER_LEN + first_payload]).expect("truncate");
    let promised = format!(
        "manifest promises {} records, chunks hold 7",
        manifest.total_records
    );
    for (reader, outcome) in every_reader(&dir) {
        let msg = corrupt_message(&reader, outcome);
        assert!(msg.contains(&promised), "{reader}: {msg}");
    }

    // Whole records but a manifest promising one chunk more.
    fs::write(&chunks_path, &whole).expect("restore");
    let mut wrong = manifest.clone();
    wrong.total_chunks += 1;
    fs::write(dir.join(MANIFEST_FILE), wrong.encode()).expect("rewrite manifest");
    let promised = format!(
        "manifest promises {} chunks, records.chunks holds {}",
        wrong.total_chunks, manifest.total_chunks
    );
    for (reader, outcome) in every_reader(&dir) {
        let msg = corrupt_message(&reader, outcome);
        assert!(msg.contains(&promised), "{reader}: {msg}");
    }
    let _ = fs::remove_dir_all(&dir);
}

fn headline_bits(h: &HeadlineStats) -> [u64; 9] {
    [
        h.median_doh1_ms,
        h.median_do53_ms,
        h.median_dohr_ms,
        h.first_request_speedup_fraction,
        h.ten_request_speedup_fraction,
        h.median_doh10_slowdown_ms,
        h.median_country_doh1_ms,
        h.median_country_do53_ms,
        h.tripled_fraction,
    ]
    .map(f64::to_bits)
}

/// `headline_bits` of `headline_stats` on the `every_column_group`
/// dataset.
const PINNED_HEADLINE: [u64; 9] = [
    0x407c_a40a_326e_1155,
    0x406a_5066_4c2f_837c,
    0x4072_92a7_c17a_8934,
    0x3fb0_7878_7878_7878,
    0x3fc6_5a5a_5a5a_5a5a,
    0x4059_bf81_8068_7027,
    0x407c_853c_b684_8beb,
    0x406a_959b_2a27_f1b7,
    0x3fd1_3c3c_3c3c_3c3c,
];

#[test]
fn column_scan_is_bit_identical_to_observing_the_records() {
    // `headline_from_store_threads` folds projected columns and builds
    // no record; it must land on exactly the bits of `headline_stats`
    // over the records a full read returns, at every chunk shape and
    // thread count, and on the pinned bits.
    let ds = every_column_group();
    for budget in [1, 7, 0] {
        let dir = temp_store(&format!("columns-b{budget}"));
        write_dataset(&ds, &dir, budget).expect("write store");
        let read = read_dataset(&dir).expect("read store");
        let expected = headline_bits(&headline_stats(&read));
        assert_eq!(expected, PINNED_HEADLINE, "headline_stats moved its bits");
        for threads in [1, 2, 8] {
            let scanned = headline_from_store_threads(&dir, threads).expect("column headline");
            assert_eq!(
                headline_bits(&scanned),
                expected,
                "headline bits at chunk budget {budget}, {threads} threads"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
