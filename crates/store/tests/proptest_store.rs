//! Property tests for the columnar chunk codec and the store manifest.
//!
//! Two invariants back `--from-store`'s byte-identity claim (DESIGN.md
//! §10): arbitrary record batches survive write → read bit-exactly at
//! any chunk budget, and a single flipped bit anywhere past the header
//! prefix is caught by the CRC with a descriptive error rather than
//! decoding into silently different records. The manifest, which every
//! `--from-store` run decodes first, round-trips and rejects a
//! structurally mutated payload even when the checksum is recomputed.

use dohperf_store::checksum::crc32;
use dohperf_store::chunk::{parse_header, CHUNK_HEADER_LEN};
use dohperf_store::varint::put_u64;
use dohperf_store::{
    decode_chunk_columns, encode_chunk, fold_chunks, ChunkColumns, ChunkWriter, Manifest,
    StoreDohSample, StoreError, StorePageSample, StoreRecord, StoreTransportSample,
    StoreWindowSample, FORMAT_VERSION, MANIFEST_MAGIC,
};
use proptest::prelude::*;

/// Splitmix-style step: decorrelates the fields drawn from one seed.
fn next(s: &mut u64) -> u64 {
    *s = s
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let z = (*s ^ (*s >> 31)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An f64 drawn from raw bits — exercises subnormals, infinities and
/// extreme exponents. NaN is remapped (NaN != NaN would break the
/// equality assertion, and campaigns never produce it).
fn arb_f64(s: &mut u64) -> f64 {
    let v = f64::from_bits(next(s));
    if v.is_nan() {
        (next(s) % 1_000_000_007) as f64 / 128.0
    } else {
        v
    }
}

fn arb_iso(s: &mut u64) -> [u8; 2] {
    // Mostly letters, occasionally the "??" maxmind-failure marker.
    if next(s).is_multiple_of(16) {
        *b"??"
    } else {
        [b'A' + (next(s) % 26) as u8, b'A' + (next(s) % 26) as u8]
    }
}

/// One fully arbitrary record from a 64-bit seed: variable-length doh
/// vectors (including empty), optional Do53, unordered client ids.
fn arb_record(s: &mut u64) -> StoreRecord {
    let doh = (0..(next(s) % 5) as usize)
        .map(|i| StoreDohSample {
            provider: (i as u8) % 4,
            t_doh_ms: arb_f64(s),
            t_dohr_ms: arb_f64(s),
            pop_index: next(s) as u32,
            pop_distance_miles: arb_f64(s),
            nearest_pop_distance_miles: arb_f64(s),
        })
        .collect();
    // Variable-length lifecycle vectors (mostly empty, matching legacy
    // campaigns) exercise both sides of the flag-gated transports group.
    let transports = (0..(next(s) % 3) as usize)
        .map(|i| StoreTransportSample {
            transport: (i as u8) % 4,
            provider: (next(s) % 4) as u8,
            cold_ms: arb_f64(s),
            warm_ms: arb_f64(s),
            resumed_ms: arb_f64(s),
            handshake_ms: arb_f64(s),
        })
        .collect();
    // Same idea for the flag-gated pageload group: mostly empty, with
    // occasional page samples carrying arbitrary DAG-shape integers.
    let pages = (0..(next(s) % 3) as usize)
        .map(|i| StorePageSample {
            transport: (i as u8) % 4,
            provider: (next(s) % 4) as u8,
            domains: (next(s) % 64) as u32,
            unique_names: (next(s) % 64) as u32,
            depth: (next(s) % 8) as u32,
            plt_cold_ms: arb_f64(s),
            plt_warm_ms: arb_f64(s),
            cold_cache_hits: (next(s) % 64) as u32,
            warm_cache_hits: (next(s) % 256) as u32,
        })
        .collect();
    // And for the flag-gated timeseries group: mostly empty, with
    // occasional windowed summaries carrying arbitrary counts.
    let windows = (0..(next(s) % 3) as usize)
        .map(|i| StoreWindowSample {
            window: (next(s) % 48) as u32,
            provider: (next(s) % 4) as u8,
            transport: (i as u8) % 4,
            queries: (next(s) % 64) as u32,
            successes: (next(s) % 64) as u32,
            latency_ms: arb_f64(s),
            cache_lookups: (next(s) % 256) as u32,
            cache_hits: (next(s) % 256) as u32,
        })
        .collect();
    StoreRecord {
        client_id: next(s),
        country_iso: arb_iso(s),
        country_index: next(s) as u32,
        prefix: next(s) as u32,
        maxmind_country: arb_iso(s),
        lat: arb_f64(s),
        lon: arb_f64(s),
        nameserver_distance_miles: arb_f64(s),
        doh,
        do53_ms: if next(s).is_multiple_of(3) {
            None
        } else {
            Some(arb_f64(s))
        },
        do53_source: (next(s) % 2) as u8,
        transports,
        pages,
        windows,
    }
}

fn batch(seeds: &[u64]) -> Vec<StoreRecord> {
    seeds
        .iter()
        .map(|&seed| {
            let mut s = seed | 1;
            arb_record(&mut s)
        })
        .collect()
}

/// Split an encoded single chunk into (record_count, flags, payload).
fn split_chunk(bytes: &[u8]) -> (u32, u16, Vec<u8>) {
    let header: &[u8; CHUNK_HEADER_LEN] = bytes[..CHUNK_HEADER_LEN].try_into().unwrap();
    let (count, _, _, flags) = parse_header(header, 0).expect("a valid header");
    (count, flags, bytes[CHUNK_HEADER_LEN..].to_vec())
}

/// A LEB128 varint at `pos`: (value, encoded length).
fn varint_at(bytes: &[u8], pos: usize) -> (u64, usize) {
    let (mut v, mut len) = (0u64, 0usize);
    loop {
        let b = bytes[pos + len];
        v |= u64::from(b & 0x7F) << (7 * len);
        len += 1;
        if b & 0x80 == 0 {
            return (v, len);
        }
    }
}

/// The structural varints of a valid payload, as (offset, encoded
/// length): every group's length prefix, and the per-record sample
/// counts that open the doh group and each flag-gated group.
fn structural_varints(payload: &[u8], records: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let (mut pos, mut group) = (0usize, 0usize);
    while pos < payload.len() {
        let (len, prefix) = varint_at(payload, pos);
        out.push((pos, prefix));
        let body = pos + prefix;
        // Group 2 is doh; groups 4.. are transports, pageload, timeseries.
        if group == 2 || group >= 4 {
            let mut at = body;
            for _ in 0..records {
                let (_, count_len) = varint_at(payload, at);
                out.push((at, count_len));
                at += count_len;
            }
        }
        pos = body + len as usize;
        group += 1;
    }
    out
}

/// A manifest shaped like a campaign's: letter ISO codes, Atlas entries
/// for an ascending subset of the countries, each with the same number of
/// non-negative latencies, and totals of every varint width.
fn arb_manifest(s: &mut u64) -> Manifest {
    let countries: Vec<[u8; 2]> = (0..next(s) % 240)
        .map(|_| [b'A' + (next(s) % 26) as u8, b'A' + (next(s) % 26) as u8])
        .collect();
    // Campaigns take 25 (quick) or 250 (default) samples per country; a
    // count of 128 or more is a two-byte varint.
    let samples_per_country = [0, 1, 2, 3, 7, 11, 25, 127, 128, 250][(next(s) % 10) as usize];
    let mut atlas_do53_ms = Vec::new();
    for idx in 0..countries.len() as u32 {
        if next(s).is_multiple_of(4) {
            let samples = (0..samples_per_country)
                .map(|_| (next(s) % 4_000_000_000) as f64 / 1e6)
                .collect();
            atlas_do53_ms.push((idx, samples));
        }
    }
    let mut total = || next(s) >> (next(s) % 64);
    Manifest {
        countries,
        atlas_do53_ms,
        discarded_mismatches: total(),
        observed_ases: total(),
        observed_resolvers: total(),
        total_records: total(),
        total_chunks: total(),
        total_bytes: total(),
    }
}

/// One field of a manifest payload, in encode order.
#[derive(Debug, Clone, Copy)]
enum Field {
    /// A table or sample count (varint).
    Count(u64),
    /// Any other varint: an Atlas country index or a total.
    Value(u64),
    /// One country ISO code.
    Iso([u8; 2]),
    /// One raw-bit f64 Atlas sample.
    Sample(f64),
    /// A byte past the end of the format.
    Trailing(u8),
}

fn manifest_fields(m: &Manifest) -> Vec<Field> {
    let mut fields = vec![Field::Count(m.countries.len() as u64)];
    fields.extend(m.countries.iter().map(|&iso| Field::Iso(iso)));
    fields.push(Field::Count(m.atlas_do53_ms.len() as u64));
    for (idx, samples) in &m.atlas_do53_ms {
        fields.push(Field::Value(u64::from(*idx)));
        fields.push(Field::Count(samples.len() as u64));
        fields.extend(samples.iter().map(|&x| Field::Sample(x)));
    }
    fields.extend(
        [
            m.discarded_mismatches,
            m.observed_ases,
            m.observed_resolvers,
            m.total_records,
            m.total_chunks,
            m.total_bytes,
        ]
        .map(Field::Value),
    );
    fields
}

/// Encode `fields` as a manifest payload framed with a valid checksum.
fn frame_manifest(fields: &[Field]) -> Vec<u8> {
    let mut payload = Vec::new();
    for field in fields {
        match *field {
            Field::Count(v) | Field::Value(v) => put_u64(&mut payload, v),
            Field::Iso(iso) => payload.extend_from_slice(&iso),
            Field::Sample(x) => payload.extend_from_slice(&x.to_bits().to_le_bytes()),
            Field::Trailing(b) => payload.push(b),
        }
    }
    let mut out = MANIFEST_MAGIC.to_le_bytes().to_vec();
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

proptest! {
    /// A valid manifest round-trips. Re-framed with a correct checksum
    /// after one structural mutation (a table or sample count moved by
    /// one or set to `u64::MAX`, one sample dropped or duplicated, or a
    /// byte appended), it is rejected with `StoreError::Corrupt`.
    #[test]
    fn mutated_manifest_is_corrupt(
        seed in any::<u64>(),
        kind in any::<u64>(),
        which in any::<u64>(),
        up in any::<bool>(),
        extra in any::<u8>(),
    ) {
        let mut s = seed | 1;
        let manifest = arb_manifest(&mut s);
        let mut fields = manifest_fields(&manifest);
        prop_assert_eq!(frame_manifest(&fields), manifest.encode());
        prop_assert_eq!(Manifest::decode(&manifest.encode()).unwrap(), manifest.clone());

        let counts: Vec<usize> = (0..fields.len())
            .filter(|&i| matches!(fields[i], Field::Count(_)))
            .collect();
        let samples: Vec<usize> = (0..fields.len())
            .filter(|&i| matches!(fields[i], Field::Sample(_)))
            .collect();
        // The sample mutations apply only when there is a sample.
        let kinds = if samples.is_empty() { 3 } else { 5 };
        let mutation = match kind % kinds {
            0 => {
                let at = counts[which as usize % counts.len()];
                let Field::Count(v) = fields[at] else { unreachable!() };
                let bumped = if up || v == 0 { v + 1 } else { v - 1 };
                fields[at] = Field::Count(bumped);
                format!("count at field {at} {v} -> {bumped}")
            }
            1 => {
                let at = counts[which as usize % counts.len()];
                fields[at] = Field::Count(u64::MAX);
                format!("count at field {at} -> u64::MAX")
            }
            2 => {
                fields.push(Field::Trailing(extra));
                format!("trailing byte {extra:#04x}")
            }
            3 => {
                let at = samples[which as usize % samples.len()];
                fields.remove(at);
                format!("sample at field {at} dropped")
            }
            _ => {
                let at = samples[which as usize % samples.len()];
                fields.insert(at, fields[at]);
                format!("sample at field {at} duplicated")
            }
        };
        let outcome = Manifest::decode(&frame_manifest(&fields));
        prop_assert!(
            matches!(outcome, Err(StoreError::Corrupt(_))),
            "{} decoded as {:?}", mutation, outcome
        );
    }

    /// The column decoder never panics on arbitrary payloads, whatever
    /// record count and flags the header claims.
    #[test]
    fn column_decoder_never_panics_on_arbitrary_payloads(
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        record_count in 0u32..64,
        flags in 0u16..8,
    ) {
        let mut columns = ChunkColumns::new();
        let _ = decode_chunk_columns(record_count, flags, &payload, 0, &mut columns);
    }

    /// Nor on a valid payload with a few bytes overwritten (past the
    /// CRC, which the decoder alone does not see).
    #[test]
    fn column_decoder_never_panics_on_damaged_payloads(
        seeds in proptest::collection::vec(any::<u64>(), 1..12),
        hits in proptest::collection::vec((any::<u64>(), any::<u8>()), 1..4),
    ) {
        let (count, flags, mut payload) = split_chunk(&encode_chunk(&batch(&seeds)));
        for (at, byte) in hits {
            let at = at as usize % payload.len();
            payload[at] = byte;
        }
        let mut columns = ChunkColumns::new();
        let _ = decode_chunk_columns(count, flags, &payload, 0, &mut columns);
    }

    /// A valid payload with one group length or one per-record sample
    /// count changed is always rejected with `StoreError::Corrupt`.
    #[test]
    fn mutated_group_length_or_count_is_corrupt(
        seeds in proptest::collection::vec(any::<u64>(), 1..12),
        which in any::<u64>(),
        delta in 1u64..1_000,
        down in any::<bool>(),
    ) {
        let (count, flags, payload) = split_chunk(&encode_chunk(&batch(&seeds)));
        let sites = structural_varints(&payload, count as usize);
        let (at, len) = sites[which as usize % sites.len()];
        let (value, _) = varint_at(&payload, at);
        let mutated_value = if down && value >= delta { value - delta } else { value + delta };
        let mut mutated = payload[..at].to_vec();
        put_u64(&mut mutated, mutated_value);
        mutated.extend_from_slice(&payload[at + len..]);

        let mut columns = ChunkColumns::new();
        let outcome = decode_chunk_columns(count, flags, &mutated, 0, &mut columns);
        prop_assert!(
            matches!(outcome, Err(StoreError::Corrupt(_))),
            "varint at {} changed {} -> {} decoded as {:?}", at, value, mutated_value, outcome
        );
    }

    /// A group with one byte appended or its last byte dropped, its
    /// length prefix adjusted so the framing still adds up, is rejected
    /// with `StoreError::Corrupt`: every group is decoded in full and
    /// must end exactly at its boundary.
    #[test]
    fn group_resized_by_one_byte_is_corrupt(
        seeds in proptest::collection::vec(any::<u64>(), 1..12),
        which in any::<u64>(),
        extra in any::<u8>(),
        grow in any::<bool>(),
    ) {
        let (count, flags, payload) = split_chunk(&encode_chunk(&batch(&seeds)));
        let mut groups = Vec::new(); // (prefix offset, prefix length, body length)
        let mut pos = 0usize;
        while pos < payload.len() {
            let (len, prefix) = varint_at(&payload, pos);
            groups.push((pos, prefix, len as usize));
            pos += prefix + len as usize;
        }
        let (at, prefix, len) = groups[which as usize % groups.len()];
        let body = &payload[at + prefix..at + prefix + len];
        let resized: Vec<u8> = if grow {
            body.iter().copied().chain([extra]).collect()
        } else {
            body[..len - 1].to_vec()
        };
        let mut mutated = payload[..at].to_vec();
        put_u64(&mut mutated, resized.len() as u64);
        mutated.extend_from_slice(&resized);
        mutated.extend_from_slice(&payload[at + prefix + len..]);

        let mut columns = ChunkColumns::new();
        let outcome = decode_chunk_columns(count, flags, &mutated, 0, &mut columns);
        prop_assert!(
            matches!(outcome, Err(StoreError::Corrupt(_))),
            "group at {} resized {} -> {} decoded as {:?}", at, len, resized.len(), outcome
        );
    }

    /// The column decoder fills the encoded records' values, and a
    /// reused scratch carries nothing over between chunks of different
    /// shapes.
    #[test]
    fn reused_column_scratch_matches_fresh_decodes(
        first in proptest::collection::vec(any::<u64>(), 1..24),
        second in proptest::collection::vec(any::<u64>(), 1..24),
    ) {
        let mut columns = ChunkColumns::new();
        for seeds in [&first, &second] {
            let records = batch(seeds);
            let (count, flags, payload) = split_chunk(&encode_chunk(&records));
            decode_chunk_columns(count, flags, &payload, 0, &mut columns).expect("valid chunk");
            prop_assert_eq!(columns.len(), records.len());
            prop_assert_eq!(columns.to_records(), records);
        }
    }

    /// write → read is the identity on arbitrary batches, for any chunk
    /// budget (so records cross chunk boundaries at every alignment).
    #[test]
    fn arbitrary_batches_round_trip(
        seeds in proptest::collection::vec(any::<u64>(), 0..48),
        budget in 1usize..9,
    ) {
        let records = batch(&seeds);
        let mut bytes = Vec::new();
        let mut writer = ChunkWriter::new(&mut bytes, budget);
        for r in &records {
            writer.push(r.clone()).expect("Vec sink cannot fail");
        }
        let stats = writer.finish().expect("finish on Vec sink");
        prop_assert_eq!(stats.records, records.len() as u64);
        prop_assert_eq!(stats.bytes, bytes.len() as u64);

        let mut decoded = Vec::new();
        let read = fold_chunks(&bytes[..], 1, |_, recs| Ok(recs), |recs| {
            decoded.extend(recs);
            Ok(())
        })
        .expect("round trip must decode");
        prop_assert_eq!(read.records, records.len() as u64);
        prop_assert_eq!(decoded, records);
    }

    /// Any single flipped bit from the CRC field onward is detected by
    /// the checksum, and the error says so.
    #[test]
    fn flipped_byte_is_caught_by_checksum(
        seeds in proptest::collection::vec(any::<u64>(), 1..16),
        position in any::<u64>(),
        bit in 0u32..8,
    ) {
        let records = batch(&seeds);
        let mut bytes = encode_chunk(&records);
        // Bytes 0..16 are magic/version/flags/count/len — validated
        // structurally, not by CRC. From offset 16 (the CRC field
        // itself, then the payload) every bit is checksum-protected.
        let pos = 16 + (position as usize) % (bytes.len() - 16);
        bytes[pos] ^= 1u8 << bit;

        let msg = match fold_chunks(&bytes[..], 1, |_, _| Ok(()), |_| Ok(())) {
            Err(e) => e.to_string(),
            Ok(_) => {
                return Err(proptest::test_runner::TestCaseError::fail(format!(
                    "flip at byte {pos} bit {bit} went undetected"
                )));
            }
        };
        prop_assert!(
            msg.contains("checksum mismatch"),
            "flip at byte {} bit {} gave a non-checksum error: {}", pos, bit, msg
        );
    }

    /// The parallel chunk fold visits the same chunks, in the same
    /// canonical order, with the same decoded records, at any thread
    /// count — so any fold-based analysis is identical to the serial one.
    #[test]
    fn parallel_fold_matches_serial_order(
        seeds in proptest::collection::vec(any::<u64>(), 1..48),
        budget in 1usize..9,
    ) {
        let records = batch(&seeds);
        let mut bytes = Vec::new();
        let mut w = ChunkWriter::new(&mut bytes, budget);
        for r in &records {
            w.push(r.clone()).expect("Vec sink cannot fail");
        }
        w.finish().expect("finish");

        let mut serial: Vec<(u64, Vec<StoreRecord>)> = Vec::new();
        fold_chunks(
            &bytes[..],
            1,
            |seq, recs| Ok((seq, recs)),
            |item| {
                serial.push(item);
                Ok(())
            },
        )
        .expect("serial fold");

        for threads in [2usize, 8] {
            let mut parallel: Vec<(u64, Vec<StoreRecord>)> = Vec::new();
            fold_chunks(
                &bytes[..],
                threads,
                |seq, recs| Ok((seq, recs)),
                |item| {
                    parallel.push(item);
                    Ok(())
                },
            )
            .expect("parallel fold");
            prop_assert_eq!(&serial, &parallel);
        }
    }

    /// A flipped bit is rejected by the parallel fold with the same
    /// error — naming the same chunk ordinal — as the serial fold,
    /// no matter which decoder thread hits it first.
    #[test]
    fn parallel_fold_reports_the_corrupt_chunk_ordinal(
        seeds in proptest::collection::vec(any::<u64>(), 4..24),
        budget in 1usize..4,
        position in any::<u64>(),
        bit in 0u32..8,
    ) {
        let records = batch(&seeds);
        let mut bytes = Vec::new();
        let mut w = ChunkWriter::new(&mut bytes, budget);
        for r in &records {
            w.push(r.clone()).expect("Vec sink cannot fail");
        }
        w.finish().expect("finish");

        // Walk the chunk headers to find each chunk's extent, then flip
        // one checksummed bit (offset >= 16 within the chunk) somewhere.
        let mut chunks: Vec<(usize, usize)> = Vec::new(); // (start, len)
        let mut at = 0usize;
        while at < bytes.len() {
            let header: &[u8; CHUNK_HEADER_LEN] =
                bytes[at..at + CHUNK_HEADER_LEN].try_into().unwrap();
            let payload_len =
                u32::from_le_bytes(header[12..16].try_into().unwrap()) as usize;
            chunks.push((at, CHUNK_HEADER_LEN + payload_len));
            at += CHUNK_HEADER_LEN + payload_len;
        }
        let target = (position as usize) % chunks.len();
        let (start, len) = chunks[target];
        let pos = start + 16 + (position as usize) % (len - 16);
        bytes[pos] ^= 1u8 << bit;

        let serial_err = fold_chunks(&bytes[..], 1, |_, _| Ok(()), |_| Ok(()))
            .expect_err("serial fold must reject the flip")
            .to_string();
        prop_assert!(
            serial_err.contains(&format!("chunk {target}")),
            "serial error names the wrong chunk: {} (expected chunk {})", serial_err, target
        );
        for threads in [2usize, 8] {
            let parallel_err = fold_chunks(&bytes[..], threads, |_, _| Ok(()), |_| Ok(()))
                .expect_err("parallel fold must reject the flip")
                .to_string();
            prop_assert_eq!(&serial_err, &parallel_err);
        }
    }
}
