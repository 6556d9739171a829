//! The store manifest: dataset-level metadata alongside the chunks.
//!
//! Everything in the campaign's `Dataset` that is not a per-client
//! record lives here — the country table (defining `country_index`),
//! the RIPE Atlas remedy samples, the mismatch-discard count, the
//! observed-infrastructure totals, and the chunk-stream totals used to
//! cross-check `records.chunks` on open. Same framing as a chunk:
//! magic, version, length prefix, CRC-32.

use crate::checksum::crc32;
use crate::varint::{put_f64, put_u64, Cursor};
use crate::{Result, StoreError};

/// Manifest magic: `DPSM` ("DoH-Perf Store Manifest").
pub const MANIFEST_MAGIC: u32 = u32::from_le_bytes(*b"DPSM");

/// Defensive cap on manifest payloads (16 MiB).
const MAX_PAYLOAD_LEN: usize = 16 << 20;

/// Dataset-level metadata for one store directory.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Manifest {
    /// Country ISO codes, indexed by the records' `country_index`.
    pub countries: Vec<[u8; 2]>,
    /// Per-country Atlas Do53 samples (ms) for the remedy countries.
    pub atlas_do53_ms: Vec<(u32, Vec<f64>)>,
    /// Records discarded by the Maxmind mismatch filter.
    pub discarded_mismatches: u64,
    /// Unique ASes observed.
    pub observed_ases: u64,
    /// Unique recursive resolvers observed.
    pub observed_resolvers: u64,
    /// Total records in `records.chunks`.
    pub total_records: u64,
    /// Total chunks in `records.chunks`.
    pub total_chunks: u64,
    /// Total bytes of `records.chunks`.
    pub total_bytes: u64,
}

impl Manifest {
    /// Serialise to the framed binary form.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        put_u64(&mut payload, self.countries.len() as u64);
        for iso in &self.countries {
            payload.extend_from_slice(iso);
        }
        put_u64(&mut payload, self.atlas_do53_ms.len() as u64);
        for (country_index, samples) in &self.atlas_do53_ms {
            put_u64(&mut payload, u64::from(*country_index));
            put_u64(&mut payload, samples.len() as u64);
            for &s in samples {
                put_f64(&mut payload, s);
            }
        }
        put_u64(&mut payload, self.discarded_mismatches);
        put_u64(&mut payload, self.observed_ases);
        put_u64(&mut payload, self.observed_resolvers);
        put_u64(&mut payload, self.total_records);
        put_u64(&mut payload, self.total_chunks);
        put_u64(&mut payload, self.total_bytes);

        let mut out = Vec::with_capacity(16 + payload.len());
        out.extend_from_slice(&MANIFEST_MAGIC.to_le_bytes());
        out.extend_from_slice(&crate::FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Parse a manifest previously written by [`Manifest::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Manifest> {
        if bytes.len() < 16 {
            return Err(StoreError::Corrupt(format!(
                "manifest: {} bytes is shorter than the 16-byte header",
                bytes.len()
            )));
        }
        let magic = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
        if magic != MANIFEST_MAGIC {
            return Err(StoreError::Corrupt(format!(
                "manifest: bad magic {magic:#010x}, expected {MANIFEST_MAGIC:#010x} (\"DPSM\")"
            )));
        }
        let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
        if version > crate::FORMAT_VERSION {
            return Err(StoreError::Corrupt(format!(
                "manifest: format version {version} is newer than supported {}",
                crate::FORMAT_VERSION
            )));
        }
        let payload_len = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
        if payload_len > MAX_PAYLOAD_LEN || 16 + payload_len != bytes.len() {
            return Err(StoreError::Corrupt(format!(
                "manifest: payload length {payload_len} disagrees with file size {}",
                bytes.len()
            )));
        }
        let expected_crc = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
        let payload = &bytes[16..];
        let found_crc = crc32(payload);
        if found_crc != expected_crc {
            return Err(StoreError::Corrupt(format!(
                "manifest: checksum mismatch — header says {expected_crc:#010x}, \
                 payload hashes to {found_crc:#010x}"
            )));
        }

        // Every declared count is capped at what the rest of the payload
        // can hold (2 bytes per country, at least 2 per Atlas entry, 8 per
        // sample) before anything is reserved for it.
        let mut c = Cursor::new(payload, "manifest");
        let n_countries = c.len((c.remaining() / 2).min(1 << 16), "country table")?;
        let mut countries = Vec::with_capacity(n_countries);
        for _ in 0..n_countries {
            let b = c.take(2, "country ISO")?;
            if !b.iter().all(u8::is_ascii_uppercase) {
                return Err(StoreError::Corrupt(format!(
                    "manifest: country ISO bytes {b:?} are not two uppercase letters"
                )));
            }
            countries.push([b[0], b[1]]);
        }
        let n_atlas = c.len(n_countries.min(c.remaining() / 2), "atlas table")?;
        let mut atlas_do53_ms: Vec<(u32, Vec<f64>)> = Vec::with_capacity(n_atlas);
        for _ in 0..n_atlas {
            // A campaign writes at most one entry per country, in country
            // order, each with its configured number of samples, and every
            // sample is a measured latency.
            let idx = c.u64()?;
            let after_previous = atlas_do53_ms
                .last()
                .is_none_or(|&(prev, _)| idx > u64::from(prev));
            if idx >= n_countries as u64 || !after_previous {
                return Err(StoreError::Corrupt(format!(
                    "manifest: atlas country index {idx} is out of order or outside the \
                     {n_countries}-country table"
                )));
            }
            let n_samples = c.len(c.remaining() / 8, "atlas samples")?;
            if let Some((first_idx, first)) = atlas_do53_ms.first() {
                if n_samples != first.len() {
                    return Err(StoreError::Corrupt(format!(
                        "manifest: country index {idx} has {n_samples} atlas samples, \
                         country index {first_idx} has {}",
                        first.len()
                    )));
                }
            }
            let mut samples = Vec::with_capacity(n_samples);
            for _ in 0..n_samples {
                let ms = c.f64()?;
                if !(ms.is_finite() && ms >= 0.0) {
                    // `{:?}` keeps a subnormal to its shortest digits;
                    // `{}` would spell out over 300 of them.
                    return Err(StoreError::Corrupt(format!(
                        "manifest: atlas sample {ms:?} for country index {idx} is not a \
                         finite non-negative latency"
                    )));
                }
                samples.push(ms);
            }
            atlas_do53_ms.push((idx as u32, samples));
        }
        let manifest = Manifest {
            countries,
            atlas_do53_ms,
            discarded_mismatches: c.u64()?,
            observed_ases: c.u64()?,
            observed_resolvers: c.u64()?,
            total_records: c.u64()?,
            total_chunks: c.u64()?,
            total_bytes: c.u64()?,
        };
        c.expect_empty()?;
        Ok(manifest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            countries: vec![*b"BR", *b"US", *b"SN"],
            atlas_do53_ms: vec![(1, vec![10.5, 20.25, 30.0])],
            discarded_mismatches: 17,
            observed_ases: 2190,
            observed_resolvers: 1896,
            total_records: 22_052,
            total_chunks: 44,
            total_bytes: 1_234_567,
        }
    }

    #[test]
    fn round_trips() {
        let m = sample();
        let bytes = m.encode();
        assert_eq!(Manifest::decode(&bytes).unwrap(), m);
    }

    #[test]
    fn empty_manifest_round_trips() {
        let m = Manifest::default();
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn flipped_byte_is_caught() {
        let mut bytes = sample().encode();
        let mid = bytes.len() - 4;
        bytes[mid] ^= 0x40;
        let err = Manifest::decode(&bytes).unwrap_err().to_string();
        assert!(err.contains("checksum mismatch"), "{err}");
    }

    /// Frame `payload` as `encode` does, with a valid checksum.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = MANIFEST_MAGIC.to_le_bytes().to_vec();
        out.extend_from_slice(&crate::FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn declared_sample_count_is_capped_by_the_payload() {
        // One country, one Atlas entry declaring 2^24 samples, no samples:
        // 25 bytes with a valid checksum must not reserve 128 MiB.
        let mut payload = vec![1, b'U', b'S', 1, 0];
        crate::varint::put_u64(&mut payload, 1 << 24);
        let bytes = framed(&payload);
        assert_eq!(bytes.len(), 25);
        let err = Manifest::decode(&bytes).unwrap_err().to_string();
        assert!(
            err.contains("atlas samples length 16777216 exceeds cap 0"),
            "{err}"
        );
    }

    #[test]
    fn declared_country_count_is_capped_by_the_payload() {
        let mut payload = Vec::new();
        crate::varint::put_u64(&mut payload, 1 << 16);
        payload.extend_from_slice(b"US");
        let err = Manifest::decode(&framed(&payload)).unwrap_err().to_string();
        assert!(
            err.contains("country table length 65536 exceeds cap"),
            "{err}"
        );
    }

    #[test]
    fn a_subnormal_negative_sample_is_named_in_short() {
        let mut payload = vec![1, b'U', b'S', 1, 0, 1];
        payload.extend_from_slice(&(-1e-310f64).to_bits().to_le_bytes());
        let err = Manifest::decode(&framed(&payload)).unwrap_err().to_string();
        assert!(
            err.contains("atlas sample -1e-310 for country index 0"),
            "{err}"
        );
    }

    #[test]
    fn truncation_is_caught() {
        let mut bytes = sample().encode();
        bytes.truncate(bytes.len() - 1);
        let err = Manifest::decode(&bytes).unwrap_err().to_string();
        assert!(err.contains("disagrees with file size"), "{err}");
    }
}
