//! CRC-32 (ISO-HDLC, the zlib/pcap polynomial) over byte slices.
//!
//! The store checksums every chunk and the manifest so that a flipped
//! bit anywhere in a multi-gigabyte campaign output is caught at read
//! time with a precise error instead of silently skewing a quantile.
//!
//! [`crc32`] is a slicing-by-8 kernel: eight lookup tables let it fold
//! eight input bytes per step with eight independent table loads instead
//! of a serial chain of eight byte steps. Same polynomial, init and
//! final xor as the classic byte-at-a-time loop, so every checksum is
//! unchanged; that loop survives as the test-only `reference` module, the
//! oracle of the unit tests.

/// The bit-reversed ISO-HDLC polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing tables, built at compile time. `TABLES[0]` is the classic
/// byte table; `TABLES[k][b]` is the CRC register contribution of byte
/// `b` followed by `k` zero bytes, so one 8-byte step looks up each
/// byte in the table for its distance from the end of the step.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 of `bytes` (init `0xFFFF_FFFF`, final xor `0xFFFF_FFFF`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

/// The original byte-at-a-time CRC-32, kept as the oracle the sliced
/// kernel is tested against.
#[cfg(test)]
pub(crate) mod reference {
    use super::TABLES;

    /// CRC-32 of `bytes`, one table lookup per byte.
    pub(crate) fn crc32(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let mut data = b"the quick brown fox jumps over the lazy dog".to_vec();
        let clean = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                data[i] ^= 1 << bit;
                assert_ne!(crc32(&data), clean, "flip at byte {i} bit {bit}");
                data[i] ^= 1 << bit;
            }
        }
    }

    proptest! {
        /// The slicing-by-8 CRC equals the bytewise oracle on every length
        /// 0..=64 at every start offset 0..8 (every tail length and
        /// alignment the 8-byte kernel meets), and on whole buffers up to
        /// 64 KiB.
        #[test]
        fn sliced_crc_matches_the_bytewise_oracle(
            head in proptest::collection::vec(any::<u8>(), 72),
            buf in proptest::collection::vec(any::<u8>(), 0..65_536),
        ) {
            for offset in 0..8 {
                for len in 0..=64 {
                    let slice = &head[offset..offset + len];
                    let (sliced, bytewise) = (crc32(slice), reference::crc32(slice));
                    prop_assert!(sliced == bytewise, "offset {} len {}: {:#x} vs {:#x}", offset, len, sliced, bytewise);
                }
            }
            let (sliced, bytewise) = (crc32(&buf), reference::crc32(&buf));
            prop_assert!(sliced == bytewise, "{}-byte buffer: {:#x} vs {:#x}", buf.len(), sliced, bytewise);
        }
    }
}
