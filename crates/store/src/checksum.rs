//! CRC-32 (ISO-HDLC, the zlib/pcap polynomial) over byte slices.
//!
//! The store checksums every chunk and the manifest so that a flipped
//! bit anywhere in a multi-gigabyte campaign output is caught at read
//! time with a precise error instead of silently skewing a quantile.
//!
//! [`crc32`] runs four CRC registers side by side. It cuts the input
//! into four equal lanes of whole 8-byte words and folds one word of
//! each lane per loop step with slicing-by-8 tables, so the four chains
//! of table loads overlap instead of waiting on one another. The lane
//! CRCs are then joined with the GF(2) shift that zlib's `crc32_combine`
//! uses, `crc(A‖B) = crc(A)·x^(8|B|) mod P ⊕ crc(B)`, with the shift
//! built from a compile-time table of `x^(8·2^k) mod P`. The tail of
//! fewer than 32 bytes, and any input too short to split, is folded one
//! byte at a time. Polynomial, init and final xor are those of the
//! classic byte-at-a-time loop, so every checksum is unchanged; that
//! loop survives as the test-only `reference` module, the oracle of the
//! unit tests.

/// The bit-reversed ISO-HDLC polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Lanes folded side by side by [`crc32`].
const LANES: usize = 4;

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
            crc = times_x(crc);
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

/// `X8_POW2[k]` is `x^(8·2^k) mod P`: the shift past `2^k` zero bytes.
/// Polynomials are bit-reversed like the register, so bit 31 is `x^0`.
const X8_POW2: [u32; 64] = build_shifts();

const fn build_shifts() -> [u32; 64] {
    let mut shifts = [0u32; 64];
    shifts[0] = 1 << (31 - 8);
    let mut k = 1;
    while k < 64 {
        shifts[k] = gf2_mul(shifts[k - 1], shifts[k - 1]);
        k += 1;
    }
    shifts
}

/// `p·x mod P` for a bit-reversed polynomial `p`.
const fn times_x(p: u32) -> u32 {
    if p & 1 != 0 {
        (p >> 1) ^ POLY
    } else {
        p >> 1
    }
}

/// `a·b mod P` over GF(2), both bit-reversed.
const fn gf2_mul(mut a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    while a != 0 {
        if a & (1 << 31) != 0 {
            product ^= b;
        }
        a <<= 1;
        b = times_x(b);
    }
    product
}

/// `x^(8·len) mod P`: the operator that moves a CRC past `len` bytes,
/// one multiply per set bit of `len`.
fn shift_op(len: usize) -> u32 {
    let mut op = 1 << 31;
    let mut rest = len;
    let mut k = 0;
    while rest != 0 {
        if rest & 1 != 0 {
            op = gf2_mul(op, X8_POW2[k]);
        }
        rest >>= 1;
        k += 1;
    }
    op
}

/// `crc(A‖B)` from `crc(A)`, `crc(B)` and `op = shift_op(|B|)`.
fn combine(crc_a: u32, crc_b: u32, op: u32) -> u32 {
    gf2_mul(op, crc_a) ^ crc_b
}

/// One byte into the register.
fn byte_step(reg: u32, b: u8) -> u32 {
    (reg >> 8) ^ TABLES[0][((reg ^ u32::from(b)) & 0xFF) as usize]
}

/// One 8-byte word into the register: eight independent table loads.
#[inline(always)]
fn word_step(reg: u32, word: &[u8; 8]) -> u32 {
    let v = u64::from_le_bytes(*word) ^ u64::from(reg);
    let t = &TABLES;
    t[7][(v & 0xFF) as usize]
        ^ t[6][((v >> 8) & 0xFF) as usize]
        ^ t[5][((v >> 16) & 0xFF) as usize]
        ^ t[4][((v >> 24) & 0xFF) as usize]
        ^ t[3][((v >> 32) & 0xFF) as usize]
        ^ t[2][((v >> 40) & 0xFF) as usize]
        ^ t[1][((v >> 48) & 0xFF) as usize]
        ^ t[0][(v >> 56) as usize]
}

/// CRC-32 of `bytes` (init `0xFFFF_FFFF`, final xor `0xFFFF_FFFF`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let lane_len = bytes.len() / (8 * LANES) * 8;
    let (lanes, tail) = bytes.split_at(LANES * lane_len);
    let mut crc = 0;
    if lane_len > 0 {
        let (words, _) = lanes.as_chunks::<8>();
        let (a, rest) = words.split_at(lane_len / 8);
        let (b, rest) = rest.split_at(lane_len / 8);
        let (c, d) = rest.split_at(lane_len / 8);
        let mut reg = [!0u32; LANES];
        for (((wa, wb), wc), wd) in a.iter().zip(b).zip(c).zip(d) {
            reg[0] = word_step(reg[0], wa);
            reg[1] = word_step(reg[1], wb);
            reg[2] = word_step(reg[2], wc);
            reg[3] = word_step(reg[3], wd);
        }
        let op = shift_op(lane_len);
        crc = !reg[0];
        for &r in &reg[1..] {
            crc = combine(crc, !r, op);
        }
    }
    !tail.iter().fold(!crc, |reg, &b| byte_step(reg, b))
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
        /// The four-lane CRC equals the bytewise oracle on every length
        /// 0..=160 at every start offset 0..8: zero to four words per
        /// lane, every tail length and every alignment.
        #[test]
        fn sliced_crc_matches_the_bytewise_oracle(
            head in proptest::collection::vec(any::<u8>(), 168),
        ) {
            for offset in 0..8 {
                for len in 0..=160 {
                    let slice = &head[offset..offset + len];
                    let (sliced, bytewise) = (crc32(slice), reference::crc32(slice));
                    prop_assert!(sliced == bytewise, "offset {} len {}: {:#x} vs {:#x}", offset, len, sliced, bytewise);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// ...and on whole buffers up to 1 MiB; one store chunk of the
        /// default budget is about 520 KB.
        #[test]
        fn sliced_crc_matches_the_bytewise_oracle_up_to_one_mib(
            buf in proptest::collection::vec(any::<u8>(), 0..=1 << 20),
        ) {
            let (sliced, bytewise) = (crc32(&buf), reference::crc32(&buf));
            prop_assert!(sliced == bytewise, "{}-byte buffer: {:#x} vs {:#x}", buf.len(), sliced, bytewise);
        }
    }

    proptest! {
        /// `combine` joins the oracle CRCs of any split `A‖B` into the
        /// oracle CRC of the whole, at a random cut and with an empty
        /// left or right half.
        #[test]
        fn combine_joins_the_crcs_of_two_halves(
            buf in proptest::collection::vec(any::<u8>(), 0..4096),
            cut in any::<usize>(),
        ) {
            let whole = reference::crc32(&buf);
            let random = cut % (buf.len() + 1);
            for at in [random, 0, buf.len()] {
                let (a, b) = buf.split_at(at);
                let joined = combine(reference::crc32(a), reference::crc32(b), shift_op(b.len()));
                prop_assert!(joined == whole, "{}-byte buffer cut at {}: {:#x} vs {:#x}", buf.len(), at, joined, whole);
            }
        }
    }
}
