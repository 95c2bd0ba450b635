//! The one checksum of the on-disk formats: XXH64 with seed 0, over the
//! superblock, extent-table and metadata pages, payload pages,
//! checkpoint slots and WAL records. Not cryptographic — the threat
//! model is bit rot and truncation, matching the typed errors of
//! [`crate::StoreError`].
//!
//! XXH64 hashes 32-byte stripes in four independent 64-bit lanes (one
//! multiply–rotate–multiply round per word), so a page costs about one
//! round per 8 bytes with the four lanes in flight together, where a
//! byte-serial hash pays one dependent multiply per byte.

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn merge_round(h: u64, lane: u64) -> u64 {
    (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

/// XXH64 (seed 0) of a byte slice.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let stripes = bytes.chunks_exact(32);
    let tail = stripes.remainder();
    let mut h = if bytes.len() >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in stripes {
            for (lane, w) in v.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = round(*lane, word(w));
            }
        }
        let h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.iter().fold(h, |h, &lane| merge_round(h, lane))
    } else {
        P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let words = tail.chunks_exact(8);
    let mut rest = words.remainder();
    for w in words {
        h = (h ^ round(0, word(w)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    if rest.len() >= 4 {
        let half = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
        h = (h ^ u64::from(half).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        rest = &rest[4..];
    }
    for &b in rest {
        h = (h ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // XXH64 seed-0 reference values.
        assert_eq!(checksum64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(checksum64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(checksum64(b"abc"), 0x44BC_2CF5_AD77_0999);
        // 39 bytes: one 32-byte stripe, then a 4-byte step and three
        // single bytes.
        assert_eq!(
            checksum64(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    /// Every single-bit flip of a `len`-byte pseudo-random payload
    /// changes the sum.
    fn every_bit_flip_changes_the_sum(len: usize) {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut page: Vec<u8> = (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let base = checksum64(&page);
        for bit in 0..len * 8 {
            page[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum64(&page), base, "flip of bit {bit} of {len}");
            page[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn every_bit_flip_of_a_payload_page_is_detected() {
        every_bit_flip_changes_the_sum(1024);
    }

    #[test]
    fn every_bit_flip_of_a_metadata_page_is_detected() {
        every_bit_flip_changes_the_sum(crate::format::META_PAGE_PAYLOAD);
    }

    #[test]
    fn a_zeroed_page_with_a_zeroed_trailer_fails_verification() {
        assert_ne!(checksum64(&[0u8; 1024]), 0);
        assert_ne!(checksum64(&[0u8; crate::format::META_PAGE_PAYLOAD]), 0);
    }
}
