//! Robustness of the on-disk format: random superblock + extent-table
//! round-trips, and typed (never panicking) errors for corrupt or
//! truncated files.
//!
//! These tests exercise `psi-store` below the index families: they write
//! files from hand-built disks, then bit-flip and truncate them and
//! assert every open path reports a [`StoreError`] variant.

use proptest::prelude::*;
use psi_io::{Disk, IoConfig, IoSession};
use psi_store::format::{read_header, write_store, META_PAGE};
use psi_store::StoreError;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("psi_store_robustness");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// Builds a disk with the given extent bit-lengths (filled with a
/// deterministic pattern) and the given freed markers.
fn build_disk(block_bits: u64, extents: &[(u64, bool)]) -> Disk {
    let mut disk = Disk::new(IoConfig::with_block_bits(block_bits));
    let io = IoSession::untracked();
    for (i, &(bits, freed)) in extents.iter().enumerate() {
        let ext = disk.alloc();
        let mut w = disk.writer(ext, &io);
        let mut remaining = bits;
        let mut x = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1);
        while remaining > 0 {
            let k = remaining.min(64) as u32;
            x = x.rotate_left(7) ^ remaining;
            w.write_bits(if k == 64 { x } else { x & ((1 << k) - 1) }, k);
            remaining -= u64::from(k);
        }
        if freed {
            disk.free(ext);
        }
    }
    disk
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Superblock + extent table survive a write/read round-trip for
    // random extent layouts, block sizes and freed patterns.
    #[test]
    fn superblock_and_extent_table_roundtrip(
        shift in 0u32..4,
        raw_lens in proptest::collection::vec((0u64..5000, 0u64..2), 0..12),
        meta_len in 0usize..9000,
    ) {
        let block_bits = 128u64 << shift;
        let lens: Vec<(u64, bool)> = raw_lens.iter().map(|&(b, f)| (b, f == 1)).collect();
        let disk = build_disk(block_bits, &lens);
        let meta: Vec<u8> = (0..meta_len).map(|i| (i * 31 % 251) as u8).collect();
        let path = tmp("roundtrip.psi");
        let file_bytes = write_store(&path, "prop", &meta, &[&disk]).expect("write");
        prop_assert_eq!(std::fs::metadata(&path).expect("stat").len(), file_bytes);
        let (_file, header) = read_header(&path).expect("read");
        prop_assert_eq!(header.tag.as_str(), "prop");
        prop_assert_eq!(&header.meta, &meta);
        prop_assert_eq!(header.volumes.len(), 1);
        let vol = &header.volumes[0];
        prop_assert_eq!(vol.config.block_bits, block_bits);
        prop_assert_eq!(vol.extents.len(), lens.len());
        for (e, &(bits, freed)) in vol.extents.iter().zip(&lens) {
            // Freed extents keep their id but store nothing.
            let want_bits = if freed { 0 } else { bits };
            prop_assert_eq!(e.bit_len, want_bits);
            prop_assert_eq!(e.freed, freed);
            prop_assert_eq!(e.file_off == u64::MAX, want_bits == 0);
        }
    }

    // Flipping any single byte of the metadata prefix (superblock +
    // extent table + index metadata) yields a typed error, never a panic
    // or a silent success.
    #[test]
    fn any_metadata_corruption_is_detected(byte_seed in 0usize..4096, xor in 1u8..255) {
        let disk = build_disk(256, &[(700, false), (0, false), (130, true)]);
        let meta = vec![7u8; 600];
        let path = tmp("corrupt.psi");
        write_store(&path, "prop", &meta, &[&disk]).expect("write");
        let mut bytes = std::fs::read(&path).expect("read file");
        // Metadata prefix: superblock + 1 table page + 1 meta page.
        let prefix = 3 * META_PAGE;
        let at = byte_seed % prefix;
        bytes[at] ^= xor;
        std::fs::write(&path, &bytes).expect("rewrite");
        match read_header(&path) {
            Err(
                StoreError::BadMagic
                | StoreError::BadVersion { .. }
                | StoreError::Corrupt { .. }
                | StoreError::Truncated { .. }
                | StoreError::Meta { .. },
            ) => {}
            Err(other) => prop_assert!(false, "unexpected error {other}"),
            Ok(_) => prop_assert!(false, "corruption at byte {at} went undetected"),
        }
    }

    // Truncating the file anywhere yields a typed error at open.
    #[test]
    fn any_truncation_is_detected(permille in 0u64..1000) {
        let disk = build_disk(256, &[(5000, false), (300, false)]);
        let path = tmp("truncated.psi");
        let full = write_store(&path, "prop", &[1, 2, 3], &[&disk]).expect("write");
        let keep = full * permille / 1000;
        prop_assume!(keep < full);
        let bytes = std::fs::read(&path).expect("read file");
        std::fs::write(&path, &bytes[..keep as usize]).expect("rewrite");
        match read_header(&path) {
            Err(StoreError::Truncated { .. } | StoreError::Corrupt { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error {other}"),
            Ok(_) => prop_assert!(false, "truncation to {keep}/{full} went undetected"),
        }
    }
}

#[test]
fn bad_magic_is_typed() {
    let disk = build_disk(128, &[(100, false)]);
    let path = tmp("magic.psi");
    write_store(&path, "t", &[], &[&disk]).expect("write");
    let mut bytes = std::fs::read(&path).expect("read");
    bytes[0] = b'X';
    std::fs::write(&path, &bytes).expect("rewrite");
    assert!(matches!(read_header(&path), Err(StoreError::BadMagic)));
}

#[test]
fn bad_version_is_typed() {
    let disk = build_disk(128, &[(100, false)]);
    let path = tmp("version.psi");
    write_store(&path, "t", &[], &[&disk]).expect("write");
    let written = std::fs::read(&path).expect("read");
    // Retired store (5, 7) and checkpoint (6, 8) versions, and a junk one.
    for version in [5u32, 6, 7, 8, 0xFF] {
        let mut bytes = written.clone();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        // The checksum catches the flip first unless it is recomputed;
        // patch the checksum to prove the version check itself is typed.
        let payload = psi_store::fnv1a64(&bytes[..META_PAGE - 8]);
        bytes[META_PAGE - 8..META_PAGE].copy_from_slice(&payload.to_le_bytes());
        std::fs::write(&path, &bytes).expect("rewrite");
        assert!(matches!(
            read_header(&path),
            Err(StoreError::BadVersion { found }) if found == version
        ));
    }
}

#[test]
fn corrupt_payload_page_passes_open_but_fails_the_scrub() {
    // Payload pages are fetched (and verified) lazily, so open succeeds;
    // the full-file scrub pins the corruption to a typed error.
    let disk = build_disk(256, &[(4000, false)]);
    let path = tmp("payload.psi");
    let full = write_store(&path, "t", &[9; 40], &[&disk]).expect("write");
    let mut bytes = std::fs::read(&path).expect("read");
    let at = (full - 17) as usize; // inside the last payload page
    bytes[at] ^= 0x40;
    std::fs::write(&path, &bytes).expect("rewrite");
    assert!(read_header(&path).is_ok(), "open must not touch payload");
    assert!(matches!(
        psi_store::format::scrub(&path),
        Err(StoreError::Corrupt { .. })
    ));
}

#[test]
fn missing_file_is_io_error() {
    // A missing file is a permanent failure: retrying cannot create it.
    let err = read_header(std::path::Path::new("/nonexistent/psi.store")).unwrap_err();
    assert!(matches!(
        err,
        StoreError::Io {
            class: psi_io::ErrorClass::Permanent,
            ..
        }
    ));
    assert_eq!(err.class(), psi_io::ErrorClass::Permanent);
}

#[test]
fn wrong_family_is_typed_at_open() {
    // Saved as one tag, opened as another through the persist API.
    use psi_store::{open, OpenOptions};
    let disk = build_disk(128, &[(64, false)]);
    let path = tmp("family.psi");
    write_store(&path, "some_family", &[], &[&disk]).expect("write");
    struct Probe;
    impl psi_store::PersistIndex for Probe {
        const TAG: &'static str = "other_family";
        fn write_meta(&self, _out: &mut psi_store::MetaBuf) {}
        fn disks(&self) -> Vec<&Disk> {
            Vec::new()
        }
        fn from_parts(
            _meta: &mut psi_store::MetaCursor,
            _disks: Vec<Disk>,
        ) -> Result<Self, StoreError> {
            Ok(Probe)
        }
    }
    assert!(matches!(
        open::<Probe>(&path, &OpenOptions::default()),
        Err(StoreError::WrongFamily { .. })
    ));
}
