//! The v2 checkpoint file: incremental updates, crash atomicity of the
//! slot flip, dead-byte compaction, and typed cross-version errors.

use psi_io::{Disk, ExtentId, IoConfig, IoSession};
use psi_store::format::META_PAGE;
use psi_store::{
    checkpoint_epoch, open_checkpoint, CheckpointFile, MetaBuf, MetaCursor, OpenOptions,
    PersistIndex, StoreError,
};

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("psi_store_checkpoint");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// Minimal single-volume family for exercising the checkpoint machinery
/// below the real index families.
struct Probe {
    disk: Disk,
    generation: u64,
}

impl PersistIndex for Probe {
    const TAG: &'static str = "ckpt_probe";

    fn write_meta(&self, out: &mut MetaBuf) {
        out.put_u64(self.generation);
    }

    fn disks(&self) -> Vec<&Disk> {
        vec![&self.disk]
    }

    fn from_parts(meta: &mut MetaCursor, disks: Vec<Disk>) -> Result<Self, StoreError> {
        let generation = meta.get_u64()?;
        let disk = psi_store::single_volume(disks, "probe")?;
        Ok(Probe { disk, generation })
    }
}

fn build_probe_sized(extents: usize, writes: usize) -> Probe {
    let mut disk = Disk::new(IoConfig::with_block_bits(256));
    let io = IoSession::untracked();
    for i in 0..extents {
        let ext = disk.alloc();
        let mut w = disk.writer(ext, &io);
        for j in 0..writes {
            w.write_bits((i as u64) << 32 | j as u64, 48);
        }
    }
    Probe {
        disk,
        generation: 0,
    }
}

fn build_probe(extents: usize) -> Probe {
    build_probe_sized(extents, 40)
}

/// Replaces extent `i`'s payload in place (`writer` appends, so the
/// extent is truncated first — otherwise every "rewrite" would grow it).
fn rewrite_extent(p: &mut Probe, i: usize, salt: u64) {
    let io = IoSession::untracked();
    let ext = ExtentId(i as u32);
    p.disk.truncate(ext, 0);
    let mut w = p.disk.writer(ext, &io);
    for j in 0..40 {
        w.write_bits((salt ^ ((i as u64) << 32 | j)) & 0xFFFF_FFFF_FFFF, 48);
    }
}

fn words_of(p: &Probe) -> Vec<Vec<u64>> {
    (0..p.disk.num_extents())
        .map(|i| p.disk.extent_words(ExtentId(i as u32)).to_vec())
        .collect()
}

fn reopen(path: &std::path::Path) -> (Probe, Vec<u8>) {
    let (opened, extra) =
        open_checkpoint::<Probe>(path, &OpenOptions::default()).expect("open checkpoint");
    let mut probe = opened.index;
    probe.disk.promote_all();
    (probe, extra)
}

#[test]
fn create_open_roundtrip_carries_extra() {
    let path = tmp("roundtrip.ck");
    let mut probe = build_probe(5);
    probe.generation = 41;
    let (cp, report) = CheckpointFile::create(&path, &probe, b"wal-seq=7", 1).expect("create");
    assert_eq!(report.epoch, 1);
    assert!(report.compacted);
    assert_eq!(cp.epoch(), 1);
    assert_eq!(checkpoint_epoch(&path).expect("epoch"), 1);
    let (reopened, extra) = reopen(&path);
    assert_eq!(extra, b"wal-seq=7");
    assert_eq!(reopened.generation, 41);
    assert_eq!(words_of(&reopened), words_of(&probe));
}

#[test]
fn incremental_update_writes_only_the_dirty_set() {
    let path = tmp("incremental.ck");
    // Payload-dominant extents, so the fixed page overhead of an update
    // (table + metadata + slot) does not drown the comparison.
    let mut probe = build_probe_sized(64, 2000);
    let (mut cp, full) = CheckpointFile::create(&path, &probe, &[], 1).expect("create");
    assert!(probe.disk.dirty_extents().is_empty(), "create clears dirty");

    // Touch 2 of 64 extents: the update must write far less than a full
    // save (2 extents + table + meta + slot vs the whole payload).
    rewrite_extent(&mut probe, 3, 0xA5A5);
    rewrite_extent(&mut probe, 40, 0x5A5A);
    assert_eq!(probe.disk.dirty_extents().len(), 2);
    let report = cp.update(&probe, b"seq=2").expect("update");
    assert_eq!(report.epoch, 2);
    assert_eq!(report.extents_flushed, 2);
    assert!(!report.compacted);
    assert!(
        report.bytes_written * 4 < full.bytes_written,
        "incremental wrote {} of a {}-byte full save",
        report.bytes_written,
        full.bytes_written
    );
    assert!(probe.disk.dirty_extents().is_empty(), "update clears dirty");

    let (reopened, extra) = reopen(&path);
    assert_eq!(extra, b"seq=2");
    assert_eq!(words_of(&reopened), words_of(&probe));
}

#[test]
fn torn_slot_flip_falls_back_to_previous_epoch() {
    let path = tmp("torn_slot.ck");
    let mut probe = build_probe(8);
    let (mut cp, _) = CheckpointFile::create(&path, &probe, b"e1", 1).expect("create");
    let before = words_of(&probe);
    rewrite_extent(&mut probe, 2, 0xDEAD);
    cp.update(&probe, b"e2").expect("update");
    drop(cp);

    // Epoch 2 committed into slot B (page 1). Corrupt that slot: the
    // reader must fall back to epoch 1 — the pre-update image — intact.
    let mut bytes = std::fs::read(&path).expect("read");
    bytes[META_PAGE + 100] ^= 0xFF;
    std::fs::write(&path, &bytes).expect("rewrite");
    assert_eq!(checkpoint_epoch(&path).expect("epoch"), 1);
    let (reopened, extra) = reopen(&path);
    assert_eq!(extra, b"e1");
    assert_eq!(words_of(&reopened), before);

    // Attach resumes from the surviving epoch and can commit again.
    let mut cp = CheckpointFile::attach(&path).expect("attach");
    assert_eq!(cp.epoch(), 1);
    probe.disk.mark_dirty(ExtentId(2));
    cp.update(&probe, b"e2-again").expect("re-update");
    let (reopened, extra) = reopen(&path);
    assert_eq!(extra, b"e2-again");
    assert_eq!(words_of(&reopened), words_of(&probe));
}

#[test]
fn both_slots_corrupt_is_typed() {
    let path = tmp("dead_slots.ck");
    let probe = build_probe(2);
    CheckpointFile::create(&path, &probe, &[], 1).expect("create");
    let mut bytes = std::fs::read(&path).expect("read");
    bytes[40] ^= 0x01; // slot A body (checksum now wrong)
    std::fs::write(&path, &bytes).expect("rewrite");
    // Slot B was never written (all zeroes), so nothing valid remains.
    assert!(matches!(
        checkpoint_epoch(&path),
        Err(StoreError::Corrupt { .. })
    ));
}

#[test]
fn repeated_updates_trigger_compaction_and_bound_file_size() {
    let path = tmp("compact.ck");
    let mut probe = build_probe(16);
    let (mut cp, create) = CheckpointFile::create(&path, &probe, &[], 1).expect("create");
    let compact_bytes = create.file_bytes;
    let mut compacted = 0;
    for round in 0..200u64 {
        rewrite_extent(
            &mut probe,
            (round % 16) as usize,
            round.wrapping_mul(0x9E37),
        );
        let report = cp.update(&probe, &round.to_le_bytes()).expect("update");
        if report.compacted {
            compacted += 1;
        }
        // Never-overwrite-live relocation grows the file, compaction
        // shrinks it back: the physical size stays within a small factor
        // of the compact size.
        assert!(
            cp.file_bytes() <= compact_bytes * 3,
            "file grew unbounded: {} vs compact {compact_bytes}",
            cp.file_bytes()
        );
    }
    assert!(compacted > 0, "200 relocating updates never compacted");
    assert!(cp.epoch() >= 200);
    let (reopened, _) = reopen(&path);
    assert_eq!(words_of(&reopened), words_of(&probe));
}

#[test]
fn volume_shape_change_falls_back_to_full_rewrite() {
    let path = tmp("reshape.ck");
    let probe = build_probe(4);
    let (mut cp, _) = CheckpointFile::create(&path, &probe, &[], 1).expect("create");
    // A rebuilt index arrives with a differently-configured disk: the
    // update must survive as a full rewrite, not an incremental commit.
    let mut disk = Disk::new(IoConfig::with_block_bits(512));
    let io = IoSession::untracked();
    for i in 0..9 {
        let ext = disk.alloc();
        let mut w = disk.writer(ext, &io);
        for j in 0..40 {
            w.write_bits((i as u64) << 32 | j, 48);
        }
    }
    let probe2 = Probe {
        disk,
        generation: 1,
    };
    let report = cp.update(&probe2, b"rebuilt").expect("update");
    assert!(report.compacted);
    let (reopened, extra) = reopen(&path);
    assert_eq!(extra, b"rebuilt");
    assert_eq!(words_of(&reopened), words_of(&probe2));
}

#[test]
fn version_mismatch_is_typed_both_ways() {
    // A plain save opened as a checkpoint reports its version, and a
    // checkpoint opened through the plain path reports the checkpoint
    // version.
    let v1 = tmp("v1.psi");
    let probe = build_probe(2);
    psi_store::save(&probe, &v1).expect("save v1");
    assert!(matches!(
        checkpoint_epoch(&v1),
        Err(StoreError::BadVersion {
            found: psi_store::VERSION
        })
    ));
    assert!(matches!(
        open_checkpoint::<Probe>(&v1, &OpenOptions::default()),
        Err(StoreError::BadVersion {
            found: psi_store::VERSION
        })
    ));

    let v2 = tmp("v2.ck");
    CheckpointFile::create(&v2, &probe, &[], 1).expect("create");
    assert!(matches!(
        psi_store::open::<Probe>(&v2, &OpenOptions::default()),
        Err(StoreError::BadVersion {
            found: psi_store::VERSION_CHECKPOINT
        })
    ));

    // Slots stamped with a retired checkpoint (6, 8, 10) or store (9)
    // version, checksums intact, are rejected by version too.
    let written = std::fs::read(&v2).expect("read");
    for version in [6u32, 8, 9, 10] {
        let mut bytes = written.clone();
        for slot in bytes.chunks_exact_mut(META_PAGE).take(2) {
            slot[8..12].copy_from_slice(&version.to_le_bytes());
            let sum = psi_store::checksum64(&slot[..META_PAGE - 8]);
            slot[META_PAGE - 8..].copy_from_slice(&sum.to_le_bytes());
        }
        std::fs::write(&v2, &bytes).expect("rewrite");
        assert!(matches!(
            checkpoint_epoch(&v2),
            Err(StoreError::BadVersion { found }) if found == version
        ));
        assert!(matches!(
            open_checkpoint::<Probe>(&v2, &OpenOptions::default()),
            Err(StoreError::BadVersion { found }) if found == version
        ));
    }
}

#[test]
fn oversized_region_in_a_slot_is_truncated_not_an_abort() {
    // A checksum-valid slot whose extent table or metadata region claims
    // more bytes than the file holds fails typed at open and at attach,
    // before anything is reserved for the region.
    let path = tmp("oversized.ck");
    CheckpointFile::create(&path, &build_probe(2), &[], 1).expect("create");
    let written = std::fs::read(&path).expect("read");
    // `table_len` and `meta_len` sit at bytes 24 and 40 of each slot.
    for field in [24usize, 40] {
        for len in [1u64 << 40, 1_000_000_000, u64::MAX] {
            let mut bytes = written.clone();
            for slot in bytes.chunks_exact_mut(META_PAGE).take(2) {
                slot[field..field + 8].copy_from_slice(&len.to_le_bytes());
                let sum = psi_store::checksum64(&slot[..META_PAGE - 8]);
                slot[META_PAGE - 8..].copy_from_slice(&sum.to_le_bytes());
            }
            std::fs::write(&path, &bytes).expect("rewrite");
            assert!(
                matches!(
                    open_checkpoint::<Probe>(&path, &OpenOptions::default()),
                    Err(StoreError::Truncated { .. })
                ),
                "length {len} at slot byte {field}"
            );
            if field == 24 {
                // `attach` reads the extent table, not the metadata.
                assert!(matches!(
                    CheckpointFile::attach(&path),
                    Err(StoreError::Truncated { .. })
                ));
            }
        }
    }
}

#[test]
fn wrong_family_is_typed_at_checkpoint_open() {
    struct Other;
    impl PersistIndex for Other {
        const TAG: &'static str = "other_family";
        fn write_meta(&self, _out: &mut MetaBuf) {}
        fn disks(&self) -> Vec<&Disk> {
            Vec::new()
        }
        fn from_parts(_meta: &mut MetaCursor, _disks: Vec<Disk>) -> Result<Self, StoreError> {
            Ok(Other)
        }
    }
    let path = tmp("family.ck");
    let probe = build_probe(2);
    CheckpointFile::create(&path, &probe, &[], 1).expect("create");
    assert!(matches!(
        open_checkpoint::<Other>(&path, &OpenOptions::default()),
        Err(StoreError::WrongFamily { .. })
    ));
}

#[test]
fn stale_tmp_sibling_is_swept_on_open_and_attach() {
    let path = tmp("sweep.ck");
    let probe = build_probe(2);
    CheckpointFile::create(&path, &probe, &[], 1).expect("create");
    let tmp_sibling = {
        let mut s = path.as_os_str().to_owned();
        s.push(".tmp");
        std::path::PathBuf::from(s)
    };
    // An interrupted compaction leaves a half-written temp sibling; both
    // open paths must remove it and still open the real file.
    std::fs::write(&tmp_sibling, b"half-written compaction junk").expect("plant tmp");
    reopen(&path);
    assert!(!tmp_sibling.exists(), "open_checkpoint swept the sibling");
    std::fs::write(&tmp_sibling, b"junk again").expect("plant tmp");
    CheckpointFile::attach(&path).expect("attach");
    assert!(!tmp_sibling.exists(), "attach swept the sibling");
}
