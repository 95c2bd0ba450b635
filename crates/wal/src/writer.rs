//! The log writer: buffered appends, group commit, and the
//! crash-injection hook the kill-at-every-offset harness drives.

use std::fs::File;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use psi_api::MutOp;

use crate::record::{encode_header, encode_record, WAL_HEADER_BYTES};
use crate::WalError;

/// Appends records to one log file with **group commit**: operations
/// accumulate in a memory buffer and hit the disk — one `write` plus one
/// `fdatasync` for the whole batch — only on [`commit`](WalWriter::commit).
/// An operation is *acknowledged* (guaranteed to survive a crash) only
/// once a commit covering it returns; recovery may legitimately recover
/// more than was acknowledged (the OS may have flushed uncommitted
/// writes), never less.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    epoch: u64,
    /// Sequence number the next appended record receives.
    next_seq: u64,
    /// Highest sequence number covered by a completed commit.
    acked_seq: u64,
    /// Encoded-but-unwritten records.
    buf: Vec<u8>,
    /// Records currently in `buf`.
    pending: usize,
    /// File bytes durably structured so far (header + committed records).
    bytes_written: u64,
    /// Completed group commits (each one `write` + one sync).
    commits: u64,
    /// Test hook: crash (abort the process) once this many total file
    /// bytes would be exceeded, writing exactly up to the limit first —
    /// how the harness plants a torn record at a chosen byte offset.
    crash_after: Option<u64>,
}

impl WalWriter {
    /// Creates a fresh log at `path` for checkpoint `epoch`, whose first
    /// record will carry `start_seq`. The header is written and synced
    /// immediately, so a crash right after checkpointing still finds a
    /// valid (empty) log.
    pub fn create(path: impl AsRef<Path>, epoch: u64, start_seq: u64) -> Result<Self, WalError> {
        let mut file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path.as_ref())?;
        file.write_all(&encode_header(epoch))?;
        file.sync_all()?;
        Ok(WalWriter {
            file,
            path: path.as_ref().to_path_buf(),
            epoch,
            next_seq: start_seq,
            acked_seq: start_seq.saturating_sub(1),
            buf: Vec::new(),
            pending: 0,
            bytes_written: WAL_HEADER_BYTES as u64,
            commits: 0,
            crash_after: None,
        })
    }

    /// Reopens an existing log after a recovery scan: appending resumes
    /// at `valid_bytes` (the scan's truncation point — trailing garbage
    /// is cut off now) with sequence number `next_seq`.
    pub fn resume(
        path: impl AsRef<Path>,
        epoch: u64,
        valid_bytes: u64,
        next_seq: u64,
    ) -> Result<Self, WalError> {
        let file = File::options().read(true).write(true).open(path.as_ref())?;
        file.set_len(valid_bytes)?;
        file.sync_all()?;
        Ok(WalWriter {
            file,
            path: path.as_ref().to_path_buf(),
            epoch,
            next_seq,
            acked_seq: next_seq.saturating_sub(1),
            buf: Vec::new(),
            pending: 0,
            bytes_written: valid_bytes,
            commits: 0,
            crash_after: None,
        })
    }

    /// Journals one operation into the commit buffer and returns its
    /// sequence number. Not durable until a [`commit`](Self::commit)
    /// covering it returns.
    pub fn append(&mut self, op: &MutOp) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        encode_record(seq, op, &mut self.buf);
        self.pending += 1;
        seq
    }

    /// Flushes the commit buffer — one positioned write, one
    /// `fdatasync` — and acknowledges every buffered operation.
    /// Returns the acknowledged sequence number. A no-op (no sync)
    /// when nothing is pending.
    pub fn commit(&mut self) -> Result<u64, WalError> {
        if self.pending > 0 {
            self.file.seek(SeekFrom::Start(self.bytes_written))?;
            if let Some(limit) = self.crash_after {
                if self.bytes_written + self.buf.len() as u64 > limit {
                    // Planted crash: emit exactly up to the limit — the
                    // torn suffix the harness wants on disk — then die
                    // without unwinding, like a power cut.
                    let keep = limit.saturating_sub(self.bytes_written) as usize;
                    let _ = self.file.write_all(&self.buf[..keep]);
                    let _ = self.file.sync_all();
                    std::process::abort();
                }
            }
            let sync_start = std::time::Instant::now();
            self.file.write_all(&self.buf)?;
            self.file.sync_data()?;
            let m = crate::metrics::wal_metrics();
            m.commits.inc();
            m.commit_batch.record(self.pending as u64);
            m.fsync_ns.record_since(sync_start);
            self.bytes_written += self.buf.len() as u64;
            self.buf.clear();
            self.pending = 0;
            self.commits += 1;
            self.acked_seq = self.next_seq - 1;
        }
        Ok(self.acked_seq)
    }

    /// Operations buffered but not yet committed.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Checkpoint epoch this log extends.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Sequence number the next append will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Highest acknowledged (committed) sequence number.
    pub fn acked_seq(&self) -> u64 {
        self.acked_seq
    }

    /// Committed log size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes_written
    }

    /// Group commits completed (each is one write + one sync — the
    /// group-commit win is `appends / commits` syncs saved).
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Arms the crash hook: the process aborts during the first commit
    /// that would push the file past `total_bytes`, leaving a torn
    /// record. Testing only.
    #[doc(hidden)]
    pub fn set_crash_after_bytes(&mut self, total_bytes: u64) {
        self.crash_after = Some(total_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::scan_wal;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("psi_wal_writer");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn append_commit_scan_roundtrip() {
        let path = tmp("roundtrip.wal");
        let mut w = WalWriter::create(&path, 3, 10).expect("create");
        assert_eq!(w.append(&MutOp::Append { symbol: 1 }), 10);
        assert_eq!(w.append(&MutOp::Delete { pos: 4 }), 11);
        assert_eq!(w.pending(), 2);
        assert_eq!(w.commit().expect("commit"), 11);
        assert_eq!(w.pending(), 0);
        assert_eq!(w.commits(), 1);
        let tail = scan_wal(&path, 10).expect("scan").expect("header");
        assert_eq!(tail.epoch, 3);
        assert_eq!(tail.ops.len(), 2);
        assert!(!tail.truncated);
    }

    #[test]
    fn uncommitted_appends_are_not_on_disk() {
        let path = tmp("unflushed.wal");
        let mut w = WalWriter::create(&path, 1, 1).expect("create");
        w.append(&MutOp::Append { symbol: 7 });
        // No commit: the file holds only the header.
        let tail = scan_wal(&path, 1).expect("scan").expect("header");
        assert!(tail.ops.is_empty());
        assert_eq!(w.acked_seq(), 0);
    }

    #[test]
    fn group_commit_batches_syncs() {
        let path = tmp("group.wal");
        let mut w = WalWriter::create(&path, 1, 1).expect("create");
        for i in 0..100 {
            w.append(&MutOp::Append { symbol: i });
        }
        w.commit().expect("commit");
        assert_eq!(w.commits(), 1, "100 appends, one sync");
        assert_eq!(w.acked_seq(), 100);
        // An empty commit is free.
        w.commit().expect("noop");
        assert_eq!(w.commits(), 1);
    }

    #[test]
    fn resume_truncates_garbage_and_continues() {
        let path = tmp("resume.wal");
        let mut w = WalWriter::create(&path, 2, 1).expect("create");
        w.append(&MutOp::Append { symbol: 1 });
        w.commit().expect("commit");
        let valid = w.bytes();
        drop(w);
        // Torn tail from a crashed commit.
        let mut f = File::options().append(true).open(&path).expect("open");
        f.write_all(&[0xCD; 13]).expect("garbage");
        drop(f);
        let mut w = WalWriter::resume(&path, 2, valid, 2).expect("resume");
        w.append(&MutOp::Delete { pos: 0 });
        w.commit().expect("commit");
        let tail = scan_wal(&path, 1).expect("scan").expect("header");
        assert_eq!(tail.ops.len(), 2);
        assert!(!tail.truncated, "resume cut the garbage");
    }
}
