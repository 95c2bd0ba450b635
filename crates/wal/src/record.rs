//! The WAL record format: framing, checksums, and the truncating scan.
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────────┐
//! │ header — 16 bytes: magic "PSIWAL02" + checkpoint epoch (u64 LE)  │
//! ├──────────────────────────────────────────────────────────────────┤
//! │ record — len (u32 LE) · body · XXH64 over (len ‖ body) (u64 LE)  │
//! │   body: sequence number (u64 LE) + operation                     │
//! │     kind 1 = append: symbol (u32 LE)                             │
//! │     kind 2 = change: position (u64 LE) + symbol (u32 LE)         │
//! │     kind 3 = delete: position (u64 LE)                           │
//! ├──────────────────────────────────────────────────────────────────┤
//! │ … records, densely packed, sequence numbers consecutive          │
//! └──────────────────────────────────────────────────────────────────┘
//! ```
//!
//! The scan's contract is the recovery truncation rule: parse records
//! while they are intact (length in range, checksum matches, sequence
//! number consecutive) and **stop at the first violation** — a torn
//! record is where the crash landed, not an error. Only a missing or
//! mangled *header* distinguishes "no log" from "empty log", and the
//! caller treats both as an empty tail.

use std::io::Read;
use std::path::Path;

use psi_api::MutOp;
use psi_store::checksum64;

/// WAL file magic: the first 8 bytes of every log file. (`PSIWAL02`
/// checksums records with XXH64; a `PSIWAL01` log reads as no log.)
pub const WAL_MAGIC: [u8; 8] = *b"PSIWAL02";
/// Fixed header length: magic plus the checkpoint epoch this log
/// extends.
pub const WAL_HEADER_BYTES: usize = 16;
/// Longest accepted record body. Real bodies are ≤ 21 bytes; anything
/// larger is garbage read from a torn length field.
pub const MAX_RECORD_BODY: u32 = 1 << 20;

/// Serializes the file header for a log extending checkpoint `epoch`.
pub fn encode_header(epoch: u64) -> [u8; WAL_HEADER_BYTES] {
    let mut h = [0u8; WAL_HEADER_BYTES];
    h[..8].copy_from_slice(&WAL_MAGIC);
    h[8..].copy_from_slice(&epoch.to_le_bytes());
    h
}

/// Parses a file header, returning the epoch, or `None` for anything
/// that is not an intact psi-wal header.
pub fn decode_header(bytes: &[u8]) -> Option<u64> {
    if bytes.len() < WAL_HEADER_BYTES || bytes[..8] != WAL_MAGIC {
        return None;
    }
    Some(u64::from_le_bytes(
        bytes[8..16].try_into().expect("8 bytes"),
    ))
}

/// Appends the operation encoding (kind byte + fields) to `out`.
pub fn encode_op(op: &MutOp, out: &mut Vec<u8>) {
    match *op {
        MutOp::Append { symbol } => {
            out.push(1);
            out.extend_from_slice(&symbol.to_le_bytes());
        }
        MutOp::Change { pos, symbol } => {
            out.push(2);
            out.extend_from_slice(&pos.to_le_bytes());
            out.extend_from_slice(&symbol.to_le_bytes());
        }
        MutOp::Delete { pos } => {
            out.push(3);
            out.extend_from_slice(&pos.to_le_bytes());
        }
    }
}

/// Parses an operation encoding; `None` unless `bytes` is exactly one
/// well-formed operation.
pub fn decode_op(bytes: &[u8]) -> Option<MutOp> {
    let (&kind, rest) = bytes.split_first()?;
    match kind {
        1 if rest.len() == 4 => Some(MutOp::Append {
            symbol: u32::from_le_bytes(rest.try_into().expect("4 bytes")),
        }),
        2 if rest.len() == 12 => Some(MutOp::Change {
            pos: u64::from_le_bytes(rest[..8].try_into().expect("8 bytes")),
            symbol: u32::from_le_bytes(rest[8..].try_into().expect("4 bytes")),
        }),
        3 if rest.len() == 8 => Some(MutOp::Delete {
            pos: u64::from_le_bytes(rest.try_into().expect("8 bytes")),
        }),
        _ => None,
    }
}

/// Serializes one complete record (framing + checksum) into `out`.
pub fn encode_record(seq: u64, op: &MutOp, out: &mut Vec<u8>) {
    let body_start = out.len() + 4;
    out.extend_from_slice(&[0u8; 4]); // length backpatched below
    out.extend_from_slice(&seq.to_le_bytes());
    encode_op(op, out);
    let body_len = (out.len() - body_start) as u32;
    out[body_start - 4..body_start].copy_from_slice(&body_len.to_le_bytes());
    let sum = checksum64(&out[body_start - 4..]);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// What a scan salvaged from one log file.
#[derive(Debug, Clone)]
pub struct WalTail {
    /// Checkpoint epoch recorded in the header.
    pub epoch: u64,
    /// Intact operations in sequence order, starting at the scan's
    /// `start_seq`.
    pub ops: Vec<(u64, MutOp)>,
    /// Bytes covered by the header plus all intact records — the
    /// truncation point when trailing garbage follows.
    pub valid_bytes: u64,
    /// Whether bytes past `valid_bytes` existed (a torn tail).
    pub truncated: bool,
}

/// Scans an in-memory log image. Returns `None` when the header itself
/// is not intact (the log carries nothing); otherwise every intact
/// record from `start_seq` on, stopping — never erroring — at the first
/// torn or corrupt one.
pub fn scan_bytes(bytes: &[u8], start_seq: u64) -> Option<WalTail> {
    let epoch = decode_header(bytes)?;
    let mut ops = Vec::new();
    let mut at = WAL_HEADER_BYTES;
    let mut expected = start_seq;
    while let Some(len_bytes) = bytes.get(at..at + 4) {
        let body_len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
        if body_len < 8 || body_len > MAX_RECORD_BODY as usize {
            break;
        }
        let Some(framed) = bytes.get(at..at + 4 + body_len) else {
            break;
        };
        let Some(sum_bytes) = bytes.get(at + 4 + body_len..at + 4 + body_len + 8) else {
            break;
        };
        let want = u64::from_le_bytes(sum_bytes.try_into().expect("8 bytes"));
        if checksum64(framed) != want {
            break;
        }
        let body = &framed[4..];
        let seq = u64::from_le_bytes(body[..8].try_into().expect("8 bytes"));
        let Some(op) = decode_op(&body[8..]) else {
            break;
        };
        if seq != expected {
            break;
        }
        ops.push((seq, op));
        expected += 1;
        at += 4 + body_len + 8;
    }
    Some(WalTail {
        epoch,
        ops,
        valid_bytes: at as u64,
        truncated: at < bytes.len(),
    })
}

/// Scans a log file on disk. `Ok(None)` when the file is missing or its
/// header is not intact — recovery treats both as an empty tail. Real
/// read failures surface as errors.
pub fn scan_wal(path: &Path, start_seq: u64) -> Result<Option<WalTail>, std::io::Error> {
    let mut bytes = Vec::new();
    match std::fs::File::open(path) {
        Ok(mut f) => f.read_to_end(&mut bytes)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    Ok(scan_bytes(&bytes, start_seq))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<MutOp> {
        vec![
            MutOp::Append { symbol: 3 },
            MutOp::Change { pos: 17, symbol: 0 },
            MutOp::Delete { pos: 9 },
            MutOp::Append { symbol: u32::MAX },
        ]
    }

    fn build_log(epoch: u64, start_seq: u64, ops: &[MutOp]) -> Vec<u8> {
        let mut bytes = encode_header(epoch).to_vec();
        for (i, op) in ops.iter().enumerate() {
            encode_record(start_seq + i as u64, op, &mut bytes);
        }
        bytes
    }

    #[test]
    fn roundtrip_all_op_kinds() {
        let ops = sample_ops();
        let bytes = build_log(7, 100, &ops);
        let tail = scan_bytes(&bytes, 100).expect("header");
        assert_eq!(tail.epoch, 7);
        assert!(!tail.truncated);
        assert_eq!(tail.valid_bytes, bytes.len() as u64);
        assert_eq!(tail.ops.len(), ops.len());
        for (i, (seq, op)) in tail.ops.iter().enumerate() {
            assert_eq!(*seq, 100 + i as u64);
            assert_eq!(op, &ops[i]);
        }
    }

    #[test]
    fn torn_tail_truncates_at_record_boundary() {
        let ops = sample_ops();
        let full = build_log(1, 1, &ops);
        // Byte lengths of every record-boundary prefix.
        let prefixes: Vec<usize> = (0..=ops.len())
            .map(|k| build_log(1, 1, &ops[..k]).len())
            .collect();
        // Cut the log at every byte: the scan keeps exactly the records
        // that fit completely before the cut, truncating the rest.
        for cut in WAL_HEADER_BYTES..full.len() {
            let keep = prefixes.iter().filter(|&&p| p <= cut).count() - 1;
            let tail = scan_bytes(&full[..cut], 1).expect("header");
            assert_eq!(tail.ops.len(), keep, "cut at {cut}");
            assert_eq!(tail.valid_bytes, prefixes[keep] as u64, "cut at {cut}");
            assert_eq!(tail.truncated, cut > prefixes[keep], "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_byte_truncates_from_that_record_on() {
        let ops = sample_ops();
        let clean = build_log(1, 1, &ops);
        let one = build_log(1, 1, &ops[..1]).len();
        let two = build_log(1, 1, &ops[..2]).len();
        // Flip a byte inside record 2: records 3-4 are unreachable (the
        // scan cannot trust any framing past the corruption).
        let mut bytes = clean;
        bytes[one + 6] ^= 0x80;
        let tail = scan_bytes(&bytes, 1).expect("header");
        assert_eq!(tail.ops.len(), 1);
        assert!(tail.valid_bytes <= two as u64);
        assert!(tail.truncated);
    }

    #[test]
    fn sequence_gap_truncates() {
        let mut bytes = encode_header(1).to_vec();
        encode_record(1, &MutOp::Append { symbol: 0 }, &mut bytes);
        encode_record(3, &MutOp::Append { symbol: 1 }, &mut bytes); // gap
        let tail = scan_bytes(&bytes, 1).expect("header");
        assert_eq!(tail.ops.len(), 1);
        assert!(tail.truncated);
    }

    #[test]
    fn wrong_start_seq_keeps_nothing() {
        let bytes = build_log(1, 5, &sample_ops());
        let tail = scan_bytes(&bytes, 9).expect("header");
        assert!(tail.ops.is_empty());
        assert_eq!(tail.valid_bytes, WAL_HEADER_BYTES as u64);
    }

    #[test]
    fn mangled_header_is_no_log() {
        let bytes = build_log(1, 1, &sample_ops());
        assert!(scan_bytes(&bytes[..10], 1).is_none());
        let mut bad = bytes.clone();
        bad[3] ^= 0x01;
        assert!(scan_bytes(&bad, 1).is_none());
        assert!(scan_bytes(&[], 1).is_none());
    }

    #[test]
    fn missing_file_scans_as_no_log() {
        let got = scan_wal(Path::new("/nonexistent/psi.wal"), 1).expect("not an error");
        assert!(got.is_none());
    }
}
