//! # psi-store — the persistent storage subsystem
//!
//! Every index family in the `psi` workspace lays its payload out on a
//! simulated [`psi_io::Disk`] whose costs are *charged*, not performed.
//! This crate makes those structures durable and the charges real:
//!
//! * an **on-disk format** ([`format`]) — superblock, checksummed
//!   extent-table and metadata pages, and per-block checksummed payload
//!   pages, one per model block of every extent;
//! * two **real-read backends** — positioned file reads ([`Backend::File`])
//!   and a read-only mmap ([`Backend::Mmap`]) — slotted behind
//!   [`psi_io::BlockStore`], with the in-RAM disk as the third, default
//!   backend;
//! * the **pinning buffer pool** (`psi_io::BufferPool`) between
//!   [`psi_io::IoSession`] charging and the backend: on an opened store a
//!   charged block read drives a real fetch on miss and a free hit while
//!   pooled, so for a cold pool the real blocks fetched *equal* the
//!   simulated charge, and with a warm pool they are at most it;
//! * [`save`]/[`open`] round-trips for every [`PersistIndex`] family: an
//!   opened index answers `query`, `cardinality_hint` and conjunctive
//!   plans identically — bit-identical `RidSet`s, identical `IoStats` —
//!   to the index it was saved from;
//! * **incremental checkpoints** ([`checkpoint`]) — a dual-superblock
//!   format-v2 file that absorbs updates by appending only dirty extents
//!   and flipping an epoch-stamped slot, the durable-write-path half of
//!   psi-wal's checkpoint + log-replay recovery.
//!
//! Open-time validation returns typed [`StoreError`]s (bad magic, bad
//! version, checksum mismatch, truncation, wrong family) — never panics.

#![warn(missing_docs)]

pub mod checkpoint;
mod error;
pub mod format;
mod persist;
mod raw;
pub mod ser;
mod sum;
mod volume;

pub use checkpoint::{
    checkpoint_epoch, checkpoint_slot_epochs, open_checkpoint, CheckpointFile, CheckpointReport,
    VERSION_CHECKPOINT,
};
pub use error::StoreError;
pub use format::VERSION;
pub use persist::{
    check_bitmap, check_extent, open, open_with_wrap, save, single_volume, sweep_stale_tmp,
    Backend, OpenOptions, Opened, PersistIndex, SaveReport, StoreWrap,
};
pub use ser::{MetaBuf, MetaCursor};
pub use sum::fnv1a64;
