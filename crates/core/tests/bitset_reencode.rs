//! A stored bitset union re-encodes exactly when its result is gamma.
//!
//! The `kernel/reencode_bitset` counter is process-global, and psi-core's
//! unit tests re-encode in parallel threads of one binary, so this check,
//! which needs the counter to stay still, runs in a binary of its own. The
//! unit test `every_cover_plan_lifts_from_an_opened_store_like_ram` builds
//! the same string and pins that both covers below plan a bitset union.

use psi_api::{naive_query, SecondaryIndex};
use psi_bits::kernel;
use psi_core::OptimalIndex;
use psi_io::{IoConfig, IoSession};
use psi_store::{open, save, Backend, OpenOptions};

#[test]
fn opened_bitset_unions_reencode_exactly_when_they_return_gamma() {
    // Chars 0 and 1 alternate over the first two of the root's eight
    // children (one words leaf each); chars 2..10 fill the third densely.
    let mut symbols: Vec<u32> = (0..8192u32).map(|i| i % 2).collect();
    let shifted = |len, sigma, seed, base| {
        psi_workloads::uniform(len, sigma, seed)
            .into_iter()
            .map(move |s| s + base)
    };
    symbols.extend(shifted(8192, 8, 51, 2));
    symbols.extend(shifted(8192, 990, 53, 10));
    symbols.extend(std::iter::repeat_n(1000u32, 8192));
    let ram = OptimalIndex::build(&symbols, 1001, IoConfig::with_block_bits(1024));
    let dir = std::env::temp_dir().join(format!("psi_core_reencode_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("optimal.psi");
    save(&ram, &path).expect("save");
    let opts = OpenOptions {
        backend: Backend::File,
        pool_blocks: 1 << 16,
        retry: None,
        verify: true,
    };
    let m = kernel::metrics();
    // A pair of words leaves ORed and kept as words, and a dense union of
    // four characters' gamma slots finished as gamma.
    for ((lo, hi), words) in [((0, 1), true), ((3, 6), false)] {
        let opened = open::<OptimalIndex>(&path, &opts).expect("open");
        let before = m.reencode_bitset.get();
        let got = opened.index.query(lo, hi, &IoSession::new());
        let reencoded = m.reencode_bitset.get() - before;
        assert_eq!(got.to_vec(), naive_query(&symbols, lo, hi).to_vec());
        assert_eq!(got.stored().plain_words().is_some(), words, "[{lo},{hi}]");
        assert_eq!(reencoded, u64::from(!words), "[{lo},{hi}] re-encodes");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
