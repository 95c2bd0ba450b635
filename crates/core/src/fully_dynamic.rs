//! The fully dynamic secondary index (Theorem 7, §4.3).
//!
//! "All the bitmaps stored at any particular materialized level … can be
//! thought of as representing a bitmap index over an alphabet containing
//! one character corresponding to each node in that level. Thus we can
//! obtain a fully dynamic secondary bitmap index by representing each of
//! the materialized levels as a buffered bitmap index."
//!
//! Structure: a *snapshot* of the weight-balanced tree shape (frozen
//! between epoch rebuilds) whose materialized cuts are each stored as a
//! [`BufferedBitmapIndex`] over that cut's node-alphabet. A
//! `change(i, α)` issues one delete and one insert per materialized cut
//! (`O(lg lg n)` buffered updates of amortized `O(lg n / b)` I/Os each —
//! Theorem 7's `O(lg n lg lg n / b)`); a range query decomposes over the
//! frozen tree and reads each canonical node's frontier as a *range* of
//! consecutive node-characters from the cut's buffered index.
//!
//! Deletions follow §4: "extend the alphabet with a new character ∞ that
//! is never matched by a range query"; a [`crate::DeletedPositionMap`]
//! can translate to compacted position semantics on top.
//!
//! Engineering choices documented in `DESIGN.md`: the tree shape is
//! frozen per epoch (the paper is silent on rebalancing under `change`,
//! which moves weight between characters); a global rebuild runs every
//! `n/4` changes, or immediately when a change introduces a character
//! that the snapshot has no node for.

use psi_api::{check_range, AppendIndex, DynamicIndex, HasDisk, RidSet, SecondaryIndex, Symbol};
use psi_bits::merge;
use psi_io::{Disk, IoConfig, IoSession, ReadError};

use crate::buffered_bitmap::{union_runs, BufferedBitmapIndex};
use crate::wbb::{NodeId, WbbTree};

/// One frozen materialized cut: its node-alphabet is backed by a buffered
/// bitmap index.
#[derive(Debug)]
struct CutIndex {
    /// Tree depth this cut materializes (diagnostics).
    #[allow(dead_code)]
    level: u32,
    bbi: BufferedBitmapIndex,
}

/// Routing entry: the first build-time position of a character piece
/// inside a cut node.
type RouteEntry = (u64, u32);

#[derive(Debug)]
struct Snapshot {
    tree: WbbTree,
    cuts: Vec<CutIndex>,
    /// `node_slot[v] = (cut, node-character within the cut)`.
    node_slot: Vec<Option<(u32, u32)>>,
    /// `route[cut][char]` — sorted `(first_pos, node-character)` pieces.
    route: Vec<Vec<Vec<RouteEntry>>>,
    /// `leaf_route[char]` — sorted `(first_pos, leaf depth)` pieces. A
    /// position is *present* in cut `i` iff its leaf is deeper than the
    /// previous cut's level (`leaf_depth > level[i-1]`); deeper cuts never
    /// see it, so updates must skip them.
    leaf_route: Vec<Vec<(u64, u32)>>,
    /// Cut levels (depths), ascending.
    levels: Vec<u32>,
    /// Build-time length (positions `≥ n0` are pending appends).
    n0: u64,
}

/// Theorem 7's fully dynamic index.
///
/// ```
/// use psi_core::FullyDynamicIndex;
/// use psi_api::{DynamicIndex, SecondaryIndex};
/// use psi_io::{Disk, IoConfig, IoSession};
///
/// let mut idx = FullyDynamicIndex::build(&[0, 1, 2, 1, 0], 3, IoConfig::default());
/// let io = IoSession::new();
/// idx.change(0, 2, &io); // string becomes 2 1 2 1 0
/// assert_eq!(idx.query(2, 2, &io).to_vec(), vec![0, 2]);
/// idx.delete(3, &io); // position 3 stops matching any range
/// assert_eq!(idx.query(1, 1, &io).to_vec(), vec![1]);
/// ```
#[derive(Debug)]
pub struct FullyDynamicIndex {
    config: IoConfig,
    sigma: Symbol,
    /// The current string, including `∞` markers (this mirrors the
    /// *indexed table*, not the index; it is not counted in space).
    string: Vec<Symbol>,
    /// Per-character counts over `[0, σ]` (the last entry counts `∞`),
    /// maintained under every update — the memory-resident analogue of
    /// the engine's array `A`, backing O(σ)-time cardinalities.
    counts: Vec<u64>,
    /// The `∞` character (= `sigma`): "never matched by a range query".
    inf: Symbol,
    snap: Option<Snapshot>,
    /// `tail[s]`: the offsets from the snapshot's `n0` of the rows
    /// appended since the snapshot that hold symbol `s < σ`, ascending.
    /// Queries answer those rows from here, never from `string`. Derived
    /// from `string` at open, so nothing of it is persisted. The rebuild
    /// policy keeps at most `max(n0, 4) / 4` rows pending, so offsets fit
    /// 32 bits.
    tail: Vec<Vec<u32>>,
    /// Symbols appended since the snapshot (folded in at rebuild).
    pending_appends: usize,
    changes_since_rebuild: u64,
    /// Epoch rebuild counter.
    pub global_rebuilds: u64,
    c: u32,
}

impl FullyDynamicIndex {
    /// Builds over `symbols ∈ [0, sigma)ⁿ`.
    pub fn build(symbols: &[Symbol], sigma: Symbol, config: IoConfig) -> Self {
        assert!(sigma > 0);
        let mut counts = vec![0u64; sigma as usize + 1];
        for &s in symbols {
            counts[s as usize] += 1;
        }
        let mut idx = FullyDynamicIndex {
            config,
            sigma,
            string: symbols.to_vec(),
            counts,
            inf: sigma,
            snap: None,
            tail: vec![Vec::new(); sigma as usize],
            pending_appends: 0,
            changes_since_rebuild: 0,
            global_rebuilds: 0,
            c: crate::engine::DEFAULT_C,
        };
        for (i, &s) in symbols.iter().enumerate() {
            assert!(
                s < sigma,
                "symbol {s} at {i} outside alphabet of size {sigma}"
            );
        }
        idx.rebuild();
        idx
    }

    /// Rebuilds the frozen snapshot from the current string.
    fn rebuild(&mut self) {
        self.global_rebuilds += 1;
        self.changes_since_rebuild = 0;
        self.pending_appends = 0;
        self.tail = vec![Vec::new(); self.sigma as usize];
        let n = self.string.len() as u64;
        if n == 0 {
            self.snap = None;
            return;
        }
        let sigma_all = self.inf + 1;
        let mut counts = vec![0u64; sigma_all as usize];
        let mut lists: Vec<Vec<u64>> = vec![Vec::new(); sigma_all as usize];
        for (i, &s) in self.string.iter().enumerate() {
            counts[s as usize] += 1;
            lists[s as usize].push(i as u64);
        }
        let tree = WbbTree::build(&counts, self.c);
        let h = tree.max_depth();
        // Materialized levels: {1,2,4,…} ∪ {h} (or {0} for one leaf).
        let mut levels = Vec::new();
        if h == 0 {
            levels.push(0);
        } else {
            let mut l = 1;
            while l < h {
                levels.push(l);
                l *= 2;
            }
            levels.push(h);
        }
        let mut prefix = Vec::with_capacity(lists.len() + 1);
        let mut acc = 0u64;
        for l in &lists {
            prefix.push(acc);
            acc += l.len() as u64;
        }
        prefix.push(acc);
        // Gather per-cut node lists (in multiset order) with their
        // position sets and per-character routing pieces.
        let mut node_slot = vec![None; tree.arena_len()];
        let mut per_cut_sets: Vec<Vec<Vec<u64>>> = vec![Vec::new(); levels.len()];
        let mut route: Vec<Vec<Vec<RouteEntry>>> =
            vec![vec![Vec::new(); sigma_all as usize]; levels.len()];
        let mut leaf_route: Vec<Vec<(u64, u32)>> = vec![Vec::new(); sigma_all as usize];
        collect_cut_nodes(
            &tree,
            tree.root(),
            0,
            &levels,
            &lists,
            &prefix,
            &mut node_slot,
            &mut per_cut_sets,
            &mut route,
            &mut leaf_route,
        );
        let cuts = levels
            .iter()
            .zip(per_cut_sets)
            .map(|(&level, sets)| CutIndex {
                level,
                bbi: BufferedBitmapIndex::build_from_lists(
                    if sets.is_empty() {
                        vec![Vec::new()]
                    } else {
                        sets
                    },
                    self.config,
                ),
            })
            .collect();
        self.snap = Some(Snapshot {
            tree,
            cuts,
            node_slot,
            route,
            leaf_route,
            levels,
            n0: n,
        });
    }

    /// The snapshot's length: rows at or past it are pending appends.
    fn n0(&self) -> u64 {
        self.snap.as_ref().map_or(0, |s| s.n0)
    }

    /// Looks up the cut node-character owning `(ch, pos)` in a cut.
    fn route_slot(snap: &Snapshot, cut: usize, ch: Symbol, pos: u64) -> Option<u32> {
        let pieces = &snap.route[cut][ch as usize];
        if pieces.is_empty() {
            return None;
        }
        let i = match pieces.partition_point(|&(fp, _)| fp <= pos) {
            0 => 0, // position precedes the first piece: it still belongs there
            i => i - 1,
        };
        Some(pieces[i].1)
    }

    /// Build-time leaf depth of the piece of `ch` that owns `pos` — the
    /// presence bound: the position exists in cut `i` iff
    /// `levels[i-1] < leaf_depth` (always in cut 0).
    fn leaf_depth(snap: &Snapshot, ch: Symbol, pos: u64) -> u32 {
        let pieces = &snap.leaf_route[ch as usize];
        debug_assert!(!pieces.is_empty(), "char {ch} has no leaves in snapshot");
        let i = match pieces.partition_point(|&(fp, _)| fp <= pos) {
            0 => 0,
            i => i - 1,
        };
        pieces[i].1
    }

    /// Whether positions of leaf depth `d` appear in cut `i`.
    fn present_in_cut(snap: &Snapshot, cut: usize, d: u32) -> bool {
        cut == 0 || snap.levels[cut - 1] < d
    }

    /// Changes position `pos` to `symbol` (Theorem 7's `change(x, i, a)`).
    /// `symbol` may be the `∞` character via [`Self::delete`].
    fn change_internal(&mut self, pos: u64, symbol: Symbol, io: &IoSession) {
        assert!(
            (pos as usize) < self.string.len(),
            "position {pos} out of range"
        );
        let old = self.string[pos as usize];
        if old == symbol {
            return;
        }
        self.counts[old as usize] -= 1;
        self.counts[symbol as usize] += 1;
        self.string[pos as usize] = symbol;
        // A pending append lives only in the in-memory tail: moving its
        // offset between the symbols' lists is the whole update, with no
        // snapshot write and no epoch charge. `∞` has no list.
        let n0 = self.n0();
        if pos >= n0 {
            let off = (pos - n0) as u32;
            if let Some(list) = self.tail.get_mut(old as usize) {
                let at = list.binary_search(&off).expect("tail lists its row");
                list.remove(at);
            }
            if let Some(list) = self.tail.get_mut(symbol as usize) {
                let at = list.binary_search(&off).expect_err("row listed twice");
                list.insert(at, off);
            }
            return;
        }
        self.changes_since_rebuild += 1;
        let snap = self
            .snap
            .as_ref()
            .expect("a row below n0 lies in the snapshot");
        if self.changes_since_rebuild * 4 > snap.n0
            || snap.route.iter().any(|r| r[symbol as usize].is_empty())
        {
            // Characters unknown to the snapshot are resolved by
            // re-snapshotting (amortized against the epoch).
            self.rebuild();
            return;
        }
        let snap = self.snap.as_mut().expect("snapshot exists");
        let d_old = Self::leaf_depth(snap, old, pos);
        let d_new = Self::leaf_depth(snap, symbol, pos);
        for cut in 0..snap.cuts.len() {
            if Self::present_in_cut(snap, cut, d_old) {
                let from = Self::route_slot(snap, cut, old, pos).expect("old char routed");
                snap.cuts[cut].bbi.remove(from, pos, io);
            }
            if Self::present_in_cut(snap, cut, d_new) {
                let to = Self::route_slot(snap, cut, symbol, pos).expect("new char routed");
                snap.cuts[cut].bbi.insert(to, pos, io);
            }
        }
    }

    /// Deletes position `pos` (changes it to `∞`, which no range matches).
    pub fn delete(&mut self, pos: u64, io: &IoSession) {
        let inf = self.inf;
        self.change_internal(pos, inf, io);
    }

    /// Canonical decomposition of the character range over the frozen
    /// tree, collecting per-cut consecutive node-character ranges.
    fn canonical_ranges(
        snap: &Snapshot,
        v: NodeId,
        lo: Symbol,
        hi: Symbol,
        out: &mut Vec<(u32, u32, u32)>,
    ) {
        let node = snap.tree.node(v);
        if node.char_lo > hi || node.char_hi < lo {
            return;
        }
        if node.char_lo >= lo && node.char_hi <= hi {
            Self::frontier_ranges(snap, v, out);
            return;
        }
        if node.is_leaf() {
            return; // leaf of a boundary char outside the range
        }
        for &child in &node.children {
            Self::canonical_ranges(snap, child, lo, hi, out);
        }
    }

    /// Collects `(cut, first-slot, last-slot)` ranges reconstructing `v`.
    fn frontier_ranges(snap: &Snapshot, v: NodeId, out: &mut Vec<(u32, u32, u32)>) {
        if let Some((cut, slot)) = snap.node_slot[v as usize] {
            match out.last_mut() {
                Some((c, _, last)) if *c == cut && *last + 1 == slot => *last = slot,
                _ => out.push((cut, slot, slot)),
            }
            return;
        }
        for &child in &snap.tree.node(v).children {
            Self::frontier_ranges(snap, child, out);
        }
    }

    /// Result cardinality from the maintained per-character counts —
    /// `O(hi − lo)` memory-resident reads, no string scan, no I/O.
    pub fn cardinality(&self, lo: Symbol, hi: Symbol) -> u64 {
        check_range(lo, hi, self.sigma);
        self.counts[lo as usize..=hi as usize].iter().sum()
    }
}

/// Recursive walk mirroring the engine's cut assignment, additionally
/// building the per-character routing tables.
#[allow(clippy::too_many_arguments)]
fn collect_cut_nodes(
    tree: &WbbTree,
    v: NodeId,
    start: u64,
    levels: &[u32],
    lists: &[Vec<u64>],
    prefix: &[u64],
    node_slot: &mut [Option<(u32, u32)>],
    per_cut_sets: &mut [Vec<Vec<u64>>],
    route: &mut [Vec<Vec<RouteEntry>>],
    leaf_route: &mut [Vec<(u64, u32)>],
) {
    let node = tree.node(v);
    let end = start + node.weight;
    let cut = if node.is_leaf() {
        Some(match levels.iter().position(|&l| l >= node.depth) {
            Some(i) => i as u32,
            None => (levels.len() - 1) as u32,
        })
    } else {
        levels
            .iter()
            .position(|&l| l == node.depth)
            .map(|i| i as u32)
    };
    if let Some(cut_idx) = cut {
        // Positions and routing pieces for the multiset range [start, end).
        let mut c = match prefix.binary_search(&start) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        while c + 1 < prefix.len() && prefix[c + 1] <= start {
            c += 1;
        }
        let slot = per_cut_sets[cut_idx as usize].len() as u32;
        let mut streams = Vec::new();
        while c < lists.len() && prefix[c] < end {
            let s = start.max(prefix[c]) - prefix[c];
            let e = end.min(prefix[c + 1]) - prefix[c];
            if s < e {
                route[cut_idx as usize][c].push((lists[c][s as usize], slot));
                streams.push(lists[c][s as usize..e as usize].iter().copied());
            }
            c += 1;
        }
        let positions: Vec<u64> = merge::merge_disjoint(streams).collect();
        per_cut_sets[cut_idx as usize].push(positions);
        node_slot[v as usize] = Some((cut_idx, slot));
    }
    if node.is_leaf() {
        let c = node.leaf_char() as usize;
        let s = start - prefix[c];
        leaf_route[c].push((lists[c][s as usize], node.depth));
    }
    let mut off = start;
    for &child in &tree.node(v).children {
        collect_cut_nodes(
            tree,
            child,
            off,
            levels,
            lists,
            prefix,
            node_slot,
            per_cut_sets,
            route,
            leaf_route,
        );
        off += tree.node(child).weight;
    }
}

impl SecondaryIndex for FullyDynamicIndex {
    fn len(&self) -> u64 {
        self.string.len() as u64
    }

    fn sigma(&self) -> Symbol {
        self.sigma
    }

    fn space_bits(&self) -> u64 {
        let snap_bits: u64 = self
            .snap
            .as_ref()
            .map(|s| {
                s.cuts.iter().map(|c| c.bbi.space_bits()).sum::<u64>()
                    + s.tree.live_nodes() as u64 * 128
            })
            .unwrap_or(0);
        snap_bits
    }

    fn try_query(&self, lo: Symbol, hi: Symbol, io: &IoSession) -> Result<RidSet, ReadError> {
        check_range(lo, hi, self.sigma);
        let mut runs = Vec::new();
        if let Some(snap) = &self.snap {
            let mut ranges = Vec::new();
            Self::canonical_ranges(snap, snap.tree.root(), lo, hi, &mut ranges);
            for (cut, first, last) in ranges {
                snap.cuts[cut as usize]
                    .bbi
                    .char_runs(first, last, io, &mut runs)?;
            }
        }
        // Rows appended since the snapshot are in no cut: the tail lists.
        let n0 = self.n0();
        for list in &self.tail[lo as usize..=hi as usize] {
            if !list.is_empty() {
                runs.push(list.iter().map(|&off| n0 + u64::from(off)).collect());
            }
        }
        Ok(RidSet::from_positions(union_runs(runs, self.len())))
    }

    fn cardinality_hint(&self, lo: Symbol, hi: Symbol) -> Option<u64> {
        // Exact, from the maintained per-character counts (no I/O).
        Some(self.cardinality(lo, hi))
    }
}

impl AppendIndex for FullyDynamicIndex {
    fn append(&mut self, symbol: Symbol, io: &IoSession) {
        assert!(symbol < self.sigma);
        let _ = io;
        self.tail[symbol as usize].push(self.pending_appends as u32);
        self.string.push(symbol);
        self.counts[symbol as usize] += 1;
        self.pending_appends += 1;
        // Appends are folded in by re-snapshotting once they accumulate to
        // a constant fraction (the paper's fully dynamic structure fixes
        // n; appends here are a convenience built on global rebuilding).
        if self.pending_appends as u64 * 4 > self.n0().max(4) {
            self.rebuild();
        }
    }
}

impl DynamicIndex for FullyDynamicIndex {
    fn change(&mut self, pos: u64, symbol: Symbol, io: &IoSession) {
        assert!(symbol < self.sigma, "use delete() for the ∞ character");
        self.change_internal(pos, symbol, io);
    }
}

impl psi_api::ApplyOp for FullyDynamicIndex {
    fn apply_op(&mut self, op: &psi_api::MutOp, io: &IoSession) -> Result<(), psi_api::ApplyError> {
        // Validate before mutating: replay must surface a typed error on a
        // log/checkpoint mismatch, never panic.
        match *op {
            psi_api::MutOp::Append { symbol } => {
                if symbol >= self.sigma {
                    return Err(psi_api::ApplyError {
                        what: format!("append symbol {symbol} outside alphabet {}", self.sigma),
                    });
                }
                self.append(symbol, io);
                Ok(())
            }
            psi_api::MutOp::Change { pos, symbol } => {
                if pos >= self.string.len() as u64 {
                    return Err(psi_api::ApplyError {
                        what: format!("change at {pos} beyond length {}", self.string.len()),
                    });
                }
                if symbol >= self.sigma {
                    return Err(psi_api::ApplyError {
                        what: format!("change symbol {symbol} outside alphabet {}", self.sigma),
                    });
                }
                self.change(pos, symbol, io);
                Ok(())
            }
            psi_api::MutOp::Delete { pos } => {
                if pos >= self.string.len() as u64 {
                    return Err(psi_api::ApplyError {
                        what: format!("delete at {pos} beyond length {}", self.string.len()),
                    });
                }
                self.delete(pos, io);
                Ok(())
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Persistence (psi-store)

impl psi_store::PersistIndex for FullyDynamicIndex {
    const TAG: &'static str = "fully_dynamic";

    fn write_meta(&self, out: &mut psi_store::MetaBuf) {
        out.put_u64(self.config.block_bits);
        out.put_u32(self.sigma);
        out.put_vec_u32(&self.string);
        out.put_vec_u64(&self.counts);
        out.put_u32(self.inf);
        out.put_len(self.pending_appends);
        out.put_u64(self.changes_since_rebuild);
        out.put_u64(self.global_rebuilds);
        out.put_u32(self.c);
        match &self.snap {
            None => out.put_bool(false),
            Some(snap) => {
                out.put_bool(true);
                snap.tree.persist_meta(out);
                out.put_vec_u32(&snap.levels);
                out.put_u64(snap.n0);
                out.put_len(snap.node_slot.len());
                for s in &snap.node_slot {
                    match s {
                        Some((cut, slot)) => {
                            out.put_bool(true);
                            out.put_u32(*cut);
                            out.put_u32(*slot);
                        }
                        None => out.put_bool(false),
                    }
                }
                out.put_len(snap.route.len());
                for per_char in &snap.route {
                    out.put_len(per_char.len());
                    for pieces in per_char {
                        out.put_len(pieces.len());
                        for &(pos, slot) in pieces {
                            out.put_u64(pos);
                            out.put_u32(slot);
                        }
                    }
                }
                out.put_len(snap.leaf_route.len());
                for pieces in &snap.leaf_route {
                    out.put_len(pieces.len());
                    for &(pos, depth) in pieces {
                        out.put_u64(pos);
                        out.put_u32(depth);
                    }
                }
                // Each cut's buffered bitmap index follows; its disk is
                // the corresponding volume (in cut order).
                out.put_len(snap.cuts.len());
                for cut in &snap.cuts {
                    out.put_u32(cut.level);
                    cut.bbi.persist_meta(out);
                }
            }
        }
    }

    fn disks(&self) -> Vec<&Disk> {
        match &self.snap {
            None => Vec::new(),
            Some(snap) => snap.cuts.iter().map(|c| c.bbi.disk()).collect(),
        }
    }

    fn from_parts(
        meta: &mut psi_store::MetaCursor,
        disks: Vec<Disk>,
    ) -> Result<Self, psi_store::StoreError> {
        let config = psi_io::IoConfig {
            block_bits: meta.get_u64()?,
        };
        let meta_err = |what: String| psi_store::StoreError::Meta { what };
        let sigma = meta.get_u32()?;
        let string = meta.get_vec_u32()?;
        let counts = meta.get_vec_u64()?;
        let inf = meta.get_u32()?;
        let pending_appends = meta.get_u64()?;
        if inf != sigma || counts.len() as u64 != u64::from(sigma) + 1 {
            return Err(meta_err(format!(
                "fully dynamic index over σ = {sigma} has ∞ = {inf} and {} counts",
                counts.len()
            )));
        }
        if let Some(at) = string.iter().position(|&s| s > inf) {
            return Err(meta_err(format!(
                "row {at} holds symbol {} above ∞ = {inf}",
                string[at]
            )));
        }
        let changes_since_rebuild = meta.get_u64()?;
        let global_rebuilds = meta.get_u64()?;
        let c = meta.get_u32()?;
        let snap = if meta.get_bool()? {
            let tree = WbbTree::restore_meta(meta)?;
            let levels = meta.get_vec_u32()?;
            let n0 = meta.get_u64()?;
            let slots = meta.get_len(1)?;
            let mut node_slot = Vec::with_capacity(slots);
            for _ in 0..slots {
                node_slot.push(if meta.get_bool()? {
                    Some((meta.get_u32()?, meta.get_u32()?))
                } else {
                    None
                });
            }
            let cuts_n = meta.get_len(8)?;
            let mut route = Vec::with_capacity(cuts_n);
            for _ in 0..cuts_n {
                let chars = meta.get_len(8)?;
                let mut per_char = Vec::with_capacity(chars);
                for _ in 0..chars {
                    let pieces = meta.get_len(12)?;
                    per_char.push(
                        (0..pieces)
                            .map(|_| Ok((meta.get_u64()?, meta.get_u32()?)))
                            .collect::<Result<Vec<RouteEntry>, psi_store::StoreError>>()?,
                    );
                }
                route.push(per_char);
            }
            let chars = meta.get_len(8)?;
            let mut leaf_route = Vec::with_capacity(chars);
            for _ in 0..chars {
                let pieces = meta.get_len(12)?;
                leaf_route.push(
                    (0..pieces)
                        .map(|_| Ok((meta.get_u64()?, meta.get_u32()?)))
                        .collect::<Result<Vec<(u64, u32)>, psi_store::StoreError>>()?,
                );
            }
            let num_cuts = meta.get_len(8)?;
            if num_cuts != disks.len() || num_cuts != route.len() {
                return Err(psi_store::StoreError::Meta {
                    what: format!(
                        "fully dynamic index expects one volume per cut ({} cuts, {} volumes)",
                        num_cuts,
                        disks.len()
                    ),
                });
            }
            for s in node_slot.iter().flatten() {
                if s.0 as usize >= num_cuts {
                    return Err(psi_store::StoreError::Meta {
                        what: format!("snapshot slot pointer cut {} out of range", s.0),
                    });
                }
            }
            if node_slot.len() < tree.arena_len() {
                return Err(psi_store::StoreError::Meta {
                    what: "snapshot node_slot shorter than the tree arena".into(),
                });
            }
            let mut cuts = Vec::with_capacity(num_cuts);
            for disk in disks {
                let level = meta.get_u32()?;
                cuts.push(CutIndex {
                    level,
                    bbi: BufferedBitmapIndex::restore_meta(meta, disk)?,
                });
            }
            Some(Snapshot {
                tree,
                cuts,
                node_slot,
                route,
                leaf_route,
                levels,
                n0,
            })
        } else {
            if !disks.is_empty() {
                return Err(psi_store::StoreError::Meta {
                    what: "fully dynamic index without snapshot expects no volumes".into(),
                });
            }
            None
        };
        // The rows past the snapshot are its pending appends.
        let n0 = snap.as_ref().map_or(0, |s| s.n0);
        let len = string.len() as u64;
        if n0 > len || pending_appends != len - n0 || u32::try_from(pending_appends).is_err() {
            return Err(meta_err(format!(
                "snapshot of {n0} rows with {pending_appends} pending appends \
                 over a string of {len}"
            )));
        }
        let mut tail = vec![Vec::new(); sigma as usize];
        for (off, &s) in string[n0 as usize..].iter().enumerate() {
            if s < sigma {
                tail[s as usize].push(off as u32);
            }
        }
        Ok(FullyDynamicIndex {
            config,
            sigma,
            string,
            counts,
            inf,
            snap,
            tail,
            pending_appends: pending_appends as usize,
            changes_since_rebuild,
            global_rebuilds,
            c,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_api::naive_query;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn cfg() -> IoConfig {
        IoConfig::with_block_bits(512)
    }

    fn check_all(idx: &FullyDynamicIndex, current: &[Symbol], sigma: Symbol) {
        for lo in 0..sigma {
            for hi in lo..sigma {
                let io = IoSession::new();
                // Positions holding ∞ (encoded as sigma in `current`) never
                // match because naive_query filters on [lo, hi] ⊆ [0, σ).
                assert_eq!(
                    idx.query(lo, hi, &io).to_vec(),
                    naive_query(current, lo, hi).to_vec(),
                    "range [{lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn changes_match_naive_model() {
        let sigma = 8u32;
        let mut current = psi_workloads::uniform(1200, sigma, 81);
        let mut idx = FullyDynamicIndex::build(&current, sigma, cfg());
        let io = IoSession::untracked();
        let mut rng = StdRng::seed_from_u64(83);
        for _ in 0..300 {
            let pos = rng.gen_range(0..current.len() as u64);
            let sym = rng.gen_range(0..sigma);
            idx.change(pos, sym, &io);
            current[pos as usize] = sym;
        }
        check_all(&idx, &current, sigma);
    }

    #[test]
    fn deletions_stop_matching() {
        let sigma = 6u32;
        let mut current = psi_workloads::uniform(800, sigma, 85);
        let mut idx = FullyDynamicIndex::build(&current, sigma, cfg());
        let io = IoSession::untracked();
        let mut rng = StdRng::seed_from_u64(87);
        for _ in 0..150 {
            let pos = rng.gen_range(0..current.len() as u64);
            idx.delete(pos, &io);
            current[pos as usize] = sigma; // ∞ marker in the naive model
        }
        check_all(&idx, &current, sigma);
        // Deleted positions can be resurrected by a later change.
        idx.change(0, 2, &io);
        current[0] = 2;
        check_all(&idx, &current, sigma);
    }

    #[test]
    fn epoch_rebuilds_trigger_and_preserve() {
        let sigma = 4u32;
        let mut current = psi_workloads::uniform(400, sigma, 89);
        let mut idx = FullyDynamicIndex::build(&current, sigma, cfg());
        let io = IoSession::untracked();
        let before = idx.global_rebuilds;
        let mut rng = StdRng::seed_from_u64(91);
        for _ in 0..400 {
            let pos = rng.gen_range(0..current.len() as u64);
            let sym = rng.gen_range(0..sigma);
            idx.change(pos, sym, &io);
            current[pos as usize] = sym;
        }
        assert!(
            idx.global_rebuilds > before,
            "epoch rebuild expected after n changes"
        );
        check_all(&idx, &current, sigma);
    }

    #[test]
    fn update_cost_is_buffered() {
        let sigma = 32u32;
        let n = 30_000usize;
        let current = psi_workloads::uniform(n, sigma, 93);
        let mut idx = FullyDynamicIndex::build(&current, sigma, IoConfig::default());
        let io = IoSession::new();
        let mut rng = StdRng::seed_from_u64(95);
        let updates = 2000;
        for _ in 0..updates {
            let pos = rng.gen_range(0..n as u64);
            let sym = rng.gen_range(0..sigma);
            idx.change(pos, sym, &io);
        }
        let per_change = io.stats().total() as f64 / f64::from(updates);
        // Theorem 7: amortized O(lg n lg lg n / b) << 1; allow generous
        // implementation constants (leaf rewrites dominate).
        assert!(
            per_change < 20.0,
            "amortized {per_change:.2} I/Os per change"
        );
    }

    #[test]
    fn appends_fold_in_via_rebuild() {
        let sigma = 5u32;
        let mut current = psi_workloads::uniform(200, sigma, 97);
        let mut idx = FullyDynamicIndex::build(&current, sigma, cfg());
        let io = IoSession::untracked();
        for &s in &psi_workloads::uniform(300, sigma, 99) {
            idx.append(s, &io);
            current.push(s);
        }
        check_all(&idx, &current, sigma);
    }

    #[test]
    fn edits_to_pending_appends_rewrite_the_tail_without_rebuilding() {
        let sigma = 6u32;
        let mut current = psi_workloads::uniform(800, sigma, 107);
        let mut idx = FullyDynamicIndex::build(&current, sigma, cfg());
        let io = IoSession::new();
        let mut rng = StdRng::seed_from_u64(109);
        let rebuilds = idx.global_rebuilds;
        // Fewer appends than the n/4 that folds them in.
        for &s in &psi_workloads::uniform(150, sigma, 111) {
            idx.append(s, &io);
            current.push(s);
        }
        assert_eq!(idx.global_rebuilds, rebuilds);
        let before = io.stats();
        // More edits than the n/4 epoch, all at pending positions.
        for k in 0..600 {
            let pos = rng.gen_range(800..current.len() as u64);
            if k % 5 == 0 {
                idx.delete(pos, &io);
                current[pos as usize] = sigma;
            } else {
                let s = rng.gen_range(0..sigma);
                idx.change(pos, s, &io);
                current[pos as usize] = s;
            }
        }
        assert_eq!(idx.global_rebuilds, rebuilds, "a tail edit rebuilt");
        assert_eq!(io.stats(), before, "a tail edit touched the disk");
        check_all(&idx, &current, sigma);
        for c in 0..=sigma {
            let want = current.iter().filter(|&&s| s == c).count() as u64;
            assert_eq!(idx.counts[c as usize], want, "count of {c}");
        }
    }

    #[test]
    fn counts_track_every_update_kind() {
        let sigma = 6u32;
        let mut current = psi_workloads::uniform(500, sigma, 101);
        let mut idx = FullyDynamicIndex::build(&current, sigma, cfg());
        let io = IoSession::untracked();
        let mut rng = StdRng::seed_from_u64(103);
        for step in 0..300 {
            match step % 3 {
                0 => {
                    let s = rng.gen_range(0..sigma);
                    idx.append(s, &io);
                    current.push(s);
                }
                1 => {
                    let pos = rng.gen_range(0..current.len() as u64);
                    let s = rng.gen_range(0..sigma);
                    idx.change(pos, s, &io);
                    current[pos as usize] = s;
                }
                _ => {
                    let pos = rng.gen_range(0..current.len() as u64);
                    idx.delete(pos, &io);
                    current[pos as usize] = sigma;
                }
            }
        }
        use psi_api::SecondaryIndex as _;
        for lo in 0..sigma {
            for hi in lo..sigma {
                let naive = current.iter().filter(|&&s| (lo..=hi).contains(&s)).count() as u64;
                assert_eq!(idx.cardinality(lo, hi), naive, "counts for [{lo}, {hi}]");
                assert_eq!(idx.cardinality_hint(lo, hi), Some(naive));
            }
        }
    }

    #[test]
    fn an_index_built_empty_answers_its_appends() {
        let sigma = 4u32;
        let mut idx = FullyDynamicIndex::build(&[], sigma, cfg());
        let io = IoSession::new();
        idx.append(2, &io);
        assert_eq!(idx.query(2, 2, &io).to_vec(), vec![0]);
        assert_eq!(idx.cardinality(2, 2), 1);
        // Edits of the row before any snapshot exists, then appends
        // through the first rebuild.
        let mut current = vec![2];
        for (s, name) in [(1, "change"), (sigma, "delete"), (3, "change back")] {
            if s == sigma {
                idx.delete(0, &io);
            } else {
                idx.change(0, s, &io);
            }
            current[0] = s;
            assert!(idx.snap.is_none(), "{name} built a snapshot");
            check_all(&idx, &current, sigma);
        }
        for s in [0, 1, 3, 3, 2] {
            idx.append(s, &io);
            current.push(s);
            check_all(&idx, &current, sigma);
        }
        assert!(idx.snap.is_some());
    }

    #[test]
    fn a_row_in_two_characters_leaves_is_answered_once() {
        let sigma = 8u32;
        let mut current = psi_workloads::uniform(1200, sigma, 113);
        let mut idx = FullyDynamicIndex::build(&current, sigma, cfg());
        let io = IoSession::untracked();
        let mut rng = StdRng::seed_from_u64(115);
        let mut states = 0;
        for _ in 0..300 {
            let pos = rng.gen_range(0..current.len() as u64);
            let sym = rng.gen_range(0..sigma);
            idx.change(pos, sym, &io);
            current[pos as usize] = sym;
            let snap = idx.snap.as_ref().expect("snapshot");
            if snap.cuts.iter().any(|c| c.bbi.has_row_in_two_leaves()) {
                states += 1;
                check_all(&idx, &current, sigma);
            }
        }
        assert!(states > 0, "no row reached two characters' leaves");
    }

    /// Every range of `idx` against the naive answer over `current`, and
    /// its charge against the per-code reference read of the same
    /// canonical node-character ranges of `reference` (a RAM build
    /// holding the same index).
    fn assert_reads_match_per_code(
        idx: &FullyDynamicIndex,
        reference: &FullyDynamicIndex,
        current: &[Symbol],
    ) {
        let snap = reference.snap.as_ref().expect("snapshot");
        for lo in 0..idx.sigma {
            for hi in lo..idx.sigma {
                let (lifted, per_code) = (IoSession::new(), IoSession::new());
                let got = idx.query(lo, hi, &lifted).to_vec();
                assert_eq!(got, naive_query(current, lo, hi).to_vec(), "[{lo}, {hi}]");
                let mut ranges = Vec::new();
                FullyDynamicIndex::canonical_ranges(snap, snap.tree.root(), lo, hi, &mut ranges);
                let mut runs = Vec::new();
                for (cut, first, last) in ranges {
                    snap.cuts[cut as usize]
                        .bbi
                        .char_runs_per_code(first, last, &per_code, &mut runs);
                }
                assert!(lifted.stats().reads > 0);
                assert_eq!(lifted.stats(), per_code.stats(), "[{lo}, {hi}] charge");
            }
        }
    }

    #[test]
    fn lifted_reads_charge_like_per_code_reads_in_ram_and_from_a_store() {
        let sigma = 8u32;
        let mut current = psi_workloads::zipf(3000, sigma, 1.0, 117);
        let mut idx = FullyDynamicIndex::build(&current, sigma, cfg());
        let io = IoSession::untracked();
        let mut rng = StdRng::seed_from_u64(119);
        for k in 0..600 {
            let pos = rng.gen_range(0..current.len() as u64);
            if k % 7 == 0 {
                idx.delete(pos, &io);
                current[pos as usize] = sigma;
            } else {
                let s = rng.gen_range(0..sigma);
                idx.change(pos, s, &io);
                current[pos as usize] = s;
            }
        }
        for &s in &psi_workloads::uniform(200, sigma, 121) {
            idx.append(s, &io);
            current.push(s);
        }
        assert!(idx.pending_appends > 0);
        assert_reads_match_per_code(&idx, &idx, &current);
        let dir = std::env::temp_dir().join(format!("psi_core_fd_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("fully_dynamic.psi");
        psi_store::save(&idx, &path).expect("save");
        let opened =
            psi_store::open::<FullyDynamicIndex>(&path, &psi_store::OpenOptions::default())
                .expect("open");
        assert_reads_match_per_code(&opened.index, &idx, &current);
        assert!(opened.real_fetches() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_metadata_is_a_typed_error() {
        fn make() -> FullyDynamicIndex {
            let mut idx = FullyDynamicIndex::build(&psi_workloads::uniform(500, 6, 123), 6, cfg());
            for s in [1, 4, 0] {
                idx.append(s, &IoSession::untracked());
            }
            idx
        }
        let dir = std::env::temp_dir().join(format!("psi_core_fd_meta_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("fully_dynamic.psi");
        let open = |idx: &FullyDynamicIndex| {
            psi_store::save(idx, &path).expect("save");
            psi_store::open::<FullyDynamicIndex>(&path, &psi_store::OpenOptions::default())
                .map(|o| o.index)
        };
        let good = open(&make()).expect("a sound store opens");
        assert_eq!(good.tail, make().tail, "the tail index is derived at open");
        type Corrupt = fn(&mut FullyDynamicIndex);
        let cases: [(&str, Corrupt); 5] = [
            ("snapshot longer than the string", |idx| {
                let len = idx.string.len() as u64;
                idx.snap.as_mut().expect("snapshot").n0 = len + 5;
            }),
            ("pending appends not the rows past the snapshot", |idx| {
                idx.pending_appends += 1;
            }),
            ("symbol above ∞", |idx| idx.string[0] = idx.inf + 1),
            ("counts not one per character and ∞", |idx| {
                idx.counts.push(0)
            }),
            ("∞ not σ", |idx| idx.inf += 1),
        ];
        for (what, corrupt) in cases {
            let mut idx = make();
            corrupt(&mut idx);
            assert!(
                matches!(open(&idx), Err(psi_store::StoreError::Meta { .. })),
                "{what} accepted"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_character_string() {
        let mut idx = FullyDynamicIndex::build(&[0], 2, cfg());
        let io = IoSession::new();
        idx.change(0, 1, &io);
        assert_eq!(idx.query(1, 1, &io).to_vec(), vec![0]);
        assert!(idx.query(0, 0, &io).is_empty());
    }
}
