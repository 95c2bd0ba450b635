//! The Pagh–Rao index engine: pruned weight-balanced tree + materialized
//! cuts (paper §2.2), shared by the static ([`crate::OptimalIndex`]),
//! semi-dynamic ([`crate::SemiDynamicIndex`]) and approximate
//! ([`crate::ApproximateIndex`]) variants.
//!
//! # Materialized cuts
//!
//! §2.2 stores bitmaps at "the O(lg h) levels numbered 1, 2, 4, 8, …
//! (from the top), and also … all the leaves". Pruned leaves live at
//! arbitrary depths, so we define **cut ℓ** (for each materialized level
//! ℓ) as: internal nodes at depth ℓ plus pruned leaves at depths
//! `(ℓ_prev, ℓ]` — every node's bitmap is stored in *exactly one* cut,
//! concatenated in left-to-right (multiset) order. A canonical node `v` at
//! a non-materialized depth `d` is assembled from the next cut below,
//! where its frontier (leaves at depths `(d, m]` plus internal nodes at
//! depth `m`, all below `v`) forms a contiguous chunk, giving the paper's
//! "O(1) I/Os wasted per materialized level". `DESIGN.md` documents why
//! this resolves the paper's leaf-storage ambiguity without losing the
//! `O(nH₀)` space bound.
//!
//! # What is charged to the I/O session
//!
//! * tree descent: each visited node's directory record (blocked layout,
//!   `O(log_b n)` blocks per root-to-leaf path);
//! * every bitmap bit decoded (block-granular, via [`CutStream`]);
//! * every bitmap bit written by appends and rebuilds.
//!
//! The per-character prefix counts (the paper's array `A`, `O(σ lg n)`
//! bits) and the tree mirror are memory-resident, exactly as the paper
//! assumes (`M = B(σ lg n)^Ω(1)`); their size is accounted in
//! [`Engine::space_bits`].

use psi_api::{check_range, RidSet, Symbol};
use psi_bits::{merge, GapBitmap};
use psi_io::{cost, Disk, ExtentId, IoConfig, IoSession, ReadError};

use crate::cutstream::{CutStream, Slack};
use crate::remap::Remap;
use crate::wbb::{NodeId, WbbTree};

/// Branching parameter used throughout (the paper requires a constant
/// `c > 4`).
pub const DEFAULT_C: u32 = 8;

/// Counters exposed to the experiment harnesses.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Subtree rebuilds triggered by weight-balance or slot overflow.
    pub subtree_rebuilds: u64,
    /// Full rebuilds (root violation or fragmentation).
    pub global_rebuilds: u64,
}

/// The shared tree-plus-cuts engine.
#[derive(Debug)]
pub struct Engine {
    pub(crate) disk: Disk,
    pub(crate) tree: Option<WbbTree>,
    pub(crate) cuts: Vec<CutStream>,
    /// `NodeId -> (cut index, slot index)`, parallel to the tree arena.
    node_slot: Vec<Option<(u32, u32)>>,
    /// `NodeId -> (bit offset, bit length)` of the directory record.
    node_rec: Vec<(u64, u64)>,
    tree_ext: ExtentId,
    remap: Remap,
    /// Fenwick tree of internal-character counts (the paper's array `A`).
    counts: Fenwick,
    n: u64,
    sigma: Symbol,
    c: u32,
    slack: Slack,
    /// Performance counters.
    pub stats: EngineStats,
}

impl Engine {
    /// Builds the engine over `symbols ∈ [0, sigma)ⁿ`. Build I/O is not
    /// charged (static construction); pass `slack` = [`Slack::None`] for
    /// the static index and [`Slack::Proportional`] for dynamic variants.
    pub fn build(
        symbols: &[Symbol],
        sigma: Symbol,
        config: IoConfig,
        c: u32,
        slack: Slack,
    ) -> Self {
        let io = IoSession::untracked();
        Self::build_charged(symbols, sigma, config, c, slack, &io)
    }

    /// Builds, charging writes to `io` (used by global rebuilds).
    fn build_charged(
        symbols: &[Symbol],
        sigma: Symbol,
        config: IoConfig,
        c: u32,
        slack: Slack,
        io: &IoSession,
    ) -> Self {
        assert!(sigma > 0, "alphabet must be non-empty");
        let mut syms = symbols.to_vec();
        let remap = Remap::build(&mut syms, sigma);
        let sigma_int = remap.sigma_internal();
        let mut disk = Disk::new(config);
        let tree_ext = disk.alloc();
        let n = syms.len() as u64;
        let mut counts_vec = vec![0u64; sigma_int as usize];
        let mut lists: Vec<Vec<u64>> = vec![Vec::new(); sigma_int as usize];
        for (i, &s) in syms.iter().enumerate() {
            counts_vec[s as usize] += 1;
            lists[s as usize].push(i as u64);
        }
        let mut engine = Engine {
            disk,
            tree: None,
            cuts: Vec::new(),
            node_slot: Vec::new(),
            node_rec: Vec::new(),
            tree_ext,
            remap,
            counts: Fenwick::from_counts(&counts_vec),
            n,
            sigma,
            c,
            slack,
            stats: EngineStats::default(),
        };
        if n > 0 {
            let tree = WbbTree::build(&counts_vec, c);
            engine.tree = Some(tree);
            engine.build_storage(&lists, io);
        }
        engine
    }

    /// Materialized cut levels for a tree of max depth `h`: `{1,2,4,…} ∪
    /// {h}` (just `{0}` for a single-leaf tree).
    fn mat_levels(h: u32) -> Vec<u32> {
        if h == 0 {
            return vec![0];
        }
        let mut levels = Vec::new();
        let mut l = 1u32;
        while l < h {
            levels.push(l);
            l *= 2;
        }
        levels.push(h);
        levels
    }

    /// Index of the cut holding leaves at `depth` (smallest cut level
    /// `≥ depth`, clamped to the last cut).
    fn leaf_cut_idx(&self, depth: u32) -> u32 {
        match self.cuts.iter().position(|c| c.level >= depth) {
            Some(i) => i as u32,
            None => (self.cuts.len() - 1) as u32,
        }
    }

    /// (Re)creates all cuts, slots and directory records from per-internal-
    /// character position lists.
    fn build_storage(&mut self, lists: &[Vec<u64>], io: &IoSession) {
        let tree = self.tree.as_ref().expect("tree").clone();
        let h = tree.max_depth();
        for cut in &mut self.cuts {
            cut.clear(&mut self.disk);
        }
        self.cuts = Self::mat_levels(h)
            .into_iter()
            .map(|level| CutStream::new(&mut self.disk, level, self.slack))
            .collect();
        self.node_slot = vec![None; tree.arena_len()];
        // Prefix offsets over internal characters.
        let mut prefix = Vec::with_capacity(lists.len() + 1);
        let mut acc = 0u64;
        for l in lists {
            prefix.push(acc);
            acc += l.len() as u64;
        }
        prefix.push(acc);
        self.assign_subtree_slots(&tree, tree.root(), 0, lists, &prefix, io);
        self.write_all_records(&tree, io);
        self.tree = Some(tree);
    }

    /// Walks the subtree at `v` (whose multiset range starts at `start`),
    /// writing bitmaps for every node that owns a cut slot. `lists` and
    /// `prefix` describe the *global* multiset.
    fn assign_subtree_slots(
        &mut self,
        tree: &WbbTree,
        v: NodeId,
        start: u64,
        lists: &[Vec<u64>],
        prefix: &[u64],
        io: &IoSession,
    ) {
        if self.node_slot.len() < tree.arena_len() {
            self.node_slot.resize(tree.arena_len(), None);
        }
        let node = tree.node(v);
        let end = start + node.weight;
        let cut = {
            // Inline cut_for against the passed tree (self.tree may be
            // stale during rebuilds).
            if node.is_leaf() {
                Some(self.leaf_cut_idx(node.depth))
            } else {
                self.cuts
                    .iter()
                    .position(|c| c.level == node.depth)
                    .map(|i| i as u32)
            }
        };
        if let Some(cut_idx) = cut {
            let positions = positions_for_range(lists, prefix, start, end);
            let slot = self.cuts[cut_idx as usize].push_bitmap(&mut self.disk, positions, io);
            self.node_slot[v as usize] = Some((cut_idx, slot as u32));
        }
        let mut off = start;
        for &child in &tree.node(v).children {
            self.assign_subtree_slots(tree, child, off, lists, prefix, io);
            off += tree.node(child).weight;
        }
        debug_assert_eq!(off, if node.is_leaf() { start } else { end });
    }

    /// Rewrites the whole directory extent in blocked DFS order ("we store
    /// the top Θ(lg b) levels in a block with pointers to each of the
    /// subtrees", §2.2), so any root-to-leaf traversal touches
    /// `O(log_b n)` blocks.
    fn write_all_records(&mut self, tree: &WbbTree, io: &IoSession) {
        self.disk.free(self.tree_ext);
        self.node_rec = vec![(u64::MAX, 0); tree.arena_len()];
        // Levels per chunk: c^D records of ~rec bits should fill a block.
        let avg_rec = 200u64;
        let per_block = (self.disk.block_bits() / avg_rec).max(2);
        let d =
            (cost::lg2_floor(per_block) / cost::lg2_ceil(u64::from(self.c)).max(1)).max(1) as u32;
        let mut order = Vec::with_capacity(tree.live_nodes());
        chunk_order(tree, tree.root(), d, &mut order);
        for v in order {
            self.write_record(tree, v, io);
        }
    }

    /// Appends one node's directory record at the end of the directory
    /// extent and records its offset.
    fn write_record(&mut self, tree: &WbbTree, v: NodeId, io: &IoSession) {
        if self.node_rec.len() < tree.arena_len() {
            self.node_rec.resize(tree.arena_len(), (u64::MAX, 0));
        }
        let node = tree.node(v);
        let mut w = self.disk.writer(self.tree_ext, io);
        let off = w.pos();
        w.write_bits(node.weight & ((1 << 48) - 1), 48);
        w.write_bits(u64::from(node.char_lo) & 0xFF_FFFF, 24);
        w.write_bits(u64::from(node.char_hi) & 0xFF_FFFF, 24);
        let (has_slot, cut, slot) = match self.node_slot.get(v as usize).copied().flatten() {
            Some((c, s)) => (1u64, u64::from(c), u64::from(s)),
            None => (0, 0, 0),
        };
        w.write_bits(u64::from(node.is_leaf()) << 1 | has_slot, 8);
        w.write_bits(cut, 8);
        w.write_bits(slot, 32);
        w.write_bits(node.children.len() as u64, 16);
        for &ch in &node.children {
            w.write_bits(u64::from(ch), 32);
        }
        let len = w.pos() - off;
        self.node_rec[v as usize] = (off, len);
    }

    /// Charges the blocks of node `v`'s directory record to `io` (and,
    /// on an opened file-backed disk, faults them through the buffer
    /// pool so the charge drives a real fetch).
    fn charge_record(&self, v: NodeId, io: &IoSession) -> Result<(), ReadError> {
        let (off, len) = self.node_rec[v as usize];
        if off == u64::MAX {
            return Ok(());
        }
        self.disk.charge_read_span(self.tree_ext, off, len, io)?;
        io.add_bits_read(len);
        Ok(())
    }

    /// Canonical decomposition of the multiset index range `[qs, qe)` —
    /// "any consecutive range of leaves can be covered by the disjoint
    /// union of O(lg n) subtrees" (§2.1/§2.2). Charges the directory
    /// records of all visited nodes.
    fn decompose(&self, qs: u64, qe: u64, io: &IoSession) -> Result<Vec<NodeId>, ReadError> {
        let mut out = Vec::new();
        if qs >= qe {
            return Ok(out);
        }
        let tree = self.tree.as_ref().expect("tree");
        self.decompose_rec(tree, tree.root(), 0, qs, qe, io, &mut out)?;
        Ok(out)
    }

    #[allow(clippy::too_many_arguments)]
    fn decompose_rec(
        &self,
        tree: &WbbTree,
        v: NodeId,
        v_start: u64,
        qs: u64,
        qe: u64,
        io: &IoSession,
        out: &mut Vec<NodeId>,
    ) -> Result<(), ReadError> {
        self.charge_record(v, io)?;
        let node = tree.node(v);
        let v_end = v_start + node.weight;
        if qs <= v_start && v_end <= qe {
            out.push(v);
            return Ok(());
        }
        debug_assert!(
            !node.is_leaf(),
            "partial overlap with a leaf: query boundaries must align with character boundaries"
        );
        let mut off = v_start;
        for &child in &node.children {
            let w = tree.node(child).weight;
            let c_end = off + w;
            if off < qe && c_end > qs {
                self.decompose_rec(tree, child, off, qs, qe, io, out)?;
            }
            off = c_end;
        }
        Ok(())
    }

    /// Answers the alphabet range query (paper endpoints, inclusive),
    /// returning a failed pooled read as its typed error.
    pub fn try_query(&self, lo: Symbol, hi: Symbol, io: &IoSession) -> Result<RidSet, ReadError> {
        check_range(lo, hi, self.sigma);
        if self.n == 0 {
            return Ok(RidSet::from_positions(GapBitmap::empty(0)));
        }
        let (ilo, ihi) = self.remap.map_range(lo, hi);
        let qs = self.counts.prefix(ilo as usize);
        let qe = self.counts.prefix(ihi as usize + 1);
        let z = qe - qs;
        if z == 0 {
            return Ok(RidSet::from_positions(GapBitmap::empty(self.n)));
        }
        Ok(if 2 * z > self.n {
            // §2.1's complement trick: answer the two complementary index
            // ranges and return the complement representation.
            let mut canonical = self.decompose(0, qs, io)?;
            canonical.extend(self.decompose(qe, self.n, io)?);
            RidSet::from_complement(self.merge_canonical(&canonical, io)?)
        } else {
            let canonical = self.decompose(qs, qe, io)?;
            RidSet::from_positions(self.merge_canonical(&canonical, io)?)
        })
    }

    /// The result cardinality `z` for a query, from the prefix counts
    /// (no I/O — the array `A` is memory-resident, §2.1).
    pub fn query_cardinality(&self, lo: Symbol, hi: Symbol) -> u64 {
        check_range(lo, hi, self.sigma);
        if self.n == 0 {
            return 0;
        }
        let (ilo, ihi) = self.remap.map_range(lo, hi);
        self.counts.prefix(ihi as usize + 1) - self.counts.prefix(ilo as usize)
    }

    /// Reconstructs the union of the canonical nodes' position sets. Each
    /// node contributes its own slot if materialized, otherwise its
    /// frontier in the next cut below (§2.2's "merging the bitmaps stored
    /// with all the nearest descendants that are in the materialized level
    /// immediately below").
    ///
    /// Execution is lift, then decode. A single-slot cover is a verbatim
    /// copy in the slot's stored form: a words slot lifts as plain words,
    /// a gamma slot as its code words.
    /// A multi-slot cover lifts every slot whole ([`CutStream::copy_bitmap`],
    /// which charges exactly the blocks and bits of a full decode and, on
    /// a pooled disk, returns a failed fetch as its error), then plans the union from
    /// slot metadata alone ([`merge::plan_stored`]). A union that is
    /// smaller as plain words over its span, or dense enough for the
    /// bitset path, ORs every part into one word array
    /// ([`merge::MergeStrategy::Bitset`]), kept as the result where plain
    /// words pay. Otherwise position-disjoint covers — a character split
    /// over sibling leaves, and most complement-trick covers — splice the
    /// lifted streams ([`merge::MergeStrategy::Concat`]); the rest decode
    /// each lifted part (SWAR for gamma, a set-bit walk for words) and
    /// merge linearly or by heap. The blocks charged are identical across
    /// strategies by construction.
    fn merge_canonical(
        &self,
        canonical: &[NodeId],
        io: &IoSession,
    ) -> Result<GapBitmap, ReadError> {
        let mut slots = Vec::new();
        for &v in canonical {
            self.collect_slots(v, &mut slots);
        }
        // Empty slots contribute nothing — and would poison the span.
        slots.retain(|&(cut, slot)| self.cuts[cut as usize].slot(slot as usize).count > 0);
        Ok(match slots[..] {
            [] => GapBitmap::empty(self.n),
            [(cut, slot)] => {
                self.cuts[cut as usize].copy_bitmap(&self.disk, slot as usize, io, self.n)?
            }
            _ => {
                // Lift in storage order: a cover's slots follow cut-stream
                // order, so consecutive lifts share boundary blocks and a
                // small pool keeps them. Planning then takes the members
                // in position order.
                let mut lifted = Vec::with_capacity(slots.len());
                for &(cut, slot) in &slots {
                    let part = self.cuts[cut as usize].copy_bitmap(
                        &self.disk,
                        slot as usize,
                        io,
                        self.n,
                    )?;
                    lifted.push((self.slot_meta(cut, slot), part));
                }
                lifted.sort_by_key(|&(meta, _)| meta.1);
                let (members, parts): (Vec<_>, Vec<_>) = lifted.into_iter().unzip();
                merge::union_stored(&parts, &members, self.n, merge::plan_stored(&members))
            }
        })
    }

    /// A non-empty slot's `(count, first_pos, last_pos)`: the merge
    /// planner's input, known before any stream bit is read.
    fn slot_meta(&self, cut: u32, slot: u32) -> (u64, u64, u64) {
        let s = self.cuts[cut as usize].slot(slot as usize);
        (
            s.count,
            s.first_pos.expect("non-empty slot"),
            s.last_pos.expect("non-empty slot"),
        )
    }

    /// The plan [`Self::merge_canonical`] makes for a multi-slot cover:
    /// the members in position order plus the strategy.
    #[cfg(test)]
    pub(crate) fn plan_slots(
        &self,
        slots: &[(u32, u32)],
    ) -> (Vec<(u64, u64, u64)>, merge::MergeStrategy) {
        let mut members: Vec<_> = slots.iter().map(|&(c, s)| self.slot_meta(c, s)).collect();
        members.sort_by_key(|m| m.1);
        let strategy = merge::plan_stored(&members);
        (members, strategy)
    }

    /// Appends original character `ch` at position `n`, charging `io`
    /// (Theorem 4's operation). One bitmap per materialized cut on the
    /// root-to-leaf path is extended in place; weight-balance violations
    /// and slot overflows trigger subtree rebuilds.
    pub fn append(&mut self, ch: Symbol, io: &IoSession) {
        assert!(
            ch < self.sigma,
            "symbol {ch} outside alphabet of size {}",
            self.sigma
        );
        if self.tree.is_none() {
            let stats = self.stats;
            *self = Self::build_charged(
                &[ch],
                self.sigma,
                *self.disk.config(),
                self.c,
                self.slack,
                io,
            );
            self.stats = stats;
            return;
        }
        let ich = self.remap.map_append(ch);
        let pos = self.n;
        self.n += 1;
        self.counts.add(ich as usize, 1);
        let mut tree = self.tree.take().expect("tree");
        let path = tree.append_path(ich);
        if self.node_slot.len() < tree.arena_len() {
            self.node_slot.resize(tree.arena_len(), None);
        }
        // Append to every materialized bitmap on the path; remember the
        // highest node whose slot overflowed, and whether the leaf itself
        // missed the position (the rebuild must then be told about it).
        let leaf = *path.last().expect("append path is non-empty");
        let mut overflowed: Option<NodeId> = None;
        let mut leaf_append_failed = false;
        for &v in &path {
            match self.node_slot[v as usize] {
                Some((cut, slot)) => {
                    let ok = self.cuts[cut as usize].append_position(
                        &mut self.disk,
                        slot as usize,
                        pos,
                        io,
                    );
                    if !ok {
                        if overflowed.is_none() {
                            overflowed = Some(v);
                        }
                        if v == leaf {
                            leaf_append_failed = true;
                        }
                    }
                }
                None if tree.node(v).is_leaf() => {
                    // Fresh leaf from a previously absent character.
                    let cut_idx = self.leaf_cut_idx(tree.node(v).depth);
                    let slot = self.cuts[cut_idx as usize].push_bitmap(&mut self.disk, [pos], io);
                    self.node_slot[v as usize] = Some((cut_idx, slot as u32));
                    self.write_record(&tree, v, io);
                    if let Some(p) = tree.node(v).parent {
                        self.write_record(&tree, p, io);
                    }
                }
                None => {} // non-materialized internal node
            }
        }
        // Rebuild at the parent of the highest violated/overflowed node.
        let violated = tree.find_violation(&path);
        let trigger = match (violated, overflowed) {
            (Some(a), Some(b)) => Some(if tree.node(a).depth <= tree.node(b).depth {
                a
            } else {
                b
            }),
            (a, b) => a.or(b),
        };
        self.tree = Some(tree);
        if let Some(v) = trigger {
            let parent = self.tree.as_ref().unwrap().node(v).parent;
            // Rebuilds recompute bitmaps from the leaf bitmaps, so stale
            // internal slots heal automatically; if the *leaf* slot missed
            // the position, pass it along explicitly.
            let extra = if leaf_append_failed {
                Some((ich, pos))
            } else {
                None
            };
            match parent {
                None => self.global_rebuild(extra, io),
                Some(u) => {
                    // If the overflowed node sits above `u`, its own slot
                    // is stale; rebuild from its parent instead.
                    self.rebuild_at(u, extra, io);
                }
            }
        }
        // Compact heavily fragmented storage.
        if self
            .cuts
            .iter()
            .any(|cut| cut.extent_bits(&self.disk) > 1 << 16 && cut.dead_fraction(&self.disk) > 0.5)
        {
            self.global_rebuild(None, io);
        }
    }

    /// Rebuilds the subtree under `u` (paper §4.1): decode the leaf
    /// bitmaps below `u`, rebuild the shape, recompute and rewrite every
    /// materialized bitmap in the subtree. All reads and writes charged.
    fn rebuild_at(&mut self, u: NodeId, extra: Option<(Symbol, u64)>, io: &IoSession) {
        self.stats.subtree_rebuilds += 1;
        let mut tree = self.tree.take().expect("tree");
        // 1. Decode per-internal-character position lists under u.
        let leaves = tree.leaves_under(u);
        let mut chars: Vec<Symbol> = Vec::new();
        let mut lists: Vec<Vec<u64>> = Vec::new();
        for (leaf, ch, _w) in &leaves {
            let (cut, slot) = self.node_slot[*leaf as usize].expect("leaf without slot");
            let positions = self.slot_positions(cut, slot, io);
            if chars.last() == Some(ch) {
                lists.last_mut().expect("list").extend(positions);
            } else {
                chars.push(*ch);
                lists.push(positions);
            }
        }
        if let Some((ich, pos)) = extra {
            let idx = chars
                .iter()
                .position(|&c| c == ich)
                .expect("extra char under subtree");
            lists[idx].push(pos);
        }
        // 2. Tombstone the old slots.
        let mut stack: Vec<NodeId> = tree.node(u).children.clone();
        while let Some(v) = stack.pop() {
            if let Some((cut, slot)) = self.node_slot[v as usize].take() {
                self.cuts[cut as usize].kill(slot as usize);
            }
            stack.extend(tree.node(v).children.iter().copied());
        }
        // 3. Rebuild the shape and write fresh bitmaps + records.
        tree.rebuild_subtree(u);
        if self.node_slot.len() < tree.arena_len() {
            self.node_slot.resize(tree.arena_len(), None);
        }
        // Local prefix over the collected lists; map internal char ->
        // local list index by position in `chars`.
        let mut prefix = Vec::with_capacity(lists.len() + 1);
        let mut acc = 0u64;
        for l in &lists {
            prefix.push(acc);
            acc += l.len() as u64;
        }
        prefix.push(acc);
        // u's own slot keeps its bitmap (same position set); if u became a
        // leaf without one, assign_rebuilt_slots allocates it.
        self.assign_rebuilt_slots(&tree, u, 0, &lists, &prefix, true, io);
        // Rewrite records for the subtree (blocked layout is refreshed
        // wholesale on global rebuilds).
        let mut order = Vec::new();
        chunk_order_subtree(&tree, u, &mut order);
        for v in order {
            self.write_record(&tree, v, io);
        }
        self.tree = Some(tree);
    }

    /// Like [`Self::assign_subtree_slots`] but over subtree-local lists.
    /// The subtree root `u` keeps its existing slot (its position set is
    /// unchanged by a rebuild); descendants always get fresh slots.
    #[allow(clippy::too_many_arguments)]
    fn assign_rebuilt_slots(
        &mut self,
        tree: &WbbTree,
        v: NodeId,
        start: u64,
        lists: &[Vec<u64>],
        prefix: &[u64],
        is_subtree_root: bool,
        io: &IoSession,
    ) {
        let node = tree.node(v);
        let end = start + node.weight;
        let keep_existing = is_subtree_root && self.node_slot[v as usize].is_some();
        if !keep_existing {
            let cut = if node.is_leaf() {
                Some(self.leaf_cut_idx(node.depth))
            } else {
                self.cuts
                    .iter()
                    .position(|c| c.level == node.depth)
                    .map(|i| i as u32)
            };
            if let Some(cut_idx) = cut {
                let positions = positions_for_range(lists, prefix, start, end);
                let slot = self.cuts[cut_idx as usize].push_bitmap(&mut self.disk, positions, io);
                self.node_slot[v as usize] = Some((cut_idx, slot as u32));
            }
        }
        let mut off = start;
        for &child in &tree.node(v).children {
            self.assign_rebuilt_slots(tree, child, off, lists, prefix, false, io);
            off += tree.node(child).weight;
        }
    }

    /// Full rebuild: decode everything, recompute the alphabet split,
    /// rebuild tree, cuts and directory. Charges reads of all leaf bitmaps
    /// and writes of the fresh structure.
    fn global_rebuild(&mut self, extra: Option<(Symbol, u64)>, io: &IoSession) {
        self.stats.global_rebuilds += 1;
        let tree = self.tree.as_ref().expect("tree");
        // Recover the original string from the leaf bitmaps.
        let mut syms = vec![0 as Symbol; self.n as usize];
        let orig_of: Vec<Symbol> = (0..self.remap.sigma())
            .flat_map(|c| {
                let (lo, hi) = self.remap.map_range(c, c);
                (lo..=hi).map(move |_| c)
            })
            .collect();
        for (leaf, ich, _) in tree.leaves_under(tree.root()) {
            let (cut, slot) = self.node_slot[leaf as usize].expect("leaf without slot");
            let orig = orig_of[ich as usize];
            for p in self.slot_positions(cut, slot, io) {
                syms[p as usize] = orig;
            }
        }
        if let Some((ich, pos)) = extra {
            syms[pos as usize] = orig_of[ich as usize];
        }
        let stats = self.stats;
        *self = Self::build_charged(
            &syms,
            self.sigma,
            *self.disk.config(),
            self.c,
            self.slack,
            io,
        );
        self.stats = stats;
    }

    /// Length `n` of the indexed string.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Original alphabet size.
    pub fn sigma(&self) -> Symbol {
        self.sigma
    }

    /// Total structure size in bits: disk payload (cuts + directory,
    /// including slack and tombstones) plus the memory-resident prefix
    /// counts and remap directory.
    pub fn space_bits(&self) -> u64 {
        let lg_n = cost::lg2_ceil(self.n.max(2));
        self.disk.used_bits()
            + self.remap.size_bits()
            + (u64::from(self.remap.sigma_internal()) + 1) * lg_n
    }

    /// The simulated disk (harness inspection).
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    /// Mutable disk access for sibling layers that allocate parallel
    /// storage (the approximate index's hashed streams).
    pub(crate) fn disk_mut(&mut self) -> &mut Disk {
        &mut self.disk
    }

    /// Payload bits across cuts (live bitmaps only, no slack/fragments) —
    /// the quantity bounded by `O(nH₀ + n)` in Theorem 2.
    pub fn live_payload_bits(&self) -> u64 {
        self.cuts.iter().map(|c| c.live_bits()).sum()
    }

    /// Number of materialized cuts (`O(lg lg n)`).
    pub fn num_cuts(&self) -> usize {
        self.cuts.len()
    }

    /// Access to the remap (for the approximate layer).
    pub(crate) fn remap(&self) -> &Remap {
        &self.remap
    }

    /// Multiset index range `[qs, qe)` for an internal char range.
    pub(crate) fn index_range(&self, ilo: Symbol, ihi: Symbol) -> (u64, u64) {
        (
            self.counts.prefix(ilo as usize),
            self.counts.prefix(ihi as usize + 1),
        )
    }

    /// Decomposition + per-canonical-node slot walk, exposed to the
    /// approximate layer which reads *hashed* streams for the same slots.
    pub(crate) fn canonical_slots(
        &self,
        qs: u64,
        qe: u64,
        io: &IoSession,
    ) -> Result<Vec<(u32, u32)>, ReadError> {
        let canonical = self.decompose(qs, qe, io)?;
        let mut slots = Vec::new();
        for v in canonical {
            self.collect_slots(v, &mut slots);
        }
        Ok(slots)
    }

    /// The non-empty slots [`Self::try_query`] merges for `[lo, hi]` (the
    /// complement cover when the complement trick applies), charging the
    /// decomposition to `io`.
    #[cfg(test)]
    pub(crate) fn cover_slots(&self, lo: Symbol, hi: Symbol, io: &IoSession) -> Vec<(u32, u32)> {
        let (ilo, ihi) = self.remap.map_range(lo, hi);
        let (qs, qe) = self.index_range(ilo, ihi);
        let mut slots = if qs == qe {
            Vec::new()
        } else if 2 * (qe - qs) > self.n {
            let mut s = self.canonical_slots(0, qs, io).unwrap();
            s.extend(self.canonical_slots(qe, self.n, io).unwrap());
            s
        } else {
            self.canonical_slots(qs, qe, io).unwrap()
        };
        slots.retain(|&(c, s)| self.cuts[c as usize].slot(s as usize).count > 0);
        slots
    }

    fn collect_slots(&self, v: NodeId, out: &mut Vec<(u32, u32)>) {
        if let Some(slot) = self.node_slot[v as usize] {
            out.push(slot);
            return;
        }
        let tree = self.tree.as_ref().expect("tree");
        for &child in &tree.node(v).children {
            self.collect_slots(child, out);
        }
    }

    /// All live `(cut, slot, positions)` triples — used by the approximate
    /// layer at build time to hash every stored set.
    pub(crate) fn live_slots(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        if let Some(tree) = &self.tree {
            for v in 0..tree.arena_len() as NodeId {
                if !tree.node(v).dead {
                    if let Some(s) = self.node_slot[v as usize] {
                        out.push(s);
                    }
                }
            }
        }
        out
    }

    /// Lifts one slot and decodes its positions (charged): the read of
    /// rebuilds and of the approximate layer's build. These run on the
    /// write path, which has no error channel, so a failed fetch panics
    /// with its message, as promoting an unreadable extent does.
    pub(crate) fn slot_positions(&self, cut: u32, slot: u32, io: &IoSession) -> Vec<u64> {
        self.cuts[cut as usize]
            .lift_positions(&self.disk, slot as usize, io)
            .unwrap_or_else(|err| panic!("{err}"))
    }
}

/// Lazily merges position-list slices covering the multiset index range
/// `[start, end)` (characters are contiguous in the multiset, so the range
/// maps to at most one partial slice per character).
fn positions_for_range(lists: &[Vec<u64>], prefix: &[u64], start: u64, end: u64) -> Vec<u64> {
    // Locate the first character whose range intersects [start, end).
    let mut c = match prefix.binary_search(&start) {
        Ok(i) => i,
        Err(i) => i - 1,
    };
    // Skip empty characters that share the prefix value.
    while c + 1 < prefix.len() && prefix[c + 1] <= start {
        c += 1;
    }
    let mut streams = Vec::new();
    while c < lists.len() && prefix[c] < end {
        let s = start.max(prefix[c]) - prefix[c];
        let e = end.min(prefix[c + 1]) - prefix[c];
        if s < e {
            streams.push(lists[c][s as usize..e as usize].iter().copied());
        }
        c += 1;
    }
    merge::merge_disjoint(streams).collect()
}

/// Chunked DFS order: emit `d` levels of a subtree, then recurse on the
/// frontier — the paper's blocked tree layout.
fn chunk_order(tree: &WbbTree, root: NodeId, d: u32, out: &mut Vec<NodeId>) {
    let mut frontier = vec![root];
    while let Some(r) = frontier.pop() {
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(r);
        let r_depth = tree.node(r).depth;
        while let Some(v) = queue.pop_front() {
            out.push(v);
            for &ch in &tree.node(v).children {
                if tree.node(ch).depth < r_depth + d {
                    queue.push_back(ch);
                } else {
                    frontier.push(ch);
                }
            }
        }
    }
}

/// DFS order of a subtree (records rewritten after a local rebuild).
fn chunk_order_subtree(tree: &WbbTree, root: NodeId, out: &mut Vec<NodeId>) {
    out.push(root);
    for &ch in &tree.node(root).children {
        chunk_order_subtree(tree, ch, out);
    }
}

/// A Fenwick (binary indexed) tree over internal-character counts — the
/// memory-resident form of the paper's prefix array `A` (§2.1), supporting
/// O(lg σ) updates under appends.
#[derive(Debug, Clone)]
struct Fenwick {
    tree: Vec<u64>,
}

impl Fenwick {
    fn from_counts(counts: &[u64]) -> Self {
        let mut f = Fenwick {
            tree: vec![0; counts.len() + 1],
        };
        for (i, &c) in counts.iter().enumerate() {
            if c > 0 {
                f.add(i, c);
            }
        }
        f
    }

    fn add(&mut self, idx: usize, delta: u64) {
        let mut i = idx + 1;
        while i < self.tree.len() {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of counts for characters `< idx`.
    fn prefix(&self, idx: usize) -> u64 {
        let mut i = idx.min(self.tree.len() - 1);
        let mut s = 0;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    }
}

// ---------------------------------------------------------------------------
// Persistence (psi-store)

impl Engine {
    /// Serializes the engine's memory-resident state: tree mirror, cut
    /// directories, node-to-slot and node-to-record maps, remap, prefix
    /// counts and parameters. The disk payload is persisted separately
    /// (extent by extent) by the store layer.
    pub(crate) fn persist_meta(&self, out: &mut psi_store::MetaBuf) {
        match &self.tree {
            Some(tree) => {
                out.put_bool(true);
                tree.persist_meta(out);
            }
            None => out.put_bool(false),
        }
        out.put_len(self.cuts.len());
        for cut in &self.cuts {
            cut.persist_meta(out);
        }
        out.put_len(self.node_slot.len());
        for s in &self.node_slot {
            match s {
                Some((cut, slot)) => {
                    out.put_bool(true);
                    out.put_u32(*cut);
                    out.put_u32(*slot);
                }
                None => out.put_bool(false),
            }
        }
        out.put_len(self.node_rec.len());
        for &(off, len) in &self.node_rec {
            out.put_u64(off);
            out.put_u64(len);
        }
        out.put_u32(self.tree_ext.0);
        self.remap.persist_meta(out);
        out.put_vec_u64(&self.counts.tree);
        out.put_u64(self.n);
        out.put_u32(self.sigma);
        out.put_u32(self.c);
        out.put_u8(self.slack.persist_tag());
    }

    /// Rebuilds an engine over a reopened disk. Rebuild counters start
    /// from zero (they describe a process lifetime, not the structure).
    pub(crate) fn restore_meta(
        meta: &mut psi_store::MetaCursor,
        disk: Disk,
    ) -> Result<Engine, psi_store::StoreError> {
        let tree = if meta.get_bool()? {
            Some(WbbTree::restore_meta(meta)?)
        } else {
            None
        };
        let num_cuts = meta.get_len(20)?;
        let mut cuts = Vec::with_capacity(num_cuts);
        for _ in 0..num_cuts {
            cuts.push(CutStream::restore_meta(meta, &disk)?);
        }
        let slots = meta.get_len(1)?;
        let mut node_slot = Vec::with_capacity(slots);
        for _ in 0..slots {
            node_slot.push(if meta.get_bool()? {
                Some((meta.get_u32()?, meta.get_u32()?))
            } else {
                None
            });
        }
        let recs = meta.get_len(16)?;
        let mut node_rec = Vec::with_capacity(recs);
        for _ in 0..recs {
            node_rec.push((meta.get_u64()?, meta.get_u64()?));
        }
        let tree_ext = psi_store::check_extent(&disk, meta.get_u32()?, "engine tree")?;
        // Cross-consistency: the per-node tables must cover the arena and
        // every slot pointer must land in an existing cut slot — a
        // checksum-valid but inconsistent producer should fail typed at
        // open, not panic on the first query.
        if let Some(tree) = &tree {
            if node_slot.len() < tree.arena_len() || node_rec.len() < tree.arena_len() {
                return Err(psi_store::StoreError::Meta {
                    what: "engine node tables shorter than the tree arena".into(),
                });
            }
        }
        for s in node_slot.iter().flatten() {
            let valid = cuts
                .get(s.0 as usize)
                .is_some_and(|c| (s.1 as usize) < c.num_slots());
            if !valid {
                return Err(psi_store::StoreError::Meta {
                    what: format!("engine slot pointer ({}, {}) out of range", s.0, s.1),
                });
            }
        }
        let remap = crate::remap::Remap::restore_meta(meta)?;
        let counts = Fenwick {
            tree: meta.get_vec_u64()?,
        };
        let n = meta.get_u64()?;
        let sigma = meta.get_u32()?;
        let c = meta.get_u32()?;
        let slack = Slack::from_persist_tag(meta.get_u8()?)?;
        Ok(Engine {
            disk,
            tree,
            cuts,
            node_slot,
            node_rec,
            tree_ext,
            remap,
            counts,
            n,
            sigma,
            c,
            slack,
            stats: EngineStats::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_api::naive_query;

    impl Engine {
        fn query(&self, lo: Symbol, hi: Symbol, io: &IoSession) -> RidSet {
            self.try_query(lo, hi, io).unwrap()
        }
    }

    fn cfg() -> IoConfig {
        IoConfig::with_block_bits(512)
    }

    fn check_engine(engine: &Engine, symbols: &[Symbol], sigma: Symbol) {
        let widths: Vec<u32> = [1u32, 2, 3, sigma / 2, sigma]
            .iter()
            .map(|&w| w.clamp(1, sigma))
            .collect();
        for &w in &widths {
            for lo in (0..=sigma - w).step_by((sigma as usize / 7).max(1)) {
                let hi = lo + w - 1;
                let io = IoSession::new();
                let got = engine.query(lo, hi, &io);
                let want = naive_query(symbols, lo, hi);
                assert_eq!(got.to_vec(), want.to_vec(), "query [{lo}, {hi}]");
                assert_eq!(got.cardinality(), engine.query_cardinality(lo, hi));
            }
        }
    }

    #[test]
    fn static_queries_match_naive_uniform() {
        let symbols = psi_workloads::uniform(2000, 16, 5);
        let engine = Engine::build(&symbols, 16, cfg(), DEFAULT_C, Slack::None);
        check_engine(&engine, &symbols, 16);
    }

    #[test]
    fn static_queries_match_naive_zipf() {
        let symbols = psi_workloads::zipf(3000, 32, 1.3, 7);
        let engine = Engine::build(&symbols, 32, cfg(), DEFAULT_C, Slack::None);
        check_engine(&engine, &symbols, 32);
    }

    #[test]
    fn static_queries_match_naive_runs() {
        let symbols = psi_workloads::runs(2500, 24, 15.0, 9);
        let engine = Engine::build(&symbols, 24, cfg(), DEFAULT_C, Slack::None);
        check_engine(&engine, &symbols, 24);
    }

    #[test]
    fn heavy_character_string_queries() {
        // One character with > n/2 occurrences exercises the remap split;
        // the larger string's answer holds 10^4 rows, probed by
        // membership and rank.
        for (heavy, n, rest, sigma, seed) in [(3u32, 900, 300, 8, 11), (5, 10_000, 9_000, 16, 35)] {
            let mut symbols = vec![heavy; n];
            symbols.extend(psi_workloads::uniform(rest, sigma, seed));
            let engine = Engine::build(&symbols, sigma, cfg(), DEFAULT_C, Slack::None);
            check_engine(&engine, &symbols, sigma);
            let r = engine.query(heavy, heavy, &IoSession::new());
            assert_eq!(r.to_vec(), naive_query(&symbols, heavy, heavy).to_vec());
            assert!(r.contains(0) && r.contains(n as u64 - 1));
            assert_eq!(r.rank(n as u64), n as u64);
        }
    }

    #[test]
    fn single_character_alphabet() {
        let symbols = vec![0u32; 257];
        let engine = Engine::build(&symbols, 1, cfg(), DEFAULT_C, Slack::None);
        let io = IoSession::new();
        let r = engine.query(0, 0, &io);
        assert_eq!(r.cardinality(), 257);
        assert_eq!(r.to_vec(), (0..257).collect::<Vec<u64>>());
    }

    #[test]
    fn complement_trick_engages_for_large_results() {
        let symbols = psi_workloads::uniform(4000, 8, 13);
        let engine = Engine::build(&symbols, 8, cfg(), DEFAULT_C, Slack::None);
        let io = IoSession::new();
        let r = engine.query(0, 6, &io); // ~7/8 of the string
        assert!(
            r.is_complemented(),
            "result of cardinality {} should be complemented",
            r.cardinality()
        );
        assert_eq!(r.to_vec(), naive_query(&symbols, 0, 6).to_vec());
        // The full range costs almost nothing: both complement ranges are
        // empty.
        let io2 = IoSession::new();
        let full = engine.query(0, 7, &io2);
        assert_eq!(full.cardinality(), 4000);
        assert!(
            io2.stats().bits_read < 100,
            "full-range query should be nearly free"
        );
    }

    #[test]
    fn empty_ranges_cost_only_directory_io() {
        let mut symbols = psi_workloads::uniform(1000, 4, 15);
        symbols.iter_mut().for_each(|s| *s = (*s).min(2)); // char 3 absent
        let engine = Engine::build(&symbols, 4, cfg(), DEFAULT_C, Slack::None);
        let io = IoSession::new();
        let r = engine.query(3, 3, &io);
        assert!(r.is_empty());
        assert_eq!(
            io.stats().reads,
            0,
            "empty result detected from prefix counts alone"
        );
    }

    #[test]
    fn cuts_are_logarithmically_many() {
        let symbols = psi_workloads::uniform(1 << 14, 128, 17);
        let engine = Engine::build(&symbols, 128, IoConfig::default(), DEFAULT_C, Slack::None);
        // h = ceil(log_8 16384) ≈ 5; cuts = {1, 2, 4, 5}-ish.
        assert!(engine.num_cuts() <= 6, "{} cuts", engine.num_cuts());
        assert!(engine.num_cuts() >= 2);
    }

    #[test]
    fn space_is_near_entropy_plus_overheads() {
        let n = 1usize << 15;
        let sigma = 64u32;
        let symbols = psi_workloads::uniform(n, sigma, 19);
        let engine = Engine::build(&symbols, sigma, IoConfig::default(), DEFAULT_C, Slack::None);
        let nh0 = psi_bits::entropy::nh0_bits(&symbols, sigma);
        let payload = engine.live_payload_bits() as f64;
        // Payload across O(lg lg n) cuts; each cut costs at most ~nH0-ish
        // bits and the geometric decrease keeps the total within a small
        // constant of nH0 + O(n).
        assert!(
            payload < 6.0 * (nh0 + n as f64),
            "payload {payload} too large vs nH0 = {nh0}"
        );
    }

    #[test]
    fn planner_branches_match_forced_heap_with_identical_io() {
        use psi_bits::merge::MergeStrategy;
        let n = 40_000usize;
        let mut seen = std::collections::HashSet::new();
        // Dense covers (small alphabet) drive the bitset branch; sparse
        // covers (large alphabet, narrow ranges) drive the heap branch; a
        // heavy character split over sibling leaves drives the splice,
        // directly and as the complement of a wide range.
        let mut heavy = vec![0u32; 15_000];
        heavy.extend(psi_workloads::uniform(n - 15_000, 16, 33));
        let cases = [
            (
                psi_workloads::uniform(n, 16, 33),
                16,
                vec![(3, 3), (2, 5), (4, 11), (0, 12), (1, 14), (0, 14)],
            ),
            (
                psi_workloads::uniform(n, 1024, 33),
                1024,
                vec![(100, 103), (7, 7), (511, 514), (200, 207)],
            ),
            (heavy, 16, vec![(0, 0), (1, 15), (0, 3), (2, 5)]),
        ];
        for (symbols, sigma, ranges) in cases {
            let engine = Engine::build(&symbols, sigma, cfg(), DEFAULT_C, Slack::None);
            for (lo, hi) in ranges {
                let io = IoSession::new();
                let got = engine.query(lo, hi, &io);
                assert_eq!(got.to_vec(), naive_query(&symbols, lo, hi).to_vec());
                // Replay the same canonical cover through the forced heap
                // merge: identical output stream, identical blocks charged.
                let io_ref = IoSession::new();
                let slots = engine.cover_slots(lo, hi, &io_ref);
                if slots.len() < 2 {
                    continue; // verbatim-copy path, covered elsewhere
                }
                let (members, strategy) = engine.plan_slots(&slots);
                seen.insert(strategy);
                let (total, span) = merge::cover_stats(members.iter().copied());
                let decoders: Vec<_> = slots
                    .iter()
                    .map(|&(c, s)| {
                        engine.cuts[c as usize].decoder(&engine.disk, s as usize, &io_ref)
                    })
                    .collect();
                let reference = merge::merge_with_strategy(
                    decoders,
                    engine.n(),
                    total,
                    span,
                    MergeStrategy::Heap,
                );
                assert_eq!(got.stored(), &reference, "[{lo},{hi}] planner output");
                assert_eq!(
                    io.stats(),
                    io_ref.stats(),
                    "[{lo},{hi}] planner must charge exactly the heap merge's I/O"
                );
            }
        }
        assert!(
            [
                MergeStrategy::Concat,
                MergeStrategy::Bitset,
                MergeStrategy::Heap
            ]
            .iter()
            .all(|s| seen.contains(s)),
            "query set failed to exercise the planner branches: {seen:?}"
        );
    }

    #[test]
    fn words_slot_lift_charges_exactly_its_span_blocks() {
        // n = 8^4 and each char fills one child of the root: char 1's
        // leaf holds every other row of the first 1024, 2 bits per
        // element as words against 3 of gamma.
        let symbols: Vec<u32> = (0..4096u32)
            .map(|i| if i < 1024 { i % 2 } else { 2 + (i - 1024) % 6 })
            .collect();
        let engine = Engine::build(&symbols, 8, cfg(), DEFAULT_C, Slack::None);
        let io = IoSession::new();
        let r = engine.query(1, 1, &io);
        assert_eq!(r.to_vec(), naive_query(&symbols, 1, 1).to_vec());
        assert!(r.stored().plain_words().is_some());
        // The decomposition alone, then the slot's own span.
        let records = IoSession::new();
        let slots = engine.cover_slots(1, 1, &records);
        assert_eq!(slots.len(), 1);
        let slot = engine.cuts[slots[0].0 as usize].slot(slots[0].1 as usize);
        assert_eq!(slot.codec, crate::cutstream::SlotCodec::Words);
        let b = engine.disk.block_bits();
        let span_blocks = (slot.off + slot.len - 1) / b - slot.off / b + 1;
        assert_eq!(io.stats().reads, records.stats().reads + span_blocks);
        assert_eq!(io.stats().bits_read, records.stats().bits_read + slot.len);
        assert_eq!(r.size_bits(), slot.len);
    }

    #[test]
    fn append_then_query_matches_naive() {
        let mut symbols = psi_workloads::uniform(500, 12, 21);
        let mut engine = Engine::build(&symbols, 12, cfg(), DEFAULT_C, Slack::Proportional);
        let io = IoSession::untracked();
        let appends = psi_workloads::zipf(700, 12, 1.0, 23);
        for &ch in &appends {
            engine.append(ch, &io);
            symbols.push(ch);
        }
        assert_eq!(engine.n(), 1200);
        check_engine(&engine, &symbols, 12);
        engine.tree.as_ref().unwrap().check_invariants();
    }

    #[test]
    fn append_from_empty_builds_incrementally() {
        let mut engine = Engine::build(&[], 6, cfg(), DEFAULT_C, Slack::Proportional);
        let io = IoSession::untracked();
        let symbols = psi_workloads::uniform(400, 6, 25);
        for &ch in &symbols {
            engine.append(ch, &io);
        }
        check_engine(&engine, &symbols, 6);
    }

    #[test]
    fn append_new_characters_mid_stream() {
        let mut engine = Engine::build(&vec![2u32; 100], 8, cfg(), DEFAULT_C, Slack::Proportional);
        let io = IoSession::untracked();
        let mut symbols = vec![2u32; 100];
        for ch in [0u32, 7, 5, 1, 6, 3, 4, 0, 7] {
            engine.append(ch, &io);
            symbols.push(ch);
        }
        check_engine(&engine, &symbols, 8);
    }

    #[test]
    fn rebuilds_happen_and_preserve_correctness() {
        let mut symbols = psi_workloads::uniform(200, 8, 27);
        let mut engine = Engine::build(&symbols, 8, cfg(), 5, Slack::Proportional);
        let io = IoSession::untracked();
        // Hammer one character to force weight violations.
        for _ in 0..2000 {
            engine.append(3, &io);
        }
        symbols.extend(std::iter::repeat_n(3, 2000));
        assert!(
            engine.stats.subtree_rebuilds + engine.stats.global_rebuilds > 0,
            "expected at least one rebuild"
        );
        check_engine(&engine, &symbols, 8);
    }
}
