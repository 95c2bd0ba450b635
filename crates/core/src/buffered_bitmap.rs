//! The buffered compressed bitmap index (Theorem 6, §4.2) — "a structure
//! that dynamizes the standard bitmap index while supporting point queries
//! efficiently", and a component "of independent interest".
//!
//! Layout, following the paper:
//!
//! * every character's compressed bitmap is "a list of positions of 1s …
//!   the gaps are encoded using gamma codes", cut into **leaf blocks** of
//!   at most `B/2` payload bits whose *first code is an absolute value* so
//!   each block decodes independently;
//! * a fanout-`c` tree sits above the blocks; "with each internal node …
//!   we associate a buffer of size B bits that stores a set of updates
//!   yet to be performed in one of the leaves below";
//! * an update goes "in the buffer corresponding to the root, which is
//!   always kept in the internal memory" (root-buffer writes are free);
//!   a full buffer moves a constant fraction of its updates to one child;
//!   updates reaching the leaf level are applied by re-encoding the leaf
//!   block (splitting it when it outgrows `B/2` bits);
//! * "each non-leaf block also stores an identifier for the first bitmap
//!   … stored in the subtree, to allow fast navigation" — our nodes key on
//!   `(character, first position)`.
//!
//! Point queries cost `O(T/B + lg n)` I/Os (leaf blocks of the character
//! plus the buffers on the paths covering them); updates cost amortized
//! `O(lg n / b)`. One deviation is documented in `DESIGN.md`: leaf blocks
//! hold a single character each (the paper lets a block span bitmap
//! boundaries), costing at most one extra partially-filled block per
//! character.

use std::collections::BTreeMap;

use psi_api::{check_range, HasDisk, RidSet, SecondaryIndex, Symbol};
use psi_bits::{codes, merge, BitBuf, GapBitmap};
use psi_io::{cost, Disk, ExtentId, IoConfig, IoSession, ReadError};

/// A pending update record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Update {
    ch: Symbol,
    pos: u64,
    delete: bool,
}

/// Bits per buffered update record on disk: 1 op + 32 char + 48 pos.
const UPDATE_BITS: u64 = 81;

/// A read's buffered updates for its characters: the net count (inserts
/// minus deletes) per `(character, position)`. Keyed in that order, so one
/// character's updates are one range, in position order.
type Pending = BTreeMap<(Symbol, u64), i64>;

#[derive(Debug)]
struct Leaf {
    ch: Symbol,
    /// First stored position (part of the routing key).
    first_pos: u64,
    count: u64,
    /// Payload bits: the `count` gamma codes that a read lifts.
    bits: u64,
    ext: ExtentId,
}

#[derive(Debug)]
enum Children {
    Internal(Vec<usize>),
    Leaves(Vec<usize>),
}

#[derive(Debug)]
struct BNode {
    children: Children,
    /// Routing key: smallest `(char, pos)` under this node.
    key: (Symbol, u64),
    /// On-disk buffer (one block); mirrored in memory for logic.
    buf_ext: ExtentId,
    buf: Vec<Update>,
}

/// Theorem 6's dynamized compressed bitmap index.
///
/// ```
/// use psi_core::BufferedBitmapIndex;
/// use psi_io::{IoConfig, IoSession};
///
/// let mut idx = BufferedBitmapIndex::new(4, IoConfig::default());
/// let io = IoSession::new();
/// idx.insert(2, 10, &io);
/// idx.insert(2, 30, &io);
/// idx.insert(1, 20, &io);
/// idx.remove(2, 30, &io);
/// assert_eq!(idx.point_query(2, &io), vec![10]);
/// assert_eq!(idx.point_query(1, &io), vec![20]);
/// ```
#[derive(Debug)]
pub struct BufferedBitmapIndex {
    disk: Disk,
    sigma: Symbol,
    /// Universe bound: 1 + the largest position ever inserted.
    universe: u64,
    /// Total live positions.
    total: u64,
    leaves: Vec<Leaf>,
    /// Ids in `leaves` that the tree does not hold, over freed extents:
    /// the next leaves written take them before any new id. Not
    /// persisted; an opened index derives them from the tree.
    spare_leaves: Vec<usize>,
    nodes: Vec<BNode>,
    root: usize,
    /// Fanout parameter `c ≥ 2`.
    c: usize,
    /// Per-character cardinalities (memory directory).
    counts: Vec<u64>,
}

impl BufferedBitmapIndex {
    /// An empty index over alphabet `[0, sigma)`.
    pub fn new(sigma: Symbol, config: IoConfig) -> Self {
        Self::build_from_lists(vec![Vec::new(); sigma as usize], config)
    }

    /// Bulk-builds from a string.
    pub fn build(symbols: &[Symbol], sigma: Symbol, config: IoConfig) -> Self {
        assert!(sigma > 0);
        let mut lists = vec![Vec::new(); sigma as usize];
        for (i, &s) in symbols.iter().enumerate() {
            assert!(s < sigma, "symbol {s} outside alphabet of size {sigma}");
            lists[s as usize].push(i as u64);
        }
        Self::build_from_lists(lists, config)
    }

    /// Bulk-builds from per-character sorted position lists (the
    /// fully-dynamic index feeds cut-node sets through this).
    pub fn build_from_lists(lists: Vec<Vec<u64>>, config: IoConfig) -> Self {
        let sigma = lists.len() as Symbol;
        assert!(sigma > 0);
        let io = IoSession::untracked();
        let disk = Disk::new(config);
        let payload_cap = config.block_bits / 2;
        let mut idx = BufferedBitmapIndex {
            disk,
            sigma,
            universe: 0,
            total: 0,
            leaves: Vec::new(),
            spare_leaves: Vec::new(),
            nodes: Vec::new(),
            root: 0,
            c: 8,
            counts: vec![0; sigma as usize],
        };
        // Cut each character's gap stream into <= B/2-bit leaves.
        let mut leaf_ids = Vec::new();
        for (ch, list) in lists.iter().enumerate() {
            idx.counts[ch] = list.len() as u64;
            idx.total += list.len() as u64;
            if let Some(&last) = list.last() {
                idx.universe = idx.universe.max(last + 1);
            }
            let mut chunk: Vec<u64> = Vec::new();
            let mut chunk_bits = 0u64;
            let mut prev: Option<u64> = None;
            for &p in list {
                let code_bits = match prev {
                    None => codes::gamma_len(p + 1),
                    Some(q) => codes::gamma_len(p - q),
                };
                if chunk_bits + code_bits > payload_cap && !chunk.is_empty() {
                    leaf_ids.push(idx.write_leaf(ch as Symbol, &chunk, &io));
                    chunk.clear();
                    // Re-anchor: the first code of a block is absolute.
                    chunk_bits = codes::gamma_len(p + 1);
                } else {
                    chunk_bits += code_bits;
                }
                chunk.push(p);
                prev = Some(p);
            }
            if !chunk.is_empty() {
                leaf_ids.push(idx.write_leaf(ch as Symbol, &chunk, &io));
            }
        }
        idx.rebuild_tree_over(leaf_ids);
        idx
    }

    /// Encodes one leaf block (first code absolute, then gaps). The leaf
    /// takes the most recently freed spare id and its extent, rewritten
    /// in place with no old block read, before it takes a new id.
    fn write_leaf(&mut self, ch: Symbol, positions: &[u64], io: &IoSession) -> usize {
        debug_assert!(!positions.is_empty());
        let id = self.spare_leaves.pop().unwrap_or_else(|| {
            let ext = self.disk.alloc();
            let empty = Leaf {
                ch,
                first_pos: 0,
                count: 0,
                bits: 0,
                ext,
            };
            self.leaves.push(empty);
            self.leaves.len() - 1
        });
        let ext = self.leaves[id].ext;
        self.disk.free(ext);
        let mut w = self.disk.writer(ext, io);
        let mut prev = None;
        for &p in positions {
            match prev {
                None => codes::put_gamma(&mut w, p + 1),
                Some(q) => codes::put_gamma(&mut w, p - q),
            }
            prev = Some(p);
        }
        self.leaves[id] = Leaf {
            ch,
            first_pos: positions[0],
            count: positions.len() as u64,
            bits: w.pos(),
            ext,
        };
        id
    }

    /// Lifts a leaf's code stream with whole-word reads, charged exactly
    /// as [`Self::read_leaf`] charges its code-by-code decode. A leaf's
    /// first code is `gamma(p + 1)`, the gap convention of [`GapBitmap`],
    /// so the lifted stream is a bitmap as it stands.
    fn lift_leaf(&self, leaf: usize, io: &IoSession) -> Result<GapBitmap, ReadError> {
        let l = &self.leaves[leaf];
        let bits = BitBuf::lift(&mut self.disk.reader(l.ext, 0, io), l.bits)?;
        Ok(GapBitmap::from_code_bits(bits, l.count, self.universe))
    }

    /// The per-code reference read of a leaf, which [`Self::lift_leaf`]
    /// must match in answer and in charge.
    #[cfg(test)]
    fn read_leaf(&self, leaf: usize, io: &IoSession) -> Vec<u64> {
        let l = &self.leaves[leaf];
        let mut r = self.disk.reader(l.ext, 0, io);
        let mut out = Vec::with_capacity(l.count as usize);
        let mut prev: Option<u64> = None;
        for _ in 0..l.count {
            let code = codes::get_gamma(&mut r);
            let p = match prev {
                None => code - 1,
                Some(q) => q + code,
            };
            out.push(p);
            prev = Some(p);
        }
        out
    }

    /// Builds a fresh fanout-`c` tree over the given leaves (in key order).
    /// The new nodes take the old nodes' buffer extents, emptied, before
    /// any new one.
    fn rebuild_tree_over(&mut self, leaf_ids: Vec<usize>) {
        let mut spare: Vec<ExtentId> = self.nodes.drain(..).map(|n| n.buf_ext).collect();
        for &ext in &spare {
            self.disk.free(ext);
        }
        // Leaf-parent level.
        let mut level: Vec<usize> = leaf_ids
            .chunks(self.c.max(2))
            .map(|chunk| {
                let key = self.leaf_key(chunk[0]);
                self.new_node(Children::Leaves(chunk.to_vec()), key, &mut spare)
            })
            .collect();
        if level.is_empty() {
            let key = (0, 0);
            level.push(self.new_node(Children::Leaves(Vec::new()), key, &mut spare));
        }
        while level.len() > 1 {
            level = level
                .chunks(self.c.max(2))
                .map(|chunk| {
                    let key = self.nodes[chunk[0]].key;
                    self.new_node(Children::Internal(chunk.to_vec()), key, &mut spare)
                })
                .collect();
        }
        self.root = level[0];
    }

    fn new_node(
        &mut self,
        children: Children,
        key: (Symbol, u64),
        spare: &mut Vec<ExtentId>,
    ) -> usize {
        let buf_ext = spare.pop().unwrap_or_else(|| self.disk.alloc());
        self.nodes.push(BNode {
            children,
            key,
            buf_ext,
            buf: Vec::new(),
        });
        self.nodes.len() - 1
    }

    fn leaf_key(&self, leaf: usize) -> (Symbol, u64) {
        (self.leaves[leaf].ch, self.leaves[leaf].first_pos)
    }

    /// Live routing key of a node: the key of its first leaf (stored keys
    /// go stale as leaves split and re-anchor).
    fn node_key(&self, v: usize) -> (Symbol, u64) {
        match &self.nodes[v].children {
            Children::Leaves(ls) => ls
                .first()
                .map(|&l| self.leaf_key(l))
                .unwrap_or(self.nodes[v].key),
            Children::Internal(kids) => kids
                .first()
                .map(|&k| self.node_key(k))
                .unwrap_or(self.nodes[v].key),
        }
    }

    /// Buffer capacity in records (`Θ(b)`).
    fn buf_cap(&self) -> usize {
        (self.disk.block_bits() / UPDATE_BITS).max(4) as usize
    }

    /// Inserts position `pos` for character `ch`.
    pub fn insert(&mut self, ch: Symbol, pos: u64, io: &IoSession) {
        self.update(
            Update {
                ch,
                pos,
                delete: false,
            },
            io,
        );
    }

    /// Deletes position `pos` from character `ch` (must be present once
    /// pending updates are folded in).
    pub fn remove(&mut self, ch: Symbol, pos: u64, io: &IoSession) {
        self.update(
            Update {
                ch,
                pos,
                delete: true,
            },
            io,
        );
    }

    fn update(&mut self, u: Update, io: &IoSession) {
        assert!(
            u.ch < self.sigma,
            "character {} outside alphabet {}",
            u.ch,
            self.sigma
        );
        self.universe = self.universe.max(u.pos + 1);
        if u.delete {
            self.counts[u.ch as usize] -= 1;
            self.total -= 1;
        } else {
            self.counts[u.ch as usize] += 1;
            self.total += 1;
        }
        // "Simply stored in the buffer corresponding to the root, which is
        // always kept in the internal memory" — no I/O for the root push.
        self.nodes[self.root].buf.push(u);
        self.cascade(self.root, io);
    }

    /// Flushes buffers downward while they overflow, stopping at the leaf
    /// level (or after a directory rebuild, which re-homes all buffers).
    fn cascade(&mut self, from: usize, io: &IoSession) {
        let mut v = from;
        while self.nodes[v].buf.len() >= self.buf_cap() {
            match self.flush(v, io) {
                Some(child) => v = child,
                None => break,
            }
        }
    }

    /// Flushes a constant fraction of `v`'s buffer to the child with the
    /// most pending updates; returns that child (so cascading continues
    /// there). Applies updates directly when `v` is a leaf parent and
    /// returns `None` (cascading stops; a directory rebuild may have
    /// re-homed every buffer).
    fn flush(&mut self, v: usize, io: &IoSession) -> Option<usize> {
        match &self.nodes[v].children {
            Children::Internal(kids) => {
                let kids = kids.clone();
                // Partition the buffer by routing target.
                let buf = std::mem::take(&mut self.nodes[v].buf);
                let mut per_kid: Vec<Vec<Update>> = vec![Vec::new(); kids.len()];
                for u in buf {
                    let t = self.route(&kids, u);
                    per_kid[t].push(u);
                }
                // Heaviest child receives its updates; the rest stay.
                let heavy = per_kid
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, b)| b.len())
                    .map(|(i, _)| i)
                    .expect("non-empty children");
                let moved = std::mem::take(&mut per_kid[heavy]);
                for (i, rest) in per_kid.into_iter().enumerate() {
                    if i != heavy {
                        self.nodes[v].buf.extend(rest);
                    }
                }
                let child = kids[heavy];
                self.nodes[child].buf.extend(moved);
                // Charge: rewrite v's buffer block and append to child's.
                self.disk.charge_block(self.nodes[v].buf_ext, 0, true, io);
                self.disk
                    .charge_block(self.nodes[child].buf_ext, 0, true, io);
                self.mirror_buffer(v, io);
                self.mirror_buffer(child, io);
                Some(child)
            }
            Children::Leaves(leaf_ids) => {
                let leaf_ids = leaf_ids.clone();
                let buf = std::mem::take(&mut self.nodes[v].buf);
                self.disk.charge_block(self.nodes[v].buf_ext, 0, true, io);
                self.apply_to_leaves(v, &leaf_ids, buf, io);
                self.mirror_buffer(v, io);
                // Degree overflow: rebuild the directory wholesale,
                // carrying every pending buffered update over.
                let degree = match &self.nodes[v].children {
                    Children::Leaves(ls) => ls.len(),
                    Children::Internal(_) => 0,
                };
                if degree > 4 * self.c {
                    self.rebuild_directory(io);
                }
                None
            }
        }
    }

    /// Rebuilds the fanout-`c` tree over all live leaves, preserving
    /// pending buffered updates by re-homing them in the new root buffer.
    fn rebuild_directory(&mut self, io: &IoSession) {
        let all = self.collect_leaves(self.root);
        let pending: Vec<Update> = self
            .nodes
            .iter_mut()
            .flat_map(|n| std::mem::take(&mut n.buf))
            .collect();
        self.rebuild_tree_over(all);
        self.nodes[self.root].buf = pending;
        self.mirror_buffer(self.root, io);
        self.cascade(self.root, io);
    }

    /// Writes the in-memory buffer mirror to its one-block extent (the
    /// block write was already charged by the caller; this keeps the disk
    /// contents faithful).
    fn mirror_buffer(&mut self, v: usize, _io: &IoSession) {
        let ext = self.nodes[v].buf_ext;
        self.disk.free(ext);
        let io = IoSession::untracked();
        let mut w = self.disk.writer(ext, &io);
        for u in &self.nodes[v].buf {
            w.write_bits(u64::from(u.delete), 1);
            w.write_bits(u64::from(u.ch), 32);
            w.write_bits(u.pos & ((1 << 48) - 1), 48);
        }
    }

    /// Routing: last child whose (live) key is `≤ (ch, pos)`. The strict
    /// B-tree rule keeps inserts and their later deletes on identical
    /// paths; inserts that precede a character's first position simply
    /// create a fresh, correctly-keyed leaf under the routed parent.
    fn route(&self, kids: &[usize], u: Update) -> usize {
        let key = (u.ch, u.pos);
        let mut t = 0;
        for (i, &k) in kids.iter().enumerate() {
            if self.node_key(k) <= key {
                t = i;
            } else {
                break;
            }
        }
        t
    }

    /// Applies a batch of updates at the leaf level of node `v`.
    fn apply_to_leaves(&mut self, v: usize, leaf_ids: &[usize], buf: Vec<Update>, io: &IoSession) {
        if buf.is_empty() {
            return;
        }
        // Group updates per leaf by key routing (including new characters,
        // which get fresh leaves).
        let mut per_leaf: std::collections::BTreeMap<usize, Vec<Update>> =
            std::collections::BTreeMap::new();
        let mut new_groups: std::collections::BTreeMap<Symbol, Vec<Update>> =
            std::collections::BTreeMap::new();
        for u in buf {
            // Strict rule: last leaf with key <= (ch, pos), but only if it
            // holds the same character; otherwise the update starts a new
            // leaf (an insert before the character's first position here,
            // or a character new to this subtree).
            let target = leaf_ids
                .iter()
                .enumerate()
                .filter(|&(_, &l)| self.leaf_key(l) <= (u.ch, u.pos))
                .map(|(i, _)| i)
                .next_back()
                .filter(|&t| self.leaves[leaf_ids[t]].ch == u.ch);
            match target {
                Some(t) => per_leaf.entry(t).or_default().push(u),
                None => new_groups.entry(u.ch).or_default().push(u),
            }
        }
        // Fold every targeted leaf first, so a leaf that empties frees its
        // id before any replacement needs one.
        let mut rewrites = Vec::with_capacity(per_leaf.len());
        for (t, ups) in per_leaf {
            let leaf = leaf_ids[t];
            // The write path has no error channel: a failed fetch panics
            // with its message, as promoting an unreadable extent does.
            let mut positions = self
                .lift_leaf(leaf, io)
                .unwrap_or_else(|err| panic!("{err}"))
                .to_vec();
            merge_updates(&mut positions, ups);
            self.disk.free(self.leaves[leaf].ext);
            if positions.is_empty() {
                self.spare_leaves.push(leaf);
            }
            rewrites.push((t, leaf, positions));
        }
        let mut replacement: Vec<usize> = leaf_ids.to_vec();
        // Rewrite per leaf, from the right so indices stay stable. Each
        // replaced leaf's id and extent go to its own first replacement.
        for (t, leaf, positions) in rewrites.into_iter().rev() {
            let ch = self.leaves[leaf].ch;
            if !positions.is_empty() {
                self.spare_leaves.push(leaf);
            }
            let new_leaves = self.reencode(ch, positions, io);
            replacement.splice(t..=t, new_leaves);
        }
        for (ch, ups) in new_groups {
            let mut positions = Vec::new();
            merge_updates(&mut positions, ups);
            let new_leaves = self.reencode(ch, positions, io);
            // Insert in key order (the group precedes every same-character
            // leaf in this subtree, so its first position keys it).
            if let Some(&first) = new_leaves.first() {
                let key = self.leaf_key(first);
                let at = replacement
                    .iter()
                    .position(|&l| self.leaf_key(l) > key)
                    .unwrap_or(replacement.len());
                replacement.splice(at..at, new_leaves);
            }
        }
        self.nodes[v].children = Children::Leaves(replacement.clone());
        if let Some(&first) = replacement.first() {
            self.nodes[v].key = self.leaf_key(first);
        }
        let _ = io;
    }

    /// Splits a position list into fresh `≤ B/2`-bit leaves; writes are
    /// charged.
    fn reencode(&mut self, ch: Symbol, positions: Vec<u64>, io: &IoSession) -> Vec<usize> {
        if positions.is_empty() {
            return Vec::new();
        }
        let payload_cap = self.disk.block_bits() / 2;
        let mut out = Vec::new();
        let mut chunk: Vec<u64> = Vec::new();
        let mut chunk_bits = 0u64;
        let mut prev: Option<u64> = None;
        for p in positions {
            let code_bits = match prev {
                None => codes::gamma_len(p + 1),
                Some(q) => codes::gamma_len(p - q),
            };
            if chunk_bits + code_bits > payload_cap && !chunk.is_empty() {
                out.push(self.write_leaf(ch, &chunk, io));
                chunk.clear();
                chunk_bits = codes::gamma_len(p + 1);
            } else {
                chunk_bits += code_bits;
            }
            chunk.push(p);
            prev = Some(p);
        }
        if !chunk.is_empty() {
            out.push(self.write_leaf(ch, &chunk, io));
        }
        out
    }

    fn collect_leaves(&self, v: usize) -> Vec<usize> {
        match &self.nodes[v].children {
            Children::Leaves(ls) => ls.clone(),
            Children::Internal(kids) => kids.iter().flat_map(|&k| self.collect_leaves(k)).collect(),
        }
    }

    /// The point query of Theorem 6: all positions of `ch`, merged with
    /// pending buffered updates, in `O(T/B + lg n)` I/Os.
    ///
    /// # Panics
    /// Panics with the [`ReadError`] message when a real read fails, as
    /// [`SecondaryIndex::query`] does.
    pub fn point_query(&self, ch: Symbol, io: &IoSession) -> Vec<u64> {
        let mut runs = Vec::new();
        self.char_runs(ch, ch, io, &mut runs)
            .unwrap_or_else(|err| panic!("{err}"));
        runs.pop().unwrap_or_default()
    }

    /// Appends to `runs` the positions of each character of `[lo, hi]`
    /// that has any, one strictly increasing run per character, in
    /// character order. Leaves are lifted in bulk and decoded by the SWAR
    /// kernel; the runs of distinct characters are disjoint. This is the
    /// read behind [`Self::point_query`], the alphabet range query, and
    /// the fully dynamic index's reads of consecutive node-characters.
    pub(crate) fn char_runs(
        &self,
        lo: Symbol,
        hi: Symbol,
        io: &IoSession,
        runs: &mut Vec<Vec<u64>>,
    ) -> Result<(), ReadError> {
        self.runs_with(lo, hi, io, |l| Ok(self.lift_leaf(l, io)?.to_vec()), runs)
    }

    /// [`Self::char_runs`] with each leaf decoded by `read`.
    ///
    /// A character's leaves arrive in `(char, first_pos)` order, so they
    /// concatenate into its sorted run. Its buffered updates are folded
    /// into that run alone: a row whose new character's insert has reached
    /// a leaf while its old character's delete is still buffered sits in
    /// two characters' leaves at once, and only the old character's fold
    /// removes it.
    fn runs_with(
        &self,
        lo: Symbol,
        hi: Symbol,
        io: &IoSession,
        read: impl Fn(usize) -> Result<Vec<u64>, ReadError>,
        runs: &mut Vec<Vec<u64>>,
    ) -> Result<(), ReadError> {
        check_range(lo, hi, self.sigma);
        let mut pending = Pending::new();
        let mut leaf_runs: Vec<(Symbol, Vec<u64>)> = Vec::new();
        self.walk(self.root, lo, hi, io, &mut pending, &mut |l| {
            let (ch, positions) = (self.leaves[l].ch, read(l)?);
            match leaf_runs.last_mut() {
                Some((c, run)) if *c == ch => {
                    // A leaf's own codes ascend; only where two leaves meet
                    // can the run break, and the fold would then drop or
                    // repeat rows.
                    if let (Some(&last), Some(&first)) = (run.last(), positions.first()) {
                        assert!(
                            last < first,
                            "leaves of character {ch} out of position order"
                        );
                    }
                    run.extend(positions)
                }
                _ => leaf_runs.push((ch, positions)),
            }
            Ok(())
        })?;
        let mut pending = pending.into_iter().peekable();
        let mut leaf_runs = leaf_runs.into_iter().peekable();
        // Characters with leaves, with buffered updates, or both, in order.
        while let Some(ch) = leaf_runs
            .peek()
            .map(|&(c, _)| c)
            .into_iter()
            .chain(pending.peek().map(|&((c, _), _)| c))
            .min()
        {
            let run = leaf_runs
                .next_if(|(c, _)| *c == ch)
                .map(|(_, run)| run)
                .unwrap_or_default();
            let updates = std::iter::from_fn(|| {
                pending
                    .next_if(|((c, _), _)| *c == ch)
                    .map(|((_, pos), net)| (pos, net))
            });
            let run = fold(ch, run, updates);
            if !run.is_empty() {
                runs.push(run);
            }
        }
        Ok(())
    }

    /// [`Self::char_runs`] with every leaf decoded code by code: the
    /// answer and the charge the lifted read must match.
    #[cfg(test)]
    pub(crate) fn char_runs_per_code(
        &self,
        lo: Symbol,
        hi: Symbol,
        io: &IoSession,
        runs: &mut Vec<Vec<u64>>,
    ) {
        self.runs_with(lo, hi, io, |l| Ok(self.read_leaf(l, io)), runs)
            .unwrap();
    }

    /// Whether a position sits in the leaves of two characters at once:
    /// its new character's insert has reached a leaf while its old
    /// character's delete is still buffered.
    #[cfg(test)]
    pub(crate) fn has_row_in_two_leaves(&self) -> bool {
        let mut owner = std::collections::HashMap::new();
        self.collect_leaves(self.root).into_iter().any(|l| {
            let ch = self.leaves[l].ch;
            self.read_leaf(l, &IoSession::untracked())
                .into_iter()
                .any(|p| owner.insert(p, ch).is_some_and(|c| c != ch))
        })
    }

    /// The walk of a read over characters `[lo, hi]`: charges each
    /// non-root buffer it visits (the root buffer is memory-resident and
    /// free), adds the buffered updates of `[lo, hi]` to `pending`, and
    /// hands each leaf of `[lo, hi]` to `leaf` in key order, so that
    /// buffer and leaf charges interleave as the tree is descended.
    fn walk(
        &self,
        v: usize,
        lo: Symbol,
        hi: Symbol,
        io: &IoSession,
        pending: &mut Pending,
        leaf: &mut impl FnMut(usize) -> Result<(), ReadError>,
    ) -> Result<(), ReadError> {
        let node = &self.nodes[v];
        if v != self.root && !node.buf.is_empty() {
            // Charge (and, on an opened store, fault) the buffer block.
            self.disk.charge_read_span(node.buf_ext, 0, 1, io)?;
            io.add_bits_read(node.buf.len() as u64 * UPDATE_BITS);
        }
        for u in node.buf.iter().filter(|u| (lo..=hi).contains(&u.ch)) {
            *pending.entry((u.ch, u.pos)).or_default() += if u.delete { -1 } else { 1 };
        }
        match &node.children {
            Children::Leaves(ls) => {
                for &l in ls {
                    if (lo..=hi).contains(&self.leaves[l].ch) {
                        leaf(l)?;
                    }
                }
            }
            Children::Internal(kids) => {
                for (i, &k) in kids.iter().enumerate() {
                    // Child covers keys [key_i, key_{i+1}); recurse if that
                    // intersects [(lo, 0), (hi, ∞)].
                    let from = self.node_key(k);
                    let to = kids.get(i + 1).map(|&nk| self.node_key(nk));
                    let starts_after = from.0 > hi;
                    let ends_before = to.map(|t| t <= (lo, 0)).unwrap_or(false);
                    if !starts_after && !ends_before {
                        self.walk(k, lo, hi, io, pending, leaf)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Cardinality of one character's set (memory directory).
    pub fn cardinality(&self, ch: Symbol) -> u64 {
        self.counts[ch as usize]
    }

    /// Total live positions.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of leaf blocks in the tree (diagnostics).
    pub fn num_leaf_blocks(&self) -> usize {
        self.leaves.len() - self.spare_leaves.len()
    }
}

/// Folds one character's buffered updates, `(position, net count)` in
/// position order, into its sorted leaf run. Buffers at different depths
/// hold updates of different ages (parents are newer), so their order is
/// not chronological; but each `(char, position)` pair alternates insert
/// and delete, so presence is the leaf occurrences plus the net count.
fn fold(ch: Symbol, run: Vec<u64>, updates: impl Iterator<Item = (u64, i64)>) -> Vec<u64> {
    let mut updates = updates.peekable();
    if updates.peek().is_none() {
        return run;
    }
    let mut out = Vec::with_capacity(run.len());
    let mut i = 0;
    for (pos, net) in updates {
        let j = i + run[i..].partition_point(|&p| p < pos);
        out.extend_from_slice(&run[i..j]);
        i = j;
        let base = i64::from(run.get(i) == Some(&pos));
        i += base as usize;
        debug_assert!(
            (0..=1).contains(&(base + net)),
            "character {ch} position {pos} has net count {}",
            base + net
        );
        if base + net > 0 {
            out.push(pos);
        }
    }
    out.extend_from_slice(&run[i..]);
    out
}

/// Unions disjoint, strictly increasing, non-empty runs into one bitmap
/// over `universe`, by the density rule of [`merge::plan`] over their
/// exact count and span.
pub(crate) fn union_runs(runs: Vec<Vec<u64>>, universe: u64) -> GapBitmap {
    let (total, span) =
        merge::cover_stats(runs.iter().map(|r| (r.len() as u64, r[0], r[r.len() - 1])));
    merge::merge_adaptive(
        runs.into_iter().map(Vec::into_iter).collect(),
        universe,
        total,
        span,
    )
}

/// Folds updates (already targeted at this list) into a sorted position
/// list.
fn merge_updates(positions: &mut Vec<u64>, ups: Vec<Update>) {
    for u in ups {
        match positions.binary_search(&u.pos) {
            Ok(i) => {
                if u.delete {
                    positions.remove(i);
                }
                // Duplicate insert: idempotent.
            }
            Err(i) => {
                if !u.delete {
                    positions.insert(i, u.pos);
                }
                // Deleting an absent position (it may still be buffered
                // upstream) is resolved by query-time folding; by the time
                // a delete reaches the leaf its insert has too (FIFO per
                // path), so this arm only fires for genuinely absent
                // positions, which is a caller bug in debug builds.
            }
        }
    }
}

impl HasDisk for BufferedBitmapIndex {
    fn disk(&self) -> &Disk {
        &self.disk
    }
}

impl SecondaryIndex for BufferedBitmapIndex {
    fn len(&self) -> u64 {
        self.total
    }

    fn sigma(&self) -> Symbol {
        self.sigma
    }

    fn space_bits(&self) -> u64 {
        // Leaf payloads + buffer blocks + the memory directory (one key
        // and one pointer per leaf/node).
        let field = cost::lg2_ceil(self.universe.max(2)) + 32;
        self.disk.used_bits()
            + (self.num_leaf_blocks() as u64 + self.nodes.len() as u64) * 2 * field
            + self.sigma as u64 * cost::lg2_ceil(self.universe.max(2))
    }

    fn try_query(&self, lo: Symbol, hi: Symbol, io: &IoSession) -> Result<RidSet, ReadError> {
        let mut runs = Vec::new();
        self.char_runs(lo, hi, io, &mut runs)?;
        Ok(RidSet::from_positions(union_runs(
            runs,
            self.universe.max(1),
        )))
    }
}

// ---------------------------------------------------------------------------
// Persistence (psi-store)

impl BufferedBitmapIndex {
    /// Serializes the directory: leaves, tree nodes, buffered updates
    /// (mirrored on disk too, but the in-memory form is authoritative
    /// for logic), counts and parameters.
    pub(crate) fn persist_meta(&self, out: &mut psi_store::MetaBuf) {
        out.put_u32(self.sigma);
        out.put_u64(self.universe);
        out.put_u64(self.total);
        out.put_len(self.root);
        out.put_len(self.c);
        out.put_vec_u64(&self.counts);
        out.put_len(self.leaves.len());
        for l in &self.leaves {
            out.put_u32(l.ch);
            out.put_u64(l.first_pos);
            out.put_u64(l.count);
            out.put_u64(l.bits);
            out.put_u32(l.ext.0);
        }
        out.put_len(self.nodes.len());
        for n in &self.nodes {
            match &n.children {
                Children::Internal(kids) => {
                    out.put_u8(0);
                    out.put_vec_u64(&kids.iter().map(|&k| k as u64).collect::<Vec<_>>());
                }
                Children::Leaves(ls) => {
                    out.put_u8(1);
                    out.put_vec_u64(&ls.iter().map(|&l| l as u64).collect::<Vec<_>>());
                }
            }
            out.put_u32(n.key.0);
            out.put_u64(n.key.1);
            out.put_u32(n.buf_ext.0);
            out.put_len(n.buf.len());
            for u in &n.buf {
                out.put_u32(u.ch);
                out.put_u64(u.pos);
                out.put_bool(u.delete);
            }
        }
    }

    /// Rebuilds the index over a reopened disk.
    pub(crate) fn restore_meta(
        meta: &mut psi_store::MetaCursor,
        disk: Disk,
    ) -> Result<Self, psi_store::StoreError> {
        let check_ext = |id: u32| psi_store::check_extent(&disk, id, "bbi");
        let meta_err = |what: String| psi_store::StoreError::Meta { what };
        let sigma = meta.get_u32()?;
        let universe = meta.get_u64()?;
        let total = meta.get_u64()?;
        let root = meta.get_u64()? as usize;
        let c = meta.get_u64()? as usize;
        let counts = meta.get_vec_u64()?;
        if counts.len() != sigma as usize {
            return Err(meta_err(format!(
                "bbi has {} counts for σ = {sigma}",
                counts.len()
            )));
        }
        let num_leaves = meta.get_len(29)?;
        let mut leaves = Vec::with_capacity(num_leaves);
        for _ in 0..num_leaves {
            leaves.push(Leaf {
                ch: meta.get_u32()?,
                first_pos: meta.get_u64()?,
                count: meta.get_u64()?,
                bits: meta.get_u64()?,
                ext: check_ext(meta.get_u32()?)?,
            });
        }
        let num_nodes = meta.get_len(30)?;
        let mut nodes = Vec::with_capacity(num_nodes);
        for _ in 0..num_nodes {
            let kind = meta.get_u8()?;
            let ids: Vec<usize> = meta
                .get_vec_u64()?
                .into_iter()
                .map(|x| x as usize)
                .collect();
            let children = match kind {
                0 => Children::Internal(ids),
                1 => Children::Leaves(ids),
                t => return Err(meta_err(format!("bbi child tag {t}"))),
            };
            let key = (meta.get_u32()?, meta.get_u64()?);
            let buf_ext = check_ext(meta.get_u32()?)?;
            let buf_len = meta.get_len(13)?;
            let mut buf = Vec::with_capacity(buf_len);
            for _ in 0..buf_len {
                buf.push(Update {
                    ch: meta.get_u32()?,
                    pos: meta.get_u64()?,
                    delete: meta.get_bool()?,
                });
            }
            nodes.push(BNode {
                children,
                key,
                buf_ext,
                buf,
            });
        }
        if root >= nodes.len() {
            return Err(meta_err("bbi root out of range".into()));
        }
        // Reads descend from the root: every child id must exist, and no
        // node or leaf may hang below two parents (or the root below any),
        // so the walk from the root is finite.
        let mut node_refs = vec![0u8; nodes.len()];
        let mut leaf_refs = vec![0u8; leaves.len()];
        node_refs[root] = 1;
        for (v, node) in nodes.iter().enumerate() {
            let (ids, refs, what) = match &node.children {
                Children::Internal(kids) => (kids, &mut node_refs, "node"),
                Children::Leaves(ls) => (ls, &mut leaf_refs, "leaf"),
            };
            for &id in ids {
                match refs.get_mut(id) {
                    Some(r) if *r == 0 => *r = 1,
                    _ => {
                        return Err(meta_err(format!(
                            "bbi node {v} points at {what} {id}, out of range or shared"
                        )))
                    }
                }
            }
        }
        // A read lifts exactly `bits` bits of each leaf in the tree, all
        // positions below the universe, and concatenates one character's
        // leaves in tree order into its sorted run, so the tree's leaves
        // ascend in `(char, first position)`. Listed leaves outside the
        // tree are never read: they are the spare ids the next writes
        // take (and files written before ids were reused list every leaf
        // an update replaced).
        let spare_leaves = (0..leaves.len()).filter(|&i| leaf_refs[i] == 0).collect();
        let mut prev = None;
        let mut stack = vec![root];
        while let Some(v) = stack.pop() {
            let ls = match &nodes[v].children {
                Children::Internal(kids) => {
                    stack.extend(kids.iter().rev());
                    continue;
                }
                Children::Leaves(ls) => ls,
            };
            for &i in ls {
                let leaf = &leaves[i];
                if leaf.ch >= sigma {
                    return Err(meta_err(format!(
                        "bbi leaf {i} holds character {} outside σ = {sigma}",
                        leaf.ch
                    )));
                }
                let key = (leaf.ch, leaf.first_pos);
                if prev.is_some_and(|p| p >= key) {
                    return Err(meta_err(format!(
                        "bbi leaf {i} keyed {key:?} follows {prev:?} in the tree"
                    )));
                }
                prev = Some(key);
                psi_store::check_bitmap(
                    &disk,
                    leaf.ext,
                    (0, leaf.bits),
                    leaf.count,
                    (Some(leaf.first_pos), universe.checked_sub(1)),
                    || format!("bbi leaf {i}"),
                )?;
            }
        }
        Ok(BufferedBitmapIndex {
            disk,
            sigma,
            universe,
            total,
            leaves,
            spare_leaves,
            nodes,
            root,
            c,
            counts,
        })
    }
}

impl psi_store::PersistIndex for BufferedBitmapIndex {
    const TAG: &'static str = "buffered_bitmap";

    fn write_meta(&self, out: &mut psi_store::MetaBuf) {
        self.persist_meta(out);
    }

    fn disks(&self) -> Vec<&Disk> {
        vec![HasDisk::disk(self)]
    }

    fn from_parts(
        meta: &mut psi_store::MetaCursor,
        disks: Vec<Disk>,
    ) -> Result<Self, psi_store::StoreError> {
        let disk = psi_store::single_volume(disks, "buffered bitmap")?;
        Self::restore_meta(meta, disk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn cfg() -> IoConfig {
        IoConfig::with_block_bits(512)
    }

    #[test]
    fn bulk_build_point_queries() {
        let symbols = psi_workloads::uniform(3000, 16, 51);
        let idx = BufferedBitmapIndex::build(&symbols, 16, cfg());
        let io = IoSession::new();
        for ch in 0..16u32 {
            let want: Vec<u64> = symbols
                .iter()
                .enumerate()
                .filter(|(_, &s)| s == ch)
                .map(|(i, _)| i as u64)
                .collect();
            assert_eq!(idx.point_query(ch, &io), want, "char {ch}");
            assert_eq!(idx.cardinality(ch) as usize, want.len());
        }
    }

    #[test]
    fn inserts_and_deletes_fold_correctly() {
        let mut idx = BufferedBitmapIndex::new(8, cfg());
        let io = IoSession::untracked();
        let mut truth: Vec<std::collections::BTreeSet<u64>> =
            vec![std::collections::BTreeSet::new(); 8];
        let mut rng = StdRng::seed_from_u64(53);
        for step in 0..5000u64 {
            let ch = rng.gen_range(0..8u32);
            if rng.gen_bool(0.8) || truth[ch as usize].is_empty() {
                let pos = step * 7 + u64::from(ch); // unique positions
                idx.insert(ch, pos, &io);
                truth[ch as usize].insert(pos);
            } else {
                let &pos = truth[ch as usize].iter().next().expect("non-empty");
                idx.remove(ch, pos, &io);
                truth[ch as usize].remove(&pos);
            }
        }
        for ch in 0..8u32 {
            let want: Vec<u64> = truth[ch as usize].iter().copied().collect();
            assert_eq!(idx.point_query(ch, &io), want, "char {ch}");
        }
    }

    #[test]
    fn range_queries_match_naive() {
        let symbols = psi_workloads::zipf(2000, 12, 1.1, 57);
        let mut idx = BufferedBitmapIndex::build(&symbols, 12, cfg());
        let io = IoSession::untracked();
        // A few updates on top of the bulk build.
        idx.insert(3, 50_000, &io);
        idx.remove(symbols[10], 10, &io);
        let mut current = symbols.clone();
        current[10] = u32::MAX; // deleted marker for the naive model
        for (lo, hi) in [(0u32, 11u32), (3, 3), (2, 7)] {
            let want: Vec<u64> = current
                .iter()
                .enumerate()
                .filter(|(_, &s)| s != u32::MAX && (lo..=hi).contains(&s))
                .map(|(i, _)| i as u64)
                .chain(((lo..=hi).contains(&3)).then_some(50_000u64))
                .collect();
            let io2 = IoSession::new();
            assert_eq!(idx.query(lo, hi, &io2).to_vec(), want, "range [{lo}, {hi}]");
        }
    }

    #[test]
    fn update_cost_is_sub_one_io_amortized() {
        let mut idx = BufferedBitmapIndex::new(32, IoConfig::default());
        let io = IoSession::new();
        let n = 50_000u64;
        let mut rng = StdRng::seed_from_u64(59);
        for pos in 0..n {
            idx.insert(rng.gen_range(0..32u32), pos, &io);
        }
        let per_update = io.stats().total() as f64 / n as f64;
        // Theorem 6: amortized O(lg n / b) ~ 17/400 << 1.
        assert!(
            per_update < 1.0,
            "amortized {per_update:.3} I/Os per update"
        );
    }

    #[test]
    fn point_query_cost_is_output_sensitive() {
        let symbols = psi_workloads::uniform(1 << 16, 8, 61);
        let idx = BufferedBitmapIndex::build(&symbols, 8, IoConfig::default());
        let io = IoSession::new();
        let result = idx.point_query(3, &io);
        let t_bits = psi_io::cost::output_bits(1 << 16, result.len() as u64);
        let bound = t_bits / 8192.0 + (16 + 8) as f64;
        assert!(
            (io.stats().reads as f64) < 4.0 * bound,
            "{} reads vs T/B + lg n = {bound:.1}",
            io.stats().reads
        );
    }

    #[test]
    fn new_characters_appear_via_updates() {
        let mut idx = BufferedBitmapIndex::new(4, cfg());
        let io = IoSession::untracked();
        for p in 0..500u64 {
            idx.insert((p % 3) as u32, p, &io);
        }
        // Character 3 never seen at build: insert it now.
        idx.insert(3, 1000, &io);
        idx.insert(3, 2000, &io);
        // Force everything down by volume.
        for p in 0..2000u64 {
            idx.insert(0, 10_000 + p, &io);
        }
        assert_eq!(idx.point_query(3, &io), vec![1000, 2000]);
    }

    /// Every range of `idx`, answered by the lifted read, against the
    /// naive answer over `current` and against the per-code reference
    /// read of `reference` (a RAM build holding the same index), rows and
    /// charge.
    fn assert_reads_match_per_code(
        idx: &BufferedBitmapIndex,
        reference: &BufferedBitmapIndex,
        current: &[Symbol],
    ) {
        for lo in 0..idx.sigma {
            for hi in lo..idx.sigma {
                let (lifted, per_code) = (IoSession::new(), IoSession::new());
                let got = idx.query(lo, hi, &lifted).to_vec();
                let mut runs = Vec::new();
                reference.char_runs_per_code(lo, hi, &per_code, &mut runs);
                let mut want: Vec<u64> = runs.concat();
                want.sort_unstable();
                assert_eq!(got, want, "[{lo}, {hi}] against the per-code read");
                assert_eq!(
                    got,
                    psi_api::naive_query(current, lo, hi).to_vec(),
                    "[{lo}, {hi}]"
                );
                assert!(lifted.stats().reads > 0);
                assert_eq!(lifted.stats(), per_code.stats(), "[{lo}, {hi}] charge");
            }
        }
    }

    #[test]
    fn lifted_reads_answer_and_charge_like_per_code_reads() {
        let sigma = 12u32;
        let mut current = psi_workloads::zipf(6000, sigma, 1.0, 63);
        let mut idx = BufferedBitmapIndex::build(&current, sigma, cfg());
        let io = IoSession::untracked();
        let mut rng = StdRng::seed_from_u64(65);
        // Row moves leave updates buffered at every depth.
        for _ in 0..3000 {
            let pos = rng.gen_range(0..current.len());
            let to = rng.gen_range(0..sigma);
            idx.remove(current[pos], pos as u64, &io);
            idx.insert(to, pos as u64, &io);
            current[pos] = to;
        }
        assert!(idx.nodes.iter().any(|n| n.buf.len() > 1));
        assert_reads_match_per_code(&idx, &idx, &current);
        let dir = std::env::temp_dir().join(format!("psi_core_bbi_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("bbi.psi");
        psi_store::save(&idx, &path).expect("save");
        let opened =
            psi_store::open::<BufferedBitmapIndex>(&path, &psi_store::OpenOptions::default())
                .expect("open");
        assert_reads_match_per_code(&opened.index, &idx, &current);
        assert!(opened.real_fetches() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Leaves in the tree now.
    fn tree_leaves(idx: &BufferedBitmapIndex) -> usize {
        idx.collect_leaves(idx.root).len()
    }

    #[test]
    fn rewrites_reuse_leaf_ids_and_extents() {
        let sigma = 8u32;
        let mut current = psi_workloads::zipf(3000, sigma, 1.0, 71);
        let mut idx = BufferedBitmapIndex::build(&current, sigma, cfg());
        let io = IoSession::untracked();
        let mut rng = StdRng::seed_from_u64(73);
        let (mut most_leaves, mut most_nodes) = (tree_leaves(&idx), idx.nodes.len());
        let (mut removed, mut next) = (Vec::new(), current.len() as u64);
        for step in 0..40_000u32 {
            let pos = rng.gen_range(0..current.len());
            if step % 5 == 0 && current[pos] < sigma {
                // Remove a row; a later step inserts a fresh one.
                idx.remove(current[pos], pos as u64, &io);
                current[pos] = sigma;
                removed.push(pos);
            } else if step % 5 == 1 && !removed.is_empty() {
                let at = removed.swap_remove(rng.gen_range(0..removed.len()));
                let to = rng.gen_range(0..sigma);
                idx.insert(to, at as u64, &io);
                current[at] = to;
            } else if step % 97 == 0 {
                idx.insert(0, next, &io);
                current.push(0);
                next += 1;
            } else if current[pos] < sigma {
                let to = rng.gen_range(0..sigma);
                idx.remove(current[pos], pos as u64, &io);
                idx.insert(to, pos as u64, &io);
                current[pos] = to;
            }
            most_leaves = most_leaves.max(tree_leaves(&idx));
            most_nodes = most_nodes.max(idx.nodes.len());
            assert!(
                idx.leaves.len() <= most_leaves,
                "step {step}: {} leaves listed, at most {most_leaves} in the tree",
                idx.leaves.len()
            );
            assert!(
                idx.disk.num_extents() <= most_leaves + most_nodes,
                "step {step}: {} extents for at most {most_leaves} leaves and {most_nodes} nodes",
                idx.disk.num_extents()
            );
        }
        // Removed rows hold `sigma`, which no range matches.
        let check = |idx: &BufferedBitmapIndex, current: &[Symbol]| {
            for lo in 0..sigma {
                for hi in lo..sigma {
                    let got = idx.query(lo, hi, &IoSession::new()).to_vec();
                    let want = psi_api::naive_query(current, lo, hi).to_vec();
                    assert_eq!(got, want, "[{lo}, {hi}]");
                }
            }
        };
        check(&idx, &current);
        let dir = std::env::temp_dir().join(format!("psi_core_bbi_reuse_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("bbi.psi");
        psi_store::save(&idx, &path).expect("save");
        let opened =
            psi_store::open::<BufferedBitmapIndex>(&path, &psi_store::OpenOptions::default())
                .expect("open");
        check(&opened.index, &current);
        let mut reopened = opened.index;
        for p in 0..2000u64 {
            reopened.insert(1, next + p, &io);
            current.push(1);
        }
        assert!(reopened.leaves.len() <= most_leaves.max(tree_leaves(&reopened)));
        check(&reopened, &current);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Swaps the first two side-by-side leaves of one character in a leaf
    /// parent, so that character's leaves leave position order.
    fn swap_same_char_leaves(idx: &mut BufferedBitmapIndex) {
        let leaves = &idx.leaves;
        let (v, i) = idx
            .nodes
            .iter()
            .enumerate()
            .find_map(|(v, n)| match &n.children {
                Children::Leaves(ls) => ls
                    .windows(2)
                    .position(|w| leaves[w[0]].ch == leaves[w[1]].ch)
                    .map(|i| (v, i)),
                Children::Internal(_) => None,
            })
            .expect("two leaves of one character side by side");
        if let Children::Leaves(ls) = &mut idx.nodes[v].children {
            ls.swap(i, i + 1);
        }
    }

    #[test]
    #[should_panic(expected = "out of position order")]
    fn leaves_out_of_order_fail_the_read_instead_of_answering() {
        let symbols = psi_workloads::uniform(4000, 6, 67);
        let mut idx = BufferedBitmapIndex::build(&symbols, 6, cfg());
        swap_same_char_leaves(&mut idx);
        idx.query(0, 5, &IoSession::untracked());
    }

    #[test]
    fn corrupt_tree_metadata_is_a_typed_error() {
        // Two tree levels over 80-odd leaves, with buffered updates.
        fn make() -> BufferedBitmapIndex {
            let symbols = psi_workloads::uniform(4000, 6, 67);
            let mut idx = BufferedBitmapIndex::build(&symbols, 6, cfg());
            let io = IoSession::untracked();
            for p in 0..40u64 {
                idx.insert((p % 6) as u32, 4000 + p, &io);
            }
            assert!(matches!(
                idx.nodes[idx.root].children,
                Children::Internal(_)
            ));
            idx
        }
        fn restore(idx: BufferedBitmapIndex) -> Result<BufferedBitmapIndex, psi_store::StoreError> {
            let mut meta = psi_store::MetaBuf::new();
            idx.persist_meta(&mut meta);
            BufferedBitmapIndex::restore_meta(
                &mut psi_store::MetaCursor::new(meta.bytes()),
                idx.disk,
            )
        }
        fn root_kids(idx: &mut BufferedBitmapIndex) -> &mut Vec<usize> {
            match &mut idx.nodes[idx.root].children {
                Children::Internal(kids) => kids,
                Children::Leaves(_) => unreachable!("the root is internal"),
            }
        }
        fn live_leaf(idx: &mut BufferedBitmapIndex) -> &mut Leaf {
            let l = idx.collect_leaves(idx.root)[0];
            &mut idx.leaves[l]
        }
        assert!(restore(make()).is_ok());
        type Corrupt = fn(&mut BufferedBitmapIndex);
        let cases: [(&str, Corrupt); 8] = [
            ("leaf id out of range", |idx| {
                let v = idx
                    .nodes
                    .iter()
                    .position(|n| matches!(n.children, Children::Leaves(_)))
                    .expect("a leaf parent");
                if let Children::Leaves(ls) = &mut idx.nodes[v].children {
                    ls[0] = 99_999;
                }
            }),
            ("node id out of range", |idx| root_kids(idx)[0] = 99_999),
            ("root below a parent", |idx| {
                let root = idx.root;
                root_kids(idx)[1] = root;
            }),
            ("leaf character outside σ", |idx| {
                let sigma = idx.sigma;
                live_leaf(idx).ch = sigma;
            }),
            ("counts not one per character", |idx| idx.counts.push(0)),
            ("leaf bits past the extent", |idx| {
                live_leaf(idx).bits = 1 << 40
            }),
            ("leaf first position past the universe", |idx| {
                let universe = idx.universe;
                live_leaf(idx).first_pos = universe;
            }),
            (
                "one character's leaves out of position order",
                swap_same_char_leaves,
            ),
        ];
        for (what, corrupt) in cases {
            let mut idx = make();
            corrupt(&mut idx);
            assert!(
                matches!(restore(idx), Err(psi_store::StoreError::Meta { .. })),
                "{what} accepted"
            );
        }
    }

    #[test]
    fn empty_index_queries() {
        let idx = BufferedBitmapIndex::new(4, cfg());
        let io = IoSession::new();
        assert!(idx.point_query(2, &io).is_empty());
        assert_eq!(idx.total(), 0);
    }
}
