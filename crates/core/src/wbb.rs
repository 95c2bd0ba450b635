//! Weight-balanced B-tree over a character multiset (paper §2.2, after
//! Arge & Vitter, ref 4 of the paper).
//!
//! The tree `W` is conceptually built over the **multiset** of the string's
//! characters, "ordered primarily by the order on Σ, secondarily by the
//! ordering of positions", then *pruned*: "remove all the children of an
//! internal node v if all leaves below v contain the same character". We
//! build the pruned tree directly from per-character counts: a node whose
//! multiset range is uniform is a leaf; everything else splits into ~`c`
//! near-equal-weight children. The essential Arge–Vitter property is
//! preserved: a node at level `i` from the bottom has weight `Θ(cⁱ)`
//! (within `[cⁱ/2, 2cⁱ]` between rebuilds), so canonical subtrees of a
//! range query decrease geometrically in weight — the key to the paper's
//! `O(z lg(n/z))`-bit reading bound.
//!
//! This module is the pure in-memory *mirror* of the tree shape: weights,
//! character spans, parent/child links, append paths, balance violations
//! and subtree rebuilds. The on-disk blocked layout and the per-node
//! bitmap storage live in the engine (`crate::engine`), which charges all
//! I/O; the paper likewise keeps the `O(σ lg² n)`-bit tree directory
//! separate from the bitmap payload.

use psi_api::Symbol;

/// Index of a node in the tree arena.
pub type NodeId = u32;

/// One tree node. Leaves (`children.is_empty()`) are *pruned* uniform
/// subtrees: all `weight` multiset entries below them share one character.
#[derive(Debug, Clone)]
pub struct Node {
    /// Parent link (`None` for the root).
    pub parent: Option<NodeId>,
    /// Depth from the root (root = 0).
    pub depth: u32,
    /// Number of multiset entries (string positions) below this node.
    pub weight: u64,
    /// Smallest character below this node.
    pub char_lo: Symbol,
    /// Largest character below this node.
    pub char_hi: Symbol,
    /// Children in left-to-right (multiset) order; empty for leaves.
    pub children: Vec<NodeId>,
    /// Nodes replaced by a rebuild stay in the arena, marked dead.
    pub dead: bool,
}

impl Node {
    /// Whether this is a pruned leaf.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// The single character of a pruned leaf.
    ///
    /// # Panics
    /// Panics if called on an internal node.
    pub fn leaf_char(&self) -> Symbol {
        assert!(self.is_leaf(), "leaf_char on internal node");
        debug_assert_eq!(self.char_lo, self.char_hi);
        self.char_lo
    }
}

/// A `(character, multiplicity)` run of the multiset, the unit of static
/// construction and rebuilds.
pub type CharRun = (Symbol, u64);

/// The pruned weight-balanced tree.
#[derive(Debug, Clone)]
pub struct WbbTree {
    /// Branching parameter `c` (the paper requires a constant `> 4`).
    pub c: u32,
    nodes: Vec<Node>,
    root: NodeId,
    /// `h` such that the root is at level `h` from the bottom: the smallest
    /// `h` with `cʰ ≥ n` at build time. Balance caps are `2c^(h−d)`.
    pub h: u32,
}

impl WbbTree {
    /// Builds the pruned tree from per-character counts.
    ///
    /// # Panics
    /// Panics if `c < 5` (the paper's branching parameter is a constant
    /// `> 4`) or if all counts are zero.
    pub fn build(counts: &[u64], c: u32) -> Self {
        let runs: Vec<CharRun> = counts
            .iter()
            .enumerate()
            .filter(|(_, &w)| w > 0)
            .map(|(ch, &w)| (ch as Symbol, w))
            .collect();
        Self::build_from_runs(&runs, c)
    }

    /// Builds the pruned tree from explicit character runs (sorted by
    /// character, strictly increasing, positive multiplicities).
    pub fn build_from_runs(runs: &[CharRun], c: u32) -> Self {
        assert!(c >= 5, "branching parameter must be > 4 (got {c})");
        assert!(!runs.is_empty(), "cannot build over an empty multiset");
        debug_assert!(
            runs.windows(2).all(|w| w[0].0 < w[1].0),
            "runs must be sorted by character"
        );
        debug_assert!(runs.iter().all(|&(_, w)| w > 0), "runs must be non-empty");
        let n: u64 = runs.iter().map(|&(_, w)| w).sum();
        let h = height_for(n, c);
        let mut tree = WbbTree {
            c,
            nodes: Vec::new(),
            root: 0,
            h,
        };
        let root = tree.build_rec(runs, 0, None);
        tree.root = root;
        tree
    }

    /// Recursively builds the subtree over `runs` at `depth`, returning its
    /// root id. Runs may carry partial character multiplicities (a
    /// character split across siblings).
    fn build_rec(&mut self, runs: &[CharRun], depth: u32, parent: Option<NodeId>) -> NodeId {
        let weight: u64 = runs.iter().map(|&(_, w)| w).sum();
        let char_lo = runs[0].0;
        let char_hi = runs[runs.len() - 1].0;
        let id = self.push(Node {
            parent,
            depth,
            weight,
            char_lo,
            char_hi,
            children: Vec::new(),
            dead: false,
        });
        if runs.len() == 1 {
            return id; // uniform range: pruned leaf
        }
        // Split into k near-equal parts of ~weight/c each (k capped so each
        // child is non-empty).
        let k = weight
            .div_ceil((weight.div_ceil(u64::from(self.c))).max(1))
            .clamp(2, u64::from(4 * self.c))
            .min(weight) as usize;
        let mut children = Vec::with_capacity(k);
        let mut part: Vec<CharRun> = Vec::new();
        let mut consumed = 0u64; // weight handed to finished parts
        let mut part_idx = 0usize;
        let mut run_iter = runs.iter().copied();
        let mut current: Option<CharRun> = run_iter.next();
        while part_idx < k {
            // Target cumulative weight after this part (balanced rounding).
            let target = weight * (part_idx as u64 + 1) / k as u64;
            let mut have = consumed;
            part.clear();
            while have < target {
                let (ch, avail) = current.expect("ran out of runs before weight");
                let take = avail.min(target - have);
                part.push((ch, take));
                have += take;
                if take == avail {
                    current = run_iter.next();
                } else {
                    current = Some((ch, avail - take));
                }
            }
            consumed = have;
            let part_runs = std::mem::take(&mut part);
            let child = self.build_rec(&part_runs, depth + 1, Some(id));
            children.push(child);
            part_idx += 1;
        }
        debug_assert!(current.is_none(), "unconsumed runs after split");
        self.nodes[id as usize].children = children;
        id
    }

    fn push(&mut self, node: Node) -> NodeId {
        let id = u32::try_from(self.nodes.len()).expect("node ids exhausted");
        self.nodes.push(node);
        id
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Immutable node access.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id as usize]
    }

    /// Number of arena slots (including dead nodes).
    pub fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    /// Total weight (current `n`).
    pub fn total_weight(&self) -> u64 {
        self.node(self.root).weight
    }

    /// Number of live nodes.
    pub fn live_nodes(&self) -> usize {
        self.nodes.iter().filter(|n| !n.dead).count()
    }

    /// Maximum depth among live nodes.
    pub fn max_depth(&self) -> u32 {
        self.nodes
            .iter()
            .filter(|n| !n.dead)
            .map(|n| n.depth)
            .max()
            .unwrap_or(0)
    }

    /// Iterates live leaves of the subtree under `v`, in multiset order,
    /// as `(leaf id, character, weight)`.
    pub fn leaves_under(&self, v: NodeId) -> Vec<(NodeId, Symbol, u64)> {
        let mut out = Vec::new();
        self.leaves_under_rec(v, &mut out);
        out
    }

    fn leaves_under_rec(&self, v: NodeId, out: &mut Vec<(NodeId, Symbol, u64)>) {
        let node = self.node(v);
        if node.is_leaf() {
            out.push((v, node.leaf_char(), node.weight));
        } else {
            for &ch in &node.children {
                self.leaves_under_rec(ch, out);
            }
        }
    }

    /// Aggregated character runs under `v` (adjacent same-character leaves
    /// merged) — the rebuild input.
    pub fn runs_under(&self, v: NodeId) -> Vec<CharRun> {
        let mut runs: Vec<CharRun> = Vec::new();
        for (_, ch, w) in self.leaves_under(v) {
            match runs.last_mut() {
                Some((last_ch, last_w)) if *last_ch == ch => *last_w += w,
                _ => runs.push((ch, w)),
            }
        }
        runs
    }

    /// The balance cap for a node at `depth`: `2·c^(h−depth)`, clamped at
    /// the bottom. Appends may only violate this upper bound.
    pub fn weight_cap(&self, depth: u32) -> u64 {
        let level = self.h.saturating_sub(depth);
        2u64.saturating_mul(u64::from(self.c).saturating_pow(level))
    }

    /// Descends for an append of character `ch` at the multiset tail of
    /// that character, incrementing weights along the way. Returns the
    /// root-to-leaf path (the leaf last). Creates a new singleton leaf if
    /// the character was previously absent.
    pub fn append_path(&mut self, ch: Symbol) -> Vec<NodeId> {
        let mut path = Vec::new();
        let mut v = self.root;
        loop {
            self.nodes[v as usize].weight += 1;
            let node = &mut self.nodes[v as usize];
            node.char_lo = node.char_lo.min(ch);
            node.char_hi = node.char_hi.max(ch);
            path.push(v);
            if self.nodes[v as usize].is_leaf() {
                break;
            }
            // Last child whose span can hold ch (appends go to the tail of
            // the character's occurrences); fall back to the first child.
            let children = self.nodes[v as usize].children.clone();
            let mut next = children[0];
            for &child in &children {
                if self.nodes[child as usize].char_lo <= ch {
                    next = child;
                } else {
                    break;
                }
            }
            v = next;
        }
        let leaf = *path.last().expect("path non-empty");
        if self.nodes[leaf as usize].leaf_is_for(ch) {
            return path;
        }
        // The leaf holds a different character: undo its increment and
        // attach a fresh singleton leaf as its sibling.
        self.nodes[leaf as usize].weight -= 1;
        let old = &self.nodes[leaf as usize];
        let (lo, hi) = (old.char_lo.min(ch), old.char_hi.max(ch));
        // Restore the old leaf's span (the increment loop widened it).
        let old_char = if old.char_lo == ch {
            old.char_hi
        } else {
            old.char_lo
        };
        let before = ch < old_char;
        let depth = old.depth;
        let parent = old.parent;
        self.nodes[leaf as usize].char_lo = old_char;
        self.nodes[leaf as usize].char_hi = old_char;
        let new_leaf = self.push(Node {
            parent,
            depth,
            weight: 1,
            char_lo: ch,
            char_hi: ch,
            children: Vec::new(),
            dead: false,
        });
        match parent {
            Some(p) => {
                let pos = self.nodes[p as usize]
                    .children
                    .iter()
                    .position(|&x| x == leaf)
                    .expect("leaf missing from parent");
                let at = if before { pos } else { pos + 1 };
                self.nodes[p as usize].children.insert(at, new_leaf);
                let _ = (lo, hi);
            }
            None => {
                // Root was a leaf: grow a new root above both leaves.
                let old_weight = self.nodes[leaf as usize].weight;
                let new_root = self.push(Node {
                    parent: None,
                    depth: 0,
                    weight: old_weight + 1,
                    char_lo: lo,
                    char_hi: hi,
                    children: if before {
                        vec![new_leaf, leaf]
                    } else {
                        vec![leaf, new_leaf]
                    },
                    dead: false,
                });
                self.nodes[leaf as usize].parent = Some(new_root);
                self.nodes[leaf as usize].depth = 1;
                self.nodes[new_leaf as usize].parent = Some(new_root);
                self.nodes[new_leaf as usize].depth = 1;
                self.root = new_root;
                path.clear();
                path.push(new_root);
            }
        }
        path.push(new_leaf);
        // Fix the path: replace the old leaf with the new one (weights along
        // the internal path are already incremented).
        let len = path.len();
        if len >= 2 && path[len - 2] == leaf {
            path.remove(len - 2);
        }
        path
    }

    /// Highest node on `path` violating its weight cap, or one whose
    /// degree overflowed `4c`.
    pub fn find_violation(&self, path: &[NodeId]) -> Option<NodeId> {
        path.iter().copied().find(|&v| {
            let node = self.node(v);
            node.weight > self.weight_cap(node.depth) || node.children.len() > 4 * self.c as usize
        })
    }

    /// Rebuilds the subtree rooted at `u` from its current character runs.
    /// All old descendants (excluding `u` itself) are marked dead; returns
    /// the ids of the freshly created descendants (in creation order).
    ///
    /// This is the paper's rebalancing primitive (§4.1): "we re-build the
    /// subtree rooted at u, and recompute the new bitmaps associated with
    /// all the nodes in the subtree".
    pub fn rebuild_subtree(&mut self, u: NodeId) -> Vec<NodeId> {
        let runs = self.runs_under(u);
        // Mark old descendants dead.
        let mut stack: Vec<NodeId> = self.node(u).children.clone();
        while let Some(v) = stack.pop() {
            self.nodes[v as usize].dead = true;
            stack.extend(self.nodes[v as usize].children.iter().copied());
        }
        let first_new = self.nodes.len() as NodeId;
        let depth = self.node(u).depth;
        if runs.len() == 1 {
            // The whole subtree is uniform now: u becomes a leaf.
            self.nodes[u as usize].children = Vec::new();
            let (ch, w) = runs[0];
            let node = &mut self.nodes[u as usize];
            node.char_lo = ch;
            node.char_hi = ch;
            debug_assert_eq!(node.weight, w);
            return Vec::new();
        }
        // Rebuild children in place under u using the static splitter: we
        // temporarily build a fresh root and graft its children.
        let tmp_root = self.build_rec(&runs, depth, self.node(u).parent);
        let children = std::mem::take(&mut self.nodes[tmp_root as usize].children);
        for &ch_id in &children {
            self.nodes[ch_id as usize].parent = Some(u);
        }
        let tmp = &self.nodes[tmp_root as usize];
        let (lo, hi, w) = (tmp.char_lo, tmp.char_hi, tmp.weight);
        self.nodes[tmp_root as usize].dead = true;
        let node = &mut self.nodes[u as usize];
        node.children = children;
        node.char_lo = lo;
        node.char_hi = hi;
        debug_assert_eq!(node.weight, w);
        (first_new..self.nodes.len() as NodeId)
            .filter(|&id| !self.nodes[id as usize].dead)
            .collect()
    }

    /// Checks structural invariants (tests and debug builds).
    pub fn check_invariants(&self) {
        let mut seen_weight = 0u64;
        for (id, node) in self.nodes.iter().enumerate() {
            if node.dead {
                continue;
            }
            let id = id as NodeId;
            if node.is_leaf() {
                assert_eq!(node.char_lo, node.char_hi, "leaf {id} spans multiple chars");
                seen_weight += node.weight;
            } else {
                assert!(
                    node.children.len() >= 2,
                    "internal node {id} has < 2 children"
                );
                let child_sum: u64 = node.children.iter().map(|&c| self.node(c).weight).sum();
                assert_eq!(child_sum, node.weight, "weight mismatch at node {id}");
                for &c in &node.children {
                    assert_eq!(self.node(c).parent, Some(id), "parent link broken at {c}");
                    assert_eq!(self.node(c).depth, node.depth + 1, "depth broken at {c}");
                    assert!(!self.node(c).dead, "live node {id} has dead child {c}");
                }
                // Children are ordered by character span.
                for w in node.children.windows(2) {
                    assert!(
                        self.node(w[0]).char_hi <= self.node(w[1]).char_lo,
                        "children of {id} out of order"
                    );
                }
            }
        }
        assert_eq!(
            seen_weight,
            self.total_weight(),
            "leaf weights do not sum to n"
        );
    }
}

impl Node {
    fn leaf_is_for(&self, ch: Symbol) -> bool {
        self.is_leaf() && self.char_lo == ch && self.char_hi == ch
    }
}

/// Smallest `h` with `cʰ ≥ n`.
pub fn height_for(n: u64, c: u32) -> u32 {
    let mut h = 0u32;
    let mut cap = 1u64;
    while cap < n {
        cap = cap.saturating_mul(u64::from(c));
        h += 1;
    }
    h
}

// ---------------------------------------------------------------------------
// Persistence (psi-store)

impl WbbTree {
    /// Serializes the tree mirror into an index-metadata buffer.
    pub fn persist_meta(&self, out: &mut psi_store::MetaBuf) {
        out.put_u32(self.c);
        out.put_u32(self.h);
        out.put_u32(self.root);
        out.put_len(self.nodes.len());
        for n in &self.nodes {
            out.put_opt_u32(n.parent);
            out.put_u32(n.depth);
            out.put_u64(n.weight);
            out.put_u32(n.char_lo);
            out.put_u32(n.char_hi);
            out.put_vec_u32(&n.children);
            out.put_bool(n.dead);
        }
    }

    /// Rebuilds the tree mirror from serialized metadata.
    pub fn restore_meta(
        meta: &mut psi_store::MetaCursor,
    ) -> Result<WbbTree, psi_store::StoreError> {
        let c = meta.get_u32()?;
        let h = meta.get_u32()?;
        let root = meta.get_u32()?;
        let len = meta.get_len(16)?;
        let mut nodes = Vec::with_capacity(len);
        for _ in 0..len {
            nodes.push(Node {
                parent: meta.get_opt_u32()?,
                depth: meta.get_u32()?,
                weight: meta.get_u64()?,
                char_lo: meta.get_u32()?,
                char_hi: meta.get_u32()?,
                children: meta.get_vec_u32()?,
                dead: meta.get_bool()?,
            });
        }
        let bad_link = |id: NodeId| id as usize >= nodes.len();
        if bad_link(root)
            || nodes.iter().any(|n| {
                n.children.iter().any(|&ch| bad_link(ch)) || n.parent.is_some_and(bad_link)
            })
        {
            return Err(psi_store::StoreError::Meta {
                what: "tree node id out of range".into(),
            });
        }
        Ok(WbbTree { c, nodes, root, h })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_character_tree_is_one_leaf() {
        let t = WbbTree::build(&[0, 42, 0], 8);
        assert_eq!(t.live_nodes(), 1);
        let root = t.node(t.root());
        assert!(root.is_leaf());
        assert_eq!(root.leaf_char(), 1);
        assert_eq!(root.weight, 42);
        t.check_invariants();
    }

    #[test]
    fn uniform_counts_build_balanced_tree() {
        let counts = vec![10u64; 100]; // n = 1000
        let t = WbbTree::build(&counts, 8);
        t.check_invariants();
        // Height ~ log_8(1000) ≈ 3.3.
        assert!(t.max_depth() <= 5, "depth {} too large", t.max_depth());
        assert_eq!(t.total_weight(), 1000);
    }

    #[test]
    fn skewed_counts_prune_heavy_characters_high() {
        // One character holds half the weight: it should appear as leaves
        // near the top of the tree.
        let mut counts = vec![1u64; 64];
        counts[32] = 64;
        let t = WbbTree::build(&counts, 8);
        t.check_invariants();
        let heavy_leaf_depth = t
            .leaves_under(t.root())
            .iter()
            .filter(|&&(_, ch, _)| ch == 32)
            .map(|&(id, _, _)| t.node(id).depth)
            .min()
            .unwrap();
        let light_leaf_depth = t
            .leaves_under(t.root())
            .iter()
            .filter(|&&(_, ch, _)| ch == 0)
            .map(|&(id, _, _)| t.node(id).depth)
            .max()
            .unwrap();
        assert!(heavy_leaf_depth <= light_leaf_depth);
    }

    #[test]
    fn leaves_per_character_per_level_is_bounded() {
        // Paper: "each character appears at most 8c times at each level as
        // a leaf".
        let counts: Vec<u64> = (0..128).map(|i| (i % 13) + 1).collect();
        let c = 8;
        let t = WbbTree::build(&counts, c);
        t.check_invariants();
        let mut by_char_level = std::collections::HashMap::new();
        for (id, ch, _) in t.leaves_under(t.root()) {
            *by_char_level.entry((ch, t.node(id).depth)).or_insert(0u32) += 1;
        }
        for (&(ch, d), &cnt) in &by_char_level {
            assert!(cnt <= 8 * c, "char {ch} has {cnt} leaves at depth {d}");
        }
    }

    #[test]
    fn append_existing_character_increments_weights() {
        let mut t = WbbTree::build(&[5, 5, 5, 5], 8);
        let n0 = t.total_weight();
        let path = t.append_path(2);
        assert_eq!(t.total_weight(), n0 + 1);
        let leaf = *path.last().unwrap();
        assert!(t.node(leaf).is_leaf());
        assert_eq!(t.node(leaf).leaf_char(), 2);
        t.check_invariants();
    }

    #[test]
    fn append_new_character_creates_leaf() {
        let mut t = WbbTree::build(&[10, 0, 10], 8);
        let path = t.append_path(1);
        let leaf = *path.last().unwrap();
        assert_eq!(t.node(leaf).leaf_char(), 1);
        assert_eq!(t.node(leaf).weight, 1);
        assert_eq!(t.total_weight(), 21);
        t.check_invariants();
    }

    #[test]
    fn append_onto_single_leaf_tree_grows_root() {
        let mut t = WbbTree::build(&[7], 8);
        let path = t.append_path(3);
        assert_eq!(t.total_weight(), 8);
        assert_eq!(path.len(), 2);
        assert!(!t.node(t.root()).is_leaf());
        t.check_invariants();
    }

    #[test]
    fn violations_detected_and_repaired_by_rebuild() {
        let mut t = WbbTree::build(&vec![2u64; 32], 5);
        // Hammer one character until some cap breaks.
        let mut violated = None;
        for _ in 0..100_000 {
            let path = t.append_path(7);
            if let Some(v) = t.find_violation(&path) {
                violated = Some(v);
                break;
            }
        }
        let v = violated.expect("expected a violation eventually");
        let u = t.node(v).parent.unwrap_or(v);
        t.rebuild_subtree(u);
        t.check_invariants();
        // After rebuilding at the parent, the subtree splits enough that
        // the old violation is gone.
        let node = t.node(u);
        assert!(
            node.weight <= t.weight_cap(node.depth) || node.parent.is_none(),
            "rebuild did not clear the violation"
        );
    }

    #[test]
    fn rebuild_to_uniform_collapses_to_leaf() {
        let mut t = WbbTree::build(&[8, 8], 8);
        let root = t.root();
        // Overwrite one child's char by simulating: rebuild with runs under
        // root after making it uniform is not directly expressible, so test
        // the simpler path: rebuild a subtree that is already uniform.
        let leaves = t.leaves_under(root);
        let (leaf, _, _) = leaves[0];
        let new_nodes = t.rebuild_subtree(leaf);
        assert!(new_nodes.is_empty());
        t.check_invariants();
    }

    #[test]
    fn runs_under_merges_adjacent_leaves() {
        let counts: Vec<u64> = vec![100, 3, 100];
        let t = WbbTree::build(&counts, 8);
        let runs = t.runs_under(t.root());
        assert_eq!(runs, vec![(0, 100), (1, 3), (2, 100)]);
    }

    #[test]
    fn height_for_matches_log() {
        assert_eq!(height_for(1, 8), 0);
        assert_eq!(height_for(8, 8), 1);
        assert_eq!(height_for(9, 8), 2);
        assert_eq!(height_for(64, 8), 2);
        assert_eq!(height_for(65, 8), 3);
    }

    proptest! {
        #[test]
        fn build_invariants_random_counts(
            counts in proptest::collection::vec(0u64..50, 1..80),
            c in 5u32..12,
        ) {
            prop_assume!(counts.iter().sum::<u64>() > 0);
            let t = WbbTree::build(&counts, c);
            t.check_invariants();
            prop_assert_eq!(t.total_weight(), counts.iter().sum::<u64>());
        }

        #[test]
        fn append_sequences_preserve_invariants(
            initial in proptest::collection::vec(1u64..10, 2..20),
            appends in proptest::collection::vec(0u32..20, 0..200),
        ) {
            let mut t = WbbTree::build(&initial, 5);
            let n0 = t.total_weight();
            for &ch in &appends {
                let path = t.append_path(ch % initial.len().max(1) as u32 + 2);
                if let Some(v) = t.find_violation(&path) {
                    let u = t.node(v).parent.unwrap_or(v);
                    t.rebuild_subtree(u);
                }
            }
            t.check_invariants();
            prop_assert_eq!(t.total_weight(), n0 + appends.len() as u64);
        }
    }
}
