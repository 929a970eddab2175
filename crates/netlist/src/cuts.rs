//! K-feasible priority cuts over subject graphs.
//!
//! A *cut* of node `v` is a set of *leaves* such that every path from a
//! primary input to `v` passes through a leaf; the cone between the
//! leaves and `v` computes a boolean function of at most `K` variables,
//! stored here as a [`TruthTable`]. Cut-based matching replaces the
//! paper's structural tree-pattern walk: a library gate matches a cut
//! whenever its function equals the cut function under some input
//! permutation, so non-tree cones (reconvergence inside the cone) match
//! gates the DAGON-style matcher structurally cannot.
//!
//! This module holds the mapper-independent substrate: cut/cut-set
//! types, the per-node *priority* enumeration step (bounded cut count
//! with dominated-cut pruning), a sequential whole-graph driver, and
//! slow reference functions (`cut_cone`, `cut_table`) used by tests and
//! the `lily-check` cut pass. The parallel driver and the NPN match
//! step live in `lily-core`, which layers them over `lily-par` and the
//! library index.
//!
//! # Cut-set invariant
//!
//! For every node the stored [`CutSet`] satisfies, in order:
//!
//! 1. `cuts[0]` is the *trivial* cut `{v}` with the 1-input identity
//!    table. It seeds fanout merges and is never matched itself.
//! 2. For internal nodes `cuts[1]` is the *base* cut whose leaves are
//!    the direct fanins. It is pinned — exempt from dominance pruning
//!    and truncation — so an inverter or NAND2 match always exists and
//!    covering stays total. (The base can itself be dominated, e.g. the
//!    cut `{a}` of `nand2(a,b)` when every path through `b` re-passes
//!    `a`; it is kept regardless.)
//! 3. The remaining cuts have at most [`CutConfig::k`] leaves each,
//!    are dominance-free against the kept set, and are sorted by
//!    `(leaf count, leaves lexicographic)`. At most
//!    [`CutConfig::max_cuts`] non-trivial cuts are stored per node.
//!
//! Leaves are always sorted ascending and duplicate-free, so a cut's
//! leaf vector is a canonical signature: the cone function over a given
//! leaf set is unique, and deduplication never needs to compare tables.
//!
//! # Dominance
//!
//! Cut `c` *dominates* cut `d` when `leaves(c) ⊆ leaves(d)`. A
//! dominated cut is pruned: its cone contains the dominator's cone, so
//! under the monotone area/wire costs of the covering DP it can never
//! beat the dominator (the property test below and `lily-check`'s cut
//! pass both enforce that a pruned cut always has a kept dominator with
//! no more leaves).

use crate::func::{TruthTable, MAX_TT_INPUTS};
use crate::subject::{SubjectGraph, SubjectKind, SubjectNodeId};
use std::collections::BTreeMap;

/// One K-feasible cut: sorted leaf set plus the cone's truth table
/// (variable `i` of the table is `leaves[i]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cut {
    /// Leaf nodes, sorted ascending, duplicate-free.
    pub leaves: Vec<SubjectNodeId>,
    /// Function of the cone rooted at the cut's node over `leaves`.
    pub table: TruthTable,
}

impl Cut {
    /// The trivial cut `{v}`: the node seen as its own leaf, with the
    /// 1-input identity table.
    pub fn trivial(v: SubjectNodeId) -> Self {
        Self { leaves: vec![v], table: TruthTable::from_fn(1, |r| r & 1 == 1) }
    }

    /// Whether this cut's leaves are a subset of `other`'s (both sorted
    /// ascending): the dominance test.
    pub fn dominates(&self, other: &Cut) -> bool {
        if self.leaves.len() > other.leaves.len() {
            return false;
        }
        let mut it = other.leaves.iter();
        'outer: for l in &self.leaves {
            for o in it.by_ref() {
                match o.cmp(l) {
                    std::cmp::Ordering::Less => {}
                    std::cmp::Ordering::Equal => continue 'outer,
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }
}

/// All stored cuts of one node, ordered per the module invariant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CutSet {
    /// `[trivial, base, others…]` (internal nodes) or `[trivial]`
    /// (primary inputs).
    pub cuts: Vec<Cut>,
}

impl CutSet {
    /// Cuts eligible for gate matching: everything except the trivial
    /// self-cut.
    pub fn matchable(&self) -> &[Cut] {
        if self.cuts.is_empty() {
            &self.cuts
        } else {
            &self.cuts[1..]
        }
    }
}

/// Enumeration knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CutConfig {
    /// Maximum leaves per cut. Clamped to [`MAX_TT_INPUTS`] (the truth
    /// table width) during enumeration.
    pub k: usize,
    /// Maximum non-trivial cuts stored per node (the *priority* bound).
    /// The base cut always fits; further cuts are kept smallest-first.
    pub max_cuts: usize,
}

impl Default for CutConfig {
    fn default() -> Self {
        // k = 6 covers the big library's widest gate; 8 priority cuts
        // per node keeps enumeration linear in practice while leaving
        // the covering DP real alternatives per node.
        Self { k: MAX_TT_INPUTS, max_cuts: 8 }
    }
}

/// Per-node outcome counters from one [`enumerate_node`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CutCounts {
    /// Cuts stored (including the trivial cut).
    pub kept: usize,
    /// Merges discarded for exceeding `k` leaves.
    pub pruned_width: usize,
    /// Candidates discarded because a kept cut dominates them.
    pub pruned_dominated: usize,
    /// Candidates discarded by the `max_cuts` priority bound.
    pub pruned_overflow: usize,
}

/// Whole-graph enumeration statistics (per-node counters summed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CutStats {
    /// Nodes enumerated.
    pub nodes: usize,
    /// Total cuts stored across all nodes (including trivial cuts).
    pub kept: usize,
    /// Merges discarded for exceeding `k` leaves.
    pub pruned_width: usize,
    /// Candidates discarded by dominance.
    pub pruned_dominated: usize,
    /// Candidates discarded by the priority bound.
    pub pruned_overflow: usize,
    /// Largest stored cut set over all nodes.
    pub max_per_node: usize,
}

impl CutStats {
    /// Folds one node's counters in.
    pub fn absorb(&mut self, counts: CutCounts) {
        self.nodes += 1;
        self.kept += counts.kept;
        self.pruned_width += counts.pruned_width;
        self.pruned_dominated += counts.pruned_dominated;
        self.pruned_overflow += counts.pruned_overflow;
        self.max_per_node = self.max_per_node.max(counts.kept);
    }

    /// Folds another graph- or shard-level accumulator in.
    pub fn merge(&mut self, other: &CutStats) {
        self.nodes += other.nodes;
        self.kept += other.kept;
        self.pruned_width += other.pruned_width;
        self.pruned_dominated += other.pruned_dominated;
        self.pruned_overflow += other.pruned_overflow;
        self.max_per_node = self.max_per_node.max(other.max_per_node);
    }
}

/// One merge candidate: a leaf set of at most [`MAX_TT_INPUTS`] ids, its
/// 64-bit leaf signature, and the fanin cuts it was merged from. It is
/// `Copy` and carries no table: the table is derived from `from` only if
/// the candidate is stored (or logged as dominated).
#[derive(Debug, Clone, Copy)]
struct Candidate {
    /// Leaf ids, ascending; slots past `len` stay 0, so comparing the
    /// whole array after `len` orders like comparing the leaf slices.
    leaves: [u32; MAX_TT_INPUTS],
    len: usize,
    /// `OR` of `1 << (id & 63)` over the leaves.
    sig: u64,
    /// Indices into the fanin cut sets: `[a-cut, b-cut]` for a NAND2,
    /// `[a-cut, 0]` for an inverter.
    from: [u32; 2],
}

impl Candidate {
    fn of(leaves: &[SubjectNodeId], from: [u32; 2]) -> Self {
        let mut c = Self { leaves: [0; MAX_TT_INPUTS], len: 0, sig: 0, from };
        for (slot, l) in c.leaves.iter_mut().zip(leaves) {
            *slot = l.0;
            c.sig |= 1 << (l.0 & 63);
            c.len += 1;
        }
        c
    }

    fn leaves(&self) -> &[u32] {
        &self.leaves[..self.len]
    }

    /// The sort key: `(leaf count, leaves)`, then the fanin pair, which
    /// is generation order — so an unstable sort orders exactly like a
    /// stable sort on `(leaf count, leaves)`. Packed into wide integers,
    /// a comparison is a few branch-free word compares.
    fn key(&self) -> (u128, u128, u64) {
        let word = |hi: u32, lo: u32| (u64::from(hi) << 32) | u64::from(lo);
        let wide = |hi: u64, lo: u64| (u128::from(hi) << 64) | u128::from(lo);
        let l = &self.leaves;
        (
            wide(word(self.len as u32, l[0]), word(l[1], l[2])),
            wide(word(l[3], l[4]), word(l[5], 0)),
            word(self.from[0], self.from[1]),
        )
    }

    fn same_leaves(&self, other: &Self) -> bool {
        self.len == other.len && self.leaves == other.leaves
    }

    /// The sorted leaf union of two fanin cuts, or `None` past `k`
    /// leaves.
    fn merge(&self, other: &Self, k: usize, from: [u32; 2]) -> Option<Self> {
        let (la, lb) = (self.leaves(), other.leaves());
        // Branch-free while both sides last: emit the smaller head and
        // advance every side that held it.
        let mut union = [0u32; 2 * MAX_TT_INPUTS];
        let (mut i, mut j, mut n) = (0, 0, 0);
        while i < la.len() && j < lb.len() {
            let (x, y) = (la[i], lb[j]);
            union[n] = x.min(y);
            n += 1;
            i += usize::from(x <= y);
            j += usize::from(y <= x);
        }
        let tail = if i < la.len() { &la[i..] } else { &lb[j..] };
        if n + tail.len() > k {
            return None;
        }
        let mut out = Self {
            leaves: [0; MAX_TT_INPUTS],
            len: n + tail.len(),
            sig: self.sig | other.sig,
            from,
        };
        out.leaves[..n].copy_from_slice(&union[..n]);
        out.leaves[n..out.len].copy_from_slice(tail);
        Some(out)
    }

    /// Whether this candidate's leaves are a subset of `other`'s. The
    /// signature test rejects most non-subsets without touching leaves.
    fn dominates(&self, other: &Self) -> bool {
        if self.sig & !other.sig != 0 {
            return false;
        }
        let mut it = other.leaves().iter();
        self.leaves().iter().all(|l| it.by_ref().any(|o| o == l))
    }

    /// Slot of each of `cut`'s leaves inside this candidate's leaves.
    fn slots_of(&self, cut: &Cut) -> [usize; MAX_TT_INPUTS] {
        let mut slots = [0; MAX_TT_INPUTS];
        let mut at = 0;
        for (slot, l) in slots.iter_mut().zip(&cut.leaves) {
            while self.leaves[at] != l.0 {
                at += 1;
            }
            *slot = at;
        }
        slots
    }

    /// Materializes the candidate as a [`Cut`] of a node whose fanin
    /// cut sets are `fa` and, for a NAND2, `fb`. Exact: the table is the
    /// one the candidate's own fanin pair composes to.
    fn to_cut(self, fa: &[Cut], fb: Option<&[Cut]>) -> Cut {
        let ca = &fa[self.from[0] as usize];
        let table = match fb {
            None => ca.table.not(),
            Some(fb) => {
                let cb = &fb[self.from[1] as usize];
                let ea = ca.table.expand(self.len, &self.slots_of(ca)[..ca.leaves.len()]);
                let eb = cb.table.expand(self.len, &self.slots_of(cb)[..cb.leaves.len()]);
                ea.nand(&eb)
            }
        };
        Cut { leaves: self.leaves().iter().map(|&l| SubjectNodeId(l)).collect(), table }
    }
}

/// Reusable buffers for [`enumerate_node`]: the candidate, kept and
/// fanin-record buffers survive across nodes, so once they have grown to
/// the widest node the steady state allocates nothing but the stored cut
/// sets.
#[derive(Debug, Default)]
pub struct CutScratch {
    candidates: Vec<Candidate>,
    kept: Vec<Candidate>,
    fanin: Vec<Candidate>,
    acquisitions: u64,
    allocations: u64,
    /// When set, cuts pruned by dominance are pushed to
    /// [`CutScratch::dominated_log`] (cleared per node) so tests and
    /// diagnostics can audit pruning soundness.
    pub record_dominated: bool,
    dominated_log: Vec<Cut>,
}

impl CutScratch {
    /// Fresh scratch (one per worker in the parallel driver).
    pub fn new() -> Self {
        Self::default()
    }

    /// `(candidate-buffer acquisitions, fresh growth allocations)`:
    /// each [`enumerate_node`] call on an internal node acquires its
    /// candidate and kept buffers (plus the fanin records of a NAND2),
    /// and an acquisition that must grow its buffer counts one
    /// allocation.
    pub fn stats(&self) -> (u64, u64) {
        (self.acquisitions, self.allocations)
    }

    /// Cuts pruned by dominance during the most recent
    /// [`enumerate_node`] call (empty unless `record_dominated` is set).
    pub fn dominated_log(&self) -> &[Cut] {
        &self.dominated_log
    }
}

/// Clears `buf` for reuse with room for `need` records, counting the
/// acquisition and, if the buffer must grow, one allocation.
fn acquire(buf: &mut Vec<Candidate>, need: usize, acquisitions: &mut u64, allocations: &mut u64) {
    *acquisitions += 1;
    buf.clear();
    if buf.capacity() < need {
        *allocations += 1;
        buf.reserve(need);
    }
}

/// Enumerates the cut set of `v` from its fanins' cut sets.
///
/// `sets` is indexed by node index; entries for every fanin of `v` must
/// already be populated (nodes are stored topologically, so ascending
/// node order — or level order in the parallel driver — satisfies
/// this). Returns the node's cut set plus its pruning counters.
///
/// Candidates are fixed-width `Copy` records (leaf array, 64-bit leaf
/// signature, fanin pair): a merge whose signature union already has
/// more than `k` bits is rejected before the leaf merge, and truth
/// tables are composed only for the cuts that are stored.
pub fn enumerate_node(
    g: &SubjectGraph,
    v: SubjectNodeId,
    sets: &[CutSet],
    config: &CutConfig,
    scratch: &mut CutScratch,
) -> (CutSet, CutCounts) {
    // k below 2 could not even hold a NAND2 base cut; above
    // MAX_TT_INPUTS the tables overflow. Clamp rather than error: the
    // config is a tuning knob, not a correctness input.
    let k = config.k.clamp(2, MAX_TT_INPUTS);
    let mut counts = CutCounts::default();
    scratch.dominated_log.clear();

    let (a, b) = match g.kind(v) {
        SubjectKind::Input(_) => {
            let set = CutSet { cuts: vec![Cut::trivial(v)] };
            counts.kept = 1;
            return (set, counts);
        }
        SubjectKind::Inv(a) => (a, None),
        SubjectKind::Nand2(a, b) => (a, Some(b)),
    };
    let fa = &sets[a.index()].cuts;
    let fb = b.map(|b| &sets[b.index()].cuts[..]);
    let base = match b {
        Some(b) if b != a => Candidate::of(&[a.min(b), a.max(b)], [0, 0]),
        _ => Candidate::of(&[a], [0, 0]),
    };
    let CutScratch {
        candidates,
        kept,
        fanin,
        acquisitions,
        allocations,
        record_dominated,
        dominated_log,
    } = scratch;

    acquire(candidates, fa.len() * fb.map_or(1, <[Cut]>::len), acquisitions, allocations);
    // Fanin cut indices fit u32: a cut set never holds 2^32 cuts.
    match fb {
        // Unary lift: leaves unchanged, table negated. The lift of the
        // trivial cut of `a` is exactly the base cut {a}.
        None => candidates
            .extend(fa.iter().enumerate().map(|(i, c)| Candidate::of(&c.leaves, [i as u32, 0]))),
        Some(fb) => {
            acquire(fanin, fb.len(), acquisitions, allocations);
            fanin.extend(
                fb.iter().enumerate().map(|(j, c)| Candidate::of(&c.leaves, [0, j as u32])),
            );
            for (i, ca) in fa.iter().enumerate() {
                let ra = Candidate::of(&ca.leaves, [i as u32, 0]);
                for rb in fanin.iter() {
                    // The signature popcount bounds the union size from
                    // below, so this reject is exact.
                    let merged = if (ra.sig | rb.sig).count_ones() as usize > k {
                        None
                    } else {
                        ra.merge(rb, k, [i as u32, rb.from[1]])
                    };
                    match merged {
                        Some(c) => candidates.push(c),
                        None => counts.pruned_width += 1,
                    }
                }
            }
        }
    }

    // Same leaves ⇒ same cone function, so sorting by (len, leaves) and
    // dropping adjacent duplicates is a complete dedup. The first
    // generated candidate of each leaf set survives, as under a stable
    // sort, and its own fanin pair later composes the table.
    candidates.sort_unstable_by_key(Candidate::key);
    candidates.dedup_by(|x, y| x.same_leaves(y));

    // Dominance prune in sorted order: potential dominators (fewer
    // leaves, or equal-size earlier cuts, which can never be subsets)
    // are all seen before the cuts they dominate. The base cut is
    // pinned regardless. Every candidate is checked, cap or no cap, so
    // the dominated/overflow split does not depend on the cap. Only
    // shorter kept cuts can dominate (equal-size ones are distinct sets),
    // and kept is in length order, so they form a prefix of it.
    acquire(kept, candidates.len(), acquisitions, allocations);
    let (mut shorter, mut shorter_len) = (0, 0);
    for c in candidates.iter() {
        if c.len != shorter_len {
            (shorter, shorter_len) = (kept.len(), c.len);
        }
        if !c.same_leaves(&base) && kept[..shorter].iter().any(|kc| kc.dominates(c)) {
            counts.pruned_dominated += 1;
            if *record_dominated {
                dominated_log.push(c.to_cut(fa, fb));
            }
            continue;
        }
        kept.push(*c);
    }

    // Priority truncation: keep the base plus the smallest-first
    // survivors, at most max_cuts non-trivial cuts total. While the
    // base is still ahead, one slot stays reserved for it: a base past
    // the cap takes the last slot.
    let max_cuts = config.max_cuts.max(1);
    let mut base_at = kept.iter().position(|c| c.same_leaves(&base));
    if kept.len() > max_cuts {
        if let Some(bi) = base_at.filter(|&bi| bi >= max_cuts) {
            kept[max_cuts - 1] = kept[bi];
            base_at = Some(max_cuts - 1);
        }
        counts.pruned_overflow = kept.len() - max_cuts;
        kept.truncate(max_cuts);
    }

    // Tables only now, for the stored cuts: base first after the
    // trivial cut, then the rest in priority order.
    let mut cuts = Vec::with_capacity(kept.len() + 1);
    cuts.push(Cut::trivial(v));
    if let Some(bi) = base_at {
        cuts.push(kept[bi].to_cut(fa, fb));
    }
    let rest = kept.iter().enumerate().filter(|&(i, _)| Some(i) != base_at);
    cuts.extend(rest.map(|(_, c)| c.to_cut(fa, fb)));
    counts.kept = cuts.len();
    (CutSet { cuts }, counts)
}

/// Sequential whole-graph enumeration: the reference driver. The
/// parallel driver in `lily-core` must produce byte-identical cut sets
/// (a test there compares against this function).
pub fn enumerate_cuts(g: &SubjectGraph, config: &CutConfig) -> (Vec<CutSet>, CutStats) {
    let mut sets: Vec<CutSet> = Vec::with_capacity(g.node_count());
    let mut scratch = CutScratch::new();
    let mut stats = CutStats::default();
    for v in g.node_ids() {
        let (set, counts) = enumerate_node(g, v, &sets, config, &mut scratch);
        stats.absorb(counts);
        sets.push(set);
    }
    (sets, stats)
}

/// The cone of `(root, leaves)`: every node on a path from `root` back
/// to the leaf frontier, excluding the leaves, in deterministic
/// root-first preorder (first fanin explored first). Returns `None` if
/// the traversal escapes the leaves (reaches a primary input that is
/// not a leaf) — i.e. `leaves` is not a cut of `root`. A root that is
/// itself a leaf has an empty cone.
pub fn cut_cone(
    g: &SubjectGraph,
    root: SubjectNodeId,
    leaves: &[SubjectNodeId],
) -> Option<Vec<SubjectNodeId>> {
    let mut order = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    let mut stack = vec![root];
    while let Some(v) = stack.pop() {
        if leaves.contains(&v) || !seen.insert(v) {
            continue;
        }
        order.push(v);
        match g.kind(v) {
            SubjectKind::Input(_) => return None,
            SubjectKind::Inv(a) => stack.push(a),
            SubjectKind::Nand2(a, b) => {
                // Reverse push so `a` pops first: deterministic preorder.
                stack.push(b);
                stack.push(a);
            }
        }
    }
    Some(order)
}

/// The cone function of `(root, leaves)` by exhaustive simulation —
/// the slow oracle [`enumerate_node`]'s incremental tables are checked
/// against. `None` if `leaves` is not a cut of `root` or has more than
/// [`MAX_TT_INPUTS`] leaves.
pub fn cut_table(
    g: &SubjectGraph,
    root: SubjectNodeId,
    leaves: &[SubjectNodeId],
) -> Option<TruthTable> {
    if leaves.len() > MAX_TT_INPUTS {
        return None;
    }
    let mut bits = 0u64;
    for row in 0..(1u64 << leaves.len()) {
        let mut memo: BTreeMap<SubjectNodeId, bool> = BTreeMap::new();
        for (i, &l) in leaves.iter().enumerate() {
            memo.insert(l, (row >> i) & 1 == 1);
        }
        let mut stack = vec![root];
        while let Some(&v) = stack.last() {
            if memo.contains_key(&v) {
                stack.pop();
                continue;
            }
            match g.kind(v) {
                SubjectKind::Input(_) => return None,
                SubjectKind::Inv(a) => match memo.get(&a) {
                    Some(&va) => {
                        memo.insert(v, !va);
                        stack.pop();
                    }
                    None => stack.push(a),
                },
                SubjectKind::Nand2(a, b) => match (memo.get(&a), memo.get(&b)) {
                    (Some(&va), Some(&vb)) => {
                        memo.insert(v, !(va && vb));
                        stack.pop();
                    }
                    (None, _) => stack.push(a),
                    (_, None) => stack.push(b),
                },
            }
        }
        if memo.get(&root) == Some(&true) {
            bits |= 1 << row;
        }
    }
    TruthTable::new(leaves.len(), bits).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// xorshift64* — deterministic, dependency-free test randomness.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    fn random_graph(rng: &mut Rng, inputs: usize, gates: usize) -> SubjectGraph {
        let mut g = SubjectGraph::new("t");
        let mut nodes: Vec<SubjectNodeId> =
            (0..inputs).map(|i| g.add_input(format!("i{i}"))).collect();
        for _ in 0..gates {
            let a = nodes[rng.below(nodes.len())];
            let n = if rng.below(4) == 0 {
                g.inv(a)
            } else {
                let b = nodes[rng.below(nodes.len())];
                g.nand2(a, b)
            };
            nodes.push(n);
        }
        let out = *nodes.last().unwrap();
        g.set_output("f", out);
        g
    }

    fn check_invariants(g: &SubjectGraph, sets: &[CutSet], config: &CutConfig) {
        for v in g.node_ids() {
            let set = &sets[v.index()];
            assert_eq!(set.cuts[0], Cut::trivial(v), "{v}: cuts[0] must be trivial");
            match g.kind(v) {
                SubjectKind::Input(_) => assert_eq!(set.cuts.len(), 1),
                kind => {
                    let mut base: Vec<_> = kind.fanins().collect();
                    base.sort();
                    base.dedup();
                    assert_eq!(set.cuts[1].leaves, base, "{v}: cuts[1] must be the base cut");
                    assert!(set.cuts.len() - 1 <= config.max_cuts.max(1));
                }
            }
            for cut in set.matchable() {
                assert!(cut.leaves.len() <= config.k, "{v}: cut wider than k");
                assert!(cut.leaves.windows(2).all(|w| w[0] < w[1]), "{v}: leaves unsorted");
                let oracle = cut_table(g, v, &cut.leaves).expect("stored cut must be a real cut");
                assert_eq!(cut.table, oracle, "{v}: incremental table diverges from simulation");
            }
        }
    }

    #[test]
    fn trivial_cut_is_identity() {
        let c = Cut::trivial(SubjectNodeId::from_index(3));
        assert_eq!(c.table.bits(), 0b10);
        assert!(c.table.eval(&[true]));
        assert!(!c.table.eval(&[false]));
    }

    #[test]
    fn dominates_is_subset_on_sorted_leaves() {
        let l = |ix: &[usize]| Cut {
            leaves: ix.iter().map(|&i| SubjectNodeId::from_index(i)).collect(),
            table: TruthTable::from_fn(1, |r| r == 1),
        };
        assert!(l(&[1, 3]).dominates(&l(&[1, 2, 3])));
        assert!(l(&[2]).dominates(&l(&[2])));
        assert!(!l(&[1, 4]).dominates(&l(&[1, 2, 3])));
        assert!(!l(&[1, 2, 3]).dominates(&l(&[1, 3])));
    }

    #[test]
    fn single_nand_has_trivial_and_base() {
        let mut g = SubjectGraph::new("t");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let n = g.nand2(a, b);
        g.set_output("f", n);
        let (sets, stats) = enumerate_cuts(&g, &CutConfig::default());
        let set = &sets[n.index()];
        assert_eq!(set.cuts.len(), 2);
        assert_eq!(set.cuts[1].leaves, vec![a, b]);
        // !(a & b) over (a=var0, b=var1): rows 00,01,10 → 1; 11 → 0.
        assert_eq!(set.cuts[1].table.bits(), 0b0111);
        assert_eq!(stats.nodes, 3);
        check_invariants(&g, &sets, &CutConfig::default());
    }

    #[test]
    fn inverter_lift_negates_and_base_is_fanin() {
        let mut g = SubjectGraph::new("t");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let n = g.nand2(a, b);
        let v = g.inv(n);
        g.set_output("f", v);
        let (sets, _) = enumerate_cuts(&g, &CutConfig::default());
        let set = &sets[v.index()];
        assert_eq!(set.cuts[1].leaves, vec![n]);
        assert_eq!(set.cuts[1].table.bits(), 0b01); // !x
                                                    // The lifted {a,b} cut computes and2.
        let ab = set.cuts.iter().find(|c| c.leaves == vec![a, b]).expect("lifted cut");
        assert_eq!(ab.table.bits(), 0b1000);
        check_invariants(&g, &sets, &CutConfig::default());
    }

    #[test]
    fn nand_of_same_signal_is_unary() {
        let mut g = SubjectGraph::new("t");
        let a = g.add_input("a");
        let n = g.nand2(a, a);
        g.set_output("f", n);
        let (sets, _) = enumerate_cuts(&g, &CutConfig::default());
        let set = &sets[n.index()];
        assert_eq!(set.cuts[1].leaves, vec![a]);
        assert_eq!(set.cuts[1].table.bits(), 0b01, "nand(a,a) = !a");
        check_invariants(&g, &sets, &CutConfig::default());
    }

    #[test]
    fn reconvergent_cone_yields_nontree_cut() {
        // f = nand(nand(a,b), nand(a,c)): the cut {a,b,c} covers a
        // reconvergent (non-tree) cone through `a`.
        let mut g = SubjectGraph::new("t");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let x = g.nand2(a, b);
        let y = g.nand2(a, c);
        let f = g.nand2(x, y);
        g.set_output("f", f);
        let (sets, _) = enumerate_cuts(&g, &CutConfig::default());
        let abc = sets[f.index()].cuts.iter().find(|cu| cu.leaves == vec![a, b, c]);
        let cut = abc.expect("reconvergent cut enumerated");
        assert_eq!(cut.table, cut_table(&g, f, &cut.leaves).unwrap());
        let cone = cut_cone(&g, f, &cut.leaves).unwrap();
        assert_eq!(cone[0], f);
        assert_eq!(cone.len(), 3, "cone covers f, x, y");
        check_invariants(&g, &sets, &CutConfig::default());
    }

    #[test]
    fn width_bound_is_respected_and_counted() {
        let mut g = SubjectGraph::new("t");
        let ins: Vec<_> = (0..8).map(|i| g.add_input(format!("i{i}"))).collect();
        let mut acc = ins[0];
        for &i in &ins[1..] {
            acc = g.nand2(acc, i);
        }
        g.set_output("f", acc);
        let config = CutConfig { k: 3, max_cuts: 8 };
        let (sets, stats) = enumerate_cuts(&g, &config);
        assert!(stats.pruned_width > 0);
        check_invariants(&g, &sets, &config);
    }

    #[test]
    fn random_graphs_satisfy_invariants_and_tables_match_simulation() {
        let mut rng = Rng(0x1ec7_ab1e_5eed_0001);
        for round in 0..24 {
            let (ni, ng) = (3 + rng.below(4), 8 + rng.below(24));
            let g = random_graph(&mut rng, ni, ng);
            let config = CutConfig { k: 2 + rng.below(5), max_cuts: 1 + rng.below(8) };
            let (sets, stats) = enumerate_cuts(&g, &config);
            assert_eq!(stats.nodes, g.node_count(), "round {round}");
            check_invariants(&g, &sets, &config);
        }
    }

    #[test]
    fn dominated_pruning_is_sound() {
        // Satellite property: every cut pruned by dominance has a kept
        // dominator — subset leaves, hence no more of them, so under
        // the DP's monotone costs the pruned cut is never cheaper.
        let mut rng = Rng(0xd0a1_4a7e_ffff_0001);
        for _ in 0..16 {
            let (ni, ng) = (3 + rng.below(4), 10 + rng.below(30));
            let g = random_graph(&mut rng, ni, ng);
            let config = CutConfig { k: 2 + rng.below(5), max_cuts: 1 + rng.below(6) };
            let mut sets: Vec<CutSet> = Vec::with_capacity(g.node_count());
            let mut scratch = CutScratch::new();
            scratch.record_dominated = true;
            for v in g.node_ids() {
                let (set, counts) = enumerate_node(&g, v, &sets, &config, &mut scratch);
                assert_eq!(scratch.dominated_log().len(), counts.pruned_dominated);
                let key = |c: &Cut| (c.leaves.len(), c.leaves.clone());
                for pruned in scratch.dominated_log() {
                    if let Some(dominator) = set.cuts.iter().find(|kc| kc.dominates(pruned)) {
                        assert!(dominator.leaves.len() <= pruned.leaves.len());
                        continue;
                    }
                    // The dominator itself fell to the priority bound.
                    // A proper-subset dominator sorts strictly first,
                    // so the pruned cut sorts past every stored
                    // non-base cut and would have been truncated too.
                    let full = set.cuts.len() > config.max_cuts.max(1);
                    assert!(full, "{v}: dominator missing from a non-full cut set");
                    assert!(
                        set.cuts[2..].iter().all(|kc| key(kc) < key(pruned)),
                        "{v}: pruned cut would have fit under the priority bound"
                    );
                }
                sets.push(set);
            }
        }
    }

    #[test]
    fn priority_bound_keeps_base_even_when_it_sorts_last() {
        // Chain where the base cut of the final node is wide while many
        // narrow merged cuts exist: the base must survive truncation.
        let mut rng = Rng(0xfeed_beef_0bad_cafe);
        for _ in 0..8 {
            let g = random_graph(&mut rng, 4, 20);
            let config = CutConfig { k: 6, max_cuts: 1 };
            let (sets, _) = enumerate_cuts(&g, &config);
            check_invariants(&g, &sets, &config);
        }
    }

    #[test]
    fn scratch_reuses_leaf_buffers() {
        let mut rng = Rng(42);
        let g = random_graph(&mut rng, 4, 40);
        let mut sets: Vec<CutSet> = Vec::new();
        let mut scratch = CutScratch::new();
        for v in g.node_ids() {
            let (set, _) = enumerate_node(&g, v, &sets, &CutConfig::default(), &mut scratch);
            sets.push(set);
        }
        let (acq, alloc) = scratch.stats();
        assert!(acq > 0);
        assert!(alloc <= acq, "pool never allocates more than it hands out");
    }

    #[test]
    fn second_pass_allocates_nothing() {
        // The buffers grow to the widest node on the first pass; a second
        // pass over the same graph only reuses them.
        let mut rng = Rng(0x5ec0_dba5);
        let g = random_graph(&mut rng, 5, 120);
        let mut scratch = CutScratch::new();
        let pass = |scratch: &mut CutScratch| {
            let mut sets: Vec<CutSet> = Vec::new();
            for v in g.node_ids() {
                let (set, _) = enumerate_node(&g, v, &sets, &CutConfig::default(), scratch);
                sets.push(set);
            }
        };
        pass(&mut scratch);
        let (acq, alloc) = scratch.stats();
        assert!(alloc > 0, "the first pass grows the buffers");
        pass(&mut scratch);
        assert_eq!(scratch.stats(), (2 * acq, alloc), "second pass: same acquisitions, no growth");
    }

    #[test]
    fn cut_cone_rejects_non_cuts() {
        let mut g = SubjectGraph::new("t");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let n = g.nand2(a, b);
        g.set_output("f", n);
        assert!(cut_cone(&g, n, &[a]).is_none(), "{{a}} is not a cut of nand(a,b)");
        assert!(cut_table(&g, n, &[a]).is_none());
        assert_eq!(cut_cone(&g, n, &[a, b]), Some(vec![n]));
        assert_eq!(cut_cone(&g, a, &[a]), Some(vec![]), "leaf root has empty cone");
    }
}
