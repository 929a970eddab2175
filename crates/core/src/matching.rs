//! Structural pattern matching: find every way a library pattern graph
//! can cover the logic rooted at a subject node.
//!
//! A pattern tree matches at subject node `v` when its root's base
//! function equals `v`'s kind and the children match recursively; NAND2
//! is commutative, so both child orders are tried. Pattern leaves bind
//! to arbitrary subject nodes (which become the match's *inputs*);
//! repeated leaves (XOR patterns) must bind consistently.
//!
//! # Storage
//!
//! A [`MatchIndex`] is one flat arena per subject graph, split into
//! parts of 256 consecutive nodes. A part holds a record per match (its
//! gate, and a range of one shared node list holding the match's inputs
//! followed by its covered nodes) plus each node's range of records. A
//! [`Match`] is a `Copy` view into it.
//!
//! Enumeration writes straight into the arena. The pin bindings and the
//! covered stack are reused across patterns and nodes; a NAND2 pattern
//! continues into its right operand from inside the walk of its left
//! operand instead of collecting the left bindings first; and a
//! duplicate is caught against the records it can repeat and rolled
//! back. A pattern never repeats its own matches, so a match is checked
//! only against the earlier patterns of its gate, and only when one of
//! them is the same tree up to operand order or the match binds a node
//! twice ([`lily_cells::pattern::same_as_earlier`] has the argument).
//! Each part is enumerated into a per-worker buffer that keeps its
//! capacity and is then copied out at its exact size, so a build
//! allocates a few blocks per part and no buffer grows with the
//! graph. The parts are enumerated in parallel and kept in node order,
//! so the index is byte-identical at any thread count. The cut matcher
//! ([`crate::cut_matches`]) fills the same arena type.
//!
//! The flow builds the structural index once per (subject graph,
//! library): a [`MatchSlot`] in the flow context hands the index the
//! first structural mapper built to every later one, so the MIS and
//! Lily tails of a comparison share it.

use std::ops::Range;
use std::sync::{Arc, Mutex, PoisonError};

use crate::error::MapError;
use lily_cells::{GateId, Library, PatternNode};
use lily_netlist::hash::Fnv1a;
use lily_netlist::{SubjectGraph, SubjectKind, SubjectNodeId};
use lily_par::ParOptions;

/// The subject graphs [`MatchIndex::build`] ran on, by name: tests
/// count the builds of a graph named for that test alone.
#[cfg(test)]
pub(crate) static BUILDS: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// One way of implementing the logic rooted at a subject node with a
/// library gate: a view into a [`MatchIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match<'a> {
    /// The implementing gate.
    pub gate: GateId,
    /// For each gate pin, the subject node providing that input signal.
    pub inputs: &'a [SubjectNodeId],
    /// The subject nodes this match absorbs (pattern internal nodes);
    /// the match root is `covered[0]`, the rest in discovery order.
    pub covered: &'a [SubjectNodeId],
}

impl Match<'_> {
    /// The subject node at the match root.
    pub fn root(&self) -> SubjectNodeId {
        self.covered[0]
    }
}

/// One stored match: its gate and where its node list (inputs, then
/// covered nodes) sits in its arena part. A part's node list holds the
/// matches of at most [`PART_NODES`] nodes, far below `u32::MAX`
/// entries; the counts are bounded by a gate's fanin and by the node
/// count, itself a `u32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Rec {
    start: u32,
    gate: GateId,
    inputs: u32,
    covered: u32,
}

impl Rec {
    fn view(self, nodes: &[SubjectNodeId]) -> Match<'_> {
        let start = self.start as usize;
        let mid = start + self.inputs as usize;
        let end = mid + self.covered as usize;
        Match { gate: self.gate, inputs: &nodes[start..mid], covered: &nodes[mid..end] }
    }
}

/// log2 of [`PART_NODES`].
const PART_SHIFT: u32 = 8;

/// Nodes per arena part. The index is split into parts of this many
/// consecutive nodes, each enumerated into a reused per-worker buffer and
/// copied out at its exact size, so no buffer grows with the graph.
const PART_NODES: usize = 1 << PART_SHIFT;

/// The matches of a run of consecutive nodes: one record per match over
/// one node list, plus each node's range of records.
#[derive(Debug, Clone)]
pub(crate) struct Arena {
    /// Node `k` of the run owns `recs[node_start[k]..node_start[k + 1]]`;
    /// the last entry opens the node under construction.
    node_start: Vec<u32>,
    recs: Vec<Rec>,
    nodes: Vec<SubjectNodeId>,
}

impl Default for Arena {
    fn default() -> Self {
        Self { node_start: vec![0], recs: Vec::new(), nodes: Vec::new() }
    }
}

impl Arena {
    /// Adds a match to the node under construction unless that node
    /// already holds an identical one.
    pub(crate) fn push(
        &mut self,
        gate: GateId,
        inputs: impl IntoIterator<Item = SubjectNodeId>,
        covered: &[SubjectNodeId],
    ) {
        let open = self.node_start[self.node_start.len() - 1] as usize;
        self.push_unless_in(open..usize::MAX, gate, inputs, covered);
    }

    /// Adds a match to the node under construction unless one of the
    /// records `repeatable` (cut to the records there are) is identical.
    fn push_unless_in(
        &mut self,
        repeatable: Range<usize>,
        gate: GateId,
        inputs: impl IntoIterator<Item = SubjectNodeId>,
        covered: &[SubjectNodeId],
    ) {
        let start = self.nodes.len();
        self.nodes.extend(inputs);
        let n_inputs = self.nodes.len() - start;
        self.nodes.extend_from_slice(covered);
        let new = &self.nodes[start..];
        let end = repeatable.end.min(self.recs.len());
        let dup = self.recs[repeatable.start.min(end)..end].iter().any(|r| {
            r.gate == gate
                && r.inputs as usize == n_inputs
                && r.covered as usize == covered.len()
                && self.nodes[r.start as usize..r.start as usize + new.len()] == *new
        });
        if dup {
            self.nodes.truncate(start);
        } else {
            self.recs.push(Rec {
                start: start as u32,
                gate,
                inputs: n_inputs as u32,
                covered: covered.len() as u32,
            });
        }
    }

    /// Closes the node under construction and opens the next one.
    fn close_node(&mut self) {
        self.node_start.push(self.recs.len() as u32);
    }

    /// Matches of the `k`-th node of the run.
    fn at(&self, k: usize) -> Matches<'_> {
        let (lo, hi) = (self.node_start[k] as usize, self.node_start[k + 1] as usize);
        Matches { recs: &self.recs[lo..hi], nodes: &self.nodes }
    }

    /// An exact-size copy (the buffers keep their capacity for reuse).
    fn take_exact(&mut self) -> Self {
        let part = self.clone();
        self.node_start.truncate(1);
        self.recs.clear();
        self.nodes.clear();
        part
    }
}

/// All matches at every node of a subject graph (or of a run of its
/// nodes), shared by the area and delay passes — and, in a flow, by
/// both tails of a comparison. Stored as arena parts of 256
/// consecutive nodes each.
#[derive(Debug, Clone)]
pub struct MatchIndex {
    /// The first node the index holds (0 for a whole graph).
    first: usize,
    parts: Vec<Arena>,
}

impl MatchIndex {
    /// Enumerates matches for every internal node.
    ///
    /// Nodes are independent, so the enumeration fans out over runs of
    /// 256 nodes on the `lily-par` worker pool (thread count
    /// from `LILY_THREADS` / [`lily_par::set_threads`]); the parts are
    /// kept in node order, so the index — and the error, if any — is
    /// byte-identical at any thread count.
    ///
    /// # Errors
    ///
    /// [`MapError::IncompleteLibrary`] if the library lacks an inverter
    /// or a 2-input NAND (covering would not be total),
    /// [`MapError::NoMatch`] if some internal node has no match anyway
    /// (the lowest such node, as a sequential scan would report), and
    /// [`MapError::Cancelled`] on ambient cancellation.
    pub fn build(g: &SubjectGraph, lib: &Library) -> Result<Self, MapError> {
        #[cfg(test)]
        BUILDS.lock().unwrap_or_else(PoisonError::into_inner).push(g.name().to_string());
        let patterns = Patterns::new(lib);
        Self::build_with(g, lib, "match-enumeration", Walk::default, |walk, v, out| {
            enumerate_node(g, &patterns, v, walk, out);
        })
    }

    /// The shared build driver of the structural and cut matchers:
    /// checks that `lib` can cover any graph, runs `node` on every
    /// internal node, part-parallel with one `init` state per worker,
    /// and checks that every internal node got a match.
    ///
    /// Match enumeration is the mapper's dominant kernel, so every node
    /// polls the ambient cancellation token (installed per stage
    /// attempt by the flow engine) and a cancel reports `context`. The
    /// token is a snapshot of the *calling* thread's ambient state,
    /// shared by every worker.
    pub(crate) fn build_with<S>(
        g: &SubjectGraph,
        lib: &Library,
        context: &'static str,
        init: impl Fn() -> S + Sync,
        node: impl Fn(&mut S, SubjectNodeId, &mut Arena) + Sync,
    ) -> Result<Self, MapError> {
        check_library(lib)?;
        let n = g.node_count();
        let firsts: Vec<usize> = (0..n).step_by(PART_NODES).collect();
        let cancel = lily_fault::ambient_token();
        let parts = lily_par::try_par_map_init(
            &ParOptions::current(),
            &firsts,
            || (init(), Arena::default()),
            |(state, buf), &lo| {
                for i in lo..(lo + PART_NODES).min(n) {
                    cancel.check().map_err(|_| MapError::Cancelled { context })?;
                    let v = SubjectNodeId::from_index(i);
                    if !matches!(g.kind(v), SubjectKind::Input(_)) {
                        node(state, v, buf);
                    }
                    buf.close_node();
                }
                Ok::<_, MapError>(buf.take_exact())
            },
        )?;
        let idx = Self { first: 0, parts };
        match g
            .node_ids()
            .find(|&v| idx.at(v).is_empty() && !matches!(g.kind(v), SubjectKind::Input(_)))
        {
            Some(v) => Err(MapError::NoMatch { node: v.index() }),
            None => Ok(idx),
        }
    }

    /// Matches rooted at `v` (empty for primary inputs).
    pub fn at(&self, v: SubjectNodeId) -> Matches<'_> {
        let k = v.index() - self.first;
        self.parts[k >> PART_SHIFT].at(k & (PART_NODES - 1))
    }

    /// Total number of matches (a matching-effort statistic).
    pub fn total(&self) -> usize {
        self.parts.iter().map(|p| p.recs.len()).sum()
    }
}

/// The matches rooted at one node, in enumeration order: a `Copy` view
/// into a [`MatchIndex`].
#[derive(Clone, Copy)]
pub struct Matches<'a> {
    recs: &'a [Rec],
    nodes: &'a [SubjectNodeId],
}

impl<'a> Matches<'a> {
    /// How many matches the node has.
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// Whether the node has no match (primary inputs).
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// The `i`-th match.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.len()`.
    pub fn get(&self, i: usize) -> Match<'a> {
        self.recs[i].view(self.nodes)
    }

    /// The matches in enumeration order.
    pub fn iter(&self) -> MatchIter<'a> {
        MatchIter { recs: self.recs.iter(), nodes: self.nodes }
    }
}

impl<'a> IntoIterator for Matches<'a> {
    type Item = Match<'a>;
    type IntoIter = MatchIter<'a>;

    fn into_iter(self) -> MatchIter<'a> {
        self.iter()
    }
}

impl PartialEq for Matches<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for Matches<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over a node's [`Matches`].
#[derive(Debug, Clone)]
pub struct MatchIter<'a> {
    recs: std::slice::Iter<'a, Rec>,
    nodes: &'a [SubjectNodeId],
}

impl<'a> Iterator for MatchIter<'a> {
    type Item = Match<'a>;

    fn next(&mut self) -> Option<Match<'a>> {
        self.recs.next().map(|r| r.view(self.nodes))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.recs.size_hint()
    }
}

impl ExactSizeIterator for MatchIter<'_> {}

/// Rejects a library that cannot cover every subject graph: covering is
/// total only with an inverter and a 2-input NAND.
fn check_library(lib: &Library) -> Result<(), MapError> {
    let has = |fanin: usize, bits: u64| {
        lib.gates().iter().any(|gt| gt.fanin() == fanin && gt.function().bits() == bits)
    };
    if !has(1, 0b01) {
        return Err(MapError::IncompleteLibrary { missing: "inverter" });
    }
    if !has(2, 0b0111) {
        return Err(MapError::IncompleteLibrary { missing: "2-input nand" });
    }
    Ok(())
}

/// A structural match index shared by the flow contexts of one run.
///
/// The first structural mapper that asks builds the index; every later
/// ask for the same subject graph and library gets the same `Arc`.
/// Cloning a slot shares it, which is how
/// [`FlowContext::adopt`](crate::FlowContext::adopt) hands one index to
/// both tails of a comparison. An entry is keyed by the graph's and the
/// library's addresses plus a hash of the graph's structure, so a slot
/// never hands one graph's index to another; asking for a different
/// graph rebuilds. A build that fails — a cancelled attempt included —
/// leaves the slot empty, so a retry rebuilds.
#[derive(Clone, Default)]
pub struct MatchSlot(Arc<Mutex<Option<SlotEntry>>>);

/// A built index and the key it was built for.
struct SlotEntry {
    key: (usize, usize, u64),
    index: Arc<MatchIndex>,
}

impl MatchSlot {
    /// The structural match index of `g` on `lib`: the stored one when
    /// it was built for them, a fresh [`MatchIndex::build`] otherwise.
    /// Concurrent callers wait for one build instead of each running
    /// their own.
    ///
    /// # Errors
    ///
    /// Propagates [`MatchIndex::build`] failures.
    pub fn get_or_build(
        &self,
        g: &SubjectGraph,
        lib: &Library,
    ) -> Result<Arc<MatchIndex>, MapError> {
        let key = (std::ptr::from_ref(g) as usize, std::ptr::from_ref(lib) as usize, shape_hash(g));
        let mut slot = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(entry) = slot.as_ref().filter(|e| e.key == key) {
            return Ok(Arc::clone(&entry.index));
        }
        *slot = None;
        let index = Arc::new(MatchIndex::build(g, lib)?);
        *slot = Some(SlotEntry { key, index: Arc::clone(&index) });
        Ok(index)
    }
}

impl std::fmt::Debug for MatchSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let built = self.0.lock().unwrap_or_else(PoisonError::into_inner).is_some();
        f.debug_struct("MatchSlot").field("built", &built).finish()
    }
}

/// FNV-1a over a subject graph's node kinds: what a structural match
/// index is a function of, besides the library.
fn shape_hash(g: &SubjectGraph) -> u64 {
    let mut h = Fnv1a::default();
    for &kind in g.kinds() {
        h.word(match kind {
            SubjectKind::Input(pi) => pi as u64,
            SubjectKind::Inv(a) => 1 << 62 | a.index() as u64,
            SubjectKind::Nand2(a, b) => 2 << 62 | (a.index() as u64) << 31 | b.index() as u64,
        });
    }
    h.finish()
}

/// One pattern to try: its gate, the gate's fanin, the pattern root,
/// and whether an earlier pattern of the gate is the same tree up to
/// operand order.
type Candidate<'l> = (GateId, usize, &'l PatternNode, bool);

/// The library's patterns by root kind, each list in library order (a
/// gate's patterns stay together): a pattern rooted at an inverter never
/// matches at a NAND2 node and vice versa, so each node only walks the
/// patterns that can match it.
struct Patterns<'l> {
    inv: Vec<Candidate<'l>>,
    nand2: Vec<Candidate<'l>>,
}

impl<'l> Patterns<'l> {
    fn new(lib: &'l Library) -> Self {
        let mut p = Self { inv: Vec::new(), nand2: Vec::new() };
        for (gate_id, gate) in lib.iter() {
            for (k, pattern) in gate.patterns().iter().enumerate() {
                let c = (gate_id, gate.fanin(), pattern.root(), gate.pattern_same_as_earlier(k));
                match pattern.root() {
                    PatternNode::Inv(_) => p.inv.push(c),
                    PatternNode::Nand2(..) => p.nand2.push(c),
                    PatternNode::Leaf(_) => {
                        p.inv.push(c);
                        p.nand2.push(c);
                    }
                }
            }
        }
        p
    }

    fn at(&self, kind: SubjectKind) -> &[Candidate<'l>] {
        match kind {
            SubjectKind::Input(_) => &[],
            SubjectKind::Inv(_) => &self.inv,
            SubjectKind::Nand2(..) => &self.nand2,
        }
    }
}

/// The enumeration stacks, reused across patterns and nodes: the pin
/// bindings of the pattern being walked and the subject nodes it has
/// absorbed so far, plus the marks [`Walk::binds_a_node_twice`] stamps.
#[derive(Debug, Default)]
struct Walk {
    binding: Vec<Option<SubjectNodeId>>,
    covered: Vec<SubjectNodeId>,
    mark: Vec<u32>,
    stamp: u32,
}

impl Walk {
    /// Whether the bound walk covers one of its inputs, covers a node
    /// twice or puts two pins on one node: the only matches that can
    /// repeat a match of a pattern of another shape.
    fn binds_a_node_twice(&mut self, nodes: usize) -> bool {
        if self.mark.len() < nodes {
            self.mark.resize(nodes, 0);
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.mark.fill(0);
            self.stamp = 1;
        }
        for u in self.binding.iter().flatten().chain(&self.covered).copied() {
            if std::mem::replace(&mut self.mark[u.index()], self.stamp) == self.stamp {
                return true;
            }
        }
        false
    }
}

/// What to do with a walk once the pattern walked so far is bound.
type Cont<'a> = dyn FnMut(&mut Walk) + 'a;

/// Enumerates all matches of all library patterns rooted at `v` into
/// the open node of `out`.
fn enumerate_node(
    g: &SubjectGraph,
    patterns: &Patterns<'_>,
    v: SubjectNodeId,
    walk: &mut Walk,
    out: &mut Arena,
) {
    let (mut group, mut gate_first) = (None, 0);
    for &(gate, fanin, root, same_as_earlier) in patterns.at(g.kind(v)) {
        if group != Some(gate) {
            group = Some(gate);
            gate_first = out.recs.len();
        }
        // A match can only repeat one of the gate's earlier patterns.
        let earlier = gate_first..out.recs.len();
        walk.binding.clear();
        walk.binding.resize(fanin, None);
        walk.covered.clear();
        enumerate(g, root, v, walk, &mut |w| {
            let check =
                !earlier.is_empty() && (same_as_earlier || w.binds_a_node_twice(g.node_count()));
            let inputs = w.binding.iter().map(|b| b.expect("complete binding"));
            out.push_unless_in(
                if check { earlier.clone() } else { 0..0 },
                gate,
                inputs,
                &w.covered,
            );
        });
    }
}

/// All matches of all library patterns rooted at `v`, as an index
/// holding `v` alone: the per-node reference the whole-graph build is
/// checked against.
pub fn matches_at(g: &SubjectGraph, lib: &Library, v: SubjectNodeId) -> MatchIndex {
    let mut part = Arena::default();
    enumerate_node(g, &Patterns::new(lib), v, &mut Walk::default(), &mut part);
    part.close_node();
    MatchIndex { first: v.index(), parts: vec![part] }
}

/// Recursive backtracking enumeration in continuation-passing style:
/// binds `pat` at `node`, then calls `k` once per consistent binding
/// with the walk extended by it, and restores the walk afterwards.
fn enumerate(
    g: &SubjectGraph,
    pat: &PatternNode,
    node: SubjectNodeId,
    w: &mut Walk,
    k: &mut Cont<'_>,
) {
    match pat {
        PatternNode::Leaf(pin) => {
            match w.binding[*pin] {
                Some(bound) if bound != node => {} // inconsistent repeat
                Some(_) => k(w),
                None => {
                    w.binding[*pin] = Some(node);
                    k(w);
                    w.binding[*pin] = None;
                }
            }
        }
        PatternNode::Inv(child) => {
            if let SubjectKind::Inv(a) = g.kind(node) {
                w.covered.push(node);
                enumerate(g, child, a, w, k);
                w.covered.pop();
            }
        }
        PatternNode::Nand2(pl, pr) => {
            if let SubjectKind::Nand2(a, b) = g.kind(node) {
                w.covered.push(node);
                // Both operand orders (NAND2 commutes). When a == b the
                // orders coincide; dedup happens in the arena. Each
                // left binding continues into the right operand.
                for (sa, sb) in [(a, b), (b, a)] {
                    enumerate(g, pl, sa, w, &mut |w| enumerate(g, pr, sb, w, k));
                    if a == b {
                        break;
                    }
                }
                w.covered.pop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib() -> Library {
        Library::big()
    }

    #[test]
    fn inverter_matches_inv_gate() {
        let l = lib();
        let mut g = SubjectGraph::new("g");
        let a = g.add_input("a");
        let n = g.inv(a);
        g.set_output("y", n);
        let idx = matches_at(&g, &l, n);
        assert!(idx.at(n).iter().any(|m| m.gate == l.inverter()));
        for m in idx.at(n) {
            assert_eq!(m.root(), n);
        }
    }

    #[test]
    fn nand2_node_matches_nand2_gate() {
        let l = lib();
        let mut g = SubjectGraph::new("g");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let n = g.nand2(a, b);
        g.set_output("y", n);
        let idx = matches_at(&g, &l, n);
        let nand2 = l.find("nand2").unwrap();
        let hit = idx.at(n).iter().find(|m| m.gate == nand2).expect("nand2 must match");
        assert_eq!(hit.covered, &[n][..]);
        let mut ins = hit.inputs.to_vec();
        ins.sort();
        assert_eq!(ins, vec![a, b]);
    }

    #[test]
    fn nand3_structure_matches_nand3_gate() {
        let l = lib();
        let mut g = SubjectGraph::new("g");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        // nand3 = nand2(and2(a, b), c)
        let ab = g.and2(a, b);
        let n = g.nand2(ab, c);
        g.set_output("y", n);
        let idx = matches_at(&g, &l, n);
        let nand3 = l.find("nand3").unwrap();
        let hit = idx.at(n).iter().find(|m| m.gate == nand3).expect("nand3 must match");
        assert_eq!(hit.covered.len(), 3); // nand2 root + inv + inner nand2
        assert_eq!(hit.inputs.len(), 3);
    }

    #[test]
    fn all_nand_widths_match_their_gates() {
        let l = lib();
        for k in 2..=6usize {
            let mut g = SubjectGraph::new("g");
            let ins: Vec<SubjectNodeId> = (0..k).map(|i| g.add_input(format!("i{i}"))).collect();
            // Balanced AND tree, then invert (mirrors decompose.rs).
            let mut layer = ins.clone();
            while layer.len() > 1 {
                let mut next = Vec::new();
                for ch in layer.chunks(2) {
                    next.push(if ch.len() == 2 { g.and2(ch[0], ch[1]) } else { ch[0] });
                }
                layer = next;
            }
            let root = g.inv(layer[0]);
            g.set_output("y", root);
            let idx = matches_at(&g, &l, root);
            let gate = l.find(&format!("nand{k}")).unwrap();
            assert!(
                idx.at(root).iter().any(|m| m.gate == gate && m.inputs.len() == k),
                "nand{k} did not match"
            );
        }
    }

    #[test]
    fn xor_decomposition_matches_xor_gate() {
        let l = lib();
        let mut g = SubjectGraph::new("g");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let x = g.xor2(a, b);
        g.set_output("y", x);
        let idx = matches_at(&g, &l, x);
        let xor2 = l.find("xor2").unwrap();
        let hit = idx.at(x).iter().find(|m| m.gate == xor2).expect("xor2 must match");
        // Repeated leaves: inputs must be exactly {a, b}.
        let mut ins = hit.inputs.to_vec();
        ins.sort();
        assert_eq!(ins, vec![a, b]);
    }

    #[test]
    fn aoi21_matches() {
        let l = lib();
        let mut g = SubjectGraph::new("g");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        // !(ab + c) = inv(or2(and2(a,b), c)) with strash
        let ab = g.and2(a, b);
        let or = g.or2(ab, c);
        let root = g.inv(or);
        g.set_output("y", root);
        let idx = matches_at(&g, &l, root);
        let aoi21 = l.find("aoi21").unwrap();
        assert!(idx.at(root).iter().any(|m| m.gate == aoi21), "aoi21 did not match");
    }

    #[test]
    fn matches_respect_function() {
        // Every reported match must compute the same value as the
        // subject node on exhaustive simulation.
        let l = lib();
        let mut g = SubjectGraph::new("g");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let ab = g.and2(a, b);
        let root = g.nand2(ab, c);
        g.set_output("y", root);
        let words: Vec<u64> = (0..3).map(|i| lily_netlist::sim::exhaustive_word(i, 0)).collect();
        let mut vals = vec![0u64; g.node_count()];
        for n in g.node_ids() {
            vals[n.index()] = match g.kind(n) {
                SubjectKind::Input(pi) => words[pi],
                SubjectKind::Nand2(x, y) => !(vals[x.index()] & vals[y.index()]),
                SubjectKind::Inv(x) => !vals[x.index()],
            };
        }
        let idx = matches_at(&g, &l, root);
        for m in idx.at(root) {
            let gate = l.gate(m.gate);
            let mut out = 0u64;
            for lane in 0..8 {
                let pins: Vec<bool> =
                    m.inputs.iter().map(|i| (vals[i.index()] >> lane) & 1 == 1).collect();
                if gate.function().eval(&pins) {
                    out |= 1 << lane;
                }
            }
            assert_eq!(out & 0xFF, vals[root.index()] & 0xFF, "gate {}", gate.name());
        }
    }

    #[test]
    fn index_builds_for_whole_graph() {
        let l = lib();
        let mut g = SubjectGraph::new("g");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let x = g.xor2(a, b);
        let n = g.nand2(x, a);
        g.set_output("y", n);
        let idx = MatchIndex::build(&g, &l).unwrap();
        for v in g.node_ids() {
            if !matches!(g.kind(v), SubjectKind::Input(_)) {
                assert!(!idx.at(v).is_empty(), "node {v} unmatched");
            } else {
                assert!(idx.at(v).is_empty());
            }
        }
        assert!(idx.total() > 4);
    }

    #[test]
    fn arena_matches_per_node_enumeration() {
        // The part-parallel arena must hold exactly what enumerating
        // each node on its own yields, in the same order. C880's subject
        // graph spans three parts.
        let l = lib();
        let net = lily_workloads::circuits::circuit("C880");
        let g = lily_netlist::decompose::decompose(
            &net,
            lily_netlist::decompose::DecomposeOrder::Balanced,
        )
        .unwrap();
        for threads in [1usize, 2, 8] {
            lily_par::set_threads(Some(threads));
            let idx = MatchIndex::build(&g, &l).unwrap();
            let mut total = 0;
            for v in g.node_ids() {
                if matches!(g.kind(v), SubjectKind::Input(_)) {
                    assert!(idx.at(v).is_empty());
                    continue;
                }
                let own = matches_at(&g, &l, v);
                assert_eq!(idx.at(v), own.at(v), "node {v} at {threads} threads");
                total += own.total();
            }
            assert_eq!(idx.total(), total);
        }
        lily_par::set_threads(None);
    }

    #[test]
    fn push_rolls_back_a_duplicate() {
        let id = SubjectNodeId::from_index;
        let (inv, nand2) = (GateId::from_index(0), GateId::from_index(1));
        let mut part = Arena::default();
        part.push(nand2, [id(0), id(1)], &[id(2)]);
        part.push(inv, [id(0)], &[id(2)]);
        part.push(nand2, [id(0), id(1)], &[id(2)]);
        part.push(nand2, [id(1), id(0)], &[id(2)]);
        part.close_node();
        let got: Vec<(GateId, Vec<SubjectNodeId>)> =
            part.at(0).iter().map(|m| (m.gate, m.inputs.to_vec())).collect();
        assert_eq!(
            got,
            [(nand2, vec![id(0), id(1)]), (inv, vec![id(0)]), (nand2, vec![id(1), id(0)])]
        );
        assert_eq!(part.nodes.len(), 3 + 2 + 3, "the duplicate's nodes were rolled back");
    }

    #[test]
    fn skipping_the_check_where_no_repeat_is_possible_changes_no_index() {
        // The reference checks every match against all of its gate's
        // records at the node.
        use lily_netlist::decompose::{decompose, DecomposeOrder};
        use lily_workloads::{circuits::circuit, scale_circuit, ScaleFamily};
        let l = lib();
        let patterns = Patterns::new(&l);
        let mut walk = Walk::default();
        let nets =
            [circuit("C880"), circuit("C5315"), scale_circuit(ScaleFamily::RandomDag, 1000, 1)];
        let mut repeats = 0;
        for net in nets {
            let g = decompose(&net, DecomposeOrder::Balanced).unwrap();
            let idx = MatchIndex::build(&g, &l).unwrap();
            for v in g.node_ids() {
                let mut part = Arena::default();
                let (mut group, mut gate_first) = (None, 0);
                for &(gate, fanin, root, _) in patterns.at(g.kind(v)) {
                    if group != Some(gate) {
                        group = Some(gate);
                        gate_first = part.recs.len();
                    }
                    walk.binding.clear();
                    walk.binding.resize(fanin, None);
                    walk.covered.clear();
                    enumerate(&g, root, v, &mut walk, &mut |w| {
                        repeats += 1;
                        let inputs = w.binding.iter().map(|b| b.expect("complete binding"));
                        part.push_unless_in(gate_first..usize::MAX, gate, inputs, &w.covered);
                    });
                }
                part.close_node();
                repeats -= part.recs.len();
                assert_eq!(idx.at(v), part.at(0), "{}: node {v}", net.name());
            }
        }
        // The random DAG's reconvergence makes nand4-6 shapes repeat.
        assert!(repeats > 0, "the check never fired, so this test shows nothing");
    }

    #[test]
    fn a_gate_with_repeated_patterns_matches_once() {
        // Every gate of `big` twice over the same pattern: each repeat
        // walks exactly like the first, and the arena must keep one copy.
        let big = lib();
        let doubled: Vec<lily_cells::Gate> = big
            .gates()
            .iter()
            .map(|gt| {
                let p = gt.patterns().to_vec();
                lily_cells::Gate::new(
                    gt.name(),
                    gt.area(),
                    gt.grids(),
                    gt.pins().to_vec(),
                    p.iter().chain(&p).cloned().collect(),
                )
            })
            .collect();
        let doubled = Library::from_gates("doubled", doubled, *big.technology());
        let mut g = SubjectGraph::new("g");
        let ins: Vec<SubjectNodeId> = (0..4).map(|i| g.add_input(format!("i{i}"))).collect();
        let x = g.xor2(ins[0], ins[1]);
        let y = g.and2(x, ins[2]);
        let z = g.or2(y, ins[3]);
        g.set_output("z", z);
        let (once, twice) =
            (MatchIndex::build(&g, &big).unwrap(), MatchIndex::build(&g, &doubled).unwrap());
        for v in g.node_ids() {
            assert_eq!(once.at(v), twice.at(v), "node {v}");
        }
    }

    #[test]
    fn index_is_identical_at_any_thread_count() {
        let l = lib();
        let mut g = SubjectGraph::new("g");
        let ins: Vec<SubjectNodeId> = (0..6).map(|i| g.add_input(format!("i{i}"))).collect();
        let mut acc = g.xor2(ins[0], ins[1]);
        for &i in &ins[2..] {
            let t = g.and2(acc, i);
            let ni = g.inv(i);
            acc = g.or2(t, ni);
        }
        g.set_output("y", acc);
        let baseline = {
            lily_par::set_threads(Some(1));
            MatchIndex::build(&g, &l).unwrap()
        };
        for threads in [2usize, 8] {
            lily_par::set_threads(Some(threads));
            let idx = MatchIndex::build(&g, &l).unwrap();
            for v in g.node_ids() {
                assert_eq!(idx.at(v), baseline.at(v), "node {v} differs at {threads} threads");
            }
            assert_eq!(idx.total(), baseline.total());
        }
        lily_par::set_threads(None);
    }

    #[test]
    fn incomplete_library_is_rejected() {
        // A library with only an inverter cannot cover NAND nodes.
        let l = Library::from_kinds(
            "inv-only",
            &[lily_cells::GateKind::Inv],
            lily_cells::Technology::mcnc_3u(),
        );
        let mut g = SubjectGraph::new("g");
        let a = g.add_input("a");
        let n = g.inv(a);
        g.set_output("y", n);
        assert!(matches!(
            MatchIndex::build(&g, &l),
            Err(MapError::IncompleteLibrary { missing: "2-input nand" })
        ));
    }

    fn small_graph(name: &str) -> SubjectGraph {
        let mut g = SubjectGraph::new(name);
        let a = g.add_input("a");
        let b = g.add_input("b");
        let x = g.xor2(a, b);
        g.set_output("y", x);
        g
    }

    #[test]
    fn slot_reuses_an_index_only_for_the_same_graph() {
        let l = lib();
        let (mut g, twin) = (small_graph("g"), small_graph("g"));
        let slot = MatchSlot::default();
        let shared = slot.clone();
        let first = slot.get_or_build(&g, &l).unwrap();
        assert!(Arc::ptr_eq(&first, &shared.get_or_build(&g, &l).unwrap()), "clones share");
        // A structurally equal graph elsewhere in memory is another key.
        let other = slot.get_or_build(&twin, &l).unwrap();
        assert!(!Arc::ptr_eq(&first, &other));
        assert!(Arc::ptr_eq(&other, &slot.get_or_build(&twin, &l).unwrap()));
        // So is the same graph, at the same address, once it changed.
        slot.get_or_build(&g, &l).unwrap();
        let y = g.outputs()[0].driver;
        let n = g.inv(y);
        let grown = slot.get_or_build(&g, &l).unwrap();
        assert!(!grown.at(n).is_empty(), "the new node is matched");
    }

    #[test]
    fn a_cancelled_build_leaves_the_slot_empty() {
        let l = lib();
        let g = small_graph("g");
        let slot = MatchSlot::default();
        let token = lily_fault::CancelToken::new();
        token.cancel();
        {
            let _ambient = lily_fault::set_ambient(token);
            assert!(matches!(slot.get_or_build(&g, &l), Err(MapError::Cancelled { .. })));
        }
        assert_eq!(format!("{slot:?}"), "MatchSlot { built: false }");
        assert!(slot.get_or_build(&g, &l).is_ok(), "a retry rebuilds");
        assert_eq!(format!("{slot:?}"), "MatchSlot { built: true }");
    }
}
