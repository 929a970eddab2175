//! The DAG-covering engine shared by the MIS baseline and Lily: scope
//! iteration (cones or maximal trees), the node life cycle, and match
//! commitment into a [`MappedNetwork`].
//!
//! The engine owns everything that does not depend on the cost model:
//! which nodes are visited in which order, how a chosen cover is turned
//! into cells, how logic duplication (dove reincarnation) is handled,
//! and which committed cells consume each subject signal (the *true
//! fanout* bookkeeping of Section 3.3).
//!
//! # Incremental covering
//!
//! Cones overlap, so cone-by-cone covering visits shared logic once per
//! cone that contains it. A node's DP result is a pure function of what
//! its matches read: the solutions, life-state class (egg/nestling,
//! dove, hawk) and committed consumers of every node in
//! `m.inputs ∪ m.covered` over its matches, plus the life-state class of
//! its own fanouts. The engine keeps a version stamp per node that moves
//! whenever any of that changes — [`Engine::commit`] bumps every node
//! whose state or consumers it touched, together with that node's
//! fanins (whose true-fanout sets just changed), and
//! [`Engine::record_solve`] bumps a node whose re-solve produced
//! different bits. [`Engine::reuse`] then skips a visited node whose
//! dependencies are all older than its last solve: its stored solution
//! is exactly what a re-solve would produce. Only cone scopes revisit
//! nodes, and they filter no matches, so the rule never has to account
//! for [`Engine::match_allowed`]. A node is visited far more often than
//! it is solved, so [`Engine::scopes`] lays the deduplicated dependency
//! set of every node out once, as a CSR, when it hands out cones; the
//! check then reads each dependency's version once per visit instead of
//! once per match that reads it.

use std::sync::Arc;

use crate::error::MapError;
use crate::matching::{Match, MatchIndex};
use lily_cells::{CellId, Library, MappedCell, MappedNetwork, SignalSource};
use lily_netlist::cones::{
    cones, exit_line_matrix, maximal_trees, order_cones, ordering_cost, Cone, Tree,
};
use lily_netlist::{
    LifeCycle, LifeCycleStats, NodeState, SubjectGraph, SubjectKind, SubjectNodeId,
};

/// Optimization objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MapMode {
    /// Minimize layout cost (active cell area, plus wiring for Lily).
    #[default]
    Area,
    /// Minimize the worst output arrival time.
    Delay,
}

/// How the subject graph is partitioned for dynamic programming.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Partition {
    /// Logic cones, one per primary output, with logic duplication
    /// across cones (MIS; what Lily builds on).
    #[default]
    Cones,
    /// Maximal trees split at multi-fanout nodes, no duplication
    /// (DAGON).
    Trees,
}

/// Statistics collected during a mapping run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MapStats {
    /// Life-cycle transition counts (Figure 2.2 reproduction).
    pub lifecycle: LifeCycleStats,
    /// Total matches enumerated over the whole graph.
    pub matches_enumerated: usize,
    /// Number of covering scopes processed (cones or trees).
    pub scopes: usize,
    /// Cone-ordering objective value (`Σ_{i<j} E(π_i, π_j)`), when cone
    /// ordering ran.
    pub ordering_cost: Option<usize>,
    /// Cut-enumeration statistics, when the cut mapper ran.
    pub cuts: Option<lily_netlist::CutStats>,
    /// Node solves the covering DP actually ran.
    pub dp_solves: usize,
    /// Node visits that reused the stored solution instead, because
    /// nothing it depends on had changed since its last solve.
    pub dp_reused: usize,
}

/// The output of a mapping run.
#[derive(Debug, Clone)]
pub struct MapResult {
    /// The mapped netlist (positions are meaningful only for Lily).
    pub mapped: MappedNetwork,
    /// Run statistics.
    pub stats: MapStats,
}

/// One unit of covering work.
#[derive(Debug, Clone)]
pub enum Scope {
    /// A logic cone.
    Cone(Cone),
    /// A maximal tree (with a membership mask for match filtering).
    Tree(Tree),
}

impl Scope {
    /// Members in topological order (root last).
    pub fn members(&self) -> &[SubjectNodeId] {
        match self {
            Scope::Cone(c) => &c.members,
            Scope::Tree(t) => &t.members,
        }
    }

    /// The scope root.
    pub fn root(&self) -> SubjectNodeId {
        match self {
            Scope::Cone(c) => c.root,
            Scope::Tree(t) => t.root,
        }
    }
}

/// The shared covering state.
pub struct Engine<'a> {
    /// The subject graph being covered.
    pub g: &'a SubjectGraph,
    /// The target library.
    pub lib: &'a Library,
    /// All matches, per node (shared: a flow hands one index to every
    /// structural mapper run on the same subject graph).
    pub idx: Arc<MatchIndex>,
    /// Node life cycle (egg / nestling / dove / hawk).
    pub life: LifeCycle,
    /// Chosen match index (into `idx.at(v)`) for each solved node.
    pub chosen: Vec<usize>,
    /// Whether the node has a valid DP solution in the current pass.
    pub solved: Vec<bool>,
    /// Cell implementing each hawk.
    pub cell_of: Vec<Option<CellId>>,
    /// The netlist under construction.
    pub mapped: MappedNetwork,
    /// Committed cells reading each subject node's signal (with the pin
    /// they read it on) — the hawk part of the true-fanout set.
    pub committed_consumers: Vec<Vec<(CellId, usize)>>,
    /// Subject fanout adjacency (cached).
    pub fanouts: Vec<Vec<SubjectNodeId>>,
    /// Primary outputs driven by each node, as a CSR over output
    /// indices in output order: node `v` drives
    /// `po_index[po_start[v]..po_start[v + 1]]`.
    po_start: Vec<usize>,
    po_index: Vec<usize>,
    /// Each node's dependency set — `m.inputs ∪ m.covered` over its
    /// matches, deduplicated — as a CSR: node `v` depends on
    /// `dep_list[dep_start[v]..dep_start[v + 1]]`. Built by
    /// [`Engine::scopes`] for cone partitions only (trees never revisit
    /// a node); empty otherwise.
    dep_start: Vec<usize>,
    dep_list: Vec<SubjectNodeId>,
    /// Version clock of the incremental DP; every solve and every
    /// commit takes a fresh tick.
    clock: u64,
    /// Tick at which each node's observable state last changed.
    version: Vec<u64>,
    /// Tick of each node's last solve (0: never solved).
    solved_at: Vec<u64>,
    /// Nodes whose state or consumers the running commit changed.
    touched: Vec<SubjectNodeId>,
    stats: MapStats,
}

impl<'a> Engine<'a> {
    /// Builds the engine: enumerates matches and prepares bookkeeping.
    ///
    /// # Errors
    ///
    /// Propagates [`MatchIndex::build`] failures.
    pub fn new(g: &'a SubjectGraph, lib: &'a Library) -> Result<Self, MapError> {
        Ok(Self::with_index(g, lib, Arc::new(MatchIndex::build(g, lib)?)))
    }

    /// Builds the engine around an externally computed match index of
    /// `g` on `lib`: a shared structural index, or the cut matcher's
    /// ([`Engine::new`] wraps this with the structural enumeration).
    pub fn with_index(g: &'a SubjectGraph, lib: &'a Library, idx: Arc<MatchIndex>) -> Self {
        let n = g.node_count();
        let mapped = MappedNetwork::new(g.name(), g.input_names().to_vec());
        let matches_enumerated = idx.total();
        let mut po_start = vec![0usize; n + 1];
        for o in g.outputs() {
            po_start[o.driver.index() + 1] += 1;
        }
        for i in 0..n {
            po_start[i + 1] += po_start[i];
        }
        let mut fill = po_start.clone();
        let mut po_index = vec![0usize; g.outputs().len()];
        for (oi, o) in g.outputs().iter().enumerate() {
            po_index[fill[o.driver.index()]] = oi;
            fill[o.driver.index()] += 1;
        }
        Self {
            g,
            lib,
            idx,
            life: LifeCycle::new(n),
            chosen: vec![0; n],
            solved: vec![false; n],
            cell_of: vec![None; n],
            mapped,
            committed_consumers: vec![Vec::new(); n],
            fanouts: g.fanouts(),
            po_start,
            po_index,
            dep_start: Vec::new(),
            dep_list: Vec::new(),
            clock: 0,
            version: vec![0; n],
            solved_at: vec![0; n],
            touched: Vec::new(),
            stats: MapStats { matches_enumerated, ..MapStats::default() },
        }
    }

    /// Records cut-enumeration statistics (set by the cut mapper).
    pub fn set_cut_stats(&mut self, stats: lily_netlist::CutStats) {
        self.stats.cuts = Some(stats);
    }

    /// The primary outputs `v` drives, as output indices in output
    /// order.
    pub fn outputs_of(&self, v: SubjectNodeId) -> &[usize] {
        &self.po_index[self.po_start[v.index()]..self.po_start[v.index() + 1]]
    }

    /// The covering scopes in processing order. Cones come in output
    /// order, or in the exit-line-minimizing order of Lily's Section
    /// 3.5 when `cone_ordering` is set (its objective lands in the
    /// stats); trees come in topological (root id) order. Cones also
    /// get the dependency sets [`Engine::reuse`] checks.
    pub fn scopes(&mut self, partition: Partition, cone_ordering: bool) -> Vec<Scope> {
        if partition == Partition::Cones && self.dep_start.is_empty() {
            self.build_deps();
        }
        let scopes: Vec<Scope> = match partition {
            Partition::Cones if cone_ordering => {
                let mut cs = cones(self.g);
                let m = exit_line_matrix(self.g, &cs);
                let order = order_cones(&m);
                self.stats.ordering_cost = Some(ordering_cost(&m, &order));
                let mut rank = vec![0; order.len()];
                for (r, &i) in order.iter().enumerate() {
                    rank[i] = r;
                }
                cs.sort_unstable_by_key(|c| rank[c.output_index]);
                cs.into_iter().map(Scope::Cone).collect()
            }
            Partition::Cones => cones(self.g).into_iter().map(Scope::Cone).collect(),
            Partition::Trees => maximal_trees(self.g).into_iter().map(Scope::Tree).collect(),
        };
        self.stats.scopes = scopes.len();
        scopes
    }

    /// Lays out every node's deduplicated dependency set (see
    /// `dep_list`), each in first-read order over its matches.
    fn build_deps(&mut self) {
        let n = self.g.node_count();
        let mut last_reader = vec![usize::MAX; n];
        self.dep_start = Vec::with_capacity(n + 1);
        self.dep_start.push(0);
        for v in 0..n {
            for m in self.idx.at(SubjectNodeId::from_index(v)) {
                for &d in m.inputs.iter().chain(m.covered) {
                    if last_reader[d.index()] != v {
                        last_reader[d.index()] = v;
                        self.dep_list.push(d);
                    }
                }
            }
            self.dep_start.push(self.dep_list.len());
        }
    }

    /// The deduplicated dependency set of `v` (`m.inputs ∪ m.covered`
    /// over its matches), once [`Engine::scopes`] has handed out cones.
    fn deps(&self, v: SubjectNodeId) -> Option<&[SubjectNodeId]> {
        let end = *self.dep_start.get(v.index() + 1)?;
        Some(&self.dep_list[self.dep_start[v.index()]..end])
    }

    /// Prepares node `v` for (re-)solving in the current scope:
    /// hatches eggs and invalidates stale dove solutions. Returns
    /// `false` for hawks (already mapped, nothing to solve).
    ///
    /// Doves keep their state here: the DP *costs* them like unmapped
    /// logic (their signal does not exist), but the dove→egg
    /// reincarnation of Figure 2.2 only happens at commit time, when
    /// the duplication actually materializes. This keeps the life-cycle
    /// invariant `hatched = hawks + doves` exact.
    pub fn visit(&mut self, v: SubjectNodeId) -> bool {
        match self.life.state(v) {
            NodeState::Hawk => false,
            NodeState::Nestling => true, // shared node already visited this cone
            NodeState::Dove => {
                self.solved[v.index()] = false;
                true
            }
            NodeState::Egg => {
                self.life.hatch(v);
                self.solved[v.index()] = false;
                true
            }
        }
    }

    /// Whether `v`'s stored DP solution is still exactly what a re-solve
    /// would produce: `v` was solved before and no node its matches read
    /// has changed since (see the module docs). On `true` the node
    /// counts as solved for the current scope, keeping its `chosen`
    /// match; call after [`Engine::visit`].
    pub fn reuse(&mut self, v: SubjectNodeId) -> bool {
        let at = self.solved_at[v.index()];
        let fresh = |d: &SubjectNodeId| self.version[d.index()] <= at;
        let valid = at > 0
            && fresh(&v)
            && match self.deps(v) {
                Some(deps) => deps.iter().all(fresh),
                None => self.idx.at(v).iter().all(|m| m.inputs.iter().chain(m.covered).all(fresh)),
            };
        if valid {
            self.solved[v.index()] = true;
            self.stats.dp_reused += 1;
        }
        valid
    }

    /// Records a fresh solve of `v` that chose match `mi`. `changed`
    /// tells whether the cost model's stored solution differs in any bit
    /// from the previous one; a first solve, a changed solution or a
    /// different match invalidates every node that reads `v`.
    pub fn record_solve(&mut self, v: SubjectNodeId, mi: usize, changed: bool) {
        let i = v.index();
        self.clock += 1;
        if changed || self.solved_at[i] == 0 || self.chosen[i] != mi {
            self.version[i] = self.clock;
        }
        self.solved_at[i] = self.clock;
        self.chosen[i] = mi;
        self.solved[i] = true;
        self.stats.dp_solves += 1;
    }

    /// Whether matches rooted in `scope` may use this match (trees:
    /// covered nodes must stay inside the tree).
    pub fn match_allowed(&self, scope: &Scope, m: &Match) -> bool {
        match scope {
            Scope::Cone(_) => true,
            Scope::Tree(t) => m.covered.iter().all(|c| t.members.binary_search(c).is_ok()),
        }
    }

    /// The signal source of a node that must already be available
    /// (input or hawk).
    ///
    /// # Panics
    ///
    /// Panics when called on an unmapped internal node.
    // lily-lint: allow(LL04) -- engine-misuse guard: covers commit bottom-up, so an unmapped node here is a mapper bug, not a recoverable failure
    pub fn signal_of(&self, v: SubjectNodeId) -> SignalSource {
        match self.g.kind(v) {
            SubjectKind::Input(pi) => SignalSource::Input(pi),
            _ => SignalSource::Cell(self.cell_of[v.index()].expect("node not yet committed")),
        }
    }

    /// Commits the chosen cover rooted at `v`, creating cells bottom-up.
    /// `pos_of(v)` supplies each new cell's position. Returns the signal
    /// carrying `v`'s value. Every node whose state or consumers changed
    /// gets a new version, as do its fanins.
    ///
    /// # Panics
    ///
    /// Panics if a needed node has no DP solution (engine misuse).
    pub fn commit(
        &mut self,
        v: SubjectNodeId,
        pos_of: &mut dyn FnMut(SubjectNodeId) -> (f64, f64),
    ) -> SignalSource {
        let idx = Arc::clone(&self.idx);
        let signal = self.commit_cover(&idx, v, pos_of);
        if !self.touched.is_empty() {
            self.clock += 1;
            for w in std::mem::take(&mut self.touched) {
                self.version[w.index()] = self.clock;
                for u in self.g.kind(w).fanins() {
                    self.version[u.index()] = self.clock;
                }
            }
        }
        signal
    }

    fn commit_cover(
        &mut self,
        idx: &MatchIndex,
        v: SubjectNodeId,
        pos_of: &mut dyn FnMut(SubjectNodeId) -> (f64, f64),
    ) -> SignalSource {
        if let SubjectKind::Input(pi) = self.g.kind(v) {
            return SignalSource::Input(pi);
        }
        if self.life.state(v) == NodeState::Hawk {
            return SignalSource::Cell(self.cell_of[v.index()].expect("hawk has a cell"));
        }
        assert!(self.solved[v.index()], "committing unsolved node {v}");
        // A sibling branch of the same cone may already have absorbed
        // this node into a gate (dove); needing its signal anyway forces
        // logic duplication — the dove reincarnates and is committed as
        // a gate of its own (paper Figure 2.2).
        if self.life.state(v) == NodeState::Dove {
            self.life.reincarnate(v);
            self.life.hatch(v);
        }
        let m = idx.at(v).get(self.chosen[v.index()]);
        // Resolve fanin signals first (bottom-up recursion).
        let fanins: Vec<SignalSource> =
            m.inputs.iter().map(|&vi| self.commit_cover(idx, vi, pos_of)).collect();
        let cell = self.mapped.add_cell(MappedCell { gate: m.gate, fanins, position: pos_of(v) });
        self.life.commit_hawk(v);
        self.cell_of[v.index()] = Some(cell);
        self.touched.push(v);
        for (pin, &vi) in m.inputs.iter().enumerate() {
            self.committed_consumers[vi.index()].push((cell, pin));
            self.touched.push(vi);
        }
        for &c in &m.covered[1..] {
            if self.life.state(c) == NodeState::Nestling {
                self.life.commit_dove(c);
                self.touched.push(c);
            }
        }
        SignalSource::Cell(cell)
    }

    /// Whether absorbing node `c` into a match with covered set
    /// `covered` would orphan consumers: some unmapped subject fanout
    /// outside the match, or a primary output, still needs `c`'s
    /// signal, forcing the logic to be re-derived (duplicated) later.
    pub fn externally_needed(&self, c: SubjectNodeId, covered: &[SubjectNodeId]) -> bool {
        if !self.outputs_of(c).is_empty() {
            return true;
        }
        if !self.committed_consumers[c.index()].is_empty() {
            return true;
        }
        self.fanouts[c.index()].iter().any(|&w| {
            !covered.contains(&w)
                && matches!(self.life.state(w), NodeState::Egg | NodeState::Nestling)
        })
    }

    /// Finalizes: wires primary outputs and returns the result.
    ///
    /// # Panics
    ///
    /// Panics if some output's driver was never committed.
    pub fn finish(mut self) -> MapResult {
        for o in self.g.outputs() {
            let sig = self.signal_of(o.driver);
            self.mapped.add_output(o.name.clone(), sig);
        }
        self.stats.lifecycle = self.life.stats();
        MapResult { mapped: self.mapped, stats: self.stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> SubjectGraph {
        let mut g = SubjectGraph::new("g");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let ab = g.and2(a, b);
        let root = g.nand2(ab, c);
        g.set_output("y", root);
        g
    }

    #[test]
    fn engine_builds_and_iterates_scopes() {
        let g = graph();
        let lib = Library::big();
        let mut e = Engine::new(&g, &lib).unwrap();
        let cones = e.scopes(Partition::Cones, false);
        assert_eq!(cones.len(), 1);
        let trees = e.scopes(Partition::Trees, false);
        assert_eq!(trees.len(), 1); // single-fanout chain: one tree
    }

    #[test]
    fn visit_transitions() {
        let g = graph();
        let lib = Library::big();
        let mut e = Engine::new(&g, &lib).unwrap();
        let v = g.outputs()[0].driver;
        assert!(e.visit(v));
        assert_eq!(e.life.state(v), NodeState::Nestling);
        assert!(e.visit(v)); // idempotent within a cone
    }

    #[test]
    fn tree_mode_filters_cross_boundary_matches() {
        // Multi-fanout node: matches covering it from above are rejected
        // in tree mode.
        let mut g = SubjectGraph::new("g");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let shared = g.nand2(a, b);
        let inv = g.inv(shared);
        g.set_output("y1", inv);
        g.set_output("y2", shared);
        let lib = Library::big();
        let mut e = Engine::new(&g, &lib).unwrap();
        let scopes = e.scopes(Partition::Trees, false);
        let inv_tree = scopes.iter().find(|s| s.root() == inv).expect("inverter tree");
        // and2 gate at `inv` would cover `shared`, which is outside the
        // inverter's tree.
        for m in e.idx.at(inv) {
            let crosses = m.covered.contains(&shared);
            assert_eq!(e.match_allowed(inv_tree, &m), !crosses);
        }
    }

    #[test]
    fn externally_needed_tracks_orphaned_consumers() {
        // shared = nand(a, b) feeds an inverter (PO y1) and drives PO y2
        // directly.
        let mut g = SubjectGraph::new("g");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let shared = g.nand2(a, b);
        let inv = g.inv(shared);
        g.set_output("y1", inv);
        g.set_output("y2", shared);
        let lib = Library::big();
        let e = Engine::new(&g, &lib).unwrap();
        // Covering `shared` while also covering its only fanout (`inv`)
        // still orphans the primary output y2.
        assert!(e.externally_needed(shared, &[inv, shared]));
        // The inverter itself has no consumers outside its PO... it
        // drives y1, so it is externally needed too.
        assert!(e.externally_needed(inv, &[inv]));
        // A node whose only fanout is inside the cover and with no PO
        // reference is not externally needed.
        let mut g2 = SubjectGraph::new("g2");
        let a2 = g2.add_input("a");
        let b2 = g2.add_input("b");
        let n = g2.nand2(a2, b2);
        let m = g2.inv(n);
        g2.set_output("y", m);
        let e2 = Engine::new(&g2, &lib).unwrap();
        assert!(!e2.externally_needed(n, &[m, n]));
    }

    #[test]
    fn reuse_tracks_changed_solves_and_commits() {
        // Once on the match scan, once on the dependency CSR that
        // `scopes` builds for cones.
        reuse_scenario(false);
        reuse_scenario(true);
    }

    fn reuse_scenario(cone_scopes: bool) {
        // shared = nand(a, b) feeds y1 = inv(shared) and y2 = nand(shared, c).
        let mut g = SubjectGraph::new("g");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let shared = g.nand2(a, b);
        let y1 = g.inv(shared);
        let y2 = g.nand2(shared, c);
        g.set_output("y1", y1);
        g.set_output("y2", y2);
        let lib = Library::big();
        let mut e = Engine::new(&g, &lib).unwrap();
        if cone_scopes {
            e.scopes(Partition::Cones, false);
        }
        assert_eq!(e.deps(shared).is_some(), cone_scopes);
        // The base-function match: one gate per node, nothing absorbed.
        let base = |e: &Engine, v: SubjectNodeId| {
            e.idx.at(v).iter().position(|m| m.covered.len() == 1).unwrap()
        };

        assert!(e.visit(shared) && !e.reuse(shared), "never solved");
        e.record_solve(shared, base(&e, shared), true);
        assert!(e.reuse(shared), "nothing changed since its solve");
        assert!(e.visit(y2));
        e.record_solve(y2, base(&e, y2), true);
        assert!(e.reuse(y2));

        // A re-solve of `shared` that changed bits invalidates its reader.
        e.record_solve(shared, base(&e, shared), true);
        assert!(e.reuse(shared) && !e.reuse(y2));
        e.record_solve(y2, base(&e, y2), false);
        // One that reproduced the same bits does not.
        e.record_solve(shared, base(&e, shared), false);
        assert!(e.reuse(y2));

        // Committing y1 makes `shared` a hawk with a consumer: y2 prices
        // that net, so it must re-solve.
        assert!(e.visit(y1));
        e.record_solve(y1, base(&e, y1), true);
        e.commit(y1, &mut |_| (0.0, 0.0));
        assert_eq!(e.life.state(shared), NodeState::Hawk);
        assert!(!e.reuse(y2));

        e.record_solve(y2, base(&e, y2), false);
        e.commit(y2, &mut |_| (0.0, 0.0));
        let stats = e.finish().stats;
        assert_eq!((stats.dp_solves, stats.dp_reused), (7, 4));
    }

    #[test]
    fn deps_list_every_dependency_once() {
        let g = graph();
        let lib = Library::big();
        let mut e = Engine::new(&g, &lib).unwrap();
        e.scopes(Partition::Trees, false);
        assert!(g.node_ids().all(|v| e.deps(v).is_none()), "trees build no dependency sets");
        e.scopes(Partition::Cones, false);
        for v in g.node_ids() {
            let deps = e.deps(v).unwrap();
            let mut want: Vec<SubjectNodeId> = e
                .idx
                .at(v)
                .iter()
                .flat_map(|m| m.inputs.iter().chain(m.covered))
                .copied()
                .collect();
            want.sort_unstable();
            want.dedup();
            let mut got = deps.to_vec();
            got.sort_unstable();
            got.dedup();
            assert_eq!(got.len(), deps.len(), "{v}: duplicates");
            assert_eq!(got, want, "{v}");
        }
    }

    #[test]
    fn outputs_of_lists_driven_outputs_in_output_order() {
        let mut g = SubjectGraph::new("g");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let n = g.nand2(a, b);
        g.set_output("y0", n);
        g.set_output("y1", a);
        g.set_output("y2", n);
        let lib = Library::big();
        let e = Engine::new(&g, &lib).unwrap();
        assert_eq!(e.outputs_of(n), &[0, 2]);
        assert_eq!(e.outputs_of(a), &[1]);
        assert!(e.outputs_of(b).is_empty());
    }

    #[test]
    fn commit_builds_equivalent_netlist() {
        // Drive the engine by hand with a trivial cost rule: first match.
        let g = graph();
        let lib = Library::big();
        let mut e = Engine::new(&g, &lib).unwrap();
        let scopes = e.scopes(Partition::Cones, false);
        for s in &scopes {
            for &v in s.members() {
                if e.visit(v) {
                    e.chosen[v.index()] = 0;
                    e.solved[v.index()] = true;
                }
            }
            e.commit(s.root(), &mut |_| (0.0, 0.0));
        }
        let r = e.finish();
        assert!(lily_cells::mapped::equiv_mapped_subject(&g, &r.mapped, &lib, 64, 7));
        assert!(r.stats.lifecycle.hawks >= 1);
    }
}
