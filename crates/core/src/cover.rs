//! The DAG-covering engine shared by the MIS baseline and Lily: scope
//! iteration (cones or maximal trees), the node life cycle, and match
//! commitment into a [`MappedNetwork`].
//!
//! The engine owns everything that does not depend on the cost model:
//! which nodes are solved in which order ([`Engine::cover`] sweeps the
//! scopes and calls a [`CostModel`] per node), how a chosen cover is
//! turned into cells, how logic duplication (dove reincarnation) is
//! handled, and which committed cells consume each subject signal (the
//! *true fanout* bookkeeping of Section 3.3).
//!
//! # Incremental covering
//!
//! Cones overlap, so cone-by-cone covering meets shared logic once per
//! cone that contains it. A node's DP result is a pure function of what
//! its matches read: the solutions, life-state class (egg/nestling,
//! dove, hawk) and committed consumers of every node in
//! `m.inputs ∪ m.covered` over its matches, plus the life-state class of
//! its own fanouts. The engine keeps a version stamp per node that moves
//! whenever any of that changes — [`Engine::commit`] bumps every node
//! whose state or consumers it touched, together with that node's
//! fanins (whose true-fanout sets just changed), and
//! [`Engine::record_solve`] bumps a node whose re-solve produced
//! different bits. A node whose dependencies are all older than its
//! last solve is *clean*: its stored solution is exactly what a
//! re-solve would produce, so the sweep leaves it alone.
//!
//! The sweep never walks a cone's full membership. Cone membership is
//! one bitset row per node ([`ConeMembership`], bits in processing
//! order), and a cone solves only
//!
//! * its *new members*, found by a DFS from the root that stops at
//!   nodes an earlier cone reached (these are exactly its eggs), and
//! * its *dirty frontier*: every version bump marks the bumped node and
//!   its readers (the nodes whose dependency sets contain it, a reverse
//!   CSR laid out once per map), each into the queue of the next cone,
//!   in processing order, that contains it.
//!
//! Both kinds merge through a min-heap in ascending id (topological)
//! order, so a solve that bumps a node marks its readers further down
//! the same cone in time. A node is marked exactly when a clean check
//! at its next cone would fail, so the covers are the ones a walk over
//! every member with that check produces; test builds run that walk
//! beside each cone and assert it. Only cone scopes revisit nodes, and
//! they filter no matches, so the rule never has to account for
//! [`Engine::match_allowed`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::error::MapError;
use crate::matching::{Match, MatchIndex};
use lily_cells::{CellId, Library, MappedCell, MappedNetwork, SignalSource};
use lily_netlist::cones::{
    cones, exit_line_matrix, maximal_trees, order_cones, ordering_cost, Cone, ConeMembership, Tree,
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
    /// Cone memberships left unsolved on clean nodes: counted over every
    /// cone, the members that were neither solved there nor already
    /// mapped (hawks), because nothing they depend on had changed since
    /// their last solve. 0 under the tree partition.
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
    /// A logic cone (its members live in the engine's membership rows).
    Cone(Cone),
    /// A maximal tree (with a membership mask for match filtering).
    Tree(Tree),
}

impl Scope {
    /// The scope root.
    pub fn root(&self) -> SubjectNodeId {
        match self {
            Scope::Cone(c) => c.root,
            Scope::Tree(t) => t.root,
        }
    }
}

/// The cost model an [`Engine::cover`] sweep drives: how a node is
/// solved and where its committed cell goes.
pub trait CostModel {
    /// Solves `v` in `scope`: picks its best match and records it with
    /// [`Engine::record_solve`]. The sweep calls this for every node that
    /// is not already mapped and whose stored solution is stale.
    ///
    /// # Errors
    ///
    /// [`MapError::NoMatch`] when no match at `v` is allowed in `scope`.
    fn solve(
        &mut self,
        e: &mut Engine<'_>,
        scope: &Scope,
        v: SubjectNodeId,
    ) -> Result<(), MapError>;

    /// The position of the cell committed for `v`.
    fn position(&self, v: SubjectNodeId) -> (f64, f64);
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
    /// The readers of each node — the nodes whose dependency set
    /// (`m.inputs ∪ m.covered` over their matches) contains it — as a
    /// CSR: `reader_list[reader_start[u]..reader_start[u + 1]]`, in
    /// ascending id order. Built for cone partitions only (trees never
    /// revisit a node); empty otherwise.
    reader_start: Vec<usize>,
    reader_list: Vec<SubjectNodeId>,
    /// Cone membership with bits in processing order (no cones under
    /// the tree partition).
    membership: ConeMembership,
    /// The first cone whose queue a mark may still join: the cone being
    /// swept, or the next one while a cone commits.
    rank: usize,
    /// Whether each node waits in some cone's queue (or the sweep's
    /// heap) already.
    queued: Vec<bool>,
    /// Per cone, the nodes marked into it before its sweep drained them.
    queues: Vec<Vec<SubjectNodeId>>,
    /// Cone memberships of nodes already mapped (hawks) when the cone is
    /// swept; subtracted from the membership total for `dp_reused`.
    hawk_memberships: usize,
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
            reader_start: Vec::new(),
            reader_list: Vec::new(),
            membership: ConeMembership::new(g, &[]),
            rank: 0,
            queued: vec![false; n],
            queues: Vec::new(),
            hawk_memberships: 0,
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

    /// Covers the graph scope by scope and finalizes. Cones come in
    /// output order, or in the exit-line-minimizing order of Lily's
    /// Section 3.5 when `cone_ordering` is set; trees in topological
    /// (root id) order. Within a scope, `model` solves every node that
    /// needs it in ascending id order (see the module docs); then the
    /// cover rooted at the scope root is committed at `model`'s
    /// positions.
    ///
    /// # Errors
    ///
    /// The first error `model` returns.
    pub fn cover(
        mut self,
        partition: Partition,
        cone_ordering: bool,
        model: &mut dyn CostModel,
    ) -> Result<MapResult, MapError> {
        let scopes = self.scopes(partition, cone_ordering);
        for (k, scope) in scopes.iter().enumerate() {
            match scope {
                Scope::Tree(t) => {
                    for &v in &t.members {
                        if self.visit(v) {
                            model.solve(&mut self, scope, v)?;
                        }
                    }
                }
                Scope::Cone(c) => self.sweep_cone(k, c.root, scope, model)?,
            }
            self.rank = k + 1;
            self.commit(scope.root(), &mut |v| model.position(v));
        }
        Ok(self.finish())
    }

    /// The covering scopes in processing order (see [`Engine::cover`]).
    /// Cones also get the membership rows and reader lists the sweep
    /// marks through.
    fn scopes(&mut self, partition: Partition, cone_ordering: bool) -> Vec<Scope> {
        let scopes: Vec<Scope> = match partition {
            Partition::Cones => {
                let mut cs = cones(self.g);
                if cone_ordering {
                    let m = exit_line_matrix(self.g, &ConeMembership::new(self.g, &cs));
                    let order = order_cones(&m);
                    self.stats.ordering_cost = Some(ordering_cost(&m, &order));
                    cs = order.iter().map(|&i| cs[i]).collect();
                }
                self.membership = ConeMembership::new(self.g, &cs);
                self.queues = vec![Vec::new(); cs.len()];
                if self.reader_start.is_empty() {
                    self.build_readers();
                }
                cs.into_iter().map(Scope::Cone).collect()
            }
            Partition::Trees => maximal_trees(self.g).into_iter().map(Scope::Tree).collect(),
        };
        self.stats.scopes = scopes.len();
        scopes
    }

    /// Lays out every node's readers (see `reader_list`): the
    /// deduplicated dependency set of each node, transposed.
    fn build_readers(&mut self) {
        let n = self.g.node_count();
        let mut last_reader = vec![usize::MAX; n];
        let mut deps = Vec::new();
        let mut dep_start = Vec::with_capacity(n + 1);
        dep_start.push(0);
        let mut start = vec![0usize; n + 1];
        for v in 0..n {
            for m in self.idx.at(SubjectNodeId::from_index(v)) {
                for &d in m.inputs.iter().chain(m.covered) {
                    if last_reader[d.index()] != v {
                        last_reader[d.index()] = v;
                        deps.push(d);
                        start[d.index() + 1] += 1;
                    }
                }
            }
            dep_start.push(deps.len());
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut fill = start.clone();
        self.reader_list = vec![SubjectNodeId::from_index(0); deps.len()];
        for v in 0..n {
            for d in &deps[dep_start[v]..dep_start[v + 1]] {
                self.reader_list[fill[d.index()]] = SubjectNodeId::from_index(v);
                fill[d.index()] += 1;
            }
        }
        self.reader_start = start;
    }

    /// Where `u`'s readers sit in `reader_list` (nowhere before
    /// [`Engine::scopes`] hands out cones).
    fn reader_range(&self, u: SubjectNodeId) -> std::ops::Range<usize> {
        match self.reader_start.get(u.index() + 1) {
            Some(&end) => self.reader_start[u.index()]..end,
            None => 0..0,
        }
    }

    /// Sweeps cone `k` (rooted at `root`): solves its new members and
    /// its dirty frontier in ascending id order.
    fn sweep_cone(
        &mut self,
        k: usize,
        root: SubjectNodeId,
        scope: &Scope,
        model: &mut dyn CostModel,
    ) -> Result<(), MapError> {
        self.rank = k;
        let mut heap: BinaryHeap<Reverse<SubjectNodeId>> =
            self.queues[k].drain(..).map(Reverse).collect();
        // New members: eggs reachable from the root through eggs. An
        // earlier cone already reached every other node, and everything
        // below it.
        let mut stack = vec![root];
        while let Some(u) = stack.pop() {
            if self.life.state(u) != NodeState::Egg
                || matches!(self.g.kind(u), SubjectKind::Input(_))
            {
                continue;
            }
            self.life.hatch(u);
            if !self.queued[u.index()] {
                self.queued[u.index()] = true;
                heap.push(Reverse(u));
            }
            stack.extend(self.g.kind(u).fanins());
        }
        #[cfg(test)]
        let mut oracle = tests::FrontierOracle::new(self, k);
        loop {
            heap.extend(self.queues[k].drain(..).map(Reverse));
            let Some(Reverse(v)) = heap.pop() else { break };
            #[cfg(test)]
            oracle.before_solve(self, v);
            if self.visit(v) {
                model.solve(self, scope, v)?;
            }
            self.queued[v.index()] = false;
        }
        #[cfg(test)]
        oracle.finish(self);
        Ok(())
    }

    /// Marks `u` dirty: queues it for the next cone, at or after the
    /// current rank, that contains it. Hawks are never solved again, and
    /// a node already queued will see the change when its cone comes.
    fn mark(&mut self, u: SubjectNodeId) {
        if self.queued[u.index()] || self.life.state(u) == NodeState::Hawk {
            return;
        }
        if let Some(next) = self.membership.next_cone(u, self.rank) {
            self.queued[u.index()] = true;
            self.queues[next].push(u);
        }
    }

    /// Marks every reader of `u` (see [`Engine::mark`]).
    fn mark_readers(&mut self, u: SubjectNodeId) {
        for i in self.reader_range(u) {
            self.mark(self.reader_list[i]);
        }
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
            NodeState::Nestling => true, // hatched by this cone's DFS, or an earlier cone
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

    /// Records a fresh solve of `v` that chose match `mi`. `changed`
    /// tells whether the cost model's stored solution differs in any bit
    /// from the previous one; a first solve, a changed solution or a
    /// different match invalidates (marks) every node that reads `v`.
    pub fn record_solve(&mut self, v: SubjectNodeId, mi: usize, changed: bool) {
        let i = v.index();
        self.clock += 1;
        if changed || self.solved_at[i] == 0 || self.chosen[i] != mi {
            self.version[i] = self.clock;
            self.mark_readers(v);
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
    /// gets a new version, as do its fanins; each is marked, with its
    /// readers.
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
                self.bump(w);
                for u in self.g.kind(w).fanins() {
                    self.bump(u);
                }
            }
        }
        signal
    }

    /// Gives `u` the current tick, marking it and its readers the first
    /// time in this tick.
    fn bump(&mut self, u: SubjectNodeId) {
        if self.version[u.index()] != self.clock {
            self.version[u.index()] = self.clock;
            self.mark(u);
            self.mark_readers(u);
        }
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
        self.hawk_memberships += self.membership.count_from(v, self.rank);
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
        if self.membership.cone_count() > 0 {
            self.stats.dp_reused =
                self.membership.memberships() - self.hawk_memberships - self.stats.dp_solves;
        }
        MapResult { mapped: self.mapped, stats: self.stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Cone sweeps the frontier oracle checked on this thread.
        static FRONTIER_CHECKS: Cell<usize> = const { Cell::new(0) };
        /// Clean members the oracle's full walks met on this thread.
        static CLEAN_MEMBERS: Cell<usize> = const { Cell::new(0) };
    }

    /// Whether `v`'s stored solution is still exactly what a re-solve
    /// would produce: `v` was solved before and no node its matches read
    /// has changed since.
    fn clean(e: &Engine, v: SubjectNodeId) -> bool {
        let at = e.solved_at[v.index()];
        let fresh = |d: &SubjectNodeId| e.version[d.index()] <= at;
        at > 0
            && fresh(&v)
            && e.idx.at(v).iter().all(|m| m.inputs.iter().chain(m.covered).all(fresh))
    }

    /// The oracle of the dirty frontier. Beside each cone sweep it walks
    /// the cone's full membership in id order, as a sweep without a
    /// frontier would, and asserts that the nodes the sweep solves are
    /// exactly the members that are neither hawks nor [`clean`] when
    /// that walk reaches them.
    pub(super) struct FrontierOracle {
        cone: usize,
        members: Vec<SubjectNodeId>,
        next: usize,
    }

    impl FrontierOracle {
        pub(super) fn new(e: &Engine, cone: usize) -> Self {
            Self { cone, members: e.membership.members(cone).collect(), next: 0 }
        }

        /// Walks the members below `v`, which the sweep skips.
        fn skip_below(&mut self, e: &Engine, v: Option<SubjectNodeId>) {
            while let Some(&u) =
                self.members.get(self.next).filter(|&&u| Some(u) < v || v.is_none())
            {
                let hawk = e.life.state(u) == NodeState::Hawk;
                assert!(hawk || clean(e, u), "cone {}: stale member {u} skipped", self.cone);
                CLEAN_MEMBERS.with(|n| n.set(n.get() + usize::from(!hawk)));
                self.next += 1;
            }
        }

        /// The sweep is about to solve `v`.
        pub(super) fn before_solve(&mut self, e: &Engine, v: SubjectNodeId) {
            self.skip_below(e, Some(v));
            let cone = self.cone;
            assert_eq!(self.members.get(self.next), Some(&v), "cone {cone}: {v} is no member");
            assert_ne!(e.life.state(v), NodeState::Hawk, "cone {cone}: hawk {v} queued");
            assert!(!clean(e, v), "cone {cone}: clean member {v} queued");
            self.next += 1;
        }

        /// The sweep of the cone is done.
        pub(super) fn finish(mut self, e: &Engine) {
            self.skip_below(e, None);
            FRONTIER_CHECKS.with(|n| n.set(n.get() + 1));
        }
    }

    #[test]
    fn the_frontier_solves_exactly_the_stale_members() {
        use crate::{CutMapper, LilyMapper, MisMapper};
        use lily_netlist::decompose::{decompose, DecomposeOrder};
        use lily_place::Point;
        use lily_workloads::{circuits, scale_circuit, ScaleFamily};
        let (big, big_1u) = (Library::big(), Library::big_1u());
        for net in [scale_circuit(ScaleFamily::RandomDag, 400, 1), circuits::circuit("C432")] {
            let g = decompose(&net, DecomposeOrder::Balanced).unwrap();
            let place: Vec<Point> = (0..g.node_count())
                .map(|i| Point::new(((i * 37) % 23) as f64 * 50.0, ((i * 11) % 19) as f64 * 50.0))
                .collect();
            let pads: Vec<Point> =
                (0..g.outputs().len()).map(|i| Point::new(1200.0, i as f64 * 30.0)).collect();
            let (checks, clean) = (FRONTIER_CHECKS.with(Cell::get), CLEAN_MEMBERS.with(Cell::get));
            let runs = [
                ("mis area", MisMapper::new(&big).map(&g)),
                ("mis delay", MisMapper::new(&big_1u).mode(MapMode::Delay).map(&g)),
                ("lily area", LilyMapper::new(&big).map(&g, &place, &pads)),
                (
                    "lily delay",
                    LilyMapper::new(&big_1u).mode(MapMode::Delay).map(&g, &place, &pads),
                ),
                ("cut area", CutMapper::new(&big).map(&g, &place, &pads)),
            ];
            let mut scopes = 0;
            let mut reused = 0;
            for (what, r) in runs {
                let stats = r.unwrap_or_else(|err| panic!("{what}: {err}")).stats;
                assert!(stats.dp_reused > 0, "{}/{what}: nothing clean", net.name());
                scopes += stats.scopes;
                reused += stats.dp_reused;
            }
            assert_eq!(FRONTIER_CHECKS.with(Cell::get) - checks, scopes, "{}", net.name());
            assert_eq!(CLEAN_MEMBERS.with(Cell::get) - clean, reused, "{}: dp_reused", net.name());
        }
    }

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
        e.scopes(Partition::Cones, false); // cone 0 = {shared, y1}, cone 1 = {shared, y2}
                                           // The base-function match: one gate per node, nothing absorbed.
        let base = |e: &Engine, v: SubjectNodeId| {
            e.idx.at(v).iter().position(|m| m.covered.len() == 1).unwrap()
        };
        // Solves as a sweep runs them: the node is queued for the current
        // cone while it solves, so it never marks itself.
        let solve = |e: &mut Engine, v: SubjectNodeId, changed: bool| {
            assert!(e.visit(v));
            e.queued[v.index()] = true;
            e.record_solve(v, base(e, v), changed);
            e.queued[v.index()] = false;
        };
        // The first solve of `shared` marks both readers, each into its
        // first cone.
        solve(&mut e, shared, true);
        assert_eq!((&e.queues[0][..], &e.queues[1][..]), (&[y1][..], &[y2][..]));
        assert!(e.queued[y1.index()] && e.queued[y2.index()]);
        assert!(!clean(&e, y1) && clean(&e, shared));

        // y1 solves; a re-solve of `shared` that reproduced its bits
        // marks nothing, one that changed them marks y1 again.
        e.queues[0].clear();
        e.queued[y1.index()] = false;
        solve(&mut e, y1, true);
        solve(&mut e, shared, false);
        assert!(e.queues[0].is_empty() && clean(&e, y1));
        solve(&mut e, shared, true);
        assert_eq!(e.queues[0], [y1]);
        assert!(!clean(&e, y1));
        e.queues[0].clear();
        e.queued[y1.index()] = false;
        solve(&mut e, y1, false);

        // Committing cone 0 makes `shared` a hawk with a consumer: y2
        // prices that net, so it stays marked for cone 1; the hawks are
        // not marked at all.
        e.rank = 1;
        e.commit(y1, &mut |_| (0.0, 0.0));
        assert_eq!(e.life.state(shared), NodeState::Hawk);
        assert_eq!(e.queues[1], [y2]);
        assert!(e.queues[0].is_empty() && !e.queued[shared.index()]);
        // Cone 1 solves y2 only; `shared` was mapped in cone 0.
        e.queues[1].clear();
        e.queued[y2.index()] = false;
        solve(&mut e, y2, true);
        e.rank = 2;
        e.commit(y2, &mut |_| (0.0, 0.0));
        assert!(e.queues.iter().all(Vec::is_empty));
        // Of the 4 memberships, one is `shared`'s in cone 1, a hawk by
        // then; a sweep's `dp_reused` is what its solves leave of the
        // other 3 (these hand-driven re-solves outnumber them).
        assert_eq!((e.membership.memberships(), e.hawk_memberships), (4, 1));
        assert_eq!(e.stats.dp_solves, 6);
    }

    #[test]
    fn readers_transpose_every_dependency_set() {
        let g = graph();
        let lib = Library::big();
        let mut e = Engine::new(&g, &lib).unwrap();
        e.scopes(Partition::Trees, false);
        assert!(g.node_ids().all(|v| e.reader_range(v).is_empty()), "trees build no readers");
        e.scopes(Partition::Cones, false);
        for u in g.node_ids() {
            let want: Vec<SubjectNodeId> = g
                .node_ids()
                .filter(|&v| {
                    e.idx.at(v).iter().any(|m| m.inputs.iter().chain(m.covered).any(|&d| d == u))
                })
                .collect();
            assert_eq!(e.reader_list[e.reader_range(u)], want, "{u}");
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

    /// A trivial cost rule: the first match everywhere.
    struct FirstMatch;

    impl CostModel for FirstMatch {
        fn solve(
            &mut self,
            e: &mut Engine<'_>,
            _: &Scope,
            v: SubjectNodeId,
        ) -> Result<(), MapError> {
            e.record_solve(v, 0, false);
            Ok(())
        }

        fn position(&self, _: SubjectNodeId) -> (f64, f64) {
            (0.0, 0.0)
        }
    }

    #[test]
    fn commit_builds_equivalent_netlist() {
        let g = graph();
        let lib = Library::big();
        for partition in [Partition::Cones, Partition::Trees] {
            let e = Engine::new(&g, &lib).unwrap();
            let r = e.cover(partition, false, &mut FirstMatch).unwrap();
            assert!(lily_cells::mapped::equiv_mapped_subject(&g, &r.mapped, &lib, 64, 7));
            assert!(r.stats.lifecycle.hawks >= 1);
        }
    }
}
