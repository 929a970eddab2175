//! The cut-enumeration mapping engine: K-feasible priority cuts,
//! NPN-indexed gate matching, and the [`CutMapper`] that drives the
//! shared placement-guided covering DP over the result.
//!
//! Division of labour:
//!
//! * `lily-netlist::cuts` owns the mapper-independent substrate — cut
//!   types, the per-node priority enumeration step, the sequential
//!   reference driver and the simulation oracles.
//! * `lily-cells::npn` owns the library side — the permutation-orbit
//!   match index built lazily per library ([`Library::npn`]).
//! * This module glues them: a **level-synchronous parallel** cut
//!   enumeration ([`CutIndex::build`]), cut→gate matching through the
//!   NPN index ([`cut_matches`]), and the [`CutMapper`] entry point.
//!
//! # Determinism
//!
//! Cut enumeration is a per-node function of the fanins' cut sets, so
//! nodes of equal *level* (1 + max fanin level) are independent. Each
//! level fans out over the `lily-par` pool with per-worker
//! [`CutScratch`]; results are stitched back in ascending node order
//! before the next level starts. Every worker computes a pure function
//! of already-frozen data, so cut sets — and therefore matches, DP
//! choices, and the mapped netlist — are byte-identical at any thread
//! count (`cut_index_is_identical_at_any_thread_count` below, and the
//! contract matrix in `tests/contracts.rs` end-to-end).
//!
//! Matching then converts each non-trivial cut into ordinary matches,
//! stored in the same [`MatchIndex`] arena as the structural matcher's:
//! the cut function is support-reduced, probed against the library's
//! permutation orbits, and each surviving pin assignment yields
//! `inputs[p] = leaves[perm[p]]` with the covered set taken as the cone
//! over the *original* leaves. From there the structural and cut paths
//! share everything: `Engine`, commit, dove reincarnation, and the Lily
//! cost model.

use std::sync::Arc;

use crate::cover::{Engine, MapMode, MapResult, Partition};
use crate::error::MapError;
use crate::lily::{check_inputs, run_placed_dp, LayoutOptions, MapOptions};
use crate::matching::{Arena, MatchIndex};
use lily_cells::Library;
use lily_netlist::cuts::{cut_cone, enumerate_node, CutScratch};
use lily_netlist::{CutConfig, CutSet, CutStats, SubjectGraph, SubjectNodeId, TruthTable};
use lily_par::ParOptions;
use lily_place::Point;

/// All cut sets of a subject graph plus enumeration statistics.
#[derive(Debug, Clone)]
pub struct CutIndex {
    /// Per-node cut sets, indexed by node index.
    pub sets: Vec<CutSet>,
    /// Whole-graph enumeration counters.
    pub stats: CutStats,
}

impl CutIndex {
    /// Enumerates priority cuts for every node, level-parallel.
    ///
    /// Produces exactly the cut sets of the sequential reference
    /// [`lily_netlist::cuts::enumerate_cuts`] (a test asserts equality)
    /// — parallelism only changes wall-clock time.
    ///
    /// # Errors
    ///
    /// [`MapError::Cancelled`] when the ambient fault/deadline token
    /// fires mid-enumeration.
    pub fn build(g: &SubjectGraph, config: &CutConfig) -> Result<Self, MapError> {
        let n = g.node_count();
        let mut level = vec![0usize; n];
        let mut by_level: Vec<Vec<SubjectNodeId>> = Vec::new();
        for v in g.node_ids() {
            let l = g.kind(v).fanins().map(|f| level[f.index()] + 1).max().unwrap_or(0);
            level[v.index()] = l;
            if by_level.len() <= l {
                by_level.resize(l + 1, Vec::new());
            }
            by_level[l].push(v);
        }

        let mut sets: Vec<CutSet> = vec![CutSet::default(); n];
        let mut stats = CutStats::default();
        let cancel = lily_fault::ambient_token();
        let par = ParOptions::current();
        for ids in &by_level {
            let results = lily_par::try_par_map_init(&par, ids, CutScratch::new, |scratch, &v| {
                cancel.check().map_err(|_| MapError::Cancelled { context: "cut-enumeration" })?;
                Ok::<_, MapError>(enumerate_node(g, v, &sets, config, scratch))
            })?;
            for (&v, (set, counts)) in ids.iter().zip(results) {
                stats.absorb(counts);
                sets[v.index()] = set;
            }
        }
        Ok(Self { sets, stats })
    }

    /// The cut set of `v`.
    pub fn set(&self, v: SubjectNodeId) -> &CutSet {
        &self.sets[v.index()]
    }
}

/// Restricts a cut function to its true support: leaves the table does
/// not depend on are dropped from the variable list (the cone still
/// covers the same nodes; the gate simply never taps that leaf). The
/// support test and the restriction are both bit-parallel.
fn reduce_support(leaves: &[SubjectNodeId], table: TruthTable) -> (Vec<SubjectNodeId>, TruthTable) {
    let n = table.inputs();
    let support: Vec<usize> = (0..n).filter(|&i| table.depends_on(i)).collect();
    if support.len() == n {
        return (leaves.to_vec(), table);
    }
    let kept: Vec<SubjectNodeId> = support.iter().map(|&i| leaves[i]).collect();
    (kept, table.shrink(&support))
}

/// Converts the matchable cuts of `v` into matches via the library's
/// NPN index, into the open node of `out`.
fn matches_for_node(
    g: &SubjectGraph,
    npn: &lily_cells::NpnIndex,
    v: SubjectNodeId,
    set: &CutSet,
    out: &mut Arena,
) {
    for cut in set.matchable() {
        let (leaves, table) = reduce_support(&cut.leaves, cut.table);
        if table.inputs() == 0 {
            // Constant cone (e.g. nand(x, !x)): no gate input to drive.
            // The pinned base cut still guarantees a match for `v`.
            continue;
        }
        let assignments = npn.matches(table.inputs(), table.bits());
        if assignments.is_empty() {
            continue;
        }
        // One cone walk per cut, shared by every assignment. Stored
        // cuts are real cuts by construction, so the walk cannot
        // escape; an empty cone (root is its own leaf) never occurs
        // for matchable cuts of an internal node.
        let Some(covered) = cut_cone(g, v, &cut.leaves) else {
            continue;
        };
        if covered.is_empty() {
            continue;
        }
        for pa in assignments {
            out.push(pa.gate, pa.perm.iter().map(|&p| leaves[p as usize]), &covered);
        }
    }
}

/// Matches every node's cuts against the library into the same
/// [`MatchIndex`] arena the structural matcher builds — the covering
/// engine cannot tell the difference.
///
/// # Errors
///
/// [`MapError::IncompleteLibrary`] under the same totality conditions
/// as [`MatchIndex::build`] (no inverter / no 2-input NAND),
/// [`MapError::NoMatch`] if an internal node ends up matchless, and
/// [`MapError::Cancelled`] on ambient cancellation.
pub fn cut_matches(
    g: &SubjectGraph,
    lib: &Library,
    cuts: &CutIndex,
) -> Result<MatchIndex, MapError> {
    let npn = lib.npn();
    MatchIndex::build_with(
        g,
        lib,
        "cut-matching",
        || (),
        |(), v, out| {
            matches_for_node(g, npn, v, cuts.set(v), out);
        },
    )
}

/// The cut-based layout-driven mapper: [`CutIndex`] → [`cut_matches`] →
/// the same placement-guided covering DP as [`crate::LilyMapper`].
///
/// ```
/// use lily_cells::Library;
/// use lily_core::CutMapper;
/// use lily_netlist::SubjectGraph;
/// use lily_place::Point;
///
/// # fn main() -> Result<(), lily_core::MapError> {
/// let lib = Library::big();
/// let mut g = SubjectGraph::new("demo");
/// let a = g.add_input("a");
/// let b = g.add_input("b");
/// let n = g.nand2(a, b);
/// g.set_output("y", n);
/// let place = vec![Point::new(0.0, 0.0), Point::new(0.0, 20.0), Point::new(10.0, 10.0)];
/// let out_pads = vec![Point::new(30.0, 10.0)];
/// let result = CutMapper::new(&lib).map(&g, &place, &out_pads)?;
/// assert_eq!(result.mapped.cell_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CutMapper<'l> {
    lib: &'l Library,
    options: MapOptions,
    config: CutConfig,
}

impl<'l> CutMapper<'l> {
    /// Creates a cut mapper with Lily's default cost configuration and
    /// the default cut bounds (`k = 6`, 8 priority cuts per node).
    pub fn new(lib: &'l Library) -> Self {
        Self { lib, options: MapOptions::default(), config: CutConfig::default() }
    }

    /// Sets the objective.
    #[must_use]
    pub fn mode(mut self, mode: MapMode) -> Self {
        self.options.mode = mode;
        self
    }

    /// Sets the covering partition.
    #[must_use]
    pub fn partition(mut self, partition: Partition) -> Self {
        self.options.partition = partition;
        self
    }

    /// Replaces the layout options.
    #[must_use]
    pub fn layout(mut self, layout: LayoutOptions) -> Self {
        self.options.layout = layout;
        self
    }

    /// The current cost options.
    pub fn options(&self) -> &MapOptions {
        &self.options
    }

    /// The current cut bounds.
    pub fn config(&self) -> &CutConfig {
        &self.config
    }

    /// Maps `g` guided by placement, exactly like
    /// [`crate::LilyMapper::map`], but over cut-derived matches.
    ///
    /// # Errors
    ///
    /// [`MapError::MissingPlacement`] on length mismatches,
    /// [`MapError::DegenerateInput`] for a negative or non-finite wire
    /// weight, plus the errors of [`CutIndex::build`] and
    /// [`cut_matches`].
    pub fn map(
        &self,
        g: &SubjectGraph,
        place: &[Point],
        output_pads: &[Point],
    ) -> Result<MapResult, MapError> {
        check_inputs(g, place, output_pads, &self.options.layout)?;
        // The cut sets are dead once matched: free them before the DP
        // allocates its per-node state.
        let (idx, cut_stats) = {
            let index = CutIndex::build(g, &self.config)?;
            (cut_matches(g, self.lib, &index)?, index.stats)
        };
        let mut e = Engine::with_index(g, self.lib, Arc::new(idx));
        e.set_cut_stats(cut_stats);
        run_placed_dp(e, &self.options, place, output_pads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lily_cells::mapped::equiv_mapped_subject;
    use lily_netlist::cuts::enumerate_cuts;
    use lily_netlist::decompose::{decompose, DecomposeOrder};
    use lily_netlist::{Network, NodeFunc, SubjectKind};

    fn sample_network() -> Network {
        let mut net = Network::new("s");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let d = net.add_input("d");
        let g1 = net.add_node("g1", NodeFunc::And, vec![a, b]).unwrap();
        let g2 = net.add_node("g2", NodeFunc::Or, vec![g1, c]).unwrap();
        let g3 = net.add_node("g3", NodeFunc::Xor, vec![g2, d]).unwrap();
        let g4 = net.add_node("g4", NodeFunc::Nand, vec![g1, g3]).unwrap();
        net.add_output("y1", g3);
        net.add_output("y2", g4);
        net
    }

    fn setup(net: &Network) -> (SubjectGraph, Vec<Point>, Vec<Point>) {
        let g = decompose(net, DecomposeOrder::Balanced).unwrap();
        let place: Vec<Point> = (0..g.node_count())
            .map(|i| Point::new((i % 8) as f64 * 50.0, (i / 8) as f64 * 50.0))
            .collect();
        let pads: Vec<Point> =
            (0..g.outputs().len()).map(|i| Point::new(500.0, i as f64 * 60.0)).collect();
        (g, place, pads)
    }

    #[test]
    fn cut_index_matches_sequential_reference() {
        let net = sample_network();
        let (g, _, _) = setup(&net);
        let config = CutConfig::default();
        let par = CutIndex::build(&g, &config).unwrap();
        let (seq_sets, seq_stats) = enumerate_cuts(&g, &config);
        assert_eq!(par.sets, seq_sets);
        assert_eq!(par.stats, seq_stats);
    }

    #[test]
    fn cut_index_is_identical_at_any_thread_count() {
        let net = sample_network();
        let (g, _, _) = setup(&net);
        let config = CutConfig::default();
        lily_par::set_threads(Some(1));
        let baseline = CutIndex::build(&g, &config).unwrap();
        for threads in [2usize, 8] {
            lily_par::set_threads(Some(threads));
            let idx = CutIndex::build(&g, &config).unwrap();
            assert_eq!(idx.sets, baseline.sets, "cut sets differ at {threads} threads");
            assert_eq!(idx.stats, baseline.stats);
        }
        lily_par::set_threads(None);
    }

    #[test]
    fn cut_matches_cover_every_internal_node() {
        let lib = Library::big();
        let net = sample_network();
        let (g, _, _) = setup(&net);
        let cuts = CutIndex::build(&g, &CutConfig::default()).unwrap();
        let idx = cut_matches(&g, &lib, &cuts).unwrap();
        for v in g.node_ids() {
            match g.kind(v) {
                SubjectKind::Input(_) => assert!(idx.at(v).is_empty()),
                _ => assert!(!idx.at(v).is_empty(), "node {v} unmatched"),
            }
        }
    }

    #[test]
    fn cut_matches_respect_function() {
        // Every cut-derived match must compute the subject node's value
        // on exhaustive simulation — the same oracle the structural
        // matcher is tested against.
        let lib = Library::big();
        let net = sample_network();
        let (g, _, _) = setup(&net);
        let cuts = CutIndex::build(&g, &CutConfig::default()).unwrap();
        let idx = cut_matches(&g, &lib, &cuts).unwrap();
        let words: Vec<u64> =
            (0..g.inputs().len()).map(|i| lily_netlist::sim::exhaustive_word(i, 0)).collect();
        let mut vals = vec![0u64; g.node_count()];
        for n in g.node_ids() {
            vals[n.index()] = match g.kind(n) {
                SubjectKind::Input(pi) => words[pi],
                SubjectKind::Nand2(x, y) => !(vals[x.index()] & vals[y.index()]),
                SubjectKind::Inv(x) => !vals[x.index()],
            };
        }
        let mask = (1u64 << (1 << g.inputs().len().min(6))) - 1;
        for v in g.node_ids() {
            for m in idx.at(v) {
                assert_eq!(m.root(), v);
                let gate = lib.gate(m.gate);
                assert_eq!(gate.fanin(), m.inputs.len(), "pin arity at {v}");
                let mut out = 0u64;
                for lane in 0..64 {
                    let pins: Vec<bool> =
                        m.inputs.iter().map(|i| (vals[i.index()] >> lane) & 1 == 1).collect();
                    if gate.function().eval(&pins) {
                        out |= 1 << lane;
                    }
                }
                assert_eq!(out & mask, vals[v.index()] & mask, "gate {} at {v}", gate.name());
            }
        }
    }

    #[test]
    fn cut_mapper_produces_equivalent_netlists() {
        let lib = Library::big();
        let net = sample_network();
        let (g, place, pads) = setup(&net);
        for mode in [MapMode::Area, MapMode::Delay] {
            let r = CutMapper::new(&lib).mode(mode).map(&g, &place, &pads).unwrap();
            assert!(equiv_mapped_subject(&g, &r.mapped, &lib, 256, 9), "{mode:?}");
            let stats = r.stats.cuts.expect("cut stats recorded");
            assert_eq!(stats.nodes, g.node_count());
            assert!(stats.kept >= g.node_count());
        }
    }

    #[test]
    fn cut_mapper_finds_nontree_covers() {
        // The 4-NAND XOR with a *shared* middle node: t = nand(a,b),
        // f = nand(nand(a,t), nand(b,t)). The cone of cut {a,b} at `f`
        // is a DAG (t reconverges), which a tree-pattern walk can only
        // reach by unfolding t twice. The cut matcher covers each node
        // exactly once.
        let lib = Library::big();
        let mut g = SubjectGraph::new("recon");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let t = g.nand2(a, b);
        let n1 = g.nand2(a, t);
        let n2 = g.nand2(b, t);
        let f = g.nand2(n1, n2);
        g.set_output("f", f);
        let cuts = CutIndex::build(&g, &CutConfig::default()).unwrap();
        let idx = cut_matches(&g, &lib, &cuts).unwrap();
        let xor2 = lib.find("xor2").unwrap();
        let m = idx
            .at(f)
            .iter()
            .find(|m| m.gate == xor2)
            .expect("xor2 must match the reconvergent cone");
        let mut ins = m.inputs.to_vec();
        ins.sort();
        assert_eq!(ins, vec![a, b]);
        // All four cone nodes covered, each exactly once.
        let mut cov = m.covered.to_vec();
        cov.sort();
        assert_eq!(cov, vec![t, n1, n2, f]);
        assert_eq!(m.covered[0], f, "root-first cover");
    }

    #[test]
    fn cut_mapper_is_deterministic_across_threads() {
        let lib = Library::big();
        let net = sample_network();
        let (g, place, pads) = setup(&net);
        lily_par::set_threads(Some(1));
        let base = CutMapper::new(&lib).map(&g, &place, &pads).unwrap();
        for threads in [2usize, 8] {
            lily_par::set_threads(Some(threads));
            let r = CutMapper::new(&lib).map(&g, &place, &pads).unwrap();
            assert_eq!(r.mapped.cells().len(), base.mapped.cells().len());
            for (x, y) in r.mapped.cells().iter().zip(base.mapped.cells()) {
                assert_eq!(x.gate, y.gate, "{threads} threads diverged");
                assert_eq!(x.fanins, y.fanins);
            }
            assert_eq!(r.stats.cuts, base.stats.cuts);
        }
        lily_par::set_threads(None);
    }

    #[test]
    fn cut_mapper_rejects_bad_placement_and_bad_library() {
        let lib = Library::big();
        let net = sample_network();
        let (g, place, pads) = setup(&net);
        let err = CutMapper::new(&lib).map(&g, &place[..1], &pads).unwrap_err();
        assert!(matches!(err, MapError::MissingPlacement { .. }));
        let inv_only = Library::from_kinds(
            "inv-only",
            &[lily_cells::GateKind::Inv],
            lily_cells::Technology::mcnc_3u(),
        );
        let cuts = CutIndex::build(&g, &CutConfig::default()).unwrap();
        assert!(matches!(
            cut_matches(&g, &inv_only, &cuts),
            Err(MapError::IncompleteLibrary { missing: "2-input nand" })
        ));
    }

    #[test]
    fn support_reduction_drops_dead_leaves() {
        let leaves: Vec<SubjectNodeId> =
            (0..3).map(lily_netlist::SubjectNodeId::from_index).collect();
        // f(a, b, c) = !b — depends only on variable 1.
        let t = TruthTable::from_fn(3, |r| (r >> 1) & 1 == 0);
        let (kept, reduced) = reduce_support(&leaves, t);
        assert_eq!(kept, vec![leaves[1]]);
        assert_eq!(reduced.inputs(), 1);
        assert_eq!(reduced.bits(), 0b01);
    }

    /// The row-loop restriction `reduce_support` used before the
    /// bit-parallel kernels, kept as the oracle.
    fn reduce_support_rows(
        leaves: &[SubjectNodeId],
        table: TruthTable,
    ) -> (Vec<SubjectNodeId>, TruthTable) {
        let n = table.inputs();
        let stride_differs = |i: usize| {
            (0..1u64 << n)
                .filter(|row| row & (1 << i) == 0)
                .any(|row| (table.bits() >> row) & 1 != (table.bits() >> (row | 1 << i)) & 1)
        };
        let support: Vec<usize> = (0..n).filter(|&i| stride_differs(i)).collect();
        let kept: Vec<SubjectNodeId> = support.iter().map(|&i| leaves[i]).collect();
        let reduced = TruthTable::from_fn(support.len(), |r| {
            let mut full = 0u64;
            for (bit, &i) in support.iter().enumerate() {
                full |= ((r >> bit) & 1) << i;
            }
            (table.bits() >> full) & 1 == 1
        });
        (kept, reduced)
    }

    #[test]
    fn support_reduction_matches_row_loop() {
        let leaves: Vec<SubjectNodeId> =
            (0..6).map(|i| lily_netlist::SubjectNodeId::from_index(10 + 3 * i)).collect();
        let check = |t: TruthTable| {
            let l = &leaves[..t.inputs()];
            assert_eq!(reduce_support(l, t), reduce_support_rows(l, t), "{t}");
        };
        // Every 1- to 4-input table.
        for n in 1..=4usize {
            for bits in 0..1u64 << (1 << n) {
                check(TruthTable::new(n, bits).unwrap());
            }
        }
        // Seeded 5- and 6-input tables, half of them with dead inputs.
        let mut x = 0x0123_4567_89ab_cdefu64;
        for round in 0..20_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let n = 5 + (round % 2) as usize;
            let mut bits = x;
            for v in 0..n {
                if (x >> (40 + v)) & 3 == 0 {
                    // Copy the v = 0 half onto the v = 1 half: v is dead.
                    let clear: u64 = (0..64u64).filter(|r| r >> v & 1 == 0).map(|r| 1 << r).sum();
                    bits = (bits & clear) | ((bits & clear) << (1u32 << v));
                }
            }
            check(TruthTable::new(n, bits).unwrap());
        }
    }
}
