//! The wire-blind baseline mapper: DAGON / MIS 2.1 behaviour.
//!
//! Area mode minimizes total gate area; delay mode minimizes the worst
//! output arrival under the linear delay model with a *wire-blind* load
//! (constant per-fanout capacitance, as MIS 2.1 models `C_w` as a
//! function of the fanout count — paper Section 4.2). Positions play no
//! role; the physical design tools get the netlist afterwards.

use crate::cover::{Engine, MapMode, MapResult, Partition};
use crate::error::MapError;
use crate::matching::MatchSlot;
use lily_cells::Library;
use lily_netlist::{SubjectGraph, SubjectKind, SubjectNodeId};
use lily_timing::{propagate, Arrival};

/// Options for the baseline mapper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineOptions {
    /// Optimization objective.
    pub mode: MapMode,
    /// Covering partition.
    pub partition: Partition,
    /// Wire capacitance charged per fanout edge in delay mode, pF
    /// (MIS's fanout-count wire model; 0 disables).
    pub wire_cap_per_fanout: f64,
}

impl Default for BaselineOptions {
    fn default() -> Self {
        Self { mode: MapMode::Area, partition: Partition::Cones, wire_cap_per_fanout: 0.0 }
    }
}

/// The MIS 2.1-style technology mapper.
///
/// ```
/// use lily_cells::Library;
/// use lily_core::{MisMapper, MapMode};
/// use lily_netlist::SubjectGraph;
///
/// # fn main() -> Result<(), lily_core::MapError> {
/// let lib = Library::big();
/// let mut g = SubjectGraph::new("demo");
/// let a = g.add_input("a");
/// let b = g.add_input("b");
/// let n = g.nand2(a, b);
/// g.set_output("y", n);
/// let result = MisMapper::new(&lib).map(&g)?;
/// assert_eq!(result.mapped.cell_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MisMapper<'l> {
    lib: &'l Library,
    options: BaselineOptions,
}

impl<'l> MisMapper<'l> {
    /// Creates an area-mode cone-covering mapper.
    pub fn new(lib: &'l Library) -> Self {
        Self { lib, options: BaselineOptions::default() }
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

    /// Sets the per-fanout wire capacitance used in delay mode.
    #[must_use]
    pub fn wire_cap_per_fanout(mut self, cap: f64) -> Self {
        self.options.wire_cap_per_fanout = cap;
        self
    }

    /// Maps a subject graph.
    ///
    /// # Errors
    ///
    /// See [`MapError`].
    pub fn map(&self, g: &SubjectGraph) -> Result<MapResult, MapError> {
        self.map_with(g, &MatchSlot::default())
    }

    /// [`MisMapper::map`] over the structural match index of `g` that
    /// `matches` holds, built there first if no earlier mapper did (the
    /// flow shares one slot between the mappers of a comparison).
    ///
    /// # Errors
    ///
    /// See [`MapError`].
    pub fn map_with(&self, g: &SubjectGraph, matches: &MatchSlot) -> Result<MapResult, MapError> {
        let mut e = Engine::with_index(g, self.lib, matches.get_or_build(g, self.lib)?);
        let scopes = e.scopes(self.options.partition, false);
        let n = g.node_count();

        // Persistent DP value arrays (hawks keep theirs across cones).
        let mut area = vec![0.0f64; n];
        let mut arrival = vec![Arrival::ZERO; n];

        // Wire-blind output load at a subject node: all base fanouts.
        let pin_cap = self.lib.technology().pin_cap;
        let load_of = |e: &Engine, v: SubjectNodeId| -> f64 {
            let fanout = e.fanouts[v.index()].len() + e.outputs_of(v).len();
            fanout as f64 * (pin_cap + self.options.wire_cap_per_fanout)
        };

        for scope in &scopes {
            for &v in scope.members() {
                if !e.visit(v) || e.reuse(v) {
                    continue; // hawk: cost already settled; or unchanged since its last solve
                }
                let mut best: Option<(f64, f64, usize, Arrival)> = None; // (key, tiebreak, match, arrival)
                let cl = load_of(&e, v);
                for (mi, m) in e.idx.at(v).iter().enumerate() {
                    if !e.match_allowed(scope, &m) {
                        continue;
                    }
                    let gate = self.lib.gate(m.gate);
                    // Area accumulation (also the delay-mode tiebreak).
                    let mut a = gate.area();
                    for &vi in m.inputs {
                        if self.dp_contributes(&e, vi) {
                            a += area[vi.index()];
                        }
                    }
                    let (key, tiebreak, arr) = match self.options.mode {
                        MapMode::Area => (a, 0.0, Arrival::ZERO),
                        MapMode::Delay => {
                            let mut out = Arrival::NEG_INF;
                            for (pi, (&vi, pin)) in m.inputs.iter().zip(gate.pins()).enumerate() {
                                let t_in = self.input_arrival(&e, vi, &arrival);
                                let u = gate.unateness(pi);
                                out = out.max(propagate(t_in, pin, u, cl));
                            }
                            (out.worst(), a, out)
                        }
                    };
                    if best.is_none_or(|(bk, bt, _, _)| {
                        key < bk - 1e-12 || (key < bk + 1e-12 && tiebreak < bt - 1e-12)
                    }) {
                        best = Some((key, tiebreak, mi, arr));
                    }
                }
                let (key, t, mi, arr) = best.ok_or(MapError::NoMatch { node: v.index() })?;
                let i = v.index();
                let (a, arr) = match self.options.mode {
                    MapMode::Area => (key, arrival[i]),
                    MapMode::Delay => (t, arr),
                };
                let changed =
                    a.to_bits() != area[i].to_bits() || arr.to_bits() != arrival[i].to_bits();
                e.record_solve(v, mi, changed);
                area[i] = a;
                arrival[i] = arr;
            }
            e.commit(scope.root(), &mut |_| (0.0, 0.0));
        }
        Ok(e.finish())
    }

    /// Whether `vi` contributes a DP cost (false for primary inputs and
    /// already-committed hawks, whose cost is sunk).
    fn dp_contributes(&self, e: &Engine, vi: SubjectNodeId) -> bool {
        !matches!(e.g.kind(vi), SubjectKind::Input(_))
            && e.life.state(vi) != lily_netlist::NodeState::Hawk
    }

    fn input_arrival(&self, e: &Engine, vi: SubjectNodeId, arrival: &[Arrival]) -> Arrival {
        match e.g.kind(vi) {
            SubjectKind::Input(_) => Arrival::ZERO,
            _ => arrival[vi.index()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lily_cells::mapped::equiv_mapped_subject;
    use lily_netlist::decompose::{decompose, DecomposeOrder};
    use lily_netlist::{Network, NodeFunc};

    fn nand6_graph() -> SubjectGraph {
        let mut net = Network::new("n6");
        let ins: Vec<_> = (0..6).map(|i| net.add_input(format!("i{i}"))).collect();
        let o = net.add_node("o", NodeFunc::Nand, ins).unwrap();
        net.add_output("y", o);
        decompose(&net, DecomposeOrder::Balanced).unwrap()
    }

    #[test]
    fn area_mode_uses_one_big_gate() {
        let lib = Library::big();
        let g = nand6_graph();
        let r = MisMapper::new(&lib).map(&g).unwrap();
        // One nand6 beats any multi-gate cover on area.
        assert_eq!(r.mapped.cell_count(), 1);
        assert_eq!(lib.gate(r.mapped.cells()[0].gate).name(), "nand6");
        assert!(equiv_mapped_subject(&g, &r.mapped, &lib, 64, 3));
    }

    #[test]
    fn tiny_library_needs_more_gates() {
        let tiny = Library::tiny();
        let big = Library::big();
        let g = nand6_graph();
        let rt = MisMapper::new(&tiny).map(&g).unwrap();
        let rb = MisMapper::new(&big).map(&g).unwrap();
        assert!(rt.mapped.cell_count() > rb.mapped.cell_count());
        assert!(equiv_mapped_subject(&g, &rt.mapped, &tiny, 64, 3));
    }

    #[test]
    fn mapping_preserves_function_on_random_logic() {
        let lib = Library::big();
        let mut net = Network::new("r");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let d = net.add_input("d");
        let g1 = net.add_node("g1", NodeFunc::Xor, vec![a, b]).unwrap();
        let g2 = net.add_node("g2", NodeFunc::Nand, vec![g1, c]).unwrap();
        let g3 = net.add_node("g3", NodeFunc::Nor, vec![g2, d]).unwrap();
        let g4 = net.add_node("g4", NodeFunc::And, vec![g1, g3]).unwrap();
        net.add_output("y1", g3);
        net.add_output("y2", g4);
        let g = decompose(&net, DecomposeOrder::Balanced).unwrap();
        for partition in [Partition::Cones, Partition::Trees] {
            for mode in [MapMode::Area, MapMode::Delay] {
                let r = MisMapper::new(&lib).mode(mode).partition(partition).map(&g).unwrap();
                assert!(
                    equiv_mapped_subject(&g, &r.mapped, &lib, 256, 11),
                    "{partition:?} {mode:?}"
                );
            }
        }
    }

    #[test]
    fn delay_mode_is_no_slower_than_area_mode() {
        use lily_timing::load::WireLoad;
        use lily_timing::{try_analyze, StaOptions};
        let lib = Library::big();
        // A chain deep enough that gate choice matters.
        let mut net = Network::new("chain");
        let mut prev = net.add_input("i0");
        for i in 0..10 {
            let x = net.add_input(format!("x{i}"));
            prev = net.add_node(format!("g{i}"), NodeFunc::Nand, vec![prev, x]).unwrap();
        }
        net.add_output("y", prev);
        let g = decompose(&net, DecomposeOrder::Chain).unwrap();
        let opts = StaOptions { wire_load: WireLoad::None, input_arrival: 0.0 };
        let ra = MisMapper::new(&lib).mode(MapMode::Area).map(&g).unwrap();
        let rd = MisMapper::new(&lib).mode(MapMode::Delay).map(&g).unwrap();
        let da = try_analyze(&ra.mapped, &lib, &opts).expect("sta failed").critical_delay;
        let dd = try_analyze(&rd.mapped, &lib, &opts).expect("sta failed").critical_delay;
        assert!(dd <= da + 1e-9, "delay mode {dd} worse than area mode {da}");
    }

    #[test]
    fn duplication_happens_across_cones() {
        // Shared logic feeding two outputs through different structures:
        // cone covering may duplicate it.
        let lib = Library::big();
        let mut net = Network::new("dup");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let shared = net.add_node("s", NodeFunc::And, vec![a, b]).unwrap();
        let y1 = net.add_node("y1", NodeFunc::Nand, vec![shared, c]).unwrap();
        let y2 = net.add_node("y2", NodeFunc::Nor, vec![shared, c]).unwrap();
        net.add_output("o1", y1);
        net.add_output("o2", y2);
        let g = decompose(&net, DecomposeOrder::Balanced).unwrap();
        let r = MisMapper::new(&lib).map(&g).unwrap();
        assert!(equiv_mapped_subject(&g, &r.mapped, &lib, 64, 5));
        // The run must have recorded life-cycle activity.
        assert!(r.stats.lifecycle.hawks > 0);
        assert!(r.stats.lifecycle.hatched >= r.stats.lifecycle.hawks);
    }

    #[test]
    fn outputs_driven_by_inputs_pass_through() {
        let lib = Library::big();
        let mut g = SubjectGraph::new("wire");
        let a = g.add_input("a");
        g.set_output("y", a);
        let r = MisMapper::new(&lib).map(&g).unwrap();
        assert_eq!(r.mapped.cell_count(), 0);
        assert!(equiv_mapped_subject(&g, &r.mapped, &lib, 4, 1));
    }
}
