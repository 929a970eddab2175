//! The Lily layout-driven technology mapper (Sections 3 and 4 of the
//! paper).
//!
//! Lily runs the same cone-by-cone dynamic program as the baseline, but
//! each candidate match is *placed* before it is priced:
//!
//! 1. the candidate gate receives a `mapPosition` via the configured
//!    [`PositionUpdate`] rule;
//! 2. each fanin's prospective net is priced from its fanin rectangle
//!    over true fanouts (area mode: half-perimeter × Chung–Hwang factor
//!    or spanning tree, divided by the fanout count);
//! 3. in delay mode, the fanins' output arrival times are *re-evaluated*
//!    from their stored block arrival times under the now-known load
//!    (pin capacitances of true fanouts plus placement-derived wiring
//!    capacitance), then the candidate's own arrival is computed against
//!    an estimated output load (paper Section 4.4, steps 1–5).
//!
//! Cones are processed in the exit-line-minimizing order of Section 3.5
//! unless disabled.

use crate::cover::{Engine, MapMode, MapResult, Partition};
use crate::error::MapError;
use crate::position::{center_of_mass, manhattan_median, PositionUpdate};
use crate::rects::{
    fanin_net_points, fanin_rect, fanout_points, is_input, true_fanouts, unmapped_fanout_count,
};
use lily_cells::{GateId, Library};
use lily_netlist::{NodeState, SubjectGraph, SubjectNodeId};
use lily_place::{Point, Rect};
use lily_route::{net_length, WireModel};
use lily_timing::{block_arrival, ld_arrival, unateness, Arrival};

/// Layout-related knobs of the Lily mapper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayoutOptions {
    /// Cost units per µm of estimated wire in area mode. The natural
    /// choice is the routing pitch (µm² of chip area per µm of wire);
    /// Section 5 notes that re-running with a reduced weight can help
    /// when the estimate misleads.
    pub wire_weight: f64,
    /// Net-length model (paper §3.4 offers both).
    pub wire_model: WireModel,
    /// Dynamic position-update rule (paper §3.2).
    pub position_update: PositionUpdate,
    /// Order cones by the exit-line heuristic (paper §3.5).
    pub cone_ordering: bool,
}

impl Default for LayoutOptions {
    fn default() -> Self {
        Self {
            wire_weight: 2.0,
            wire_model: WireModel::HalfPerimeterSteiner,
            position_update: PositionUpdate::CmFans,
            cone_ordering: true,
        }
    }
}

/// Full option set of a Lily run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MapOptions {
    /// Optimization objective.
    pub mode: MapMode,
    /// Covering partition (the paper uses cones).
    pub partition: Partition,
    /// Layout knobs.
    pub layout: LayoutOptions,
}

/// The layout-driven technology mapper.
///
/// ```
/// use lily_cells::Library;
/// use lily_core::LilyMapper;
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
/// // placePositions for every subject node (pads for inputs), plus
/// // output pad positions.
/// let place = vec![Point::new(0.0, 0.0), Point::new(0.0, 20.0), Point::new(10.0, 10.0)];
/// let out_pads = vec![Point::new(30.0, 10.0)];
/// let result = LilyMapper::new(&lib).map(&g, &place, &out_pads)?;
/// assert_eq!(result.mapped.cell_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LilyMapper<'l> {
    lib: &'l Library,
    options: MapOptions,
}

/// Per-node dynamic-programming solution data.
#[derive(Debug, Clone, Default)]
struct Solution {
    a_cost: f64,
    w_cost: f64,
    blocks: Vec<Arrival>,
    gate: Option<GateId>,
    map_pos: Point,
}

impl Solution {
    /// Whether the two solutions agree bit for bit in everything a
    /// reader of the node can observe.
    fn same_bits(&self, other: &Self) -> bool {
        let bits = |x: f64, y: f64| x.to_bits() == y.to_bits();
        bits(self.a_cost, other.a_cost)
            && bits(self.w_cost, other.w_cost)
            && self.gate == other.gate
            && bits(self.map_pos.x, other.map_pos.x)
            && bits(self.map_pos.y, other.map_pos.y)
            && self.blocks.iter().map(|b| b.to_bits()).eq(other.blocks.iter().map(|b| b.to_bits()))
    }
}

impl<'l> LilyMapper<'l> {
    /// Creates a mapper with the paper's default configuration
    /// (area mode, cones, CM-of-Fans, half-perimeter × Steiner factor,
    /// cone ordering on).
    pub fn new(lib: &'l Library) -> Self {
        Self { lib, options: MapOptions::default() }
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

    /// The current options.
    pub fn options(&self) -> &MapOptions {
        &self.options
    }

    /// Maps `g` guided by `place` (a `placePosition` for every subject
    /// node, pads included) and `output_pads` (a position per primary
    /// output).
    ///
    /// # Errors
    ///
    /// [`MapError::MissingPlacement`] on length mismatches, plus the
    /// matching errors of [`crate::MatchIndex::build`].
    pub fn map(
        &self,
        g: &SubjectGraph,
        place: &[Point],
        output_pads: &[Point],
    ) -> Result<MapResult, MapError> {
        check_placement(g, place, output_pads)?;
        let e = Engine::new(g, self.lib)?;
        run_placed_dp(e, &self.options, place, output_pads)
    }
}

/// Validates the placement vectors against the graph shape.
pub(crate) fn check_placement(
    g: &SubjectGraph,
    place: &[Point],
    output_pads: &[Point],
) -> Result<(), MapError> {
    if place.len() != g.node_count() {
        return Err(MapError::MissingPlacement { expected: g.node_count(), got: place.len() });
    }
    if output_pads.len() != g.outputs().len() {
        return Err(MapError::MissingPlacement {
            expected: g.outputs().len(),
            got: output_pads.len(),
        });
    }
    Ok(())
}

/// The placement-guided covering DP (Sections 3 and 4), shared by every
/// placed mapper: [`LilyMapper`] drives it over the structural match
/// index, [`crate::CutMapper`] over NPN-matched cuts. The engine's
/// match index is the only thing that differs — position updates, wire
/// pricing and delay re-evaluation are cost-model code and apply to any
/// `Match`, tree-shaped or not.
pub(crate) fn run_placed_dp(
    mut e: Engine<'_>,
    options: &MapOptions,
    place: &[Point],
    output_pads: &[Point],
) -> Result<MapResult, MapError> {
    {
        let g = e.g;
        let lib = e.lib;

        // Cones in the exit-line order of Section 3.5 when enabled.
        let scopes = e.scopes(options.partition, options.layout.cone_ordering);

        let mut sol: Vec<Solution> = vec![Solution::default(); g.node_count()];
        let lay = options.layout;
        let mode = options.mode;
        let tech = *lib.technology();

        for scope in &scopes {
            for &v in scope.members() {
                if !e.visit(v) || e.reuse(v) {
                    continue;
                }
                // The sinks of v's output net and its still-unmapped
                // fanouts are the same for every match.
                let fo_pts = fanout_points(&e, v, place, output_pads);
                let fanout_rect = |gate_pos: Point| {
                    let mut r = Rect::at(gate_pos);
                    for &p in &fo_pts {
                        r.expand_to(p);
                    }
                    r
                };
                let unmapped_fanouts = unmapped_fanout_count(&e, v);
                let mut best: Option<(f64, f64, usize, Solution)> = None;
                for (mi, m) in e.idx.at(v).iter().enumerate() {
                    if !e.match_allowed(scope, m) {
                        continue;
                    }
                    let gate = lib.gate(m.gate);

                    // Input positions: pads for PIs, mapPositions for
                    // solved nodes (hawks keep theirs).
                    let in_pos: Vec<Point> = m
                        .inputs
                        .iter()
                        .map(|&vi| {
                            if is_input(&e, vi) {
                                place[vi.index()]
                            } else {
                                sol[vi.index()].map_pos
                            }
                        })
                        .collect();

                    // Fanin rectangles / true fanouts (shared by both
                    // the position update and the wire cost).
                    let fans: Vec<_> = m
                        .inputs
                        .iter()
                        .map(|&vi| true_fanouts(&e, vi, &m.covered, place, output_pads))
                        .collect();

                    // 1. Position the candidate (Section 3.2).
                    let fallback = place[v.index()];
                    let pos = match lay.position_update {
                        PositionUpdate::CmMerged => {
                            let pts: Vec<Point> =
                                m.covered.iter().map(|c| place[c.index()]).collect();
                            center_of_mass(&pts, fallback)
                        }
                        PositionUpdate::CmFans => {
                            let mut pts = in_pos.clone();
                            pts.extend(&fo_pts);
                            center_of_mass(&pts, fallback)
                        }
                        PositionUpdate::MedianFans => {
                            let mut rects: Vec<Rect> = m
                                .inputs
                                .iter()
                                .zip(&in_pos)
                                .zip(&fans)
                                .map(|((_vi, &p), f)| {
                                    let mut r = Rect::at(p);
                                    for &fp in &f.positions {
                                        r.expand_to(fp);
                                    }
                                    r
                                })
                                .collect();
                            rects.push(fanout_rect(fallback));
                            manhattan_median(&rects, fallback)
                        }
                    };

                    // 2. Accumulate area and wire costs (Section 3.4).
                    let mut a_cost = gate.area();
                    let mut w_cost = 0.0;
                    for (&vi, _f) in m.inputs.iter().zip(&fans) {
                        let contributes = !is_input(&e, vi) && e.life.state(vi) != NodeState::Hawk;
                        if contributes {
                            a_cost += sol[vi.index()].a_cost;
                            w_cost += sol[vi.index()].w_cost;
                        }
                    }
                    for ((&vi, &p), f) in m.inputs.iter().zip(&in_pos).zip(&fans) {
                        let pts = fanin_net_points(p, f, pos);
                        let share = (f.count() + 1) as f64;
                        w_cost += net_length(lay.wire_model, &pts) / share;
                        let _ = vi;
                    }
                    // Absorbing a multi-fanout node whose signal other
                    // consumers still need forces that logic to be
                    // duplicated later (dove reincarnation); the wire of
                    // the net the duplicate must re-create is charged to
                    // this match. This is the k-distribution-point
                    // economics of Figure 1.1(a): killing a distribution
                    // point is only free when nobody else taps it.
                    for &c in &m.covered[1..] {
                        let ext = true_fanouts(&e, c, &m.covered, place, output_pads);
                        if ext.count() > 0 {
                            let mut pts = vec![place[c.index()]];
                            pts.extend(ext.positions.iter().copied());
                            w_cost += net_length(lay.wire_model, &pts);
                        }
                    }

                    // 3. Delay evaluation (Section 4.4).
                    let (key, tiebreak, blocks) = match mode {
                        MapMode::Area => (a_cost + lay.wire_weight * w_cost, 0.0, Vec::new()),
                        MapMode::Delay => {
                            let mut out = Arrival::NEG_INF;
                            let mut blocks = Vec::with_capacity(m.inputs.len());
                            for (pi, ((&vi, &p), f)) in
                                m.inputs.iter().zip(&in_pos).zip(&fans).enumerate()
                            {
                                // Step 1: re-evaluate the fanin's output
                                // arrival under its current load.
                                let t_in = if is_input(&e, vi) {
                                    Arrival::ZERO
                                } else {
                                    let s = &sol[vi.index()];
                                    let fgate = lib.gate(s.gate.expect("solved"));
                                    let rect = fanin_rect(p, f, pos);
                                    let wire_cap = tech.wire_cap(rect.width(), rect.height());
                                    let load =
                                        f.total_cap() + gate.pins()[pi].capacitance + wire_cap;
                                    let mut t = Arrival::NEG_INF;
                                    for (bj, b) in s.blocks.iter().enumerate() {
                                        t = t.max(ld_arrival(*b, &fgate.pins()[bj], load));
                                    }
                                    t
                                };
                                // Step 2: block arrival at the candidate.
                                let u = unateness(gate.function(), pi);
                                let b = block_arrival(t_in, &gate.pins()[pi], u);
                                blocks.push(b);
                            }
                            // Step 3: estimated output load from the
                            // base-function fanouts (paper §4.3).
                            let fo_rect = fanout_rect(pos);
                            let cl = unmapped_fanouts as f64 * tech.pin_cap
                                + tech.wire_cap(fo_rect.width(), fo_rect.height());
                            // Step 4: output arrival.
                            for (pi, b) in blocks.iter().enumerate() {
                                out = out.max(ld_arrival(*b, &gate.pins()[pi], cl));
                            }
                            (out.worst(), a_cost + lay.wire_weight * w_cost, blocks)
                        }
                    };

                    if best.as_ref().is_none_or(|(bk, bt, _, _)| {
                        key < bk - 1e-12 || (key < bk + 1e-12 && tiebreak < bt - 1e-12)
                    }) {
                        best = Some((
                            key,
                            tiebreak,
                            mi,
                            Solution { a_cost, w_cost, blocks, gate: Some(m.gate), map_pos: pos },
                        ));
                    }
                }
                let (_, _, mi, s) = best.ok_or(MapError::NoMatch { node: v.index() })?;
                e.record_solve(v, mi, !s.same_bits(&sol[v.index()]));
                sol[v.index()] = s;
            }
            // Step 5 of §4.4 / commit: realize the chosen cover at the
            // stored mapPositions.
            let sol_pos = |v: SubjectNodeId| -> (f64, f64) { sol[v.index()].map_pos.into() };
            e.commit(scope.root(), &mut |v| sol_pos(v));
        }
        Ok(e.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lily_cells::mapped::equiv_mapped_subject;
    use lily_netlist::decompose::{decompose, DecomposeOrder};
    use lily_netlist::{Network, NodeFunc};

    /// Build a network, decompose, and fabricate a plausible placement
    /// (grid by node index) for testing.
    fn setup(net: &Network) -> (SubjectGraph, Vec<Point>, Vec<Point>) {
        let g = decompose(net, DecomposeOrder::Balanced).unwrap();
        let place: Vec<Point> = (0..g.node_count())
            .map(|i| Point::new((i % 8) as f64 * 50.0, (i / 8) as f64 * 50.0))
            .collect();
        let pads: Vec<Point> =
            (0..g.outputs().len()).map(|i| Point::new(500.0, i as f64 * 60.0)).collect();
        (g, place, pads)
    }

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

    #[test]
    fn lily_preserves_function_all_configs() {
        let lib = Library::big();
        let net = sample_network();
        let (g, place, pads) = setup(&net);
        for mode in [MapMode::Area, MapMode::Delay] {
            for update in
                [PositionUpdate::CmMerged, PositionUpdate::CmFans, PositionUpdate::MedianFans]
            {
                for model in [WireModel::HalfPerimeterSteiner, WireModel::SpanningTree] {
                    let mapper = LilyMapper::new(&lib).mode(mode).layout(LayoutOptions {
                        position_update: update,
                        wire_model: model,
                        ..LayoutOptions::default()
                    });
                    let r = mapper.map(&g, &place, &pads).unwrap();
                    assert!(
                        equiv_mapped_subject(&g, &r.mapped, &lib, 256, 9),
                        "{mode:?} {update:?} {model:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn lily_cells_have_positions() {
        let lib = Library::big();
        let net = sample_network();
        let (g, place, pads) = setup(&net);
        let r = LilyMapper::new(&lib).map(&g, &place, &pads).unwrap();
        // At least one cell away from the origin (positions flowed in).
        assert!(r.mapped.cells().iter().any(|c| c.position.0.abs() > 1.0));
    }

    #[test]
    fn missing_placement_is_rejected() {
        let lib = Library::big();
        let net = sample_network();
        let (g, place, pads) = setup(&net);
        let err = LilyMapper::new(&lib).map(&g, &place[..2], &pads).unwrap_err();
        assert!(matches!(err, MapError::MissingPlacement { .. }));
        let err2 = LilyMapper::new(&lib).map(&g, &place, &[]).unwrap_err();
        assert!(matches!(err2, MapError::MissingPlacement { .. }));
    }

    #[test]
    fn cone_ordering_statistic_is_recorded() {
        let lib = Library::big();
        let net = sample_network();
        let (g, place, pads) = setup(&net);
        let r = LilyMapper::new(&lib).map(&g, &place, &pads).unwrap();
        assert!(r.stats.ordering_cost.is_some());
        let off = LilyMapper::new(&lib)
            .layout(LayoutOptions { cone_ordering: false, ..LayoutOptions::default() })
            .map(&g, &place, &pads)
            .unwrap();
        assert!(off.stats.ordering_cost.is_none());
        assert!(equiv_mapped_subject(&g, &off.mapped, &lib, 128, 3));
    }

    #[test]
    fn wire_weight_zero_reduces_to_area_choice() {
        // With wire weight 0, Lily's area mode should pick the same total
        // gate area as the MIS baseline (same DP, same costs).
        use crate::baseline::MisMapper;
        let lib = Library::big();
        let net = sample_network();
        let (g, place, pads) = setup(&net);
        let lily = LilyMapper::new(&lib)
            .layout(LayoutOptions {
                wire_weight: 0.0,
                cone_ordering: false,
                ..LayoutOptions::default()
            })
            .map(&g, &place, &pads)
            .unwrap();
        let mis = MisMapper::new(&lib).map(&g).unwrap();
        let la = lily.mapped.instance_area(&lib);
        let ma = mis.mapped.instance_area(&lib);
        assert!((la - ma).abs() < 1e-6, "lily {la} vs mis {ma}");
    }

    #[test]
    fn spread_sources_prefer_splitting() {
        // Figure 1.1(a): one 6-input AND whose sources are placed at
        // opposite ends. With a strong wire weight, Lily should spend
        // more gates (smaller fanin each) than the wire-blind mapper.
        use crate::baseline::MisMapper;
        let lib = Library::big();
        let mut net = Network::new("spread");
        let ins: Vec<_> = (0..6).map(|i| net.add_input(format!("i{i}"))).collect();
        let o = net.add_node("o", NodeFunc::Nand, ins).unwrap();
        net.add_output("y", o);
        let g = decompose(&net, DecomposeOrder::Balanced).unwrap();
        // Sources in two far clusters; internal nodes near their cluster.
        let mut place = vec![Point::default(); g.node_count()];
        for (i, &pi) in g.inputs().iter().enumerate() {
            place[pi.index()] = if i % 2 == 0 {
                Point::new(0.0, i as f64 * 10.0)
            } else {
                Point::new(4000.0, i as f64 * 10.0)
            };
        }
        for v in g.node_ids() {
            if !matches!(g.kind(v), lily_netlist::SubjectKind::Input(_)) {
                place[v.index()] = Point::new(2000.0, 30.0);
            }
        }
        let pads = vec![Point::new(2000.0, 4000.0)];
        let mis = MisMapper::new(&lib).map(&g).unwrap();
        let lily = LilyMapper::new(&lib)
            .layout(LayoutOptions { wire_weight: 100.0, ..LayoutOptions::default() })
            .map(&g, &place, &pads)
            .unwrap();
        assert!(equiv_mapped_subject(&g, &lily.mapped, &lib, 64, 2));
        assert!(
            lily.mapped.cell_count() >= mis.mapped.cell_count(),
            "lily {} cells vs mis {}",
            lily.mapped.cell_count(),
            mis.mapped.cell_count()
        );
    }
}
