//! Fanin and fanout rectangles over *true fanouts* (paper Section 3.3).
//!
//! A *true fanout* of node `u` is a consumer of `u`'s signal that would
//! exist had the mapping stopped after the previous cone: a committed
//! cell (hawk) reading `u`, or an unmapped (egg / nestling) subject-graph
//! fanout of `u`. Doves are excluded — their logic was merged into some
//! hawk whose own input set already accounts for any real consumption.
//!
//! The fanin rectangle of match input `u` encloses `u`'s position, the
//! true fanouts (minus those covered by the candidate match), and the
//! candidate gate itself; its half-perimeter, divided by the net's sink
//! count (the true fanouts plus the candidate gate, `count + 1`) to
//! avoid double counting, drives the wire cost of Section 3.4.

use crate::cover::Engine;
use lily_netlist::{NodeState, SubjectKind, SubjectNodeId};
use lily_place::{Point, Rect};

/// The positions participating in a net around `u` during mapping.
#[derive(Debug, Clone, Default)]
pub struct TrueFanouts {
    /// Positions of the true fanouts (hawk cells at `mapPosition`,
    /// eggs/nestlings at `placePosition`).
    pub positions: Vec<Point>,
    /// Pin capacitance each true fanout presents, pF (parallel to
    /// `positions`). Hawks report their real pin cap, unmapped fanouts
    /// the base-function cap (paper §4.3).
    pub caps: Vec<f64>,
}

impl TrueFanouts {
    /// Number of true fanouts.
    pub fn count(&self) -> usize {
        self.positions.len()
    }

    /// Total capacitance, pF.
    pub fn total_cap(&self) -> f64 {
        self.caps.iter().sum()
    }
}

/// Collects the true fanouts of `u`, excluding subject nodes in
/// `exclude` (the candidate match's covered set).
///
/// `place` holds the `placePositions` of every subject node (pads for
/// primary inputs); `output_pads` the primary-output pad positions.
/// Primary-output references of `u` count as true fanouts at their pad
/// position with zero capacitance.
///
/// The placed covering DP does not call this per match: it collects
/// these lists once per solve and filters them by each match's covered
/// set. This function is the reference that table is tested against.
pub fn true_fanouts(
    e: &Engine,
    u: SubjectNodeId,
    exclude: &[SubjectNodeId],
    place: &[Point],
    output_pads: &[Point],
) -> TrueFanouts {
    let mut out = TrueFanouts::default();
    let base_cap = e.lib.technology().pin_cap;
    // Committed cells reading u.
    for &(cell, pin) in &e.committed_consumers[u.index()] {
        let c = e.mapped.cell(cell);
        out.positions.push(Point::from(c.position));
        out.caps.push(e.lib.gate(c.gate).pins()[pin].capacitance);
    }
    // Unmapped subject fanouts.
    for &w in &e.fanouts[u.index()] {
        if exclude.contains(&w) {
            continue;
        }
        match e.life.state(w) {
            NodeState::Egg | NodeState::Nestling => {
                out.positions.push(place[w.index()]);
                out.caps.push(base_cap);
            }
            NodeState::Dove | NodeState::Hawk => {}
        }
    }
    // Primary outputs driven by u.
    for &oi in e.outputs_of(u) {
        out.positions.push(output_pads[oi]);
        out.caps.push(0.0);
    }
    out
}

/// The fanin rectangle of match input `u`: `u`'s own position, the
/// positions of its true fanouts, and the candidate gate at `gate_pos`.
pub fn fanin_rect(u_pos: Point, fans: &[Point], gate_pos: Point) -> Rect {
    let mut r = Rect::at(u_pos);
    for &p in fans {
        r.expand_to(p);
    }
    r.expand_to(gate_pos);
    r
}

/// The sink positions of `v`'s prospective output net: the
/// `placePositions` of `v`'s subject fanouts, then the pads of the
/// primary outputs it drives, in output order (paper: outputs of
/// `gate(m)` are eggs, so `placePositions` are used directly). The same
/// for every match at `v`, so the DP computes it once per solve.
pub fn fanout_points(
    e: &Engine,
    v: SubjectNodeId,
    place: &[Point],
    output_pads: &[Point],
) -> Vec<Point> {
    let fanouts = e.fanouts[v.index()].iter().map(|w| place[w.index()]);
    fanouts.chain(e.outputs_of(v).iter().map(|&oi| output_pads[oi])).collect()
}

/// Count of base-function fanouts of `v` that are still unmapped
/// (egg/nestling), used for the paper's §4.3 output-load estimate.
pub fn unmapped_fanout_count(e: &Engine, v: SubjectNodeId) -> usize {
    e.fanouts[v.index()]
        .iter()
        .filter(|&&w| matches!(e.life.state(w), NodeState::Egg | NodeState::Nestling))
        .count()
}

/// Whether `u` is a primary input of the subject graph.
pub fn is_input(e: &Engine, u: SubjectNodeId) -> bool {
    matches!(e.g.kind(u), SubjectKind::Input(_))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lily_cells::Library;
    use lily_netlist::SubjectGraph;

    /// A small graph: shared nand feeding an inverter (PO y1) and a
    /// second nand (PO y2).
    fn setup() -> (SubjectGraph, Vec<Point>, Vec<Point>) {
        let mut g = SubjectGraph::new("g");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let shared = g.nand2(a, b);
        let inv = g.inv(shared);
        let n2 = g.nand2(shared, c);
        g.set_output("y1", inv);
        g.set_output("y2", n2);
        let place: Vec<Point> =
            (0..g.node_count()).map(|i| Point::new(i as f64 * 10.0, 5.0)).collect();
        let pads = vec![Point::new(100.0, 0.0), Point::new(100.0, 50.0)];
        (g, place, pads)
    }

    #[test]
    fn egg_fanouts_use_place_positions() {
        let (g, place, pads) = setup();
        let lib = Library::big();
        let e = Engine::new(&g, &lib).unwrap();
        let shared = SubjectNodeId::from_index(3);
        let fans = true_fanouts(&e, shared, &[], &place, &pads);
        // Two egg fanouts (inv at idx 4, nand at idx 5).
        assert_eq!(fans.count(), 2);
        assert_eq!(fans.positions[0], place[4]);
        assert_eq!(fans.positions[1], place[5]);
        assert!((fans.total_cap() - 2.0 * lib.technology().pin_cap).abs() < 1e-12);
    }

    #[test]
    fn excluded_covered_nodes_drop_out() {
        let (g, place, pads) = setup();
        let lib = Library::big();
        let e = Engine::new(&g, &lib).unwrap();
        let shared = SubjectNodeId::from_index(3);
        let inv = SubjectNodeId::from_index(4);
        let fans = true_fanouts(&e, shared, &[inv], &place, &pads);
        assert_eq!(fans.count(), 1);
    }

    #[test]
    fn committed_consumers_appear_with_map_positions() {
        let (g, place, pads) = setup();
        let lib = Library::big();
        let mut e = Engine::new(&g, &lib).unwrap();
        // Commit the inverter cone by hand (base matches everywhere).
        let shared = SubjectNodeId::from_index(3);
        let inv = SubjectNodeId::from_index(4);
        for v in [shared, inv] {
            if e.visit(v) {
                e.chosen[v.index()] = pick_base_match(&e, v);
                e.solved[v.index()] = true;
            }
        }
        e.commit(inv, &mut |_| (77.0, 7.0));
        let fans = true_fanouts(&e, shared, &[], &place, &pads);
        // The committed inverter (at 77,7) plus the egg nand.
        assert_eq!(fans.count(), 2);
        assert!(fans.positions.iter().any(|p| (p.x - 77.0).abs() < 1e-12));
    }

    /// Picks the smallest (base-function) match so commits stay 1:1.
    fn pick_base_match(e: &Engine, v: SubjectNodeId) -> usize {
        e.idx.at(v).iter().enumerate().min_by_key(|(_, m)| m.covered.len()).map(|(i, _)| i).unwrap()
    }

    #[test]
    fn output_pads_join_the_net() {
        let (g, place, pads) = setup();
        let lib = Library::big();
        let e = Engine::new(&g, &lib).unwrap();
        let inv = SubjectNodeId::from_index(4);
        let fans = true_fanouts(&e, inv, &[], &place, &pads);
        // inv drives only PO y1.
        assert_eq!(fans.count(), 1);
        assert_eq!(fans.positions[0], pads[0]);
        assert_eq!(fans.caps[0], 0.0);
    }

    #[test]
    fn rect_constructions() {
        let fans = TrueFanouts {
            positions: vec![Point::new(10.0, 0.0), Point::new(0.0, 10.0)],
            caps: vec![0.25, 0.25],
        };
        let r = fanin_rect(Point::new(0.0, 0.0), &fans.positions, Point::new(5.0, 5.0));
        assert_eq!(r, Rect::new(0.0, 0.0, 10.0, 10.0));
    }

    #[test]
    fn unmapped_fanout_counting() {
        let (g, _place, _pads) = setup();
        let lib = Library::big();
        let e = Engine::new(&g, &lib).unwrap();
        let shared = SubjectNodeId::from_index(3);
        assert_eq!(unmapped_fanout_count(&e, shared), 2);
    }
}
