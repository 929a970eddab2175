//! Reproductions of the paper's motivating figures.
//!
//! * [`distribution_points`] — Figure 1.1(a): with spread sources, the
//!   minimum-wire cover uses more than one distribution point.
//! * [`decomposition_alignment`] — Figure 1.1(b): a decomposition whose
//!   fanin order conflicts with placement proximity costs wire.
//! * [`life_cycle_profile`] — Figures 2.1/2.2: egg → nestling → dove /
//!   hawk transition counts over a mapping run.

use crate::baseline::MisMapper;
use crate::cover::MapStats;
use crate::error::MapError;
use crate::lily::{LayoutOptions, LilyMapper};
use crate::matching::MatchSlot;
use crate::stage::{MapImage, Mapper};
use lily_cells::Library;
use lily_netlist::decompose::{decompose, DecomposeOrder};
use lily_netlist::{Network, NodeFunc, SubjectGraph, SubjectKind};
use lily_place::Point;
use lily_route::{net_length, WireModel};

/// The six-input NAND of Figures 1.1(a)/(b), with fanins entering in
/// `order` (the decomposition pairs adjacent fanins, so the order
/// decides whether placement clusters stay together in the tree).
fn six_nand(name: &str, order: &[usize; 6]) -> Network {
    let mut net = Network::new(name);
    let ins: Vec<_> = (0..6).map(|i| net.add_input(format!("s{i}"))).collect();
    let ordered: Vec<_> = order.iter().map(|&i| ins[i]).collect();
    let o = net.add_node("o", NodeFunc::Nand, ordered).unwrap();
    net.add_output("t", o);
    net
}

/// The figure experiments' Lily configuration: a wire weight comparable
/// to routing pitch, driven through the unified [`Mapper`] trait.
fn figure_mapper(lib: &Library) -> impl Mapper + '_ {
    LilyMapper::new(lib).layout(LayoutOptions { wire_weight: 50.0, ..LayoutOptions::default() })
}

/// One sweep point of the Figure 1.1(a) experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistributionPoint {
    /// Horizontal spread between the two source clusters, µm.
    pub spread: f64,
    /// Estimated total wire length of the single-gate (k = 1) cover, µm.
    pub wire_one_gate: f64,
    /// Estimated total wire length of Lily's chosen cover, µm.
    pub wire_lily: f64,
    /// Number of gates (distribution points) Lily used.
    pub lily_gates: usize,
}

/// Sweeps the source spread of a 6-input NAND whose fanins sit in two
/// clusters and compares the wire cost of the forced one-gate cover
/// (what a wire-blind area mapper picks) against Lily's choice.
///
/// # Errors
///
/// Propagates mapping errors.
pub fn distribution_points(
    lib: &Library,
    spreads: &[f64],
) -> Result<Vec<DistributionPoint>, MapError> {
    let net = six_nand("fig1a", &[0, 1, 2, 3, 4, 5]);
    let g = decompose(&net, DecomposeOrder::Balanced)?;

    let mut out = Vec::with_capacity(spreads.len());
    // Every spread maps the same subject graph: one match index serves
    // all of them.
    let matches = MatchSlot::default();
    for &spread in spreads {
        let (place, pads) = cluster_placement(&g, spread);
        // Lily's choice under a wire weight comparable to routing pitch.
        let image = MapImage { positions: &place, output_pads: &pads };
        let lily = figure_mapper(lib).map_subject(&g, Some(&image), &matches)?;
        let wire_lily = mapped_wire(&lily.mapped, &place_pads(&place, &g), &pads);
        // Forced one-gate cover: the wire-blind mapper on a 6-NAND
        // always picks nand6.
        let one = MisMapper::new(lib).map_subject(&g, None, &matches)?;
        let mut one_mapped = one.mapped;
        // Place the single gate at the sources' centroid (its best case).
        let centroid = centroid_of_inputs(&g, &place);
        for c in one_mapped.cells_mut() {
            c.position = (centroid.x, centroid.y);
        }
        let wire_one = mapped_wire(&one_mapped, &place_pads(&place, &g), &pads);
        out.push(DistributionPoint {
            spread,
            wire_one_gate: wire_one,
            wire_lily,
            lily_gates: lily.mapped.cell_count(),
        });
    }
    Ok(out)
}

/// One row of the Figure 1.1(b) experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlignmentRow {
    /// Wire length when fanins enter the decomposition tree in
    /// placement-proximity order, µm.
    pub aligned: f64,
    /// Wire length when the decomposition interleaves the clusters, µm.
    pub conflicting: f64,
}

/// Figure 1.1(b): the same 6-input function decomposed with fanins
/// ordered by cluster (aligned with placement) versus interleaved
/// (conflicting). Lily maps both; the aligned decomposition should wire
/// shorter because near sources enter the tree at near points.
///
/// # Errors
///
/// Propagates mapping errors.
pub fn decomposition_alignment(lib: &Library, spread: f64) -> Result<AlignmentRow, MapError> {
    // Aligned: fanin list [c0, c0, c0, c1, c1, c1] — balanced pairing
    // keeps clusters together. Conflicting: interleaved.
    let aligned = alignment_case(lib, spread, &[0, 1, 2, 3, 4, 5])?;
    let conflicting = alignment_case(lib, spread, &[0, 3, 1, 4, 2, 5])?;
    Ok(AlignmentRow { aligned, conflicting })
}

fn alignment_case(lib: &Library, spread: f64, order: &[usize; 6]) -> Result<f64, MapError> {
    let net = six_nand("fig1b", order);
    let g = decompose(&net, DecomposeOrder::Balanced)?;
    let (place, pads) = cluster_placement(&g, spread);
    let image = MapImage { positions: &place, output_pads: &pads };
    let lily = figure_mapper(lib).map_subject(&g, Some(&image), &MatchSlot::default())?;
    Ok(mapped_wire(&lily.mapped, &place_pads(&place, &g), &pads))
}

/// Figure 2.1/2.2: life-cycle transition counts from mapping a network
/// with the baseline cone-covering mapper.
///
/// # Errors
///
/// Propagates mapping errors.
pub fn life_cycle_profile(lib: &Library, net: &Network) -> Result<MapStats, MapError> {
    let g = decompose(net, DecomposeOrder::Balanced)?;
    Ok(MisMapper::new(lib).map(&g)?.stats)
}

/// Places PI pads of `g` in two clusters `spread` µm apart (inputs 0–2
/// left, 3–5 right), internal nodes midway, the output pad far north.
fn cluster_placement(g: &SubjectGraph, spread: f64) -> (Vec<Point>, Vec<Point>) {
    let mut place = vec![Point::default(); g.node_count()];
    for (i, &pi) in g.inputs().iter().enumerate() {
        let x = if i < 3 { 0.0 } else { spread };
        place[pi.index()] = Point::new(x, i as f64 * 40.0);
    }
    for v in g.node_ids() {
        if !matches!(g.kind(v), SubjectKind::Input(_)) {
            place[v.index()] = Point::new(spread / 2.0, 60.0);
        }
    }
    let pads = vec![Point::new(spread / 2.0, 600.0)];
    (place, pads)
}

fn centroid_of_inputs(g: &SubjectGraph, place: &[Point]) -> Point {
    let pts: Vec<Point> = g.inputs().iter().map(|&i| place[i.index()]).collect();
    crate::position::center_of_mass(&pts, Point::default())
}

fn place_pads(place: &[Point], g: &SubjectGraph) -> Vec<Point> {
    g.inputs().iter().map(|&i| place[i.index()]).collect()
}

/// Total estimated wire of a mapped network given input-pad and
/// output-pad positions (half-perimeter × Steiner factor per net).
fn mapped_wire(
    mapped: &lily_cells::MappedNetwork,
    input_pads: &[Point],
    output_pads: &[Point],
) -> f64 {
    let mut total = 0.0;
    for net in mapped.nets() {
        let mut pts = Vec::new();
        let push_src = |pts: &mut Vec<Point>, s: lily_cells::SignalSource| match s {
            lily_cells::SignalSource::Input(i) => pts.push(input_pads[i]),
            lily_cells::SignalSource::Cell(c) => {
                let (x, y) = mapped.cell(c).position;
                pts.push(Point::new(x, y));
            }
        };
        push_src(&mut pts, net.source);
        for &(cell, _) in &net.sinks {
            let (x, y) = mapped.cell(cell).position;
            pts.push(Point::new(x, y));
        }
        for &oi in &net.output_sinks {
            pts.push(output_pads[oi]);
        }
        total += net_length(WireModel::HalfPerimeterSteiner, &pts);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_crossover_appears_with_spread() {
        let lib = Library::big();
        let rows = distribution_points(&lib, &[100.0, 8000.0]).unwrap();
        assert_eq!(rows.len(), 2);
        // With a huge spread, Lily's (multi-gate) cover should not wire
        // worse than the single gate placed at the centroid.
        let far = rows[1];
        assert!(
            far.wire_lily <= far.wire_one_gate * 1.05,
            "lily {} vs one-gate {}",
            far.wire_lily,
            far.wire_one_gate
        );
    }

    #[test]
    fn lily_splits_when_sources_spread() {
        let lib = Library::big();
        let rows = distribution_points(&lib, &[50.0, 10000.0]).unwrap();
        // More distribution points at larger spread (k > 1), or at least
        // never fewer.
        assert!(rows[1].lily_gates >= rows[0].lily_gates);
    }

    #[test]
    fn aligned_decomposition_wires_no_worse() {
        let lib = Library::big();
        let row = decomposition_alignment(&lib, 6000.0).unwrap();
        assert!(
            row.aligned <= row.conflicting * 1.10,
            "aligned {} vs conflicting {}",
            row.aligned,
            row.conflicting
        );
    }

    #[test]
    fn life_cycle_profile_counts() {
        let lib = Library::big();
        let mut net = Network::new("lc");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let s = net.add_node("s", NodeFunc::And, vec![a, b]).unwrap();
        let y1 = net.add_node("y1", NodeFunc::Nand, vec![s, c]).unwrap();
        let y2 = net.add_node("y2", NodeFunc::Nor, vec![s, c]).unwrap();
        net.add_output("o1", y1);
        net.add_output("o2", y2);
        let stats = life_cycle_profile(&lib, &net).unwrap();
        assert!(stats.lifecycle.hatched > 0);
        assert!(stats.lifecycle.hawks > 0);
        // Every hatch is eventually committed as exactly one hawk or
        // dove (reincarnations re-hatch and re-commit).
        assert_eq!(stats.lifecycle.hatched, stats.lifecycle.hawks + stats.lifecycle.doves);
    }
}
