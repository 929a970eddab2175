//! Conversion from a [`SubjectGraph`] to a [`PlacementProblem`]: the
//! inchoate network becomes movable modules, the I/O pads become fixed
//! pins.

use crate::error::PlaceError;
use crate::geom::Point;
use crate::quadratic::{PinRef, PlacementProblem};
use lily_netlist::{SubjectGraph, SubjectKind, SubjectNodeId};

/// Maps between subject-graph nodes and placement-problem indices.
#[derive(Debug, Clone)]
pub struct SubjectPlacement {
    /// The placement problem (pads: primary inputs first, then primary
    /// outputs, in declaration order).
    pub problem: PlacementProblem,
    /// For each subject node, its movable-module index (`None` for
    /// primary inputs, which are pads).
    pub movable_of_node: Vec<Option<usize>>,
    /// For each movable module, the subject node it represents.
    pub node_of_movable: Vec<SubjectNodeId>,
}

impl SubjectPlacement {
    /// Builds the placement problem of a subject graph. Primary inputs
    /// become fixed pads `0..#PI`; primary outputs become pads
    /// `#PI..#PI+#PO`. Each driver (input or internal node) with at
    /// least one reader yields one net connecting the driver pin to all
    /// reader pins (and to the output pad, when it drives one).
    ///
    /// Pad positions are placeholders (`(0,0)`); assign them with
    /// [`crate::pads::assign_pads`] or supply known positions.
    pub fn new(g: &SubjectGraph) -> Self {
        let mut movable_of_node = vec![None; g.node_count()];
        let mut node_of_movable = Vec::new();
        for n in g.node_ids() {
            if !matches!(g.kind(n), SubjectKind::Input(_)) {
                movable_of_node[n.index()] = Some(node_of_movable.len());
                node_of_movable.push(n);
            }
        }
        let n_pi = g.inputs().len();
        let pin_of = |n: SubjectNodeId| -> PinRef {
            match g.kind(n) {
                SubjectKind::Input(pi) => PinRef::Fixed(pi),
                _ => PinRef::Movable(movable_of_node[n.index()].expect("internal node")),
            }
        };

        let fanouts = g.fanouts();
        // The output pads of each driver, in declaration order, gathered
        // in one pass over the outputs rather than one pass per node.
        let mut output_pads: Vec<Vec<usize>> = vec![Vec::new(); g.node_count()];
        for (oi, o) in g.outputs().iter().enumerate() {
            output_pads[o.driver.index()].push(n_pi + oi);
        }
        let mut nets = Vec::new();
        for n in g.node_ids() {
            let readers = &fanouts[n.index()];
            let pads = &output_pads[n.index()];
            if readers.is_empty() && pads.is_empty() {
                continue;
            }
            let mut net = Vec::with_capacity(1 + readers.len() + pads.len());
            net.push(pin_of(n));
            net.extend(readers.iter().map(|&r| pin_of(r)));
            net.extend(pads.iter().map(|&pad| PinRef::Fixed(pad)));
            if net.len() >= 2 {
                nets.push(net);
            }
        }
        let problem = PlacementProblem {
            movable: node_of_movable.len(),
            fixed: vec![Point::default(); n_pi + g.outputs().len()],
            nets,
        };
        Self { problem, movable_of_node, node_of_movable }
    }

    /// Scatter placement-problem positions back to per-node positions
    /// (inputs get their pad positions).
    ///
    /// # Errors
    ///
    /// [`PlaceError::InvalidProblem`] when slice lengths disagree with
    /// the problem or the graph does not match this mapping (a caller
    /// wiring error, reported instead of panicking so the flow can
    /// degrade).
    pub fn node_positions(
        &self,
        g: &SubjectGraph,
        module_positions: &[Point],
        pad_positions: &[Point],
    ) -> Result<Vec<Point>, PlaceError> {
        if module_positions.len() != self.problem.movable {
            return Err(PlaceError::InvalidProblem {
                message: format!(
                    "node_positions: {} module positions for {} movable modules",
                    module_positions.len(),
                    self.problem.movable
                ),
            });
        }
        if pad_positions.len() != self.problem.fixed.len() {
            return Err(PlaceError::InvalidProblem {
                message: format!(
                    "node_positions: {} pad positions for {} pads",
                    pad_positions.len(),
                    self.problem.fixed.len()
                ),
            });
        }
        let mut out = vec![Point::default(); g.node_count()];
        for n in g.node_ids() {
            out[n.index()] = match g.kind(n) {
                SubjectKind::Input(pi) => {
                    *pad_positions.get(pi).ok_or_else(|| PlaceError::InvalidProblem {
                        message: format!("node_positions: input pad {pi} out of range"),
                    })?
                }
                _ => {
                    let m = self.movable_of_node.get(n.index()).copied().flatten().ok_or_else(
                        || PlaceError::InvalidProblem {
                            message: format!(
                                "node_positions: node {} has no movable-module mapping",
                                n.index()
                            ),
                        },
                    )?;
                    module_positions[m]
                }
            };
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> SubjectGraph {
        let mut g = SubjectGraph::new("g");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let n = g.nand2(a, b);
        let m = g.inv(n);
        g.set_output("y", m);
        g
    }

    #[test]
    fn problem_structure() {
        let g = graph();
        let sp = SubjectPlacement::new(&g);
        assert_eq!(sp.problem.movable, 2); // nand + inv
        assert_eq!(sp.problem.fixed.len(), 3); // 2 PI + 1 PO
                                               // Nets: a->nand, b->nand, nand->inv, inv->PO pad.
        assert_eq!(sp.problem.nets.len(), 4);
        sp.problem.validate().unwrap();
    }

    #[test]
    fn round_trip_positions() {
        let g = graph();
        let sp = SubjectPlacement::new(&g);
        let modules = vec![Point::new(1.0, 1.0), Point::new(2.0, 2.0)];
        let pads = vec![Point::new(0.0, 0.0), Point::new(0.0, 5.0), Point::new(9.0, 9.0)];
        let per_node = sp.node_positions(&g, &modules, &pads).expect("consistent mapping");
        assert_eq!(per_node.len(), g.node_count());
        assert_eq!(per_node[0], pads[0]);
        assert_eq!(per_node[2], modules[0]);
        assert_eq!(per_node[3], modules[1]);
    }

    #[test]
    fn mismatched_lengths_are_typed_errors() {
        let g = graph();
        let sp = SubjectPlacement::new(&g);
        let pads = vec![Point::default(); sp.problem.fixed.len()];
        let short = vec![Point::default(); sp.problem.movable - 1];
        assert!(matches!(
            sp.node_positions(&g, &short, &pads),
            Err(PlaceError::InvalidProblem { .. })
        ));
        let modules = vec![Point::default(); sp.problem.movable];
        assert!(matches!(
            sp.node_positions(&g, &modules, &pads[..1]),
            Err(PlaceError::InvalidProblem { .. })
        ));
    }

    /// The original construction, which scans every primary output for
    /// every node: the reference the linear-time one must reproduce.
    fn reference_nets(g: &SubjectGraph) -> Vec<Vec<PinRef>> {
        let movable_of_node = SubjectPlacement::new(g).movable_of_node;
        let pin_of = |n: SubjectNodeId| match g.kind(n) {
            SubjectKind::Input(pi) => PinRef::Fixed(pi),
            _ => PinRef::Movable(movable_of_node[n.index()].unwrap()),
        };
        let fanouts = g.fanouts();
        let orefs = g.output_ref_counts();
        let mut nets = Vec::new();
        for n in g.node_ids() {
            let readers = &fanouts[n.index()];
            if readers.is_empty() && orefs[n.index()] == 0 {
                continue;
            }
            let mut net = vec![pin_of(n)];
            net.extend(readers.iter().map(|&r| pin_of(r)));
            for (oi, o) in g.outputs().iter().enumerate() {
                if o.driver == n {
                    net.push(PinRef::Fixed(g.inputs().len() + oi));
                }
            }
            if net.len() >= 2 {
                nets.push(net);
            }
        }
        nets
    }

    #[test]
    fn nets_match_the_per_output_scan() {
        // One graph with every driver shape: several outputs on one
        // driver (declared out of order with others), an output driven
        // straight by a primary input, a driver read only by an output
        // pad, and a dangling node.
        let mut g = SubjectGraph::new("shapes");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let n1 = g.nand2(a, b);
        let n2 = g.nand2(n1, c);
        let only_po = g.inv(n2);
        let _dangling = g.nand2(a, c);
        g.set_output("y0", n1);
        g.set_output("y1", only_po);
        g.set_output("y2", n1);
        g.set_output("y3", b);
        g.set_output("y4", n1);
        let sp = SubjectPlacement::new(&g);
        assert_eq!(sp.problem.nets, reference_nets(&g));
        // n1's net: driver, its reader n2, then pads y0, y2, y4 in
        // declaration order.
        let n1_net = &sp.problem.nets[3];
        assert_eq!(n1_net[0], PinRef::Movable(0));
        assert_eq!(&n1_net[2..], &[PinRef::Fixed(3), PinRef::Fixed(5), PinRef::Fixed(7)]);

        // Random graphs: shared drivers, input-driven outputs, and
        // unread nodes arise at every size.
        let mut rng = lily_netlist::sim::XorShift64::new(0x5eed);
        for round in 0..20 {
            let mut g = SubjectGraph::new("random");
            let mut nodes: Vec<SubjectNodeId> =
                (0..2 + round % 5).map(|i| g.add_input(format!("i{i}"))).collect();
            for _ in 0..10 * (round + 1) {
                let x = nodes[rng.gen_index(nodes.len())];
                let n = if rng.gen_index(3) == 0 {
                    g.inv(x)
                } else {
                    g.nand2(x, nodes[rng.gen_index(nodes.len())])
                };
                nodes.push(n);
            }
            for o in 0..1 + round {
                g.set_output(format!("o{o}"), nodes[rng.gen_index(nodes.len())]);
            }
            assert_eq!(SubjectPlacement::new(&g).problem.nets, reference_nets(&g), "round {round}");
        }
    }

    #[test]
    fn multi_output_driver_net_includes_all_pads() {
        let mut g = SubjectGraph::new("g");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let n = g.nand2(a, b);
        g.set_output("y1", n);
        g.set_output("y2", n);
        let sp = SubjectPlacement::new(&g);
        // The nand's net carries two PO pads.
        let big = sp.problem.nets.iter().find(|net| net.len() == 3).expect("driver net");
        let fixed_count = big.iter().filter(|p| matches!(p, PinRef::Fixed(i) if *i >= 2)).count();
        assert_eq!(fixed_count, 2);
    }
}
