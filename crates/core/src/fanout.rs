//! Fanout optimization — the post-processing pass the paper notes Lily
//! lacks (§5: *"Currently, Lily does not perform fanout optimization …
//! we could perform a postprocessing pass to derive fanout trees"*).
//!
//! High-fanout nets are split into trees of buffer stages. Libraries in
//! this reproduction have no dedicated buffer cell, so a stage is a
//! pair of inverters in series (function-preserving). Sinks are grouped
//! geometrically, so each stage's subtree stays local — the
//! layout-driven flavor of the classic pass.

use lily_cells::{CellId, Library, MappedCell, MappedNetwork, SignalSource};
use lily_place::Point;

/// One sink of a net during buffering.
#[derive(Debug, Clone, Copy)]
enum Sink {
    Pin(CellId, usize),
    Output(usize),
}

impl Sink {
    fn position(&self, mapped: &MappedNetwork) -> Point {
        let (x, y) = match *self {
            Sink::Pin(c, _) => mapped.cell(c).position,
            Sink::Output(o) => mapped.output_positions[o],
        };
        Point::new(x, y)
    }
}

/// Splits every net with more than `max_fanout` sinks by inserting
/// inverter-pair buffer stages. Returns the number of inverters added.
///
/// The pass preserves circuit function exactly (each stage is a double
/// inversion) and terminates because every stage strictly reduces the
/// sink count any single driver sees.
///
/// # Panics
///
/// Panics if `max_fanout < 2` (a tree cannot reduce otherwise).
pub fn buffer_fanout(mapped: &mut MappedNetwork, lib: &Library, max_fanout: usize) -> usize {
    assert!(max_fanout >= 2, "max_fanout must be at least 2");
    let inv = lib.inverter();
    let mut added = 0usize;

    // Iterate until no net exceeds the limit (new buffer outputs can
    // themselves be high-fanout only if max_fanout groups > max_fanout,
    // handled by re-scanning).
    loop {
        let nets = mapped.nets();
        let mut worked = false;
        for net in nets {
            let mut sinks: Vec<Sink> = net
                .sinks
                .iter()
                .map(|&(c, p)| Sink::Pin(c, p))
                .chain(net.output_sinks.iter().map(|&o| Sink::Output(o)))
                .collect();
            if sinks.len() <= max_fanout {
                continue;
            }
            worked = true;
            // Group sinks that are near along the x + y diagonal, then
            // buffer each group.
            sinks.sort_by(|a, b| {
                let (a, b) = (a.position(mapped), b.position(mapped));
                (a.x + a.y).partial_cmp(&(b.x + b.y)).unwrap_or(std::cmp::Ordering::Equal)
            });
            let groups: Vec<Vec<Sink>> = sinks.chunks(max_fanout).map(<[Sink]>::to_vec).collect();
            for group in groups {
                // Stage position: centroid of the group.
                let pts: Vec<Point> = group.iter().map(|s| s.position(mapped)).collect();
                let centroid = crate::position::center_of_mass(&pts, Point::default());
                let first = mapped.add_cell(MappedCell {
                    gate: inv,
                    fanins: vec![net.source],
                    position: (centroid.x, centroid.y),
                });
                let second = mapped.add_cell(MappedCell {
                    gate: inv,
                    fanins: vec![SignalSource::Cell(first)],
                    position: (centroid.x, centroid.y),
                });
                added += 2;
                for s in group {
                    match s {
                        Sink::Pin(c, p) => {
                            mapped.cells_mut()[c.index()].fanins[p] = SignalSource::Cell(second);
                        }
                        Sink::Output(o) => {
                            mapped.outputs[o].1 = SignalSource::Cell(second);
                        }
                    }
                }
            }
        }
        if !worked {
            break;
        }
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use lily_cells::mapped::equiv_mapped_subject;
    use lily_netlist::SubjectGraph;

    /// One inverter driving `n` nand2 sinks (paired with input b).
    fn star(lib: &Library, n: usize) -> (SubjectGraph, MappedNetwork) {
        let mut g = SubjectGraph::new("star");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let root = g.inv(a);
        let mut m = MappedNetwork::new("star", vec!["a".into(), "b".into()]);
        m.input_positions = vec![(0.0, 0.0), (0.0, 100.0)];
        let inv = lib.inverter();
        let nand2 = lib.find("nand2").unwrap();
        let driver = m.add_cell(MappedCell {
            gate: inv,
            fanins: vec![SignalSource::Input(0)],
            position: (50.0, 50.0),
        });
        for i in 0..n {
            let s = g.nand2(root, b);
            // All sinks share the same subject node after strashing;
            // give each a distinct PO anyway via inverters for variety.
            let extra = g.inv(s);
            let back = g.inv(extra);
            g.set_output(format!("y{i}"), back);
            let c = m.add_cell(MappedCell {
                gate: nand2,
                fanins: vec![SignalSource::Cell(driver), SignalSource::Input(1)],
                position: (100.0 + (i % 5) as f64 * 40.0, (i / 5) as f64 * 60.0),
            });
            m.add_output(format!("y{i}"), SignalSource::Cell(c));
            m.output_positions[i] = (400.0, i as f64 * 30.0);
        }
        (g, m)
    }

    #[test]
    fn buffering_preserves_function() {
        let lib = Library::big();
        let (g, mut m) = star(&lib, 17);
        assert!(equiv_mapped_subject(&g, &m, &lib, 16, 1));
        let added = buffer_fanout(&mut m, &lib, 6);
        assert!(added > 0);
        assert!(equiv_mapped_subject(&g, &m, &lib, 16, 1), "function changed");
    }

    #[test]
    fn fanout_limit_is_respected() {
        let lib = Library::big();
        let (_, mut m) = star(&lib, 30);
        buffer_fanout(&mut m, &lib, 4);
        for net in m.nets() {
            let total = net.sinks.len() + net.output_sinks.len();
            assert!(total <= 4, "net still drives {total} sinks");
        }
    }

    #[test]
    fn low_fanout_nets_untouched() {
        let lib = Library::big();
        let (_, mut m) = star(&lib, 3);
        let before = m.cell_count();
        let added = buffer_fanout(&mut m, &lib, 6);
        assert_eq!(added, 0);
        assert_eq!(m.cell_count(), before);
    }

    #[test]
    fn buffering_reduces_delay_on_heavy_nets() {
        use lily_timing::load::WireLoad;
        use lily_timing::sta::try_analyze;
        let lib = Library::big();
        let (_, mut m) = star(&lib, 40);
        let before = try_analyze(&m, &lib, WireLoad::None).expect("sta failed").critical_delay;
        buffer_fanout(&mut m, &lib, 8);
        let after = try_analyze(&m, &lib, WireLoad::None).expect("sta failed").critical_delay;
        assert!(
            after < before,
            "buffering a 40-sink net must shorten the path: {after} !< {before}"
        );
    }

    #[test]
    #[should_panic(expected = "max_fanout")]
    fn degenerate_limit_panics() {
        let lib = Library::big();
        let (_, mut m) = star(&lib, 3);
        buffer_fanout(&mut m, &lib, 1);
    }
}
