//! Static timing analysis over a placed mapped network.
//!
//! Computes worst-case rise/fall arrival times at every cell output with
//! the linear delay model, the longest-path delay (the value reported in
//! Table 2), the critical path itself, and per-cell slacks.

use crate::arrival::{propagate, Arrival};
use crate::error::TimingError;
use crate::load::{output_load, WireLoad};
use lily_cells::{CellId, Library, MappedNetwork, SignalSource};

/// The result of an STA run.
#[derive(Debug, Clone)]
pub struct StaResult {
    /// Arrival at each cell output.
    pub cell_arrival: Vec<Arrival>,
    /// Arrival at each primary output (lumped-capacitance model:
    /// `t_y = t_q`, paper §4.2).
    pub output_arrival: Vec<Arrival>,
    /// The longest-path delay (worst output arrival), ns.
    pub critical_delay: f64,
    /// Index of the critical primary output.
    pub critical_output: usize,
    /// Cells on the critical path, input side first.
    pub critical_path: Vec<CellId>,
    /// Slack of each cell against the critical delay as the required
    /// time at every output.
    pub cell_slack: Vec<f64>,
}

/// Runs static timing analysis with every primary input arriving at
/// time 0 and output loads under `wire_load`, reporting upstream
/// defects as structured errors instead of panicking.
///
/// # Errors
///
/// * [`TimingError::InvalidNetwork`] — the netlist fails validation
///   against `lib`.
/// * [`TimingError::Cyclic`] — the netlist has a combinational cycle.
/// * [`TimingError::NonFinite`] — a load or the critical delay came out
///   NaN/∞ (non-finite cell positions or overflowed delay parameters).
pub fn try_analyze(
    mapped: &MappedNetwork,
    lib: &Library,
    wire_load: WireLoad,
) -> Result<StaResult, TimingError> {
    mapped.validate(lib).map_err(|e| TimingError::InvalidNetwork { message: e.to_string() })?;
    let n = mapped.cell_count();

    // Per-driver loads.
    let nets = mapped.nets();
    let mut load_of_cell = vec![0.0f64; n];
    for net in &nets {
        if let SignalSource::Cell(c) = net.source {
            let load = output_load(wire_load, lib, mapped, net);
            if !load.is_finite() {
                return Err(TimingError::NonFinite { context: "output load" });
            }
            load_of_cell[c.index()] = load;
        }
    }

    let order = mapped.try_topo_order().map_err(|c| TimingError::Cyclic { cell: c.index() })?;
    let mut cell_arrival = vec![Arrival::ZERO; n];
    let mut worst_pin = vec![usize::MAX; n];

    for &c in &order {
        let cell = mapped.cell(c);
        let gate = lib.gate(cell.gate);
        let mut best = Arrival::NEG_INF;
        let mut best_pin = 0usize;
        for (pi, (&src, pin)) in cell.fanins.iter().zip(gate.pins()).enumerate() {
            let input = match src {
                SignalSource::Input(_) => Arrival::ZERO,
                SignalSource::Cell(fc) => cell_arrival[fc.index()],
            };
            let u = gate.unateness(pi);
            let out = propagate(input, pin, u, load_of_cell[c.index()]);
            if out.worst() > best.worst() {
                best_pin = pi;
            }
            best = best.max(out);
        }
        cell_arrival[c.index()] = best;
        worst_pin[c.index()] = best_pin;
    }

    let output_arrival: Vec<Arrival> = mapped
        .outputs
        .iter()
        .map(|(_, s)| match *s {
            SignalSource::Input(_) => Arrival::ZERO,
            SignalSource::Cell(c) => cell_arrival[c.index()],
        })
        .collect();
    let (critical_output, critical_delay) = output_arrival
        .iter()
        .enumerate()
        .map(|(i, a)| (i, a.worst()))
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        .unwrap_or((0, 0.0));

    // Critical path: walk back along worst pins.
    let mut critical_path = Vec::new();
    if let Some((_, SignalSource::Cell(mut c))) = mapped.outputs.get(critical_output).cloned() {
        loop {
            critical_path.push(c);
            let cell = mapped.cell(c);
            match cell.fanins.get(worst_pin[c.index()]) {
                Some(SignalSource::Cell(fc)) => c = *fc,
                _ => break,
            }
        }
        critical_path.reverse();
    }

    // Required times / slack: required at every PO = critical_delay.
    let mut required = vec![f64::INFINITY; n];
    for (_, s) in &mapped.outputs {
        if let SignalSource::Cell(c) = s {
            required[c.index()] = required[c.index()].min(critical_delay);
        }
    }
    for &c in order.iter().rev() {
        let cell = mapped.cell(c);
        let gate = lib.gate(cell.gate);
        let req_out = required[c.index()];
        if !req_out.is_finite() {
            continue;
        }
        for (pi, (&src, pin)) in cell.fanins.iter().zip(gate.pins()).enumerate() {
            if let SignalSource::Cell(fc) = src {
                // Worst arc delay through this pin at the cell's load.
                let u = gate.unateness(pi);
                let d = propagate(Arrival::ZERO, pin, u, load_of_cell[c.index()]).worst();
                required[fc.index()] = required[fc.index()].min(req_out - d);
            }
        }
    }
    let cell_slack: Vec<f64> = (0..n)
        .map(|i| {
            if required[i].is_finite() {
                required[i] - cell_arrival[i].worst()
            } else {
                f64::INFINITY
            }
        })
        .collect();

    if !critical_delay.is_finite() {
        return Err(TimingError::NonFinite { context: "critical delay" });
    }
    Ok(StaResult {
        cell_arrival,
        output_arrival,
        critical_delay,
        critical_output,
        critical_path,
        cell_slack,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lily_cells::MappedCell;

    fn analyze(m: &MappedNetwork, lib: &Library, wire_load: WireLoad) -> StaResult {
        try_analyze(m, lib, wire_load).expect("static timing analysis failed")
    }

    /// A chain of `n` inverters from input to output.
    fn inverter_chain(lib: &Library, n: usize, spacing: f64) -> MappedNetwork {
        let inv = lib.inverter();
        let mut m = MappedNetwork::new("chain", vec!["a".into()]);
        m.input_positions = vec![(0.0, 0.0)];
        let mut src = SignalSource::Input(0);
        for i in 0..n {
            let c = m.add_cell(MappedCell {
                gate: inv,
                fanins: vec![src],
                position: ((i as f64 + 1.0) * spacing, 0.0),
            });
            src = SignalSource::Cell(c);
        }
        m.add_output("y", src);
        m.output_positions[0] = ((n as f64 + 1.0) * spacing, 0.0);
        m
    }

    #[test]
    fn chain_delay_grows_linearly() {
        let lib = Library::tiny();
        let d2 = analyze(&inverter_chain(&lib, 2, 10.0), &lib, WireLoad::None).critical_delay;
        let d4 = analyze(&inverter_chain(&lib, 4, 10.0), &lib, WireLoad::None).critical_delay;
        let d8 = analyze(&inverter_chain(&lib, 8, 10.0), &lib, WireLoad::None).critical_delay;
        assert!(d4 > d2 && d8 > d4);
        // Per-stage delay constant: differences equal.
        assert!(((d4 - d2) - (d8 - d4) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn wire_load_increases_delay() {
        let lib = Library::tiny();
        let short = inverter_chain(&lib, 3, 10.0);
        let long = inverter_chain(&lib, 3, 2000.0);
        let no_wire = WireLoad::None;
        let with_wire = WireLoad::FromPlacement;
        let base = analyze(&short, &lib, no_wire).critical_delay;
        let near = analyze(&short, &lib, with_wire).critical_delay;
        let far = analyze(&long, &lib, with_wire).critical_delay;
        assert!(near > base);
        assert!(far > near, "longer wires must be slower: {far} !> {near}");
    }

    #[test]
    fn critical_path_is_the_chain() {
        let lib = Library::tiny();
        let m = inverter_chain(&lib, 5, 10.0);
        let r = analyze(&m, &lib, WireLoad::FromPlacement);
        assert_eq!(r.critical_path.len(), 5);
        for (i, c) in r.critical_path.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        assert_eq!(r.critical_output, 0);
    }

    #[test]
    fn critical_cells_have_zero_slack() {
        let lib = Library::tiny();
        let m = inverter_chain(&lib, 4, 10.0);
        let r = analyze(&m, &lib, WireLoad::None);
        for c in &r.critical_path {
            assert!(r.cell_slack[c.index()].abs() < 1e-9, "slack {}", r.cell_slack[c.index()]);
        }
    }

    #[test]
    fn parallel_paths_take_worst() {
        let lib = Library::tiny();
        let nand2 = lib.find("nand2").unwrap();
        let inv = lib.inverter();
        let mut m = MappedNetwork::new("p", vec!["a".into(), "b".into()]);
        m.input_positions = vec![(0.0, 0.0), (0.0, 10.0)];
        // b goes through 2 extra inverters before the nand.
        let i1 = m.add_cell(MappedCell {
            gate: inv,
            fanins: vec![SignalSource::Input(1)],
            position: (10.0, 10.0),
        });
        let i2 = m.add_cell(MappedCell {
            gate: inv,
            fanins: vec![SignalSource::Cell(i1)],
            position: (20.0, 10.0),
        });
        let g = m.add_cell(MappedCell {
            gate: nand2,
            fanins: vec![SignalSource::Input(0), SignalSource::Cell(i2)],
            position: (30.0, 5.0),
        });
        m.add_output("y", SignalSource::Cell(g));
        m.output_positions[0] = (40.0, 5.0);
        let r = analyze(&m, &lib, WireLoad::None);
        // The critical path must route through the inverters.
        assert_eq!(r.critical_path.len(), 3);
        assert_eq!(r.critical_path[0], i1);
        assert_eq!(r.critical_path[2], g);
    }
}
