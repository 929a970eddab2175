//! Sanity checks over an STA result (`TM*` codes): arrivals must be
//! finite, never earlier than the primary inputs (time 0), topologically
//! monotone along timing arcs, and consistent with the reported
//! critical delay.

use crate::diag::{Code, Diagnostic, Locus, Report};
use lily_cells::{MappedNetwork, SignalSource};
use lily_timing::StaResult;

const EPS: f64 = 1e-9;

/// Checks an [`StaResult`] against the network it was computed for.
///
/// * `TM004` — result vectors must have the right lengths, the critical
///   output/path must reference existing cells, the per-output arrivals
///   must restate their drivers' arrivals, and `critical_delay` must be
///   the worst output arrival.
/// * `TM003` — arrivals and the critical delay must be finite (slacks
///   may be `+∞` for cells feeding no output, but never NaN).
/// * `TM001` — no arrival may be negative (every primary input arrives
///   at time 0, and with non-negative arc delays nothing can appear
///   earlier than the inputs).
/// * `TM002` — along every cell→cell arc, the consumer's worst arrival
///   must be at least the producer's.
///
/// The mapped network is assumed structurally valid (see
/// [`crate::check_mapped`]).
pub fn check_timing(mapped: &MappedNetwork, sta: &StaResult) -> Report {
    let mut report = Report::new();
    let n = mapped.cell_count();

    if sta.cell_arrival.len() != n
        || sta.cell_slack.len() != n
        || sta.output_arrival.len() != mapped.outputs.len()
    {
        report.push(Diagnostic::new(
            Code::Tm004,
            Locus::Whole,
            format!(
                "result sizes (arrivals {}, slacks {}, outputs {}) do not match the \
                 network ({} cells, {} outputs)",
                sta.cell_arrival.len(),
                sta.cell_slack.len(),
                sta.output_arrival.len(),
                n,
                mapped.outputs.len()
            ),
        ));
        return report;
    }
    if !mapped.outputs.is_empty() && sta.critical_output >= mapped.outputs.len() {
        report.push(Diagnostic::new(
            Code::Tm004,
            Locus::Whole,
            format!("critical output index {} is out of range", sta.critical_output),
        ));
    }
    for c in &sta.critical_path {
        if c.index() >= n {
            report.push(Diagnostic::new(
                Code::Tm004,
                Locus::Cell(c.index()),
                "critical path references a nonexistent cell",
            ));
        }
    }

    // TM003 / TM001 on cells.
    for (ci, a) in sta.cell_arrival.iter().enumerate() {
        if !a.rise.is_finite() || !a.fall.is_finite() {
            report.push(Diagnostic::new(
                Code::Tm003,
                Locus::Cell(ci),
                format!("arrival ({}, {}) is not finite", a.rise, a.fall),
            ));
        } else if a.rise < -EPS || a.fall < -EPS {
            report.push(Diagnostic::new(
                Code::Tm001,
                Locus::Cell(ci),
                format!("arrival ({}, {}) precedes the input arrival 0", a.rise, a.fall),
            ));
        }
    }
    for (oi, a) in sta.output_arrival.iter().enumerate() {
        if !a.rise.is_finite() || !a.fall.is_finite() {
            report.push(Diagnostic::new(
                Code::Tm003,
                Locus::Output(oi),
                format!("arrival ({}, {}) is not finite", a.rise, a.fall),
            ));
        }
    }
    if !sta.critical_delay.is_finite() {
        report.push(Diagnostic::new(
            Code::Tm003,
            Locus::Whole,
            format!("critical delay {} is not finite", sta.critical_delay),
        ));
    }
    for (ci, s) in sta.cell_slack.iter().enumerate() {
        if s.is_nan() {
            report.push(Diagnostic::new(Code::Tm003, Locus::Cell(ci), "slack is NaN"));
        }
    }
    if report.has_errors() {
        return report;
    }

    // TM002: monotone along every cell→cell arc.
    for (ci, cell) in mapped.cells().iter().enumerate() {
        for &src in &cell.fanins {
            if let SignalSource::Cell(fc) = src {
                let up = sta.cell_arrival[fc.index()].worst();
                let down = sta.cell_arrival[ci].worst();
                if down < up - EPS {
                    report.push(
                        Diagnostic::new(
                            Code::Tm002,
                            Locus::Cell(ci),
                            format!(
                                "arrival {down} is earlier than fanin cell {}'s {up}",
                                fc.index()
                            ),
                        )
                        .with_hint(
                            "arc delays are non-negative, so arrivals can only \
                                    grow along a path",
                        ),
                    );
                }
            }
        }
    }

    // TM004: outputs restate their drivers; critical delay is the max.
    for (oi, (name, src)) in mapped.outputs.iter().enumerate() {
        let driver = match *src {
            SignalSource::Input(_) => 0.0,
            SignalSource::Cell(c) => sta.cell_arrival[c.index()].worst(),
        };
        let here = sta.output_arrival[oi].worst();
        if (here - driver).abs() > EPS {
            report.push(Diagnostic::new(
                Code::Tm004,
                Locus::Output(oi),
                format!("output `{name}` arrival {here} differs from its driver's {driver}"),
            ));
        }
    }
    let worst = sta.output_arrival.iter().map(|a| a.worst()).fold(f64::NEG_INFINITY, f64::max);
    if !sta.output_arrival.is_empty() && (sta.critical_delay - worst).abs() > EPS {
        report.push(Diagnostic::new(
            Code::Tm004,
            Locus::Whole,
            format!(
                "critical delay {} differs from the worst output arrival {worst}",
                sta.critical_delay
            ),
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use lily_cells::{Library, MappedCell};
    use lily_timing::{try_analyze, Arrival, StaResult, WireLoad};

    fn analyze(m: &MappedNetwork, lib: &Library) -> StaResult {
        try_analyze(m, lib, WireLoad::None).expect("static timing analysis failed")
    }

    fn chain(lib: &Library, n: usize) -> MappedNetwork {
        let inv = lib.inverter();
        let mut m = MappedNetwork::new("c", vec!["a".into()]);
        m.input_positions = vec![(0.0, 0.0)];
        let mut src = SignalSource::Input(0);
        for i in 0..n {
            let c = m.add_cell(MappedCell {
                gate: inv,
                fanins: vec![src],
                position: (10.0 * (i + 1) as f64, 0.0),
            });
            src = SignalSource::Cell(c);
        }
        m.add_output("y", src);
        m.output_positions[0] = (10.0 * (n + 1) as f64, 0.0);
        m
    }

    #[test]
    fn real_sta_is_clean() {
        let lib = Library::tiny();
        let m = chain(&lib, 4);
        let sta = analyze(&m, &lib);
        let r = check_timing(&m, &sta);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn negative_arrival_is_tm001() {
        let lib = Library::tiny();
        let m = chain(&lib, 2);
        let mut sta = analyze(&m, &lib);
        sta.cell_arrival[0] = Arrival::new(-1.0, -1.0);
        let r = check_timing(&m, &sta);
        assert!(r.has_code(Code::Tm001), "{r}");
    }

    #[test]
    fn non_monotone_arrival_is_tm002() {
        let lib = Library::tiny();
        let m = chain(&lib, 3);
        let mut sta = analyze(&m, &lib);
        // Make the middle cell arrive after its consumer.
        sta.cell_arrival[1] = sta.cell_arrival[2].offset(5.0);
        let r = check_timing(&m, &sta);
        assert!(r.has_code(Code::Tm002), "{r}");
    }

    #[test]
    fn stale_critical_delay_is_tm004() {
        let lib = Library::tiny();
        let m = chain(&lib, 2);
        let mut sta = analyze(&m, &lib);
        sta.critical_delay += 3.0;
        assert!(check_timing(&m, &sta).has_code(Code::Tm004));
    }
}
