//! Human-readable timing reports — the classic "report_timing" view of
//! an STA result.

use crate::sta::StaResult;
use lily_cells::{Library, MappedNetwork};
use std::fmt::Write as _;

/// Formats the critical path of an STA run as a stage-by-stage table:
/// gate, position, incremental delay, cumulative arrival.
pub fn critical_path_report(mapped: &MappedNetwork, lib: &Library, sta: &StaResult) -> String {
    let mut out = String::new();
    let output =
        mapped.outputs.get(sta.critical_output).map_or("<none>", |(name, _)| name.as_str());
    let _ = writeln!(
        out,
        "critical path to output `{output}`: {:.3} ns over {} stages",
        sta.critical_delay,
        sta.critical_path.len()
    );
    let _ = writeln!(
        out,
        "{:<4} {:<10} {:>9} {:>9} {:>9} {:>9}",
        "#", "gate", "x µm", "y µm", "incr ns", "arrive ns"
    );
    let mut prev = 0.0f64;
    for (i, cell) in sta.critical_path.iter().enumerate() {
        let c = mapped.cell(*cell);
        let gate = lib.gate(c.gate);
        let t = sta.cell_arrival[cell.index()].worst();
        let _ = writeln!(
            out,
            "{:<4} {:<10} {:>9.1} {:>9.1} {:>9.3} {:>9.3}",
            i,
            gate.name(),
            c.position.0,
            c.position.1,
            t - prev,
            t
        );
        prev = t;
    }
    out
}

/// Summarizes slack distribution: worst slack, number of critical cells
/// (|slack| < epsilon), and a small histogram.
pub fn slack_summary(mapped: &MappedNetwork, sta: &StaResult) -> String {
    let mut out = String::new();
    let finite: Vec<f64> = sta.cell_slack.iter().copied().filter(|s| s.is_finite()).collect();
    if finite.is_empty() {
        let _ = writeln!(out, "no constrained cells");
        return out;
    }
    let worst = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let critical = finite.iter().filter(|s| s.abs() < 1e-9).count();
    let _ = writeln!(
        out,
        "{} cells, worst slack {:.3} ns, {} critical",
        mapped.cell_count(),
        worst,
        critical
    );
    // Histogram over 4 buckets of the slack range.
    let max = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max).max(worst + 1e-9);
    let span = (max - worst).max(1e-9);
    let mut buckets = [0usize; 4];
    for s in &finite {
        let b = (((s - worst) / span) * 4.0).min(3.0) as usize;
        buckets[b] += 1;
    }
    for (i, b) in buckets.iter().enumerate() {
        let lo = worst + span * i as f64 / 4.0;
        let hi = worst + span * (i as f64 + 1.0) / 4.0;
        let _ = writeln!(out, "  [{lo:>8.3}, {hi:>8.3}) ns: {b}");
    }
    out
}

/// Checks an STA result for internal consistency (monotone arrivals
/// along the critical path, non-negative critical delay). Returns the
/// list of violations — empty means consistent. Useful as a test oracle
/// for downstream tools.
pub fn validate(sta: &StaResult) -> Vec<String> {
    let mut problems = Vec::new();
    if sta.critical_delay < 0.0 {
        problems.push(format!("negative critical delay {}", sta.critical_delay));
    }
    let mut prev = f64::NEG_INFINITY;
    for cell in &sta.critical_path {
        let t = sta.cell_arrival[cell.index()].worst();
        if t < prev - 1e-9 {
            problems.push(format!("arrival not monotone along critical path: {t} after {prev}"));
        }
        prev = t;
    }
    if let Some(last) = sta.critical_path.last() {
        let t = sta.cell_arrival[last.index()].worst();
        if (t - sta.critical_delay).abs() > 1e-6 {
            problems.push(format!(
                "critical path endpoint arrival {t} != critical delay {}",
                sta.critical_delay
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::WireLoad;
    use crate::sta::{try_analyze, StaResult};

    fn analyze(m: &MappedNetwork, lib: &Library, wire_load: WireLoad) -> StaResult {
        try_analyze(m, lib, wire_load).expect("static timing analysis failed")
    }
    use lily_cells::{MappedCell, SignalSource as S};

    fn chain(lib: &Library, n: usize) -> MappedNetwork {
        let inv = lib.inverter();
        let mut m = MappedNetwork::new("chain", vec!["a".into()]);
        let mut src = S::Input(0);
        for i in 0..n {
            let c = m.add_cell(MappedCell {
                gate: inv,
                fanins: vec![src],
                position: (i as f64 * 25.0, 0.0),
            });
            src = S::Cell(c);
        }
        m.add_output("y", src);
        m
    }

    #[test]
    fn report_lists_every_stage() {
        let lib = Library::tiny();
        let m = chain(&lib, 5);
        let sta = analyze(&m, &lib, WireLoad::None);
        let rep = critical_path_report(&m, &lib, &sta);
        assert!(rep.contains("critical path to output `y`"));
        assert_eq!(rep.matches("inv").count(), 5, "{rep}");
    }

    #[test]
    fn slack_summary_counts_critical_cells() {
        let lib = Library::tiny();
        let m = chain(&lib, 4);
        let sta = analyze(&m, &lib, WireLoad::None);
        let s = slack_summary(&m, &sta);
        // A pure chain: every cell is critical.
        assert!(s.contains("4 critical"), "{s}");
    }

    #[test]
    fn validate_accepts_real_results() {
        let lib = Library::tiny();
        let m = chain(&lib, 6);
        let sta = analyze(&m, &lib, WireLoad::FromPlacement);
        assert!(validate(&sta).is_empty());
    }

    #[test]
    fn validate_flags_corrupted_results() {
        let lib = Library::tiny();
        let m = chain(&lib, 3);
        let mut sta = analyze(&m, &lib, WireLoad::FromPlacement);
        sta.critical_delay = -1.0;
        let problems = validate(&sta);
        assert!(problems.iter().any(|p| p.contains("negative")));
    }
}
