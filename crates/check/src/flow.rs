//! The whole pass sequence over one flow's artifacts — what the
//! `lily-check` CLI prints and the contract tests assert clean.

use std::fmt;

use crate::diag::Report;
use crate::{
    check_hierarchy, check_mapped, check_mapped_subject, check_network, check_network_subject,
    check_placement, check_subject, check_timing,
};
use lily_cells::{Library, MappedNetwork};
use lily_netlist::{Network, SubjectGraph};
use lily_place::{
    pads, try_multilevel_place, MultilevelOptions, PlaceError, Point, Rect, SubjectPlacement,
};
use lily_timing::{try_analyze, StaOptions, TimingError};

/// Every pass's report, in pipeline order: `network`, `subject`,
/// `decompose-equiv`, `hierarchy`, `mapped`, `cover-equiv`,
/// `placement`, `timing`. A pass that does not apply carries `None`:
/// `hierarchy` below the multilevel threshold, `placement` for a
/// netlist without pads.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// `(pass name, report)` in pipeline order.
    pub passes: Vec<(&'static str, Option<Report>)>,
    /// The critical delay the timing pass analyzed, ns.
    pub critical_delay: f64,
}

impl FlowReport {
    /// Error diagnostics across every pass (warnings do not count).
    pub fn error_count(&self) -> usize {
        self.passes.iter().filter_map(|(_, r)| r.as_ref()).map(Report::error_count).sum()
    }
}

/// Why [`check_flow`] could not rebuild an artifact a pass inspects.
#[derive(Debug, Clone)]
pub enum FlowCheckError {
    /// The multilevel placement the `hierarchy` pass validates failed.
    Hierarchy(PlaceError),
    /// The static timing analysis the `timing` pass validates failed.
    Timing(TimingError),
}

impl fmt::Display for FlowCheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowCheckError::Hierarchy(e) => write!(f, "multilevel place: {e}"),
            FlowCheckError::Timing(e) => write!(f, "sta: {e}"),
        }
    }
}

impl std::error::Error for FlowCheckError {}

/// Runs every pass over a flow's input network `net`, its subject
/// graph `g` and its placed netlist `mapped`. Subject graphs with at
/// least `multilevel_threshold` movable nodes take the flow's
/// clustered placement path, so their cluster hierarchy is rebuilt and
/// validated too. The equivalence passes simulate `vectors` random
/// vectors from `seed`.
///
/// # Errors
///
/// [`FlowCheckError`] when the hierarchy or the timing analysis cannot
/// be rebuilt.
pub fn check_flow(
    net: &Network,
    g: &SubjectGraph,
    mapped: &MappedNetwork,
    lib: &Library,
    multilevel_threshold: usize,
    vectors: usize,
    seed: u64,
) -> Result<FlowReport, FlowCheckError> {
    let mut passes = vec![
        ("network", Some(check_network(net))),
        ("subject", Some(check_subject(g))),
        ("decompose-equiv", Some(check_network_subject(net, g, vectors, seed))),
    ];

    let subject_placement = SubjectPlacement::new(g);
    let hierarchy = if subject_placement.problem.movable >= multilevel_threshold {
        let core = Rect::new(0.0, 0.0, 3000.0, 3000.0);
        let mut problem = subject_placement.problem;
        problem.fixed = pads::perimeter_points(core, problem.fixed.len());
        let m = try_multilevel_place(&problem, &MultilevelOptions::for_region(core))
            .map_err(FlowCheckError::Hierarchy)?;
        Some(check_hierarchy(&m.hierarchy, problem.movable, &m.level_positions, core))
    } else {
        None
    };
    passes.push(("hierarchy", hierarchy));

    passes.push(("mapped", Some(check_mapped(mapped, lib))));
    passes.push(("cover-equiv", Some(check_mapped_subject(g, mapped, lib, vectors, seed))));
    // Pads are rescaled onto the final core boundary by the flow, so
    // their bounding box reconstructs the core region.
    let pads = mapped
        .input_positions
        .iter()
        .chain(mapped.output_positions.iter())
        .map(|&(x, y)| Point::new(x, y));
    passes.push(("placement", Rect::bounding(pads).map(|core| check_placement(mapped, lib, core))));

    let sta = try_analyze(mapped, lib, &StaOptions::default()).map_err(FlowCheckError::Timing)?;
    passes.push(("timing", Some(check_timing(mapped, &sta, 0.0))));
    Ok(FlowReport { passes, critical_delay: sta.critical_delay })
}
