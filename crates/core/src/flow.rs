//! End-to-end evaluation pipelines (paper Section 5).
//!
//! The paper compares two flows that share every physical design tool:
//!
//! 1. **MIS pipeline** — *"Read in the optimized circuit, run MIS
//!    technology mapper in area and timing mode, write mapped circuit
//!    to the database, assign locations to I/O pads, do detailed
//!    placement and routing."* Pads are assigned *after* mapping; the
//!    mapper never sees them.
//! 2. **Lily pipeline** — *"Read in the optimized circuit, assign
//!    locations to I/O pads, run Lily in area and timing mode, write
//!    mapped circuit to the database, do detailed placement and
//!    routing."*
//!
//! Both finish with the same global placement, row legalization,
//! Steiner-tree + congestion routing estimate, and STA, so the only
//! difference under measurement is the mapper.
//!
//! The pipeline itself lives in [`crate::stage`] as eight typed stages;
//! this module holds the options, the metrics, and the one driver that
//! sequences the stages, [`FlowRun`]: [`run_flow`] for one pipeline and
//! [`compare_flows`] for the paper's MIS-vs-Lily experiment, which
//! shares the upstream artifacts (decomposition, pad assignment,
//! subject placement image) between the two runs, are its plain runs.

use std::path::PathBuf;
use std::sync::Arc;

use crate::checkpoint::CheckpointDir;
use crate::cover::{MapMode, MapStats, Partition};
use crate::error::MapError;
use crate::json::{array, JsonObject};
use crate::lily::LayoutOptions;
use crate::matching::MatchSlot;
use crate::stage::{
    AssignPads, Decompose, DetailedPlace, FlowContext, Legalize, Map, PadPlan, RouteEstimate,
    RouteFigures, Sta, StageMetrics, SubjectImage, SubjectPlace,
};
use lily_cells::{Library, MappedNetwork, SignalSource};
use lily_fault::{FaultPlan, FaultReport};
use lily_netlist::subject::SubjectKind;
use lily_netlist::{Network, SubjectGraph};

pub use crate::stage::mapped_problem;

/// Which mapper drives the flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowMapper {
    /// The wire-blind MIS 2.1 baseline.
    Mis,
    /// The layout-driven Lily mapper.
    Lily,
    /// The cut-enumeration mapper: K-feasible priority cuts matched
    /// through the library's NPN index, costed with Lily's placed
    /// dynamic program.
    Cut,
}

/// Physical-design knobs shared by both pipelines. These rarely change
/// between experiments — the published tables use the defaults — so
/// they nest inside [`FlowOptions`] instead of growing its top level;
/// struct-update syntax on `FlowOptions` leaves all of them intact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhysicalOptions {
    /// Estimated mapped-area per inchoate base gate, in layout grids
    /// (sizes Lily's pre-mapping layout image).
    pub grids_per_base_gate: f64,
    /// Movable-module count at or above which global placement (both
    /// the subject-graph placement and the mapped-netlist re-place)
    /// switches from flat GORDIAN CG to the multilevel clustered
    /// placer. The default sits far above every corpus circuit, so the
    /// published tables keep the flat path bit-for-bit.
    pub multilevel_threshold: usize,
    /// Cell count above which the detailed-place improvement pass is
    /// skipped (legalized positions ship as-is, with an audited
    /// degradation). The greedy improver is O(passes·cells·nets) and
    /// stops paying for itself long before this.
    pub detailed_place_max_cells: usize,
    /// Subject-graph node count above which a cone covering partition
    /// is demoted to maximal trees (with an audited degradation). Logic
    /// cones overlap — one per output, each holding the output's whole
    /// transitive fanin — so their membership bitsets take Θ(outputs ×
    /// nodes) bits and the exit-line matrix Θ(outputs²) entries, which
    /// turns quadratic at scale (the covering sweep itself visits only
    /// new and invalidated nodes). The DAGON tree partition is disjoint
    /// (Σ|tree| = nodes) and keeps covering linear at the cost of
    /// forbidding matches that cross multi-fanout boundaries.
    pub cone_partition_max_nodes: usize,
}

impl Default for PhysicalOptions {
    fn default() -> Self {
        Self {
            grids_per_base_gate: 1.5,
            multilevel_threshold: 5_000,
            detailed_place_max_cells: 25_000,
            cone_partition_max_nodes: 50_000,
        }
    }
}

/// Options of a full evaluation flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowOptions {
    /// Which mapper runs.
    pub mapper: FlowMapper,
    /// Optimization objective.
    pub mode: MapMode,
    /// Covering partition.
    pub partition: Partition,
    /// Lily's layout knobs (ignored by the MIS mapper).
    pub layout: LayoutOptions,
    /// Physical-design knobs shared by both pipelines.
    pub physical: PhysicalOptions,
    /// Inert: no stage reads it. It was the per-cell move budget of
    /// the retired simulated-annealing detailed placer, and stays only
    /// because the repository benchmark's scale-50k workload still
    /// sets it. ROADMAP item 12 deletes it together with that line.
    pub anneal_moves_per_node: Option<u64>,
    /// Post-mapping fanout optimization: nets driving more than this
    /// many sinks are split into inverter-pair buffer trees (the pass
    /// the paper notes Lily lacks, §5). `None` disables (the published
    /// configuration). Applied to both pipelines.
    pub fanout_limit: Option<usize>,
    /// Carry Lily's constructive placement (the `mapPositions`) into
    /// detailed placement instead of re-running global placement on the
    /// mapped netlist (the paper's pipeline); ignored by the MIS flow,
    /// which always needs a fresh global placement.
    pub constructive_placement: bool,
    /// Run the `lily-check` verification passes between stages
    /// (structural invariants plus random-vector equivalence) and abort
    /// with [`MapError::Verify`] when any reports an error. On by
    /// default in debug builds, off in release builds.
    pub verify: bool,
    /// Per-stage wall-clock deadline. Every stage attempt gets a
    /// cancellation token that expires this long after the attempt
    /// starts; cancellable kernels poll it and the attempt fails with
    /// [`MapError::StageDeadline`], counted in
    /// [`FlowMetrics::deadline_hits`]. `None` (the default) disables
    /// deadlines entirely.
    pub stage_deadline: Option<std::time::Duration>,
    /// How many times a stage attempt that failed with a *transient*
    /// error (cancellation, deadline, injected fault, solver
    /// divergence, non-finite value) is retried
    /// before the stage's degraded fallback — and finally the error —
    /// applies. Retries are counted in [`FlowMetrics::retries`].
    pub stage_retries: u32,
}

impl FlowOptions {
    fn base(mapper: FlowMapper, mode: MapMode) -> Self {
        Self {
            mapper,
            mode,
            partition: Partition::Cones,
            layout: LayoutOptions::default(),
            physical: PhysicalOptions::default(),
            fanout_limit: None,
            anneal_moves_per_node: None,
            constructive_placement: true,
            verify: cfg!(debug_assertions),
            stage_deadline: None,
            stage_retries: 1,
        }
    }

    /// The MIS pipeline in area mode (Table 1 left half).
    pub fn mis_area() -> Self {
        Self::base(FlowMapper::Mis, MapMode::Area)
    }

    /// The Lily pipeline in area mode (Table 1 right half).
    pub fn lily_area() -> Self {
        Self::base(FlowMapper::Lily, MapMode::Area)
    }

    /// The MIS pipeline in timing mode (Table 2 left half).
    pub fn mis_delay() -> Self {
        Self::base(FlowMapper::Mis, MapMode::Delay)
    }

    /// The Lily pipeline in timing mode (Table 2 right half).
    pub fn lily_delay() -> Self {
        Self::base(FlowMapper::Lily, MapMode::Delay)
    }

    /// The cut-enumeration pipeline in area mode.
    pub fn cut_area() -> Self {
        Self::base(FlowMapper::Cut, MapMode::Area)
    }

    /// The cut-enumeration pipeline in timing mode.
    pub fn cut_delay() -> Self {
        Self::base(FlowMapper::Cut, MapMode::Delay)
    }

    /// Runs the flow on an optimized network.
    ///
    /// # Errors
    ///
    /// Propagates decomposition and mapping errors.
    pub fn run(&self, net: &Network, lib: &Library) -> Result<FlowMetrics, MapError> {
        Ok(self.run_detailed(net, lib)?.metrics)
    }

    /// Runs the flow, returning the mapped netlist and the shared
    /// artifacts alongside the metrics.
    ///
    /// # Errors
    ///
    /// See [`FlowOptions::run`].
    pub fn run_detailed(&self, net: &Network, lib: &Library) -> Result<FlowResult, MapError> {
        run_flow(net, lib, self)
    }

    /// Runs the flow on an already-decomposed subject graph.
    ///
    /// Pad positions are assigned once, before mapping, from the
    /// inchoate network's connectivity, and are shared by both
    /// pipelines; the mapped netlist is then globally placed and
    /// legalized with the same tools in both pipelines, so the mapper
    /// is the only variable under measurement. (The paper's MIS
    /// pipeline assigned pads after mapping with the same tool; pinning
    /// them to identical positions removes a noise source our simpler
    /// detailed placer cannot absorb — see DESIGN.md.)
    ///
    /// # Errors
    ///
    /// See [`FlowOptions::run`]. Recoverable trouble (a diverging
    /// placement solve, non-finite positions, a failing wire-load
    /// model) does *not* error: the flow steps down a degradation ladder
    /// and records each step in [`FlowMetrics::degradations`].
    pub fn run_subject(&self, g: &SubjectGraph, lib: &Library) -> Result<FlowResult, MapError> {
        let mut ctx = FlowContext::new(lib, *self);
        let artifacts = upstream(&mut ctx, Arc::new(g.clone()))?;
        downstream(ctx, artifacts)
    }
}

/// Runs one full pipeline: decomposition through STA.
///
/// # Errors
///
/// See [`FlowOptions::run`].
pub fn run_flow(
    net: &Network,
    lib: &Library,
    options: &FlowOptions,
) -> Result<FlowResult, MapError> {
    FlowRun::default().single(net, lib, options).0
}

/// Runs the paper's MIS-vs-Lily comparison on one network, *sharing*
/// the upstream artifacts the two pipelines have in common: the
/// decomposition, the pad assignment, and the subject placement image
/// are computed once and handed (by `Arc`) to both runs, so the
/// comparison measures the mapper and nothing else. `base.mapper` is
/// ignored; both pipelines inherit every other option.
///
/// The per-stage metrics of both results include the shared stages
/// (both sides adopt the shared records).
///
/// After the shared upstream fork the two pipeline tails are
/// independent (they only read the `Arc`-shared artifacts), so they run
/// concurrently on the `lily-par` runtime when more than one thread is
/// configured. Each tail is itself deterministic, so the comparison is
/// byte-identical to the sequential MIS-then-Lily order at any thread
/// count.
///
/// # Errors
///
/// See [`FlowOptions::run`]; the first failing pipeline aborts (when
/// both tails fail concurrently, the MIS error is reported, matching
/// the sequential order).
pub fn compare_flows(
    net: &Network,
    lib: &Library,
    base: &FlowOptions,
) -> Result<FlowComparison, MapError> {
    FlowRun::default().compare(net, lib, base).0
}

/// The policies a flow runs under — the one entry point behind
/// [`run_flow`], [`compare_flows`], `lily-check`, `lily-fuzz` and
/// `lily-serve`. The default runs plainly: no faults, no checkpoint.
///
/// Every policy is applied by [`FlowContext::run`] around each stage;
/// the stage sequence itself is written once, as an upstream half
/// (assign-pads, subject-place) and a downstream half (map through
/// STA, and the metrics).
#[derive(Debug, Clone, Default)]
pub struct FlowRun {
    /// A deterministic fault-injection plan: every flow context (one
    /// for a single flow; the shared prefix and both tails of a
    /// comparison) arms its own copy, so a fault aimed at a downstream
    /// stage fires in *both* comparison tails. The same `(plan,
    /// options, net)` triple replays bit-exactly at any thread count.
    pub faults: FaultPlan,
    /// A directory to checkpoint every completed stage into and resume
    /// from (see [`crate::checkpoint`]). Single flows only.
    pub checkpoint: Option<PathBuf>,
    /// A stage to deliberately stop after, once it is checkpointed
    /// (`lily-check --kill-after`); ignored without a checkpoint.
    pub interrupt_after: Option<String>,
}

impl FlowRun {
    /// Runs one full pipeline, returning its result together with the
    /// report of faults that actually fired.
    ///
    /// # Errors
    ///
    /// See [`FlowOptions::run`], plus [`MapError::Checkpoint`] for an
    /// unusable checkpoint directory and [`MapError::Interrupted`] after
    /// the interrupt stage.
    pub fn single(
        &self,
        net: &Network,
        lib: &Library,
        options: &FlowOptions,
    ) -> (Result<FlowResult, MapError>, FaultReport) {
        let mut ctx = FlowContext::new(lib, *options).with_faults(self.faults.clone());
        let log = ctx.fault_log();
        let result = (|| {
            if let Some(dir) = &self.checkpoint {
                let dir = CheckpointDir::open(dir, net, options)?
                    .interrupt_after(self.interrupt_after.as_deref());
                ctx = ctx.with_checkpoint(dir);
            }
            let g = ctx.run(&Decompose, net)?;
            let artifacts = upstream(&mut ctx, g)?;
            downstream(ctx, artifacts)
        })();
        (result, log.report())
    }

    /// Runs the [`compare_flows`] comparison, returning its result
    /// together with the merged fired-fault report (shared, then MIS,
    /// then Lily — a deterministic order at any thread count).
    ///
    /// # Errors
    ///
    /// See [`compare_flows`], plus [`MapError::Checkpoint`] when a
    /// checkpoint directory is configured: a comparison is three flow
    /// contexts, which one directory cannot resume.
    pub fn compare(
        &self,
        net: &Network,
        lib: &Library,
        base: &FlowOptions,
    ) -> (Result<FlowComparison, MapError>, FaultReport) {
        let context = |mapper| {
            FlowContext::new(lib, FlowOptions { mapper, ..*base }).with_faults(self.faults.clone())
        };
        let mut shared = context(FlowMapper::Lily).with_flow("shared");
        let (mut mis, mut lily) = (context(FlowMapper::Mis), context(FlowMapper::Lily));
        let logs = [shared.fault_log(), mis.fault_log(), lily.fault_log()];
        let result = (|| {
            if self.checkpoint.is_some() {
                return Err(MapError::Checkpoint {
                    context: "compare",
                    message: "checkpointing runs single flows only".to_string(),
                });
            }
            let g = shared.run(&Decompose, net)?;
            let artifacts = upstream(&mut shared, g)?;
            mis.adopt(&shared);
            lily.adopt(&shared);
            // The tails hold the shared match slot from here on.
            shared.matches = MatchSlot::default();
            let mis_artifacts = artifacts.clone();
            // `join` may run a tail on a pool thread whose thread-local
            // ambient token is fresh; re-install the caller's token in
            // both closures so an outer cancellation scope (a serving
            // deadline, a disconnect) reaches both pipeline tails
            // wherever they run.
            let (ambient_mis, ambient_lily) =
                (lily_fault::ambient_token(), lily_fault::ambient_token());
            let (mis, lily) = lily_par::join(
                &lily_par::ParOptions::current(),
                move || {
                    let _scope = lily_fault::set_ambient(ambient_mis);
                    downstream(mis, mis_artifacts)
                },
                move || {
                    let _scope = lily_fault::set_ambient(ambient_lily);
                    downstream(lily, artifacts)
                },
            );
            let (mis, lily) = (mis?, lily?);
            let degradations = merge_audits(&mis.metrics.degradations, &lily.metrics.degradations);
            Ok(FlowComparison { mis, lily, degradations })
        })();
        let fired = logs.iter().flat_map(|log| log.report().fired).collect();
        (result, FaultReport { fired })
    }
}

/// Merges the two pipelines' audit trails into one deterministic
/// sequence: the shared upstream entries (present in both, taken once)
/// first, then the MIS tail's own entries, then Lily's. Within a flow,
/// record order is preserved; across flows the tag decides, so the
/// merged audit is byte-identical at any thread count.
fn merge_audits(mis: &[Degradation], lily: &[Degradation]) -> Vec<Degradation> {
    let mut merged: Vec<Degradation> =
        mis.iter().chain(lily.iter().filter(|d| d.flow != "shared")).cloned().collect();
    let rank = |flow: &str| match flow {
        "shared" => 0u8,
        "mis" => 1,
        _ => 2,
    };
    merged.sort_by_key(|d| rank(d.flow));
    merged
}

/// The upstream half of a pipeline, after decomposition: pad
/// assignment, then the subject placement when the configured mapper
/// consumes the layout image (the MIS pipeline records seven stages). A
/// subject graph with no base gates — every output driven directly by
/// an input — has nothing to place and skips both (`pads` is `None`).
///
/// # Errors
///
/// [`MapError::DegenerateInput`] for a subject graph without outputs,
/// plus the stages' errors.
fn upstream(ctx: &mut FlowContext<'_>, g: Arc<SubjectGraph>) -> Result<FlowArtifacts, MapError> {
    if g.outputs().is_empty() {
        return Err(MapError::DegenerateInput {
            stage: "flow",
            message: format!("subject graph `{}` has no primary outputs", g.name()),
        });
    }
    if g.base_gate_count() == 0 {
        return Ok(FlowArtifacts { subject: g, pads: None, image: None });
    }
    let plan = Arc::new(ctx.run(&AssignPads, &*g)?);
    let image = if Map::wants_image(ctx.lib, &ctx.options) {
        Some(Arc::new(ctx.run(&SubjectPlace, (&*g, &*plan))?))
    } else {
        None
    };
    Ok(FlowArtifacts { subject: g, pads: Some(plan), image })
}

/// The downstream half of a pipeline: map through STA over the upstream
/// artifacts, and the flow's metrics. Without a pad plan (nothing to
/// map) the outputs are wired straight to the inputs, every physical
/// stage is skipped, and every metric is zero.
fn downstream(mut ctx: FlowContext<'_>, artifacts: FlowArtifacts) -> Result<FlowResult, MapError> {
    let g = &*artifacts.subject;
    let (mapped, stats, route, critical_delay) = match artifacts.pads.as_deref() {
        None => (passthrough(g), MapStats::default(), RouteFigures::default(), 0.0),
        Some(plan) => {
            let mapping = ctx.run(&Map, (g, plan, artifacts.image.as_deref()))?;
            // No later stage reads the match index: let go of it, so it
            // is freed once every tail sharing it has mapped.
            ctx.matches = MatchSlot::default();
            let legal = ctx.run(&Legalize, (plan, mapping))?;
            let placed = ctx.run(&DetailedPlace, legal)?;
            let route = ctx.run(&RouteEstimate, &placed)?;
            let timing = ctx.run(&Sta, &placed)?;
            (placed.mapped, placed.stats, route, timing.sta.critical_delay)
        }
    };
    let metrics = FlowMetrics {
        cells: mapped.cell_count(),
        instance_area: route.instance_area,
        chip_area: route.chip_area,
        wire_length: route.wire_length,
        chip_area_channeled: route.chip_area_channeled,
        critical_delay,
        peak_congestion: route.peak_congestion,
        stats,
        degradations: ctx.degradations,
        stages: ctx.stages,
        retries: ctx.retries,
        deadline_hits: ctx.deadline_hits,
    };
    Ok(FlowResult { metrics, mapped, artifacts })
}

/// The netlist of a subject graph with no base gates: every output
/// wired straight to the input that drives it.
fn passthrough(g: &SubjectGraph) -> MappedNetwork {
    let mut mapped = MappedNetwork::new(g.name(), g.input_names().to_vec());
    let input_of: std::collections::BTreeMap<usize, usize> = g
        .inputs()
        .iter()
        .enumerate()
        .filter_map(|(pi, &id)| match g.kind(id) {
            SubjectKind::Input(_) => Some((id.index(), pi)),
            _ => None,
        })
        .collect();
    for o in g.outputs() {
        // With zero base gates every output driver is an input node.
        let pi = input_of[&o.driver.index()];
        mapped.add_output(o.name.clone(), SignalSource::Input(pi));
    }
    mapped
}

/// One recorded step down the graceful-degradation ladder: which stage
/// hit trouble, which cheaper strategy replaced it, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// Which pipeline recorded the entry: `"mis"`, `"lily"`, or
    /// `"shared"` for the upstream prefix both pipelines have in
    /// common under [`compare_flows`]. Entries are stamped at record
    /// time so concurrent pipeline tails can be merged into one
    /// deterministic audit regardless of thread count.
    pub flow: &'static str,
    /// The stage that could not run as configured (`"lily-global-place"`,
    /// `"mapped-global-place"`, `"map"`, `"detailed-placement"`,
    /// `"detailed-place"`, `"wire-load"`, or
    /// `"checkpoint"` for a stored stage that could not be restored).
    pub stage: &'static str,
    /// The fallback strategy the flow used instead.
    pub fallback: &'static str,
    /// Human-readable cause (usually the underlying error's message).
    pub detail: String,
}

impl std::fmt::Display for Degradation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {} degraded to {}: {}", self.flow, self.stage, self.fallback, self.detail)
    }
}

/// The measured outcome of a flow — one table cell group of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowMetrics {
    /// Mapped cell count.
    pub cells: usize,
    /// Total instance (active cell) area, µm².
    pub instance_area: f64,
    /// Final chip area (cells + routing), µm².
    pub chip_area: f64,
    /// Total interconnection length after the routing estimate, µm.
    pub wire_length: f64,
    /// Final chip area under the channel-density model (rows plus
    /// channel tracks; the YACR-era alternative to the flat
    /// wire-length × pitch model), µm².
    pub chip_area_channeled: f64,
    /// Longest path delay including wire delay, ns.
    pub critical_delay: f64,
    /// Peak congestion-bin utilization.
    pub peak_congestion: f64,
    /// Mapper statistics.
    pub stats: MapStats,
    /// Audit trail of every graceful-degradation step the flow took
    /// (empty when every stage ran as configured).
    pub degradations: Vec<Degradation>,
    /// Per-stage wall-time and artifact-size records, in execution
    /// order.
    pub stages: StageMetrics,
    /// How many stage attempts were retried after transient failures
    /// (see [`FlowOptions::stage_retries`]).
    pub retries: u32,
    /// How many stage attempts failed against the per-stage deadline
    /// (see [`FlowOptions::stage_deadline`]).
    pub deadline_hits: u32,
}

impl FlowMetrics {
    /// Instance area in the paper's mm² units.
    pub fn instance_area_mm2(&self) -> f64 {
        self.instance_area / 1.0e6
    }

    /// Chip area in mm².
    pub fn chip_area_mm2(&self) -> f64 {
        self.chip_area / 1.0e6
    }

    /// Channel-model chip area in mm².
    pub fn chip_area_channeled_mm2(&self) -> f64 {
        self.chip_area_channeled / 1.0e6
    }

    /// Wire length in mm.
    pub fn wire_length_mm(&self) -> f64 {
        self.wire_length / 1.0e3
    }

    /// Serializes the metrics — including the per-stage table and the
    /// degradation audit — as a JSON object (via the workspace's
    /// dependency-free [`crate::json`] writer).
    pub fn to_json(&self) -> String {
        let stages = array(self.stages.records().iter().map(|r| {
            JsonObject::new()
                .string("stage", r.stage)
                .uint("wall_ns", r.wall_ns)
                .uint("size", r.size as u64)
                .string("unit", r.unit)
                .finish()
        }));
        let degradations = array(self.degradations.iter().map(|d| {
            JsonObject::new()
                .string("flow", d.flow)
                .string("stage", d.stage)
                .string("fallback", d.fallback)
                .string("detail", &d.detail)
                .finish()
        }));
        let mut stats = JsonObject::new()
            .uint("matches_enumerated", self.stats.matches_enumerated as u64)
            .uint("scopes", self.stats.scopes as u64)
            .uint("dp_solves", self.stats.dp_solves as u64)
            .uint("dp_reused", self.stats.dp_reused as u64)
            .uint("hatched", self.stats.lifecycle.hatched as u64)
            .uint("doves", self.stats.lifecycle.doves as u64)
            .uint("hawks", self.stats.lifecycle.hawks as u64)
            .uint("reincarnations", self.stats.lifecycle.reincarnations as u64);
        if let Some(cost) = self.stats.ordering_cost {
            stats = stats.uint("ordering_cost", cost as u64);
        }
        if let Some(c) = &self.stats.cuts {
            stats = stats.raw("cuts", &crate::stage::codec::cut_stats_json(c));
        }
        JsonObject::new()
            .uint("cells", self.cells as u64)
            .uint("threads_used", self.stages.threads_used() as u64)
            .uint("retries", u64::from(self.retries))
            .uint("deadline_hits", u64::from(self.deadline_hits))
            .float("instance_area_um2", self.instance_area)
            .float("chip_area_um2", self.chip_area)
            .float("wire_length_um", self.wire_length)
            .float("chip_area_channeled_um2", self.chip_area_channeled)
            .float("critical_delay_ns", self.critical_delay)
            .float("peak_congestion", self.peak_congestion)
            .raw("stats", &stats.finish())
            .raw("degradations", &degradations)
            .raw("stages", &stages)
            .finish()
    }
}

/// The shared upstream artifacts of a flow run, `Arc`-owned so
/// [`compare_flows`] can hand the same instances to both pipelines.
#[derive(Debug, Clone)]
pub struct FlowArtifacts {
    /// The decomposed subject graph.
    pub subject: Arc<SubjectGraph>,
    /// The pad plan (`None` for trivial flows that skipped the physical
    /// stages).
    pub pads: Option<Arc<PadPlan>>,
    /// The subject placement image (`None` when the mapper did not
    /// consume it).
    pub image: Option<Arc<SubjectImage>>,
}

/// A flow's metrics plus the final netlist and shared artifacts.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// Measured metrics.
    pub metrics: FlowMetrics,
    /// The placed mapped netlist.
    pub mapped: MappedNetwork,
    /// The upstream artifacts the run produced (shared with the sibling
    /// pipeline under [`compare_flows`]).
    pub artifacts: FlowArtifacts,
}

/// Both pipelines' results on one network, upstream artifacts shared.
#[derive(Debug, Clone)]
pub struct FlowComparison {
    /// The wire-blind MIS pipeline's result.
    pub mis: FlowResult,
    /// The layout-driven Lily pipeline's result.
    pub lily: FlowResult,
    /// The merged degradation audit of both pipelines, in the
    /// deterministic shared → MIS → Lily order (see
    /// [`Degradation::flow`]); identical at any thread count.
    pub degradations: Vec<Degradation>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use lily_cells::mapped::equiv_mapped_subject;
    use lily_netlist::decompose::{decompose, DecomposeOrder};
    use lily_workloads::structured::flow_fixture;

    #[test]
    fn both_flows_produce_equivalent_netlists() {
        let lib = Library::big();
        let net = flow_fixture();
        let g = decompose(&net, DecomposeOrder::Balanced).unwrap();
        for opts in [FlowOptions::mis_area(), FlowOptions::lily_area(), FlowOptions::cut_area()] {
            let r = opts.run_subject(&g, &lib).unwrap();
            assert!(equiv_mapped_subject(&g, &r.mapped, &lib, 128, 21));
            assert!(r.metrics.cells > 0);
            assert!(r.metrics.instance_area > 0.0);
            assert!(r.metrics.chip_area > r.metrics.instance_area);
            assert!(r.metrics.wire_length > 0.0);
            if opts.mapper == FlowMapper::Cut {
                let cuts = r.metrics.stats.cuts.expect("cut flow records cut stats");
                assert!(cuts.kept > 0);
                assert!(cuts.max_per_node >= 1);
            } else {
                assert!(r.metrics.stats.cuts.is_none());
            }
        }
    }

    #[test]
    fn delay_flows_report_positive_delay() {
        let lib = Library::big();
        let net = flow_fixture();
        for opts in [FlowOptions::mis_delay(), FlowOptions::lily_delay(), FlowOptions::cut_delay()]
        {
            let m = opts.run(&net, &lib).unwrap();
            assert!(m.critical_delay > 0.0);
        }
    }

    #[test]
    fn metrics_unit_helpers() {
        let m = FlowMetrics {
            cells: 1,
            instance_area: 2.5e6,
            chip_area: 5.0e6,
            wire_length: 1234.0,
            chip_area_channeled: 6.0e6,
            critical_delay: 1.0,
            peak_congestion: 0.5,
            stats: MapStats::default(),
            degradations: vec![],
            stages: StageMetrics::default(),
            retries: 0,
            deadline_hits: 0,
        };
        assert!((m.instance_area_mm2() - 2.5).abs() < 1e-12);
        assert!((m.chip_area_mm2() - 5.0).abs() < 1e-12);
        assert!((m.wire_length_mm() - 1.234).abs() < 1e-12);
    }

    #[test]
    fn flows_are_deterministic() {
        let lib = Library::big();
        let net = flow_fixture();
        let a = FlowOptions::lily_area().run(&net, &lib).unwrap();
        let b = FlowOptions::lily_area().run(&net, &lib).unwrap();
        assert_eq!(a.cells, b.cells);
        assert!((a.wire_length - b.wire_length).abs() < 1e-9);
        assert!((a.critical_delay - b.critical_delay).abs() < 1e-9);
    }

    #[test]
    fn stage_metrics_cover_the_pipeline() {
        let lib = Library::big();
        let net = flow_fixture();
        let lily = FlowOptions::lily_area().run(&net, &lib).unwrap();
        let mis = FlowOptions::mis_area().run(&net, &lib).unwrap();
        let lily_names: Vec<&str> = lily.stages.records().iter().map(|r| r.stage).collect();
        assert_eq!(
            lily_names,
            [
                "decompose",
                "assign-pads",
                "subject-place",
                "map",
                "legalize",
                "detailed-place",
                "route-estimate",
                "sta"
            ]
        );
        // The MIS pipeline has no subject placement to run.
        let mis_names: Vec<&str> = mis.stages.records().iter().map(|r| r.stage).collect();
        assert!(!mis_names.contains(&"subject-place"));
        assert_eq!(mis_names.len(), 7);
        for r in lily.stages.records() {
            assert!(r.wall_ns > 0, "{} reported zero wall time", r.stage);
        }
        assert_eq!(lily.stages.get("map").unwrap().size, lily.cells);
    }

    #[test]
    fn metrics_json_is_well_formed() {
        let lib = Library::big();
        let net = flow_fixture();
        let m = FlowOptions::lily_area().run(&net, &lib).unwrap();
        let json = m.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for stage in ["decompose", "subject-place", "sta"] {
            assert!(json.contains(&format!("\"stage\":\"{stage}\"")), "{stage} missing: {json}");
        }
        assert!(json.contains("\"cells\":"));
        assert!(json.contains("\"threads_used\":"));
        assert!(!json.contains("\"wall_ns\":0,"));
    }

    #[test]
    fn compare_flows_is_identical_at_any_thread_count() {
        let lib = Library::big();
        let net = flow_fixture();
        lily_par::set_threads(Some(1));
        let seq = compare_flows(&net, &lib, &FlowOptions::lily_area()).unwrap();
        for threads in [2usize, 8] {
            lily_par::set_threads(Some(threads));
            let par = compare_flows(&net, &lib, &FlowOptions::lily_area()).unwrap();
            for (s, p) in [(&seq.mis, &par.mis), (&seq.lily, &par.lily)] {
                assert_eq!(s.metrics.cells, p.metrics.cells, "threads={threads}");
                assert_eq!(
                    s.metrics.wire_length.to_bits(),
                    p.metrics.wire_length.to_bits(),
                    "threads={threads}"
                );
                assert_eq!(
                    s.metrics.critical_delay.to_bits(),
                    p.metrics.critical_delay.to_bits(),
                    "threads={threads}"
                );
                assert_eq!(s.mapped.cell_count(), p.mapped.cell_count(), "threads={threads}");
                assert_eq!(
                    s.metrics.chip_area.to_bits(),
                    p.metrics.chip_area.to_bits(),
                    "threads={threads}"
                );
            }
        }
        lily_par::set_threads(None);
    }

    #[test]
    fn compare_flows_shares_upstream_artifacts() {
        let lib = Library::big();
        let net = flow_fixture();
        let cmp = compare_flows(&net, &lib, &FlowOptions::lily_area()).unwrap();
        assert!(Arc::ptr_eq(&cmp.mis.artifacts.subject, &cmp.lily.artifacts.subject));
        assert!(Arc::ptr_eq(
            cmp.mis.artifacts.pads.as_ref().unwrap(),
            cmp.lily.artifacts.pads.as_ref().unwrap()
        ));
        assert!(Arc::ptr_eq(
            cmp.mis.artifacts.image.as_ref().unwrap(),
            cmp.lily.artifacts.image.as_ref().unwrap()
        ));
        // Shared upstream changes nothing measurable: each side matches
        // its standalone run.
        let solo_mis = FlowOptions::mis_area().run(&net, &lib).unwrap();
        let solo_lily = FlowOptions::lily_area().run(&net, &lib).unwrap();
        assert_eq!(cmp.mis.metrics.cells, solo_mis.cells);
        assert_eq!(cmp.mis.metrics.wire_length.to_bits(), solo_mis.wire_length.to_bits());
        assert_eq!(cmp.lily.metrics.cells, solo_lily.cells);
        assert_eq!(cmp.lily.metrics.wire_length.to_bits(), solo_lily.wire_length.to_bits());
    }

    /// A small network under a name no other test uses, so the build
    /// log can be counted per test.
    fn named_network(name: &str) -> Network {
        use lily_netlist::NodeFunc;
        let mut net = Network::new(name);
        let ins: Vec<_> = (0..4).map(|i| net.add_input(format!("i{i}"))).collect();
        let g1 = net.add_node("g1", NodeFunc::And, vec![ins[0], ins[1]]).unwrap();
        let g2 = net.add_node("g2", NodeFunc::Xor, vec![g1, ins[2]]).unwrap();
        let g3 = net.add_node("g3", NodeFunc::Or, vec![g2, ins[3], g1]).unwrap();
        net.add_output("y1", g2);
        net.add_output("y2", g3);
        net
    }

    /// How many structural match indexes were built for graph `name`.
    fn builds_of(name: &str) -> usize {
        let log = crate::matching::BUILDS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        log.iter().filter(|n| *n == name).count()
    }

    #[test]
    fn a_comparison_builds_the_structural_index_once() {
        let lib = Library::big_1u();
        for threads in [1usize, 2] {
            lily_par::set_threads(Some(threads));
            for (mode, base) in
                [("area", FlowOptions::lily_area()), ("delay", FlowOptions::lily_delay())]
            {
                let name = format!("build-once-{mode}-{threads}");
                let cmp = compare_flows(&named_network(&name), &lib, &base).unwrap();
                assert!(cmp.mis.metrics.cells > 0 && cmp.lily.metrics.cells > 0);
                assert_eq!(builds_of(&name), 1, "{name}: both tails share one index");
            }
        }
        lily_par::set_threads(None);
    }

    #[test]
    fn a_context_reused_on_another_graph_rebuilds_its_index() {
        let lib = Library::big();
        let mut ctx = FlowContext::new(&lib, FlowOptions::mis_area());
        let (first, second) = (named_network("reuse-first"), named_network("reuse-second"));
        let g1 = ctx.run(&Decompose, &first).unwrap();
        let g2 = ctx.run(&Decompose, &second).unwrap();
        let plan1 = ctx.run(&AssignPads, &*g1).unwrap();
        let plan2 = ctx.run(&AssignPads, &*g2).unwrap();
        let maps = [
            ctx.run(&Map, (&*g1, &plan1, None)).unwrap(),
            ctx.run(&Map, (&*g1, &plan1, None)).unwrap(),
            ctx.run(&Map, (&*g2, &plan2, None)).unwrap(),
        ];
        assert_eq!(builds_of("reuse-first"), 1, "the same graph reuses its index");
        assert_eq!(builds_of("reuse-second"), 1, "another graph gets its own");
        for (m, g) in maps.iter().zip([&g1, &g1, &g2]) {
            let fresh = crate::MisMapper::new(&lib).map(g).unwrap().mapped;
            let cells = |n: &MappedNetwork| -> Vec<_> {
                n.cells().iter().map(|c| (c.gate, c.fanins.clone())).collect()
            };
            assert_eq!(cells(&m.mapped), cells(&fresh), "{}", g.name());
        }
    }
}
