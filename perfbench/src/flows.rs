//! The in-process flow workloads: jobs, their untraced runs through
//! `run_flow` / `compare_flows`, the correctness oracle, and the traced
//! stage walk.

use std::sync::Arc;
use std::time::Instant;

use lily_cells::{Library, MappedNetwork};
use lily_core::cover::MapStats;
use lily_core::flow::{Degradation, FlowMapper, FlowMetrics, FlowResult};
use lily_core::stage::{
    AssignPads, Decompose, DetailedPlace, Legalize, Map, PadPlan, PlacedDesign, RouteEstimate, Sta,
    SubjectImage, SubjectPlace,
};
use lily_core::{CutIndex, CutMapper, FlowContext, FlowOptions, MatchIndex};
use lily_netlist::{Network, SubjectGraph};

use crate::trace::Recorder;

/// Which QoR columns a job contributes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Area, chip area and wire length (Table 1 rows).
    Area,
    /// Critical delay (Table 2 rows).
    Delay,
    /// Every column (the single-flow workloads).
    Both,
}

/// One flow job: a network, a library, and either one pipeline or the
/// paper's MIS-vs-Lily comparison.
#[derive(Debug)]
pub struct FlowJob {
    /// Job label (`C5315/area`, `random-dag-5000`, ...).
    pub label: String,
    /// The input network.
    pub net: Network,
    /// The library it maps onto.
    pub lib: Arc<Library>,
    /// Flow options (`mapper` is ignored for comparisons).
    pub options: FlowOptions,
    /// Run `compare_flows` (MIS and Lily) instead of one `run_flow`.
    pub compare: bool,
    /// QoR columns this job feeds.
    pub role: Role,
}

/// The figures a flow's quality is judged by, compared bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Qor {
    /// Mapped cells.
    pub cells: usize,
    /// Bit patterns of instance area, chip area, wire length,
    /// channeled chip area, critical delay and peak congestion.
    pub bits: [u64; 6],
    /// Mapper statistics.
    pub stats: MapStats,
    /// The degradation audit.
    pub degradations: Vec<Degradation>,
}

impl Qor {
    /// The QoR of a finished flow.
    pub fn of(m: &FlowMetrics) -> Self {
        Self {
            cells: m.cells,
            bits: [
                m.instance_area.to_bits(),
                m.chip_area.to_bits(),
                m.wire_length.to_bits(),
                m.chip_area_channeled.to_bits(),
                m.critical_delay.to_bits(),
                m.peak_congestion.to_bits(),
            ],
            stats: m.stats,
            degradations: m.degradations.clone(),
        }
    }
}

/// One untraced job run.
pub struct JobRun {
    /// Wall time of the `run_flow` / `compare_flows` call.
    pub wall_s: f64,
    /// Pipeline results, `(tag, result)`: `mis` then `lily` for a
    /// comparison, the single pipeline otherwise.
    pub results: Vec<(&'static str, FlowResult)>,
}

impl JobRun {
    /// The result of the mapper under test (Lily in a comparison).
    pub fn under_test(&self) -> &FlowResult {
        &self.results.last().expect("a job has at least one pipeline").1
    }

    /// Wall time the flows' own stage tables account for (a shared
    /// prefix counted once).
    pub fn stage_wall_s(&self) -> f64 {
        let total = |r: &FlowResult| r.metrics.stages.total_wall_ns();
        let ns = match self.results.as_slice() {
            [(_, mis), (_, lily)] => {
                let shared: u64 = lily
                    .metrics
                    .stages
                    .records()
                    .iter()
                    .filter(|r| matches!(r.stage, "decompose" | "assign-pads" | "subject-place"))
                    .map(|r| r.wall_ns)
                    .sum();
                total(mis) + total(lily) - shared
            }
            rs => rs.iter().map(|(_, r)| total(r)).sum(),
        };
        ns as f64 / 1e9
    }
}

/// Runs one job through the public entry points, untraced.
///
/// # Errors
///
/// The flow's error, rendered.
pub fn run_job(job: &FlowJob) -> Result<JobRun, String> {
    let t0 = Instant::now();
    let results = if job.compare {
        let cmp = lily_core::compare_flows(&job.net, &job.lib, &job.options)
            .map_err(|e| format!("{}: {e}", job.label))?;
        vec![("mis", cmp.mis), ("lily", cmp.lily)]
    } else {
        let r = lily_core::run_flow(&job.net, &job.lib, &job.options)
            .map_err(|e| format!("{}: {e}", job.label))?;
        vec![(tag(job.options.mapper), r)]
    };
    Ok(JobRun { wall_s: t0.elapsed().as_secs_f64(), results })
}

fn tag(m: FlowMapper) -> &'static str {
    match m {
        FlowMapper::Mis => "mis",
        FlowMapper::Lily => "lily",
        FlowMapper::Cut => "cut",
    }
}

/// The correctness oracle for one mapped netlist: `lily_check`'s
/// structural pass, then random-vector co-simulation of the input
/// network against the subject graph and of the subject graph against
/// the netlist on the same vectors, which together check the netlist
/// against the input network.
///
/// # Errors
///
/// The first failing diagnostics, rendered.
pub fn verify(
    net: &Network,
    g: &SubjectGraph,
    mapped: &MappedNetwork,
    lib: &Library,
    seed: u64,
) -> Result<(), String> {
    let vectors = 256;
    let mut report = lily_check::check_mapped(mapped, lib);
    report.merge(lily_check::check_network_subject(net, g, vectors, seed));
    report.merge(lily_check::check_mapped_subject(g, mapped, lib, vectors, seed));
    if report.has_errors() {
        Err(format!("{report}"))
    } else {
        Ok(())
    }
}

/// Verifies every pipeline of a job run against the job's input.
///
/// # Errors
///
/// The job label and the failing diagnostics.
pub fn verify_run(job: &FlowJob, run: &JobRun, seed: u64) -> Result<(), String> {
    for (flow, r) in &run.results {
        verify(&job.net, &r.artifacts.subject, &r.mapped, &job.lib, seed)
            .map_err(|e| format!("{} ({flow}): {e}", job.label))?;
    }
    Ok(())
}

/// Counters gathered by the traced walk, beside the span tree.
#[derive(Debug, Default, Clone)]
pub struct WalkCounts {
    /// Σ (map stage − the index build that mapper uses), seconds.
    pub cover_s: f64,
    /// Matches enumerated over every map stage.
    pub matches: u64,
    /// Covering scopes over every map stage.
    pub scopes: u64,
    /// Dove reincarnations over every map stage.
    pub reincarnations: u64,
    /// Mapped cells over every pipeline.
    pub cells: u64,
    /// Cuts kept by the cut-index kernel.
    pub cuts_kept: u64,
    /// Cuts pruned by the cut-index kernel.
    pub cuts_pruned: u64,
    /// Nets measured by the Steiner kernel.
    pub nets: u64,
    /// Subject-graph nodes over every decomposition.
    pub subject_nodes: u64,
}

struct Tail {
    tag: &'static str,
    qor: Qor,
    placed: PlacedDesign,
    map_s: f64,
}

/// A job walked stage by stage: its subject graph and one tail per
/// pipeline, kept for the kernel and oracle phase.
pub struct Walked {
    g: Arc<SubjectGraph>,
    tails: Vec<Tail>,
}

impl Walked {
    /// The walk's QoR per pipeline, in [`JobRun::results`] order.
    pub fn qors(&self) -> Vec<Qor> {
        self.tails.iter().map(|t| t.qor.clone()).collect()
    }
}

/// Walks `job` one `FlowContext::run` call at a time under a `flow`
/// span, mirroring `run_flow` / `compare_flows` exactly.
///
/// # Errors
///
/// A stage error, rendered with the job label.
pub fn walk_flow(rec: &mut Recorder, job: &FlowJob) -> Result<Walked, String> {
    rec.set_job(&job.label);
    let lib: &Library = &job.lib;
    rec.span("flow", |rec| -> Result<_, lily_core::MapError> {
        if job.compare {
            let base = job.options;
            let mut shared =
                FlowContext::new(lib, FlowOptions { mapper: FlowMapper::Lily, ..base })
                    .with_flow("shared");
            let mis_ctx = FlowContext::new(lib, FlowOptions { mapper: FlowMapper::Mis, ..base });
            let lily_ctx = FlowContext::new(lib, FlowOptions { mapper: FlowMapper::Lily, ..base });
            let g = rec.span("decompose", |_| shared.run(&Decompose, &job.net))?;
            let plan = rec.span("assign-pads", |_| shared.run(&AssignPads, &*g))?;
            let image = rec.span("subject-place", |_| shared.run(&SubjectPlace, (&*g, &plan)))?;
            let mut tails = Vec::new();
            for mut ctx in [mis_ctx, lily_ctx] {
                ctx.adopt(&shared);
                tails.push(walk_tail(rec, ctx, &g, &plan, Some(&image))?);
            }
            Ok(Walked { g, tails })
        } else {
            let mut ctx = FlowContext::new(lib, job.options);
            let g = rec.span("decompose", |_| ctx.run(&Decompose, &job.net))?;
            let plan = rec.span("assign-pads", |_| ctx.run(&AssignPads, &*g))?;
            let image = if Map::wants_image(lib, &ctx.options) {
                Some(rec.span("subject-place", |_| ctx.run(&SubjectPlace, (&*g, &plan)))?)
            } else {
                None
            };
            let tail = walk_tail(rec, ctx, &g, &plan, image.as_ref())?;
            Ok(Walked { g, tails: vec![tail] })
        }
    })
    .map_err(|e| format!("{}: {e}", job.label))
}

/// Times the kernels beneath a walked job's stages (the index builds
/// beneath `map`, the Steiner lengths beneath `route-estimate`) and the
/// oracle, on the walk's own artifacts, and adds its counters.
///
/// # Errors
///
/// A kernel error or a failed oracle.
pub fn walk_kernels(
    rec: &mut Recorder,
    job: &FlowJob,
    walked: &Walked,
    counts: &mut WalkCounts,
    seed: u64,
) -> Result<(), String> {
    rec.set_job(&job.label);
    let (lib, g): (&Library, &SubjectGraph) = (&job.lib, &walked.g);
    let err = |e: lily_core::MapError| format!("{}: {e}", job.label);
    counts.subject_nodes += g.node_count() as u64;
    rec.span("kernels", |rec| -> Result<(), String> {
        for t in &walked.tails {
            counts.matches += t.qor.stats.matches_enumerated as u64;
            counts.scopes += t.qor.stats.scopes as u64;
            counts.reincarnations += t.qor.stats.lifecycle.reincarnations as u64;
            counts.cells += t.qor.cells as u64;
            let (idx, match_s) = rec.timed("kernel.match-index", |_| MatchIndex::build(g, lib));
            idx.map_err(err)?;
            let config = *CutMapper::new(lib).config();
            let (index, cut_s) = rec.timed("kernel.cut-index", |_| CutIndex::build(g, &config));
            let index = index.map_err(err)?;
            let (matches, conv_s) =
                rec.timed("kernel.cut-matches", |_| lily_core::cut_matches(g, lib, &index));
            matches.map_err(err)?;
            let s = index.stats;
            counts.cuts_kept += s.kept as u64;
            counts.cuts_pruned += (s.pruned_width + s.pruned_dominated + s.pruned_overflow) as u64;
            let own_index_s = if t.tag == "cut" { cut_s + conv_s } else { match_s };
            counts.cover_s += t.map_s - own_index_s;
            let nets = rec.span("kernel.rsmt", |_| {
                let mapped = &t.placed.mapped;
                let nets = mapped.nets();
                let total: f64 = nets
                    .iter()
                    .map(|n| lily_route::rsmt_length(&lily_timing::load::net_points(mapped, n)))
                    .sum();
                std::hint::black_box(total);
                nets.len()
            });
            counts.nets += nets as u64;
        }
        Ok(())
    })?;
    rec.span("verify", |_| {
        walked.tails.iter().try_for_each(|t| {
            verify(&job.net, g, &t.placed.mapped, lib, seed)
                .map_err(|e| format!("{} ({}): {e}", job.label, t.tag))
        })
    })
}

fn walk_tail(
    rec: &mut Recorder,
    mut ctx: FlowContext<'_>,
    g: &Arc<SubjectGraph>,
    plan: &PadPlan,
    image: Option<&SubjectImage>,
) -> Result<Tail, lily_core::MapError> {
    let tag = tag(ctx.options.mapper);
    let (mapping, map_s) = rec.timed("map", |_| ctx.run(&Map, (&**g, plan, image)));
    let mapping = mapping?;
    let stats = mapping.stats;
    let legal = rec.span("legalize", |_| ctx.run(&Legalize, (plan, mapping)))?;
    let placed = rec.span("detailed-place", |_| ctx.run(&DetailedPlace, legal))?;
    let route = rec.span("route-estimate", |_| ctx.run(&RouteEstimate, &placed))?;
    let timing = rec.span("sta", |_| ctx.run(&Sta, &placed))?;
    let metrics = FlowMetrics {
        cells: placed.mapped.cell_count(),
        instance_area: route.instance_area,
        chip_area: route.chip_area,
        wire_length: route.wire_length,
        chip_area_channeled: route.chip_area_channeled,
        critical_delay: timing.sta.critical_delay,
        peak_congestion: route.peak_congestion,
        stats,
        degradations: ctx.degradations,
        stages: ctx.stages,
        retries: ctx.retries,
        deadline_hits: ctx.deadline_hits,
    };
    Ok(Tail { tag, qor: Qor::of(&metrics), placed, map_s })
}
