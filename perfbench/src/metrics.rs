//! Workloads, the metrics each run reports, and the runs that measure
//! them.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use lily_cells::Library;
use lily_core::json::JsonObject;
use lily_core::FlowOptions;

use crate::flows::{self, FlowJob, Qor, Role, WalkCounts};
use crate::inputs;
use crate::serve::{self, MixJob};
use crate::stats::{self, median};
use crate::trace::Recorder;

/// Nominal seconds of one pass over a flow workload's jobs on a 2-vCPU
/// VM. A run of `seconds` makes `round(seconds / PASS_S)` passes, at
/// least one: a count set by `--seconds`, not by how fast the machine
/// happens to be, so the first (cold) pass weighs the same in every run.
pub const PASS_S: f64 = 10.0;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;

/// End-to-end metrics (`--trace 0`), every workload: name and unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("flow_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_fraction", "ratio"),
    ("instance_area_mm2", "mm2"),
    ("chip_area_mm2", "mm2"),
    ("wire_length_mm", "mm"),
    ("critical_delay_ns", "ns"),
];

/// Per-layer metrics (`--trace 1`), every workload: name and unit.
pub const PER_LAYER: [(&str, &str); 24] = [
    ("decompose.s", "s"),
    ("assign_pads.s", "s"),
    ("subject_place.s", "s"),
    ("map.s", "s"),
    ("legalize.s", "s"),
    ("detailed_place.s", "s"),
    ("route_estimate.s", "s"),
    ("sta.s", "s"),
    ("cover.s", "s"),
    ("match_index.s", "s"),
    ("cut_index.s", "s"),
    ("route.rsmt_s", "s"),
    ("verify.s", "s"),
    ("job.overhead_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("stage_sum_ratio", "ratio"),
    ("map.matches", "count"),
    ("map.scopes", "count"),
    ("map.cells", "count"),
    ("cuts.kept", "count"),
    ("cuts.pruned", "count"),
    ("cuts.kept_ratio", "ratio"),
    ("route.nets", "count"),
    ("decompose.subject_nodes", "count"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Tables 1 and 2 of the paper, one circuit at a time.
    PaperTables,
    /// One cut-area flow on a 5 000-node random DAG.
    Cones5k,
    /// One cut-area flow on a 50 000-node random DAG.
    Scale50k,
    /// Small mixed requests against an in-process server.
    ServeMix,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] =
        [Workload::PaperTables, Workload::Cones5k, Workload::Scale50k, Workload::ServeMix];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperTables => "paper-tables",
            Workload::Cones5k => "cones-5k",
            Workload::Scale50k => "scale-50k",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `LILY_THREADS` the workload runs at.
    pub fn threads(self) -> usize {
        match self {
            Workload::PaperTables | Workload::Cones5k => 1,
            Workload::Scale50k | Workload::ServeMix => 2,
        }
    }
}

/// What one run found.
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Jobs attempted.
    pub attempted: usize,
    /// Jobs that failed or returned a wrong answer.
    pub failed: usize,
    /// `(name, unit, value)`, in declaration order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Ungated figures, stamp and failures, as a JSON object.
    pub report: String,
    /// Human-readable lines (standard error).
    pub human: Vec<String>,
    /// The span tree of a traced run.
    pub spans: Option<String>,
}

impl Outcome {
    /// The result object the driver reads.
    pub fn result_json(&self) -> String {
        let mut m = JsonObject::new();
        for &(name, unit, value) in &self.metrics {
            m = m.raw(name, &JsonObject::new().float("value", value).string("unit", unit).finish());
        }
        JsonObject::new()
            .raw("correct", if self.correct { "true" } else { "false" })
            .uint("attempted", self.attempted as u64)
            .uint("failed", self.failed as u64)
            .raw("metrics", &m.finish())
            .finish()
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Fills `declared` from `values` in declaration order. A missing or
/// non-finite value is a harness bug, and so is a time metric that
/// copies another (see [`copies`]).
fn collect(
    declared: &[(&'static str, &'static str)],
    values: &[(&str, f64)],
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let out: Vec<(&'static str, &'static str, f64)> = declared
        .iter()
        .map(|&(name, unit)| {
            let v = values
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .ok_or(format!("metric `{name}` was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric `{name}` is not finite ({v})"));
            }
            Ok((name, unit, v))
        })
        .collect::<Result<_, String>>()?;
    let timed: Vec<(&str, f64)> = out
        .iter()
        .filter(|(_, unit, _)| matches!(*unit, "s" | "ms"))
        .map(|&(n, _, v)| (n, v))
        .collect();
    match copies(&timed).first() {
        Some((a, b)) => Err(format!("`{a}` is an arithmetic copy of `{b}`")),
        None => Ok(out),
    }
}

/// Pairs of metrics where one is the other, a unit rescaling of it
/// (×1000), or its reciprocal: a metric that adds nothing.
fn copies<'a>(values: &[(&'a str, f64)]) -> Vec<(&'a str, &'a str)> {
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * x.abs().max(y.abs());
    let mut out = Vec::new();
    for (i, &(a, x)) in values.iter().enumerate() {
        for &(b, y) in &values[i + 1..] {
            if close(x, y) || close(x, y * 1e3) || close(y, x * 1e3) || close(x * y, 1.0) {
                out.push((a, b));
            }
        }
    }
    out
}

/// Runs one workload once.
///
/// # Errors
///
/// A harness failure (set-up, transport); wrong answers are reported
/// through [`Outcome::correct`], not raised.
pub fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
) -> Result<Outcome, String> {
    match (w, trace) {
        (Workload::ServeMix, false) => serve_untraced(seed, seconds, out_dir),
        (Workload::ServeMix, true) => serve_traced(seed, seconds, out_dir),
        (_, false) => flow_untraced(w, seed, seconds),
        (_, true) => flow_traced(w, seed),
    }
}

// ---------------------------------------------------------------------
// Flow workloads
// ---------------------------------------------------------------------

fn built(lib: Library) -> Arc<Library> {
    lib.npn();
    Arc::new(lib)
}

/// Generates the workload's jobs and builds its libraries, then runs a
/// small warm-up flow on each library so lazy set-up is paid here.
fn flow_setup(w: Workload, seed: u64) -> Result<Vec<FlowJob>, String> {
    let single = |label: String, net, lib: &Arc<Library>, options| FlowJob {
        label,
        net,
        lib: Arc::clone(lib),
        options,
        compare: false,
        role: Role::Both,
    };
    let (jobs, warm) = match w {
        Workload::PaperTables => {
            let big = built(Library::big());
            let big_1u = built(Library::big_1u());
            let circuits = inputs::paper_circuits(seed);
            let mut jobs = Vec::new();
            for c in &circuits {
                jobs.push(FlowJob {
                    label: format!("{}/area", c.name),
                    net: c.net.clone(),
                    lib: Arc::clone(&big),
                    options: FlowOptions::lily_area(),
                    compare: true,
                    role: Role::Area,
                });
            }
            for c in circuits.into_iter().filter(|c| c.in_table2) {
                jobs.push(FlowJob {
                    label: format!("{}/delay", c.name),
                    net: c.net,
                    lib: Arc::clone(&big_1u),
                    options: FlowOptions::lily_delay(),
                    compare: true,
                    role: Role::Delay,
                });
            }
            (jobs, vec![(big, FlowOptions::lily_area()), (big_1u, FlowOptions::lily_delay())])
        }
        Workload::Cones5k => {
            let big = built(Library::big());
            let options = FlowOptions::cut_area();
            let net = inputs::random_dag(5_000, seed);
            (vec![single("random-dag-5000".into(), net, &big, options)], vec![(big, options)])
        }
        Workload::Scale50k => {
            let big = built(Library::big());
            let mut options = FlowOptions::cut_area();
            options.anneal_moves_per_node = Some(64);
            let net = inputs::random_dag(50_000, seed);
            (vec![single("random-dag-50000".into(), net, &big, options)], vec![(big, options)])
        }
        Workload::ServeMix => unreachable!("serve-mix has its own set-up"),
    };
    let warm_net = inputs::warm_network();
    for (lib, options) in warm {
        let warmed = if w == Workload::PaperTables {
            lily_core::compare_flows(&warm_net, &lib, &options).map(drop)
        } else {
            lily_core::run_flow(&warm_net, &lib, &options).map(drop)
        };
        warmed.map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(jobs)
}

/// Repeats `setup` [`SETUP_REPS`] times, tearing each product down
/// (untimed) before the next; returns the last product and the median
/// set-up time.
fn timed_setup<T>(
    mut setup: impl FnMut(usize) -> Result<T, String>,
    mut teardown: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        if let Some(prev) = last.take() {
            teardown(prev)?;
        }
        let t0 = Instant::now();
        last = Some(setup(rep)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

/// QoR sums over jobs: instance area, chip area, wire (from area
/// roles), critical delay (from delay roles).
#[derive(Default)]
struct QorSums {
    instance_mm2: f64,
    chip_mm2: f64,
    wire_mm: f64,
    delay_ns: f64,
}

impl QorSums {
    fn add(&mut self, role: Role, m: &lily_core::flow::FlowMetrics) {
        if role != Role::Delay {
            self.instance_mm2 += m.instance_area_mm2();
            self.chip_mm2 += m.chip_area_mm2();
            self.wire_mm += m.wire_length_mm();
        }
        if role != Role::Area {
            self.delay_ns += m.critical_delay;
        }
    }
}

fn flow_untraced(w: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (jobs, setup_s) = timed_setup(|_| flow_setup(w, seed), |_| Ok(()))?;
    let mut passes = Vec::new();
    let mut attempted = 0usize;
    let mut failures: Vec<String> = Vec::new();
    let mut first: Option<Vec<Option<Vec<Qor>>>> = None;
    let mut sums = QorSums::default();
    let mut degradations = Vec::new();
    let (mut wire_ratios, mut delay_ratios) = (Vec::new(), Vec::new());
    let pass_count = ((seconds / PASS_S).round() as usize).max(1);
    for _ in 0..pass_count {
        let t0 = Instant::now();
        let runs: Vec<Result<flows::JobRun, String>> = jobs.iter().map(flows::run_job).collect();
        passes.push(t0.elapsed().as_secs_f64());
        // Outside the timed region: the oracle, and bit-identity with
        // the first pass.
        let mut qors = Vec::new();
        for (job, run) in jobs.iter().zip(&runs) {
            attempted += 1;
            let checked = run.as_ref().map_err(Clone::clone).and_then(|r| {
                flows::verify_run(job, r, seed)?;
                Ok(r.results.iter().map(|(_, x)| Qor::of(&x.metrics)).collect::<Vec<_>>())
            });
            match checked {
                Ok(q) => qors.push(Some(q)),
                Err(e) => {
                    failures.push(e);
                    qors.push(None);
                }
            }
        }
        match &first {
            None => {
                for (job, run) in jobs.iter().zip(&runs) {
                    if let Ok(r) = run {
                        sums.add(job.role, &r.under_test().metrics);
                        if let [(_, mis), (_, lily)] = r.results.as_slice() {
                            let (m, l) = (&mis.metrics, &lily.metrics);
                            match job.role {
                                Role::Area => wire_ratios.push(l.wire_length / m.wire_length),
                                _ => delay_ratios.push(l.critical_delay / m.critical_delay),
                            }
                        }
                        for d in &r.under_test().metrics.degradations {
                            degradations.push(format!("{}: {}→{}", job.label, d.stage, d.fallback));
                        }
                    }
                }
                first = Some(qors);
            }
            Some(f) => {
                for ((job, a), b) in jobs.iter().zip(f).zip(&qors) {
                    if b.is_some() && a != b {
                        failures.push(format!("{}: QoR differs from the first pass", job.label));
                    }
                }
            }
        }
    }
    let failed = failures.len();
    let values = [
        ("flow_s", median(&passes)),
        ("setup_s", setup_s),
        ("peak_rss_mb", peak_rss_mb()),
        ("ok_fraction", (attempted - failed) as f64 / attempted as f64),
        ("instance_area_mm2", sums.instance_mm2),
        ("chip_area_mm2", sums.chip_mm2),
        ("wire_length_mm", sums.wire_mm),
        ("critical_delay_ns", sums.delay_ns),
    ];
    let mut report = JsonObject::new();
    // The paper's Lily/MIS summaries: geometric means over the Table 1
    // (wire) and Table 2 (delay) rows. Ungated: only paper-tables runs
    // MIS.
    for (name, ratios) in
        [("wire_ratio_lily_mis", &wire_ratios), ("delay_ratio_lily_mis", &delay_ratios)]
    {
        if !ratios.is_empty() {
            let mean_ln = ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64;
            report = report.float(name, mean_ln.exp());
        }
    }
    let report = report
        .uint("jobs", jobs.len() as u64)
        .uint("passes", passes.len() as u64)
        .raw("pass_s", &lily_core::json::array(passes.iter().map(|p| lily_core::json::number(*p))))
        .uint("setup_reps", SETUP_REPS as u64)
        .raw("degradations", &strings(&degradations))
        .raw("failures", &strings(&failures))
        .finish();
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: collect(&END_TO_END, &values)?,
        report,
        human: failures,
        spans: None,
    })
}

fn strings(xs: &[String]) -> String {
    lily_core::json::array(xs.iter().map(|s| format!("\"{}\"", lily_core::json::escape(s))))
}

/// The eight flow stages, as the flow names them, and their metrics.
const STAGE_METRICS: [(&str, &str); 8] = [
    ("decompose", "decompose.s"),
    ("assign-pads", "assign_pads.s"),
    ("subject-place", "subject_place.s"),
    ("map", "map.s"),
    ("legalize", "legalize.s"),
    ("detailed-place", "detailed_place.s"),
    ("route-estimate", "route_estimate.s"),
    ("sta", "sta.s"),
];

/// Per-layer values common to every traced run.
fn layer_values(rec: &Recorder, c: &WalkCounts) -> Vec<(&'static str, f64)> {
    let mut v: Vec<(&'static str, f64)> =
        STAGE_METRICS.iter().map(|&(stage, metric)| (metric, rec.total(stage))).collect();
    v.extend([
        ("cover.s", c.cover_s),
        ("match_index.s", rec.total("kernel.match-index")),
        ("cut_index.s", rec.total("kernel.cut-index")),
        ("route.rsmt_s", rec.total("kernel.rsmt")),
        ("verify.s", rec.total("verify")),
        ("stage_sum_ratio", rec.child_total("flow") / rec.total("flow")),
        ("map.matches", c.matches as f64),
        ("map.scopes", c.scopes as f64),
        ("map.cells", c.cells as f64),
        ("cuts.kept", c.cuts_kept as f64),
        ("cuts.pruned", c.cuts_pruned as f64),
        ("cuts.kept_ratio", c.cuts_kept as f64 / (c.cuts_kept + c.cuts_pruned) as f64),
        ("route.nets", c.nets as f64),
        ("decompose.subject_nodes", c.subject_nodes as f64),
    ]);
    v
}

/// Walks every job's flow under the recorder, then, with every flow
/// done (so they run back to back, as in an untraced pass), the kernels
/// and the oracle. Returns failures, including any job whose traced QoR
/// differs from `untraced`.
fn walk_all(
    rec: &mut Recorder,
    counts: &mut WalkCounts,
    jobs: &[FlowJob],
    untraced: &[Option<Vec<Qor>>],
    seed: u64,
) -> Vec<String> {
    let walked: Vec<Result<flows::Walked, String>> =
        jobs.iter().map(|job| flows::walk_flow(rec, job)).collect();
    let mut failures = Vec::new();
    for ((job, want), walked) in jobs.iter().zip(untraced).zip(walked) {
        let checked = walked.and_then(|w| {
            flows::walk_kernels(rec, job, &w, counts, seed)?;
            Ok(w.qors())
        });
        match checked {
            Ok(got) if want.as_ref() == Some(&got) => {}
            Ok(_) => failures.push(format!("{}: traced QoR differs from untraced", job.label)),
            Err(e) => failures.push(e),
        }
    }
    failures
}

/// The acceptance bound on how much of the traced flow wall the eight
/// stage spans must account for.
const STAGE_SUM_TOLERANCE: f64 = 0.10;

fn traced_outcome(
    rec: &Recorder,
    counts: &WalkCounts,
    untraced_s: f64,
    overhead_ms: f64,
    attempted: usize,
    mut failures: Vec<String>,
    mut report: JsonObject,
) -> Result<Outcome, String> {
    let mut values = layer_values(rec, counts);
    let stage_sum = rec.child_total("flow") / rec.total("flow");
    if (stage_sum - 1.0).abs() > STAGE_SUM_TOLERANCE {
        failures.push(format!("stage spans cover {stage_sum:.3} of the traced flow wall"));
    }
    values.push(("trace.overhead_ratio", rec.total("flow") / untraced_s));
    values.push(("job.overhead_ms", overhead_ms));
    // Zero wherever the map partitions into trees, so not a metric.
    report = report
        .uint("map_reincarnations", counts.reincarnations)
        .raw("failures", &strings(&failures));
    let mut totals = JsonObject::new();
    for (name, secs) in rec.totals() {
        totals = totals.float(&name, secs);
    }
    let failed = failures.len().min(attempted);
    Ok(Outcome {
        correct: failures.is_empty(),
        attempted,
        failed,
        metrics: collect(&PER_LAYER, &values)?,
        report: report.raw("span_totals_s", &totals.finish()).finish(),
        human: failures,
        spans: Some(rec.to_json()),
    })
}

/// One untraced pass over `jobs` for the traced run: total wall, the
/// per-job time outside the flows' own stage tables (ms), and each
/// job's QoR (`None` for a failed job, whose error is pushed).
fn untraced_pass(
    jobs: &[FlowJob],
    failures: &mut Vec<String>,
) -> (f64, Vec<f64>, Vec<Option<Vec<Qor>>>) {
    let (mut total_s, mut overheads, mut qors) = (0.0, Vec::new(), Vec::new());
    for job in jobs {
        match flows::run_job(job) {
            Ok(r) => {
                total_s += r.wall_s;
                overheads.push((r.wall_s - r.stage_wall_s()) * 1e3);
                qors.push(Some(r.results.iter().map(|(_, x)| Qor::of(&x.metrics)).collect()));
            }
            Err(e) => {
                failures.push(e);
                qors.push(None);
            }
        }
    }
    (total_s, overheads, qors)
}

/// The traced walk between two untraced passes: the first gives the
/// QoR the walk must reproduce (and warms the process), the second, run
/// as warm as the walk, is the base of `trace.overhead_ratio`.
fn traced_walk(
    jobs: &[FlowJob],
    reference: &[Option<Vec<Qor>>],
    seed: u64,
    failures: &mut Vec<String>,
) -> (Recorder, WalkCounts, f64, Vec<f64>) {
    let mut rec = Recorder::new();
    let mut counts = WalkCounts::default();
    failures.extend(walk_all(&mut rec, &mut counts, jobs, reference, seed));
    let (untraced_s, overheads, again) = untraced_pass(jobs, failures);
    for ((job, a), b) in jobs.iter().zip(reference).zip(&again) {
        if a != b {
            failures.push(format!("{}: untraced QoR changed between passes", job.label));
        }
    }
    (rec, counts, untraced_s, overheads)
}

fn flow_traced(w: Workload, seed: u64) -> Result<Outcome, String> {
    let jobs = flow_setup(w, seed)?;
    let mut failures = Vec::new();
    let (_, _, reference) = untraced_pass(&jobs, &mut failures);
    let (rec, counts, untraced_s, overheads) = traced_walk(&jobs, &reference, seed, &mut failures);
    let report = JsonObject::new().uint("jobs", jobs.len() as u64);
    let overhead_ms = if overheads.is_empty() { f64::NAN } else { median(&overheads) };
    traced_outcome(&rec, &counts, untraced_s, overhead_ms, jobs.len(), failures, report)
}

// ---------------------------------------------------------------------
// serve-mix
// ---------------------------------------------------------------------

struct ServeSetup {
    lib: Arc<Library>,
    mix_nets: Vec<String>,
    running: serve::Running,
}

/// Generates the mix, builds the in-process library, binds and warms a
/// server. Earlier repetitions' servers are stopped by the caller.
fn serve_setup(seed: u64, out_dir: &Path, rep: usize) -> Result<ServeSetup, String> {
    let mix_nets: Vec<String> =
        inputs::serve_networks(seed).iter().map(lily_netlist::blif::write).collect();
    let lib = built(Library::big());
    let warm = lily_netlist::blif::write(&inputs::warm_network());
    let running = serve::start(out_dir, rep, &warm)?;
    Ok(ServeSetup { lib, mix_nets, running })
}

fn serve_report(l: &serve::LoopResult, s: &lily_serve::StatsSnapshot, jobs: usize) -> JsonObject {
    let ms: Vec<f64> = l.latency_s.iter().map(|x| x * 1e3).collect();
    let pct = |p: f64| match stats::percentile(&ms, p) {
        Ok(q) => JsonObject::new()
            .float("value", q.value)
            .uint("samples", q.samples as u64)
            .uint("beyond", q.beyond as u64)
            .finish(),
        Err(e) => format!("\"{}\"", lily_core::json::escape(&e)),
    };
    let total_s: f64 = l.batch_s.iter().sum();
    JsonObject::new()
        .uint("distinct_requests", jobs as u64)
        .uint("batches", l.batch_s.len() as u64)
        .raw("job_p50_ms", &pct(0.50))
        .raw("job_p95_ms", &pct(0.95))
        .float("jobs_per_s", l.attempted as f64 / total_s)
        .float("queue_wait_max_ms", s.max_queue_wait_ns as f64 / 1e6)
        .uint("cache_hits", s.cache_hits)
        .uint("cache_misses", s.cache_misses)
        .uint("rejected", s.rejected)
        .uint("completed", s.completed)
}

fn serve_untraced(seed: u64, seconds: f64, out_dir: &Path) -> Result<Outcome, String> {
    let (setup, setup_s) = timed_setup(
        |rep| serve_setup(seed, out_dir, rep),
        |prev| {
            prev.running.stop()?;
            std::thread::sleep(serve::SETTLE);
            Ok(())
        },
    )?;
    let mix = serve::references(&setup.mix_nets, &setup.lib, seed)?;
    let l = serve::closed_loop(setup.running.addr(), &mix, seconds)?;
    let stats = setup.running.stop()?;
    let mut sums = QorSums::default();
    for j in &mix {
        sums.add(Role::Both, &j.reference.metrics);
    }
    let failed = l.failed.len();
    let values = [
        ("flow_s", median(&l.batch_s)),
        ("setup_s", setup_s),
        ("peak_rss_mb", peak_rss_mb()),
        ("ok_fraction", (l.attempted - failed) as f64 / l.attempted as f64),
        ("instance_area_mm2", sums.instance_mm2),
        ("chip_area_mm2", sums.chip_mm2),
        ("wire_length_mm", sums.wire_mm),
        ("critical_delay_ns", sums.delay_ns),
    ];
    let report = serve_report(&l, &stats, mix.len())
        .uint("setup_reps", SETUP_REPS as u64)
        .raw("failures", &strings(&l.failed))
        .finish();
    Ok(Outcome {
        correct: failed == 0,
        attempted: l.attempted,
        failed,
        metrics: collect(&END_TO_END, &values)?,
        report,
        human: l.failed,
        spans: None,
    })
}

fn serve_traced(seed: u64, seconds: f64, out_dir: &Path) -> Result<Outcome, String> {
    let setup = serve_setup(seed, out_dir, 0)?;
    let mix: Vec<MixJob> = serve::references(&setup.mix_nets, &setup.lib, seed)?;
    let l = serve::closed_loop(setup.running.addr(), &mix, seconds)?;
    let stats = setup.running.stop()?;
    let jobs = serve::flow_jobs(&mix, &setup.lib);
    let reference: Vec<Option<Vec<Qor>>> =
        mix.iter().map(|j| Some(vec![Qor::of(&j.reference.metrics)])).collect();
    let mut failures = l.failed.clone();
    let (rec, counts, untraced_s, _) = {
        let _seq = lily_par::sequential_scope();
        traced_walk(&jobs, &reference, seed, &mut failures)
    };
    let overhead_ms = median(&l.overhead_s) * 1e3;
    let report = serve_report(&l, &stats, mix.len());
    traced_outcome(&rec, &counts, untraced_s, overhead_ms, l.attempted, failures, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lily_core::json::Json;

    fn declared(key: &str) -> Vec<(String, String)> {
        let text = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        let json = Json::parse(text).expect("BENCHMARK.json parses");
        let list = json.get(key).and_then(Json::as_array).expect("metric list");
        list.iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(Json::as_str).expect("name and unit").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn ours(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        assert_eq!(declared("end_to_end"), ours(&END_TO_END));
        assert_eq!(declared("per_layer"), ours(&PER_LAYER));
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let text = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        let json = Json::parse(text).unwrap();
        let names: Vec<String> = json
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        let want: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names, want);
    }

    /// Every end-to-end metric is reported on every workload, so none
    /// may need more than one job per run (a single-flow workload would
    /// report a percentile equal to its own wall time) or be derived
    /// from a pipeline one workload does not run (a Lily/MIS ratio is
    /// pinned at 1 where MIS never runs).
    #[test]
    fn end_to_end_metrics_are_defined_on_single_job_workloads() {
        for (name, _) in END_TO_END {
            for banned in ["p50", "p95", "per_s", "ratio_lily_mis"] {
                assert!(!name.contains(banned), "`{name}` is undefined or a copy on some workload");
            }
        }
    }

    #[test]
    fn copies_are_rejected() {
        let flow = 2.5;
        let vals = [("flow_s", flow), ("job_p50_ms", flow * 1e3), ("jobs_per_s", 1.0 / flow)];
        assert_eq!(copies(&vals), [("flow_s", "job_p50_ms"), ("flow_s", "jobs_per_s")]);
        assert!(collect(&[("flow_s", "s"), ("job_p50_ms", "ms")], &vals).is_err());
        assert!(copies(&[("flow_s", 2.5), ("setup_s", 0.08)]).is_empty());
    }

    #[test]
    fn a_missing_metric_fails_the_run() {
        assert!(collect(&[("flow_s", "s")], &[("setup_s", 1.0)]).is_err());
        assert!(collect(&[("flow_s", "s")], &[("flow_s", f64::NAN)]).is_err());
    }
}
