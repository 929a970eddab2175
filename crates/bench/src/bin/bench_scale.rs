//! `bench_scale` — the scaling curve: nodes vs per-stage wall time,
//! emitted as machine-readable JSON (`BENCH_scale.json`).
//!
//! For each target size (default 10³ → 10⁵ nodes) a deterministic
//! [`lily_workloads::scale_circuit`] workload is generated and pushed
//! through one full cut-area flow per thread count, recording the
//! per-stage wall-time table, the mapped-cell count, the routed wire
//! length, and the degradation audit (the large sizes legitimately
//! trade the detailed-place improvement pass away — the audit entries
//! in the JSON are the honest record of that). The metric columns are
//! byte-identical across thread counts; only the `flow_ns` column may
//! move (see `lily-par`).
//!
//! The largest size additionally gets a subject-place substrate
//! comparison: the multilevel clustered placer is timed directly, then
//! flat conjugate-gradient placement is attempted on the same problem
//! under a wall-clock budget (default 120 s). The JSON records either
//! the flat wall time and the multilevel speedup, or
//! `flat_exceeded_budget: true` — at 10⁵ nodes flat CG is expected to
//! blow the budget, which is exactly the point of the multilevel path.
//! The multilevel positions are also checked for bit-identity across
//! every benchmarked thread count and the verdict is recorded.
//!
//! Usage: `bench_scale [--fast] [--out PATH] [--threads 1,2,8]
//!                     [--sizes 1000,5000,20000,100000]
//!                     [--family random-dag] [--flat-budget-secs N]`
//!
//! `--fast` keeps sizes 1000,5000 with a 10 s flat budget (the CI smoke
//! configuration). Sample count follows `LILY_BENCH_SAMPLES`
//! (default 1); the median is reported.

use std::time::{Duration, Instant};

use lily_bench::harness::{env_samples, iso8601_now, median_ns, stages_json};
use lily_cells::Library;
use lily_core::flow::FlowOptions;
use lily_core::json::{array, JsonObject};
use lily_fault::CancelToken;
use lily_netlist::decompose::{decompose, DecomposeOrder};
use lily_place::multilevel::{try_multilevel_place, MultilevelOptions};
use lily_place::{
    pads, try_global_place, GlobalOptions, PlacementProblem, Point, Rect, SubjectPlacement,
};
use lily_workloads::{scale_circuit, ScaleFamily};

/// Seed for every generated workload: fixed so the checked-in snapshot
/// is reproducible from the command line alone.
const SEED: u64 = 0x5CA1_E001;

struct Args {
    out: String,
    threads: Vec<usize>,
    sizes: Vec<usize>,
    family: ScaleFamily,
    flat_budget: Duration,
}

fn parse_args() -> Result<Args, String> {
    let mut out = "BENCH_scale.json".to_string();
    let mut threads = vec![1usize, 2, 8];
    let mut sizes = vec![1_000usize, 5_000, 20_000, 100_000];
    let mut family = ScaleFamily::RandomDag;
    let mut flat_budget = Duration::from_secs(120);
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = it.next().ok_or("--out needs a value")?,
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                threads = v
                    .split(',')
                    .map(|t| t.trim().parse::<usize>().map_err(|e| format!("--threads: {e}")))
                    .collect::<Result<_, _>>()?;
                if threads.is_empty() || threads.contains(&0) {
                    return Err("--threads needs positive counts".into());
                }
            }
            "--sizes" => {
                let v = it.next().ok_or("--sizes needs a value")?;
                sizes = v
                    .split(',')
                    .map(|t| t.trim().parse::<usize>().map_err(|e| format!("--sizes: {e}")))
                    .collect::<Result<_, _>>()?;
                if sizes.is_empty() || sizes.iter().any(|&n| n < 64) {
                    return Err("--sizes needs targets of at least 64 nodes".into());
                }
            }
            "--family" => {
                let v = it.next().ok_or("--family needs a value")?;
                family = ScaleFamily::from_name(&v).ok_or_else(|| {
                    format!("unknown family `{v}` (tree-adder, multiplier-tree, random-dag)")
                })?;
            }
            "--flat-budget-secs" => {
                let v = it.next().ok_or("--flat-budget-secs needs a value")?;
                flat_budget =
                    Duration::from_secs(v.parse().map_err(|e| format!("--flat-budget-secs: {e}"))?);
            }
            "--fast" => {
                sizes = vec![1_000, 5_000];
                flat_budget = Duration::from_secs(10);
            }
            "--help" | "-h" => {
                return Err("usage: bench_scale [--fast] [--out PATH] [--threads 1,2,8] \
                            [--sizes 1000,...] [--family random-dag] [--flat-budget-secs N]"
                    .into())
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args { out, threads, sizes, family, flat_budget })
}

/// The flow options every scale run uses: the cut-enumeration mapper in
/// area mode with the per-node annealing budget, so the anneal stage
/// grows linearly with the design instead of quadratically.
fn scale_options() -> FlowOptions {
    let mut options = FlowOptions::cut_area();
    options.anneal_moves_per_node = Some(64);
    options
}

/// One full flow per thread count on one generated circuit.
fn bench_size(
    family: ScaleFamily,
    target: usize,
    lib: &Library,
    threads: &[usize],
    samples: usize,
) -> String {
    let net = scale_circuit(family, target, SEED);
    println!(
        "bench_scale: {family} target {target}: {} nodes, {} inputs, {} outputs",
        net.node_count(),
        net.input_count(),
        net.output_count(),
    );
    let options = scale_options();
    let mut runs: Vec<String> = Vec::new();
    for &t in threads {
        lily_par::set_threads(Some(t));
        let mut stages = String::from("[]");
        let mut cells = 0u64;
        let mut wire_length = 0.0f64;
        let mut degradations = String::from("[]");
        let flow_ns = median_ns(samples, || match lily_core::run_flow(&net, lib, &options) {
            Ok(r) => {
                stages = stages_json(r.metrics.stages.records());
                cells = r.metrics.cells as u64;
                wire_length = r.metrics.wire_length;
                degradations = array(r.metrics.degradations.iter().map(|d| {
                    JsonObject::new()
                        .string("stage", d.stage)
                        .string("fallback", d.fallback)
                        .string("detail", &d.detail)
                        .finish()
                }));
                r.metrics.cells
            }
            Err(e) => {
                eprintln!("bench_scale: {family}/{target}: flow failed: {e}");
                0
            }
        });
        println!(
            "bench_scale: {family} target {target}: threads {t}: flow {:.2} s, {cells} cells",
            flow_ns as f64 / 1e9,
        );
        runs.push(
            JsonObject::new()
                .uint("threads", t as u64)
                .uint("flow_ns", flow_ns)
                .uint("cells", cells)
                .float("wire_length", wire_length)
                .raw("degradations", &degradations)
                .raw("stages", &stages)
                .finish(),
        );
    }
    lily_par::set_threads(None);
    JsonObject::new()
        .uint("target_nodes", target as u64)
        .uint("network_nodes", net.node_count() as u64)
        .uint("inputs", net.input_count() as u64)
        .uint("outputs", net.output_count() as u64)
        .raw("runs", &array(runs))
        .finish()
}

/// FNV-1a over the raw position bits: the cross-thread determinism
/// fingerprint.
fn fingerprint(positions: &[Point]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bits: u64| {
        for b in bits.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for p in positions {
        eat(p.x.to_bits());
        eat(p.y.to_bits());
    }
    h
}

/// Times multilevel vs flat CG on the subject graph of the largest
/// workload, flat under the wall-clock budget.
fn bench_subject_place(
    family: ScaleFamily,
    target: usize,
    threads: &[usize],
    flat_budget: Duration,
) -> String {
    let net = scale_circuit(family, target, SEED);
    let g = match decompose(&net, DecomposeOrder::Balanced) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("bench_scale: subject-place decompose failed: {e}");
            return JsonObject::new().string("error", &e.to_string()).finish();
        }
    };
    let mut problem: PlacementProblem = SubjectPlacement::new(&g).problem.clone();
    let core = Rect::new(0.0, 0.0, 3000.0, 3000.0);
    problem.fixed = pads::perimeter_points(core, problem.fixed.len());
    let ml_options = MultilevelOptions::for_region(core);

    // Multilevel: timed at the first thread count, then re-run at every
    // other count to verify the positions are bit-identical.
    let mut prints: Vec<(usize, u64)> = Vec::new();
    let mut ml_ns = 0u64;
    let mut ml_iterations = 0u64;
    for (i, &t) in threads.iter().enumerate() {
        lily_par::set_threads(Some(t));
        let t0 = Instant::now();
        match try_multilevel_place(&problem, &ml_options) {
            Ok(mp) => {
                if i == 0 {
                    ml_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    ml_iterations = mp.cg_iterations as u64;
                }
                prints.push((t, fingerprint(&mp.positions)));
            }
            Err(e) => {
                lily_par::set_threads(None);
                eprintln!("bench_scale: multilevel place failed: {e}");
                return JsonObject::new().string("error", &e.to_string()).finish();
            }
        }
    }
    lily_par::set_threads(None);
    let identical = prints.windows(2).all(|w| w[0].1 == w[1].1);
    println!(
        "bench_scale: subject-place: {} movable, multilevel {:.2} s, identical across threads \
         {:?}: {identical}",
        problem.movable,
        ml_ns as f64 / 1e9,
        threads,
    );

    // Flat CG on the same problem, under the budget.
    let t0 = Instant::now();
    let flat = {
        let _budget = lily_fault::set_ambient(CancelToken::with_deadline(flat_budget));
        try_global_place(&problem, &GlobalOptions::for_region(core))
    };
    let flat_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let flat_json = match flat {
        Ok(_) => {
            println!(
                "bench_scale: subject-place: flat CG {:.2} s ({:.1}x multilevel)",
                flat_ns as f64 / 1e9,
                flat_ns as f64 / ml_ns.max(1) as f64,
            );
            JsonObject::new()
                .uint("wall_ns", flat_ns)
                .float("speedup_multilevel_vs_flat", flat_ns as f64 / ml_ns.max(1) as f64)
                .finish()
        }
        Err(e) => {
            println!(
                "bench_scale: subject-place: flat CG exceeded the {:.0} s budget ({e})",
                flat_budget.as_secs_f64(),
            );
            JsonObject::new()
                .raw("flat_exceeded_budget", "true")
                .uint("budget_ns", u64::try_from(flat_budget.as_nanos()).unwrap_or(u64::MAX))
                .uint("cancelled_after_ns", flat_ns)
                .finish()
        }
    };
    JsonObject::new()
        .uint("target_nodes", target as u64)
        .uint("movable", problem.movable as u64)
        .uint("multilevel_ns", ml_ns)
        .uint("multilevel_cg_iterations", ml_iterations)
        .raw("multilevel_identical_across_threads", if identical { "true" } else { "false" })
        .raw("flat", &flat_json)
        .finish()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_scale: {e}");
            std::process::exit(2);
        }
    };
    let samples = env_samples(1);
    let lib = Library::big();
    let available =
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    println!(
        "bench_scale: family {}, sizes {:?}, threads {:?}, {samples} sample(s), {available} \
         hardware thread(s) available",
        args.family, args.sizes, args.threads,
    );
    let sizes_json =
        array(args.sizes.iter().map(|&n| bench_size(args.family, n, &lib, &args.threads, samples)));
    let largest = args.sizes.iter().copied().fold(64, usize::max);
    let subject_place = bench_subject_place(args.family, largest, &args.threads, args.flat_budget);
    let doc = JsonObject::new()
        .string("bench", "scale")
        .string("generated_at", &iso8601_now())
        .uint("threads_available", available as u64)
        .uint("samples", samples as u64)
        .string("family", args.family.name())
        .uint("seed", SEED)
        .uint("anneal_moves_per_node", 64)
        .raw("sizes", &sizes_json)
        .raw("subject_place", &subject_place)
        .finish();
    if let Err(e) = std::fs::write(&args.out, &doc) {
        eprintln!("bench_scale: cannot write `{}`: {e}", args.out);
        std::process::exit(2);
    }
    println!("bench_scale: wrote {}", args.out);
}
