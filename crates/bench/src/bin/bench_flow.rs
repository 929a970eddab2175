//! `bench_flow` — wall-clock benchmark of the flow's parallel kernels,
//! emitted as machine-readable JSON (`BENCH_flow.json`).
//!
//! For each benchmark circuit and each thread count, times the three
//! kernels the `lily-par` runtime accelerates — `MatchIndex::build`,
//! the quadratic-placement CG solve, and the full `compare_flows`
//! comparison — and records the per-stage wall-time table of one flow
//! run. Each run entry carries a `mapper` tag: `lily` runs time the
//! structural matcher and the MIS-vs-Lily comparison; `cut` runs time
//! the cut-enumeration match build (`CutIndex::build` + NPN matching,
//! reported as `match_build_ns`) and one full cut-area flow
//! (`flow_ns`). The JSON carries the circuit sizes, the thread counts,
//! the host's available parallelism, per-circuit cut statistics (cuts
//! per node mean/max, pruning counters, cut-scratch pool reuse), and an
//! ISO-8601 UTC stamp, so a checked-in snapshot documents exactly what
//! was measured and where.
//!
//! Determinism note: thread count changes *times only* — every metric
//! and artifact is byte-identical at any setting (see `lily-par`).
//!
//! Usage: `bench_flow [--fast] [--out PATH] [--threads 1,2,4]
//!                    [circuit ...]`
//!
//! Defaults: circuits `misex1,C880,apex3` (smallest / medium / largest),
//! thread counts `1,2,4`, output `BENCH_flow.json`. `--fast` keeps only
//! `misex1` (the CI smoke configuration). Sample count follows
//! `LILY_BENCH_SAMPLES` (default 3); the median is reported.

use lily_bench::harness::{env_samples, iso8601_now, median_ns, stages_json};
use lily_cells::Library;
use lily_core::flow::{compare_flows, FlowOptions};
use lily_core::json::{array, JsonObject};
use lily_core::{cut_matches, CutIndex, MatchIndex};
use lily_netlist::cuts::enumerate_node;
use lily_netlist::decompose::{decompose, DecomposeOrder};
use lily_netlist::{CutConfig, CutScratch, CutSet, CutStats, SubjectGraph};
use lily_workloads::circuits;

/// Sequential cut enumeration with one reused [`CutScratch`]: returns
/// the whole-graph cut statistics plus the scratch's
/// (candidate-buffer acquisitions, fresh growth allocations) counters.
/// They land in
/// `BENCH_flow.json` as `cuts.scratch_acquisitions` and
/// `cuts.scratch_allocations`.
fn cut_statistics(g: &SubjectGraph, config: &CutConfig) -> (CutStats, u64, u64) {
    let mut scratch = CutScratch::new();
    let mut sets: Vec<CutSet> = Vec::with_capacity(g.node_count());
    let mut stats = CutStats::default();
    for v in g.node_ids() {
        let (set, counts) = enumerate_node(g, v, &sets, config, &mut scratch);
        stats.absorb(counts);
        sets.push(set);
    }
    let (acquisitions, allocations) = scratch.stats();
    (stats, acquisitions, allocations)
}

struct Args {
    out: String,
    threads: Vec<usize>,
    names: Vec<&'static str>,
}

fn parse_args() -> Result<Args, String> {
    let mut out = "BENCH_flow.json".to_string();
    let mut threads = vec![1usize, 2, 4];
    let mut fast = false;
    let mut explicit: Vec<String> = Vec::new();
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
            "--fast" => fast = true,
            "--help" | "-h" => {
                return Err("usage: bench_flow [--fast] [--out PATH] [--threads 1,2,4] \
                            [circuit ...]"
                    .into())
            }
            other if other.starts_with('-') => return Err(format!("unknown flag `{other}`")),
            other => explicit.push(other.to_string()),
        }
    }
    let names: Vec<&'static str> = if !explicit.is_empty() {
        circuits::circuit_names().into_iter().filter(|n| explicit.iter().any(|e| e == n)).collect()
    } else if fast {
        vec!["misex1"]
    } else {
        vec!["misex1", "C880", "apex3"]
    };
    if names.is_empty() {
        return Err("no known circuit selected".into());
    }
    Ok(Args { out, threads, names })
}

fn bench_circuit(name: &'static str, lib: &Library, threads: &[usize], samples: usize) -> String {
    let net = circuits::circuit(name);
    let g = match decompose(&net, DecomposeOrder::Balanced) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("bench_flow: {name}: decompose failed: {e}");
            return JsonObject::new().string("name", name).string("error", &e.to_string()).finish();
        }
    };
    let mut runs: Vec<String> = Vec::new();
    let mut kernel_ns: Vec<(usize, u64, u64, u64)> = Vec::new();
    for &t in threads {
        lily_par::set_threads(Some(t));
        let match_ns = median_ns(samples, || match MatchIndex::build(&g, lib) {
            Ok(idx) => idx.total(),
            Err(_) => 0,
        });
        let mut problem = lily_place::SubjectPlacement::new(&g).problem.clone();
        let core = lily_place::Rect::new(0.0, 0.0, 3000.0, 3000.0);
        problem.fixed = lily_place::pads::perimeter_points(core, problem.fixed.len());
        let cg_ns = median_ns(samples, || {
            lily_place::try_solve_quadratic(&problem, &[], &[]).map_or(0, |s| s.positions.len())
        });
        let mut lily_stages = String::from("[]");
        let compare_ns =
            median_ns(samples, || match compare_flows(&net, lib, &FlowOptions::lily_area()) {
                Ok(cmp) => {
                    lily_stages = stages_json(cmp.lily.metrics.stages.records());
                    cmp.lily.metrics.cells
                }
                Err(e) => {
                    eprintln!("bench_flow: {name}: compare_flows failed: {e}");
                    0
                }
            });
        kernel_ns.push((t, match_ns, cg_ns, compare_ns));
        runs.push(
            JsonObject::new()
                .uint("threads", t as u64)
                .string("mapper", "lily")
                .uint("match_build_ns", match_ns)
                .uint("cg_solve_ns", cg_ns)
                .uint("compare_flows_ns", compare_ns)
                .raw("stages", &lily_stages)
                .finish(),
        );

        // The cut mapper's run: its match build is cut enumeration plus
        // NPN matching, and `flow_ns` is one full cut-area flow.
        let config = CutConfig::default();
        let cut_match_ns = median_ns(samples, || {
            CutIndex::build(&g, &config)
                .and_then(|index| cut_matches(&g, lib, &index))
                .map_or(0, |idx| idx.total())
        });
        let mut cut_stages = String::from("[]");
        let cut_flow_ns =
            median_ns(samples, || match lily_core::run_flow(&net, lib, &FlowOptions::cut_area()) {
                Ok(r) => {
                    cut_stages = stages_json(r.metrics.stages.records());
                    r.metrics.cells
                }
                Err(e) => {
                    eprintln!("bench_flow: {name}: cut flow failed: {e}");
                    0
                }
            });
        runs.push(
            JsonObject::new()
                .uint("threads", t as u64)
                .string("mapper", "cut")
                .uint("match_build_ns", cut_match_ns)
                .uint("cg_solve_ns", cg_ns)
                .uint("flow_ns", cut_flow_ns)
                .raw("stages", &cut_stages)
                .finish(),
        );
        println!(
            "{name}: threads {t}: match {:.2} ms, cg {:.2} ms, compare {:.2} ms, cut-match {:.2} \
             ms, cut-flow {:.2} ms",
            match_ns as f64 / 1e6,
            cg_ns as f64 / 1e6,
            compare_ns as f64 / 1e6,
            cut_match_ns as f64 / 1e6,
            cut_flow_ns as f64 / 1e6,
        );
    }
    lily_par::set_threads(None);
    // Speedups of every multi-thread run against the slot with threads
    // == 1 (when benchmarked).
    let speedups = match kernel_ns.iter().find(|&&(t, ..)| t == 1) {
        Some(&(_, m1, c1, f1)) => {
            array(kernel_ns.iter().filter(|&&(t, ..)| t != 1).map(|&(t, m, c, f)| {
                let ratio = |base: u64, now: u64| base as f64 / now.max(1) as f64;
                JsonObject::new()
                    .uint("threads", t as u64)
                    .float("match_build", ratio(m1, m))
                    .float("cg_solve", ratio(c1, c))
                    .float("compare_flows", ratio(f1, f))
                    .finish()
            }))
        }
        None => String::from("[]"),
    };
    let (cut_stats, cut_acquisitions, cut_allocations) = cut_statistics(&g, &CutConfig::default());
    let cuts_json = JsonObject::new()
        .uint("nodes", cut_stats.nodes as u64)
        .uint("kept", cut_stats.kept as u64)
        .float("per_node_mean", cut_stats.mean_per_node())
        .uint("per_node_max", cut_stats.max_per_node as u64)
        .uint("pruned_width", cut_stats.pruned_width as u64)
        .uint("pruned_dominated", cut_stats.pruned_dominated as u64)
        .uint("pruned_overflow", cut_stats.pruned_overflow as u64)
        .uint("scratch_acquisitions", cut_acquisitions)
        .uint("scratch_allocations", cut_allocations)
        .finish();
    JsonObject::new()
        .string("name", name)
        .uint("inputs", net.input_count() as u64)
        .uint("outputs", net.output_count() as u64)
        .uint("network_nodes", net.node_count() as u64)
        .uint("base_gates", g.base_gate_count() as u64)
        .raw("cuts", &cuts_json)
        .raw("runs", &array(runs))
        .raw("speedup_vs_1_thread", &speedups)
        .finish()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_flow: {e}");
            std::process::exit(2);
        }
    };
    let samples = env_samples(3);
    let lib = Library::big();
    let available =
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    println!(
        "bench_flow: {} circuit(s), threads {:?}, {samples} sample(s), {available} hardware \
         thread(s) available",
        args.names.len(),
        args.threads,
    );
    let circuits_json =
        array(args.names.iter().map(|&n| bench_circuit(n, &lib, &args.threads, samples)));
    let doc = JsonObject::new()
        .string("bench", "flow")
        .string("generated_at", &iso8601_now())
        .uint("threads_available", available as u64)
        .uint("samples", samples as u64)
        .raw("circuits", &circuits_json)
        .finish();
    if let Err(e) = std::fs::write(&args.out, &doc) {
        eprintln!("bench_flow: cannot write `{}`: {e}", args.out);
        std::process::exit(2);
    }
    println!("bench_flow: wrote {}", args.out);
}
