//! `lily-check` — run every verification pass over a design.
//!
//! ```text
//! lily-check [--lib tiny|big|big-sized] [--flow mis-area|lily-area|cut-area|mis-delay|lily-delay|cut-delay]
//!            [--vectors N] [--seed S] [--threads N] [--metrics-json <path>]
//!            [--checkpoint-dir <dir>] [--kill-after <stage>]
//!            (<design.blif> | --circuit <name>
//!             | --gen <family> [--gen-nodes N] [--gen-seed S])
//! ```
//!
//! The design — a BLIF file, one of the bundled benchmark workloads via
//! `--circuit`, or a synthetic scaling workload via `--gen`
//! (`tree-adder`, `multiplier-tree`, or `random-dag`; sized with
//! `--gen-nodes`, seeded with `--gen-seed`) — is parsed, decomposed,
//! mapped, placed, and timed with the selected flow, and every stage
//! artifact is analyzed by [`check_flow`](lily::check::check_flow).
//! Designs large enough to take the flow's multilevel placement path
//! additionally get a `hierarchy` stage that validates the cluster
//! hierarchy and per-level position snapshots (`PL005`–`PL006`).
//! Diagnostics are printed per stage, followed
//! by the per-stage wall-time/artifact-size table of the stage-graph
//! flow engine; `--metrics-json` additionally writes the full
//! [`FlowMetrics`](lily::core::flow::FlowMetrics) (including that
//! table) as JSON.
//!
//! `--threads N` pins the deterministic parallel runtime to `N` worker
//! threads (overriding `LILY_THREADS`); results are byte-identical at
//! any setting.
//!
//! `--checkpoint-dir` runs the flow through the checkpointed driver:
//! every completed stage artifact is persisted to the directory, and a
//! re-run against the same directory resumes from the last completed
//! stage bit-exactly (modulo wall times). `--kill-after <stage>`
//! deliberately interrupts the flow right after the named stage has
//! been checkpointed.
//!
//! Exit codes: `0` — all passes clean (warnings allowed); `1` — at
//! least one error-severity diagnostic; `2` — usage, I/O, parse, or
//! flow failure; `3` — deliberately interrupted by `--kill-after`
//! (checkpoint saved; resume to continue).

use lily::cells::Library;
use lily::check;
use lily::core::flow::{FlowOptions, FlowRun};

struct Args {
    lib: String,
    flow: String,
    vectors: usize,
    seed: u64,
    threads: Option<usize>,
    input: Option<String>,
    circuit: Option<String>,
    gen: Option<String>,
    gen_nodes: usize,
    gen_seed: u64,
    metrics_json: Option<String>,
    checkpoint_dir: Option<String>,
    kill_after: Option<String>,
}

const USAGE: &str = "usage: lily-check [--lib tiny|big|big-sized] \
[--flow mis-area|lily-area|cut-area|mis-delay|lily-delay|cut-delay] [--vectors N] [--seed S] \
[--threads N] [--metrics-json <path>] [--checkpoint-dir <dir>] \
[--kill-after <stage>] (<design.blif> | --circuit <name> | \
--gen <family> [--gen-nodes N] [--gen-seed S])";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        lib: "big".into(),
        flow: "lily-area".into(),
        vectors: check::DEFAULT_VECTORS,
        seed: check::DEFAULT_SEED,
        threads: None,
        input: None,
        circuit: None,
        gen: None,
        gen_nodes: 20_000,
        gen_seed: 1,
        metrics_json: None,
        checkpoint_dir: None,
        kill_after: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--lib" => args.lib = value("--lib")?,
            "--flow" => args.flow = value("--flow")?,
            "--vectors" => {
                args.vectors =
                    value("--vectors")?.parse().map_err(|e| format!("--vectors: {e}"))?;
            }
            "--seed" => {
                args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--threads" => {
                let n: usize =
                    value("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                args.threads = Some(n);
            }
            "--circuit" => args.circuit = Some(value("--circuit")?),
            "--gen" => args.gen = Some(value("--gen")?),
            "--gen-nodes" => {
                args.gen_nodes =
                    value("--gen-nodes")?.parse().map_err(|e| format!("--gen-nodes: {e}"))?;
                if args.gen_nodes < 64 {
                    return Err("--gen-nodes must be at least 64".into());
                }
            }
            "--gen-seed" => {
                args.gen_seed =
                    value("--gen-seed")?.parse().map_err(|e| format!("--gen-seed: {e}"))?;
            }
            "--metrics-json" => args.metrics_json = Some(value("--metrics-json")?),
            "--checkpoint-dir" => args.checkpoint_dir = Some(value("--checkpoint-dir")?),
            "--kill-after" => {
                let stage = value("--kill-after")?;
                if !lily::core::checkpoint::STAGE_NAMES.contains(&stage.as_str()) {
                    return Err(format!(
                        "unknown stage `{stage}` (one of: {})",
                        lily::core::checkpoint::STAGE_NAMES.join(", ")
                    ));
                }
                args.kill_after = Some(stage);
            }
            "--help" | "-h" => return Err(USAGE.into()),
            _ if a.starts_with('-') => return Err(format!("unknown option `{a}`\n{USAGE}")),
            _ if args.input.is_none() => args.input = Some(a),
            _ => return Err(format!("unexpected argument `{a}`\n{USAGE}")),
        }
    }
    let sources = [args.input.is_some(), args.circuit.is_some(), args.gen.is_some()]
        .iter()
        .filter(|&&s| s)
        .count();
    if sources != 1 {
        return Err(USAGE.into());
    }
    if args.kill_after.is_some() && args.checkpoint_dir.is_none() {
        return Err("--kill-after needs --checkpoint-dir".into());
    }
    Ok(args)
}

/// Prints one pass's report.
fn stage(name: &str, report: &check::Report) {
    if report.is_clean() {
        println!("{name}: ok");
    } else {
        println!(
            "{name}: {} error(s), {} warning(s)",
            report.error_count(),
            report.warning_count()
        );
        for d in report.diagnostics() {
            println!("  {d}");
        }
    }
}

fn load_network(args: &Args) -> Result<lily::netlist::Network, String> {
    if let Some(name) = &args.circuit {
        if lily::workloads::circuits::spec(name).is_none() {
            return Err(format!(
                "unknown circuit `{name}` (one of: {})",
                lily::workloads::circuits::circuit_names().join(", ")
            ));
        }
        return Ok(lily::workloads::circuits::circuit(name));
    }
    if let Some(family) = &args.gen {
        let family = lily::workloads::ScaleFamily::from_name(family).ok_or_else(|| {
            format!("unknown family `{family}` (tree-adder, multiplier-tree, random-dag)")
        })?;
        return Ok(lily::workloads::scale_circuit(family, args.gen_nodes, args.gen_seed));
    }
    let path = args.input.as_deref().expect("parse_args guarantees an input");
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    lily::netlist::blif::parse(&text).map_err(|e| format!("BLIF parse: {e}"))
}

fn run() -> Result<usize, String> {
    let args = parse_args()?;
    lily::par::set_threads(args.threads);
    let lib = match args.lib.as_str() {
        "tiny" => Library::tiny(),
        "big" => Library::big(),
        "big-sized" => Library::big_sized(),
        other => return Err(format!("unknown library `{other}` (tiny|big|big-sized)")),
    };
    let opts = match args.flow.as_str() {
        "mis-area" => FlowOptions::mis_area(),
        "lily-area" => FlowOptions::lily_area(),
        "mis-delay" => FlowOptions::mis_delay(),
        "lily-delay" => FlowOptions::lily_delay(),
        "cut-area" => FlowOptions::cut_area(),
        "cut-delay" => FlowOptions::cut_delay(),
        other => {
            return Err(format!(
            "unknown flow `{other}` (mis-area|lily-area|cut-area|mis-delay|lily-delay|cut-delay)"
        ))
        }
    };
    let net = load_network(&args)?;
    println!(
        "{}: {} inputs, {} outputs, {} nodes",
        net.name(),
        net.input_count(),
        net.output_count(),
        net.node_count()
    );
    // The network report comes first, so a design the flow rejects
    // still gets it; `check_flow` repeats the pass for its error count.
    stage("network", &check::check_network(&net));

    // Run the full stage-graph flow with its internal checkpoints off:
    // the point of the CLI is to print every stage's full report, not
    // to stop at the first failing checkpoint.
    let flow_opts = FlowOptions { verify: false, ..opts };
    let run = FlowRun {
        checkpoint: args.checkpoint_dir.as_ref().map(std::path::PathBuf::from),
        interrupt_after: args.kill_after.clone(),
        ..FlowRun::default()
    };
    let result = match run.single(&net, &lib, &flow_opts).0 {
        Err(lily::core::MapError::Interrupted { stage }) => {
            let dir = args.checkpoint_dir.as_deref().unwrap_or_default();
            println!("interrupted: checkpoint saved through stage `{stage}` in {dir}");
            std::process::exit(3);
        }
        other => other.map_err(|e| format!("flow: {e}"))?,
    };
    for d in &result.metrics.degradations {
        println!("degraded: {d}");
    }

    let report = check::check_flow(
        &net,
        &result.artifacts.subject,
        &result.mapped,
        &lib,
        opts.physical.multilevel_threshold,
        args.vectors,
        args.seed,
    )
    .map_err(|e| e.to_string())?;
    for (name, pass) in report.passes.iter().filter(|(name, _)| *name != "network") {
        match pass {
            Some(r) => stage(name, r),
            None => println!("{name}: skipped (does not apply)"),
        }
    }
    println!(
        "critical delay {:.3} ns over {} cells",
        report.critical_delay,
        result.mapped.cell_count()
    );

    println!("stage metrics (threads {}):", result.metrics.stages.threads_used());
    for r in result.metrics.stages.records() {
        println!(
            "  {:<15} {:>10.3} ms  {:>7} {}",
            r.stage,
            r.wall_ns as f64 / 1.0e6,
            r.size,
            r.unit
        );
    }
    if let Some(path) = &args.metrics_json {
        std::fs::write(path, result.metrics.to_json())
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        println!("metrics json: {path}");
    }
    Ok(report.error_count())
}

fn main() {
    match run() {
        Ok(0) => println!("verdict: PASS"),
        Ok(n) => {
            println!("verdict: FAIL ({n} error(s))");
            std::process::exit(1);
        }
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}
