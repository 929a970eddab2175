//! `perfbench` — the repository benchmark.
//!
//! Usage: `perfbench --workload <name> --seed <n> --seconds <s>
//!         --trace <0|1> [--out-dir DIR] [--rev REV]`
//!
//! One process runs one workload. With `--trace 0` it measures the
//! end-to-end metrics; with `--trace 1` it runs the same jobs untraced
//! and then walks them stage by stage under a span recorder, reporting
//! the per-layer metrics. Every mapped netlist is checked against its
//! input network outside the timed region. The last line of standard
//! output is the result object; the line before it is a report with
//! the machine stamp and the figures that are not gated. Both, and the
//! span tree of a traced run, are also written under `--out-dir`.

mod flows;
mod inputs;
mod metrics;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{Outcome, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut out_dir = PathBuf::from(".bench_build/perfbench");
    let mut rev = "unknown".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::from_name(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--out-dir" => out_dir = PathBuf::from(value()?),
            "--rev" => rev = value()?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or(format!(
        "--workload is required ({})",
        Workload::ALL.iter().map(|w| w.name()).collect::<Vec<_>>().join(", ")
    ))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, seed, seconds, trace, out_dir, rev })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    lily_par::set_threads(Some(args.workload.threads()));
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    let outcome =
        match metrics::run(args.workload, args.seed, args.seconds, args.trace, &args.out_dir) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", args.workload.name());
                return ExitCode::from(1);
            }
        };
    emit(&args, &outcome)
}

fn emit(args: &Args, o: &Outcome) -> ExitCode {
    use lily_core::json::JsonObject;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let stamp = JsonObject::new()
        .uint("nproc", nproc as u64)
        .uint("lily_threads", args.workload.threads() as u64)
        .string("rev", &args.rev)
        .string("workload", args.workload.name())
        .uint("seed", args.seed)
        .float("seconds", args.seconds)
        .uint("trace", u64::from(args.trace))
        .finish();
    let report = JsonObject::new().raw("stamp", &stamp).raw("report", &o.report).finish();
    let result = o.result_json();
    let stem = format!("{}-seed{}-trace{}", args.workload.name(), args.seed, u8::from(args.trace));
    let full =
        JsonObject::new().raw("stamp", &stamp).raw("report", &o.report).raw("result", &result);
    let mut writes = vec![(format!("result-{stem}.json"), full.finish())];
    if let Some(spans) = &o.spans {
        writes.push((format!("trace-{stem}.json"), spans.clone()));
    }
    for (name, text) in writes {
        if let Err(e) = std::fs::write(args.out_dir.join(&name), text) {
            eprintln!("perfbench: cannot write {name}: {e}");
            return ExitCode::from(1);
        }
    }
    for line in &o.human {
        eprintln!("{line}");
    }
    println!("{report}");
    println!("{result}");
    ExitCode::SUCCESS
}
