//! `lily-fuzz` — seeded fuzz and chaos harness for the panic-free
//! mapping flow.
//!
//! Drives deterministic pseudo-random inputs through the full flow and
//! asserts the robustness contract: every input ends in `Ok` or a
//! structured [`MapError`](lily_core::MapError) — never a panic.
//!
//! Three input families alternate (see `lily_workloads::fuzz`):
//!
//! * mutated BLIF bytes (bit flips, truncations, token splices of a
//!   well-formed corpus) — most die in the parser with a structured
//!   error, survivors run the flow;
//! * valid-but-wild generator parameters — always reach the flow;
//! * structured scale-family circuits (adder trees, multiplier trees,
//!   layered random DAGs) capped at 512 nodes — deep regular
//!   topologies the other families never produce.
//!
//! Cases cycle all three mappers (MIS, Lily, Cut). Cut-mapper cases
//! additionally run the MIS pipeline on the same input and assert both
//! mapped netlists equivalent to the shared subject graph via
//! `lily-check` — a differential oracle over the whole corpus.
//!
//! ```text
//! lily-fuzz [--count N] [--seed S] [--threads N] [--verbose]
//! lily-fuzz --faults N [--seed S] [--threads N] [--verbose]
//! lily-fuzz --replay <file>
//! ```
//!
//! `--faults N` switches to **chaos mode**: each of the `N` cases
//! additionally runs under a deterministic random fault plan
//! ([`FaultPlan::random`]) — injected stage errors, solver divergence,
//! NaN poisoning, budget crunches, latency, cancellations, and
//! simulated worker closures. Half the cases draw benign-only plans
//! and must still succeed (with audited degradations) whenever the
//! fault-free flow succeeds, and must produce a structurally legal
//! mapped netlist; the other half draw harsh plans and may fail, but
//! only with a typed error. Any violation — and any panic — writes the
//! failing recipe to `lily-fuzz-replay.json` (override the path with
//! `--replay-out <file>` so concurrent harnesses do not clobber each
//! other's recipes); `--replay <file>` re-runs exactly that case.
//!
//! Cases fan out across the deterministic `lily-par` worker pool
//! (`--threads` / `LILY_THREADS`); each case is an independent seeded
//! flow, and the earliest-failure contract of the runtime guarantees
//! the reported failure is the lowest-numbered failing case — the same
//! one a sequential sweep finds — at any thread count.
//!
//! Exits 0 when all cases hold the contract; on a violation it prints
//! the reproducing recipe and exits 1.

use std::panic::{catch_unwind, AssertUnwindSafe};

use lily::cells::Library;
use lily::core::flow::{DetailedPlacer, FlowOptions, FlowRun};
use lily::fault::FaultPlan;
use lily::netlist::{blif, Network};
use lily::replay::Replay;
use lily::workloads::fuzz;
use lily::workloads::gen::generate;

const DEFAULT_COUNT: u64 = 2000;
const DEFAULT_SEED: u64 = 0x1117_f1ce;
const REPLAY_FILE: &str = "lily-fuzz-replay.json";

struct Args {
    count: u64,
    seed: u64,
    threads: Option<usize>,
    verbose: bool,
    /// `Some(n)`: chaos mode with `n` fault-injected cases.
    faults: Option<u64>,
    replay: Option<String>,
    /// Where a failing recipe is written (default [`REPLAY_FILE`]).
    replay_out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        count: DEFAULT_COUNT,
        seed: DEFAULT_SEED,
        threads: None,
        verbose: false,
        faults: None,
        replay: None,
        replay_out: REPLAY_FILE.to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--count" => {
                let v = it.next().ok_or("--count needs a value")?;
                args.count = v.parse().map_err(|_| format!("bad --count `{v}`"))?;
            }
            "--faults" => {
                let v = it.next().ok_or("--faults needs a value")?;
                args.faults = Some(v.parse().map_err(|_| format!("bad --faults `{v}`"))?);
            }
            "--replay" => args.replay = Some(it.next().ok_or("--replay needs a value")?),
            "--replay-out" => {
                args.replay_out = it.next().ok_or("--replay-out needs a value")?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                let v = v.strip_prefix("0x").unwrap_or(&v);
                args.seed = u64::from_str_radix(v, 16).map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad --threads `{v}`"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                args.threads = Some(n);
            }
            "--verbose" => args.verbose = true,
            "--help" | "-h" => {
                println!(
                    "usage: lily-fuzz [--count N] [--faults N] [--replay <file>] \
                     [--replay-out <file>] [--seed HEX] [--threads N] [--verbose]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// Flow configuration for case `i`: cycles all three mappers plus a
/// delay objective, and detailed placers including a deliberately
/// starved annealer so the degradation ladder gets fuzzed too. Mirrors
/// `crates/check/tests/fuzz_flow.rs`.
fn options_for(i: u64) -> FlowOptions {
    let mut opts = match i % 4 {
        0 => FlowOptions::mis_area(),
        1 => FlowOptions::lily_area(),
        2 => FlowOptions::cut_area(),
        _ => FlowOptions::lily_delay(),
    };
    if i % 5 == 3 {
        opts.detailed_placer = DetailedPlacer::Anneal { seed: i };
        opts.anneal_move_budget = Some((i % 4) * 40);
    }
    opts.verify = false;
    opts
}

/// The input netlist of case `i`: mutated BLIF on even cases (`None`
/// when the parser structurally rejects the mutation); odd cases
/// alternate valid-but-wild generator parameters (`i % 4 == 1`) and
/// structured scale-family circuits (`i % 4 == 3`). Fully determined
/// by `(seed, i)`.
fn case_net(corpus: &[String], seed: u64, i: u64) -> Option<Network> {
    if i.is_multiple_of(2) {
        let bytes = fuzz::blif_case(corpus, seed, i);
        let text = String::from_utf8_lossy(&bytes);
        blif::parse(&text).ok()
    } else if i % 4 == 1 {
        Some(generate(fuzz::gen_case(seed, i)).network)
    } else {
        Some(fuzz::scale_case(seed, i))
    }
}

/// Whether chaos case `i` draws a benign-only fault plan (the flow
/// must absorb every fault) or an anything-goes one (the flow may
/// fail, but only with a typed error). Deliberately out of phase with
/// the input-family parity of [`case_net`] so both BLIF-mutation and
/// generated inputs see both harshness levels.
fn benign_case(i: u64) -> bool {
    (i >> 1).is_multiple_of(2)
}

/// The deterministic fault plan of chaos case `i`.
fn chaos_plan(seed: u64, i: u64) -> FaultPlan {
    FaultPlan::random(seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)), benign_case(i))
}

#[derive(Default)]
struct Tally {
    parse_rejects: u64,
    flow_ok: u64,
    flow_err: u64,
    degradations: u64,
    faults_fired: u64,
}

fn drive(
    net: &Network,
    lib: &Library,
    i: u64,
    tally: &mut Tally,
    verbose: bool,
) -> Result<(), String> {
    match options_for(i).run_detailed(net, lib) {
        Ok(r) => {
            tally.flow_ok += 1;
            tally.degradations += r.metrics.degradations.len() as u64;
            // Cut-mapper cases double as differential tests: the MIS
            // pipeline must succeed on the same input, and both mapped
            // netlists must stay equivalent to the shared subject graph
            // (hence to each other).
            if i % 4 == 2 {
                let mut mis = FlowOptions::mis_area();
                mis.verify = false;
                let m = mis
                    .run_detailed(net, lib)
                    .map_err(|e| format!("mis flow failed where the cut flow succeeded: {e}"))?;
                let g = &r.artifacts.subject;
                for (mapped, which) in [(&r.mapped, "cut"), (&m.mapped, "mis")] {
                    let eq = lily::check::check_mapped_subject(g, mapped, lib, 64, 0x10c4 ^ i);
                    if !eq.is_clean() {
                        return Err(format!(
                            "{which}-mapped netlist is not equivalent to the subject graph:\n{eq}"
                        ));
                    }
                }
            }
            Ok(())
        }
        Err(e) => {
            tally.flow_err += 1;
            if verbose {
                eprintln!("case {i}: structured error: {e}");
            }
            Ok(())
        }
    }
}

/// Runs one chaos case and checks the fault-injection contract. `Err`
/// is a contract violation (the failure message); panics are caught by
/// the caller.
fn drive_chaos(
    net: &Network,
    lib: &Library,
    seed: u64,
    i: u64,
    tally: &mut Tally,
    verbose: bool,
) -> Result<(), String> {
    let plan = chaos_plan(seed, i);
    let benign = benign_case(i);
    let opts = options_for(i);
    let (result, report) = FlowRun { faults: plan, ..FlowRun::default() }.single(net, lib, &opts);
    tally.faults_fired += report.fired.len() as u64;
    match result {
        Ok(r) => {
            tally.flow_ok += 1;
            tally.degradations += r.metrics.degradations.len() as u64;
            // A fired degradation-class fault must leave a trace: an
            // audited degradation, or the retry that cleared it.
            if report.degradation_class() > 0
                && r.metrics.degradations.is_empty()
                && r.metrics.retries == 0
            {
                return Err(format!(
                    "{} degradation-class fault(s) fired but the flow recorded no degradation \
                     and no retry",
                    report.degradation_class()
                ));
            }
            // Faults must never corrupt the output: the mapped netlist
            // stays structurally legal.
            let legality = lily::check::check_mapped(&r.mapped, lib);
            if legality.has_errors() {
                return Err(format!(
                    "flow succeeded under faults but produced an illegal netlist:\n{legality}"
                ));
            }
        }
        Err(e) => {
            tally.flow_err += 1;
            if verbose {
                eprintln!("case {i}: structured error under faults: {e}");
            }
            // Benign-only plans may only fail where the fault-free
            // flow fails too.
            if benign && opts.run_detailed(net, lib).is_ok() {
                return Err(format!(
                    "benign-only fault plan failed a flow that succeeds without faults: {e}"
                ));
            }
        }
    }
    Ok(())
}

/// Re-runs the single case recorded in a replay file, verbosely.
fn run_replay(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let replay = Replay::from_json(&text).map_err(|e| e.to_string())?;
    println!(
        "replaying case {} (seed {:#x}, {} scheduled fault(s))",
        replay.case,
        replay.seed,
        replay.faults.faults().len()
    );
    for f in replay.faults.faults() {
        println!("  scheduled: {} at `{}` attempt {}", f.kind.name(), f.stage, f.invocation);
    }
    let corpus = fuzz::corpus();
    let lib = Library::big();
    let net = match case_net(&corpus, replay.seed, replay.case) {
        Some(net) => net,
        None => {
            println!("case input is a parser reject; nothing to replay");
            return Ok(());
        }
    };
    let mut tally = Tally::default();
    if replay.faults.is_empty() {
        if let Err(e) = drive(&net, &lib, replay.case, &mut tally, true) {
            println!("replay reproduced the violation: {e}");
            return Ok(());
        }
        println!(
            "replay done: {} ok, {} structured errors, {} degradations",
            tally.flow_ok, tally.flow_err, tally.degradations
        );
        return Ok(());
    }
    let opts = options_for(replay.case);
    let run = FlowRun { faults: replay.faults.clone(), ..FlowRun::default() };
    let (result, report) = run.single(&net, &lib, &opts);
    for f in &report.fired {
        println!("  fired: {} at `{}` attempt {}", f.kind.name(), f.stage, f.invocation);
    }
    match result {
        Ok(r) => println!(
            "replay done: flow ok, {} cells, {} degradation(s), {} retries",
            r.metrics.cells,
            r.metrics.degradations.len(),
            r.metrics.retries
        ),
        Err(e) => println!("replay done: structured error: {e}"),
    }
    Ok(())
}

/// Writes the failing recipe and prints how to reproduce it.
fn report_failure(seed: u64, case: u64, chaos: bool, msg: &str, out: &str) {
    eprintln!("lily-fuzz: FAIL at case {case} (seed {seed:#x}): {msg}");
    let faults = if chaos { chaos_plan(seed, case) } else { FaultPlan::new() };
    let replay = Replay { seed, case, faults };
    match std::fs::write(out, replay.to_json()) {
        Ok(()) => eprintln!("reproduce with: lily-fuzz --replay {out}"),
        Err(e) => eprintln!("(could not write {out}: {e})"),
    }
    if chaos {
        eprintln!("or re-sweep with: lily-fuzz --faults {} --seed {seed:#x}", case + 1);
    } else {
        eprintln!("or re-sweep with: lily-fuzz --count {} --seed {seed:#x}", case + 1);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lily-fuzz: {e}");
            std::process::exit(2);
        }
    };

    if let Some(path) = &args.replay {
        if let Err(e) = run_replay(path) {
            eprintln!("lily-fuzz: {e}");
            std::process::exit(2);
        }
        return;
    }

    // Panics are the signal under test: silence the default hook's
    // backtrace spew and let catch_unwind report the payload. Setting
    // RUST_BACKTRACE keeps the default hook for debugging a repro.
    if std::env::var_os("RUST_BACKTRACE").is_none() {
        std::panic::set_hook(Box::new(|_| {}));
    }

    lily::par::set_threads(args.threads);
    let corpus = fuzz::corpus();
    let lib = Library::big();
    let chaos = args.faults.is_some();
    let count = args.faults.unwrap_or(args.count);

    // Fan the seeded cases across the worker pool. Each case is fully
    // determined by (seed, i), and `try_par_map` reports the
    // lowest-index failure, so the repro line is thread-count-invariant.
    let opts = lily::par::ParOptions::current();
    let cases: Vec<u64> = (0..count).collect();
    let progress = std::sync::atomic::AtomicU64::new(0);
    let outcome: Result<Vec<Tally>, (u64, String)> = lily::par::try_par_map(&opts, &cases, |&i| {
        let ran = catch_unwind(AssertUnwindSafe(|| {
            let mut local = Tally::default();
            let verdict = match case_net(&corpus, args.seed, i) {
                None => {
                    local.parse_rejects += 1;
                    Ok(())
                }
                Some(net) => {
                    if chaos {
                        drive_chaos(&net, &lib, args.seed, i, &mut local, args.verbose)
                    } else {
                        drive(&net, &lib, i, &mut local, args.verbose)
                    }
                }
            };
            verdict.map(|()| local)
        }));
        if args.verbose {
            let done = progress.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
            if done.is_multiple_of(200) {
                eprintln!("... {done} / {count} cases");
            }
        }
        match ran {
            Ok(Ok(local)) => Ok(local),
            Ok(Err(violation)) => Err((i, violation)),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic payload>".to_string());
                Err((i, format!("PANIC: {msg}")))
            }
        }
    });

    let tallies = match outcome {
        Ok(t) => t,
        Err((i, msg)) => {
            report_failure(args.seed, i, chaos, &msg, &args.replay_out);
            std::process::exit(1);
        }
    };
    let mut tally = Tally::default();
    for local in tallies {
        tally.parse_rejects += local.parse_rejects;
        tally.flow_ok += local.flow_ok;
        tally.flow_err += local.flow_err;
        tally.degradations += local.degradations;
        tally.faults_fired += local.faults_fired;
    }

    if chaos {
        println!(
            "lily-fuzz: {} chaos cases, 0 panics, 0 contract violations ({} parse rejects, {} \
             flow ok, {} structured flow errors, {} fired faults, {} recorded degradations) \
             [{} thread(s), seed {:#x}]",
            count,
            tally.parse_rejects,
            tally.flow_ok,
            tally.flow_err,
            tally.faults_fired,
            tally.degradations,
            opts.threads(),
            args.seed,
        );
    } else {
        println!(
            "lily-fuzz: {} cases, 0 panics ({} parse rejects, {} flow ok, {} structured flow \
             errors, {} recorded degradations) [{} thread(s), seed {:#x}]",
            count,
            tally.parse_rejects,
            tally.flow_ok,
            tally.flow_err,
            tally.degradations,
            opts.threads(),
            args.seed,
        );
    }
}
