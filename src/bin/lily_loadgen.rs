//! `lily-loadgen` — concurrent chaos traffic for `lily-serve`.
//!
//! Replays the fuzz corpus as live traffic: healthy mapping jobs,
//! jobs carrying random fault plans, malformed frames, and abrupt
//! mid-request disconnects, all from several client threads at once.
//! Records latency percentiles, rejection rate, and the server's
//! cache hit rate into a `BENCH_serve.json` artifact, and fails the
//! process if the server ever reports an internal panic.
//!
//! ```text
//! lily-loadgen --addr HOST:PORT [--clients N] [--requests N]
//!              [--seed HEX] [--deadline-ms MS] [--out PATH] [--shutdown]
//! ```
//!
//! `--recover` runs the durable-recovery drill instead of traffic: it
//! boots its own `lily-serve` (`--server-bin`) with a journal and
//! checkpoint root under `--state-dir`, submits a checkpointed job,
//! SIGKILLs the server mid-flow, restarts it, waits for the journal to
//! show the orphan resumed and completed with no client participation,
//! and asserts the resumed metrics are byte-identical to an untouched
//! reference run. Recovery latencies land in the benchmark artifact.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lily::serve::{
    Client, Event, FaultSpec, JournalRecord, MapRequest, ProbeRequest, Source, StatsSnapshot,
};
use lily_core::json::JsonObject;
use lily_netlist::sim::XorShift64;

struct Args {
    addr: String,
    clients: usize,
    requests: usize,
    seed: u64,
    deadline_ms: Option<u64>,
    out: String,
    shutdown: bool,
    recover: bool,
    server_bin: String,
    state_dir: String,
    rounds: usize,
    kill_after_ms: u64,
    spec: String,
    flow: String,
    big_spec: Option<String>,
    threads: Option<usize>,
}

fn usage() -> &'static str {
    "usage: lily-loadgen --addr HOST:PORT [--clients N] [--requests N] \
     [--seed HEX] [--deadline-ms MS] [--out PATH] [--shutdown]\n\
     lily-loadgen --recover --server-bin PATH --state-dir DIR [--rounds N] \
     [--kill-after-ms MS] [--spec SRC] [--flow NAME] [--big-spec SRC] [--threads N]\n\
     \n\
     --addr HOST:PORT     server address (required outside --recover)\n\
     --clients N          concurrent client threads (default 4)\n\
     --requests N         requests per client (default 12)\n\
     --seed HEX           traffic seed (default 10ad6e2a)\n\
     --deadline-ms MS     attach this request deadline to a slice of jobs\n\
     --out PATH           benchmark artifact (default BENCH_serve.json)\n\
     --shutdown           send a shutdown request when done\n\
     --recover            run the kill -9 / restart / auto-resume drill\n\
     --server-bin PATH    lily-serve binary the drill boots and kills\n\
     --state-dir DIR      root for the drill's journal + checkpoint state\n\
     --rounds N           kill/restart rounds (default 2)\n\
     --kill-after-ms MS   SIGKILL delay after job admission (default 1500)\n\
     --spec SRC           drill circuit (default scale:random-dag:5000:7)\n\
     --flow NAME          drill flow (default lily-area)\n\
     --big-spec SRC       add one extra round with this circuit (e.g. \
     scale:random-dag:100000:7)\n\
     --threads N          forwarded to every spawned server as --threads\n"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: String::new(),
        clients: 4,
        requests: 12,
        seed: 0x10ad_6e2a,
        deadline_ms: None,
        out: "BENCH_serve.json".to_string(),
        shutdown: false,
        recover: false,
        server_bin: String::new(),
        state_dir: String::new(),
        rounds: 2,
        kill_after_ms: 1500,
        spec: "scale:random-dag:5000:7".to_string(),
        flow: "lily-area".to_string(),
        big_spec: None,
        threads: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match arg.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--clients" => {
                args.clients =
                    value("--clients")?.parse().map_err(|e| format!("bad --clients: {e}"))?;
            }
            "--requests" => {
                args.requests =
                    value("--requests")?.parse().map_err(|e| format!("bad --requests: {e}"))?;
            }
            "--seed" => {
                args.seed = u64::from_str_radix(&value("--seed")?, 16)
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--deadline-ms" => {
                args.deadline_ms = Some(
                    value("--deadline-ms")?
                        .parse()
                        .map_err(|e| format!("bad --deadline-ms: {e}"))?,
                );
            }
            "--out" => args.out = value("--out")?,
            "--shutdown" => args.shutdown = true,
            "--recover" => args.recover = true,
            "--server-bin" => args.server_bin = value("--server-bin")?,
            "--state-dir" => args.state_dir = value("--state-dir")?,
            "--rounds" => {
                args.rounds =
                    value("--rounds")?.parse().map_err(|e| format!("bad --rounds: {e}"))?;
            }
            "--kill-after-ms" => {
                args.kill_after_ms = value("--kill-after-ms")?
                    .parse()
                    .map_err(|e| format!("bad --kill-after-ms: {e}"))?;
            }
            "--spec" => args.spec = value("--spec")?,
            "--flow" => args.flow = value("--flow")?,
            "--big-spec" => args.big_spec = Some(value("--big-spec")?),
            "--threads" => {
                args.threads =
                    Some(value("--threads")?.parse().map_err(|e| format!("bad --threads: {e}"))?);
            }
            "--help" | "-h" => {
                print!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.recover {
        if args.server_bin.is_empty() {
            return Err("--recover requires --server-bin".to_string());
        }
        if args.state_dir.is_empty() {
            return Err("--recover requires --state-dir".to_string());
        }
    } else if args.addr.is_empty() {
        return Err("--addr is required".to_string());
    }
    args.clients = args.clients.clamp(1, 64);
    args.rounds = args.rounds.clamp(1, 16);
    Ok(args)
}

/// Per-thread traffic tally, merged after the join.
#[derive(Default)]
struct Tally {
    issued: u64,
    done: u64,
    rejected: u64,
    errors: u64,
    deadline_errors: u64,
    disconnect_drills: u64,
    malformed_frames: u64,
    internal_panics: u64,
    transport_failures: u64,
    latencies_ns: Vec<u64>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.issued += other.issued;
        self.done += other.done;
        self.rejected += other.rejected;
        self.errors += other.errors;
        self.deadline_errors += other.deadline_errors;
        self.disconnect_drills += other.disconnect_drills;
        self.malformed_frames += other.malformed_frames;
        self.internal_panics += other.internal_panics;
        self.transport_failures += other.transport_failures;
        self.latencies_ns.extend(other.latencies_ns);
    }
}

fn record_terminal(tally: &mut Tally, events: &[Event], t0: Instant) {
    let Some(last) = events.last() else { return };
    tally.latencies_ns.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
    match last.event.as_str() {
        "done" => tally.done += 1,
        "rejected" => tally.rejected += 1,
        "error" => {
            let kind = last.body.get("kind").and_then(lily_core::json::Json::as_str).unwrap_or("");
            if kind == "internal-panic" {
                tally.internal_panics += 1;
            } else if kind == "deadline" {
                tally.deadline_errors += 1;
            }
            tally.errors += 1;
        }
        _ => {}
    }
}

/// One client thread's deterministic traffic mix.
#[allow(clippy::too_many_lines)]
fn client_traffic(
    addr: &str,
    client_idx: usize,
    requests: usize,
    seed: u64,
    deadline_ms: Option<u64>,
    corpus: &[String],
    next_id: &AtomicU64,
) -> Tally {
    let mut tally = Tally::default();
    let mut rng =
        XorShift64::new(seed ^ (client_idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 1);
    let Ok(mut client) = Client::connect(addr) else {
        tally.transport_failures += 1;
        return tally;
    };
    let _ = client.set_recv_timeout(Some(Duration::from_secs(120)));
    for i in 0..requests {
        let id = next_id.fetch_add(1, Ordering::Relaxed);
        let roll = rng.gen_index(10);
        let source = if roll.is_multiple_of(3) {
            Source::Circuit("misex1".to_string())
        } else {
            let bytes = lily_workloads::fuzz::blif_case(corpus, rng.next_u64(), i as u64);
            Source::Blif(String::from_utf8_lossy(&bytes).into_owned())
        };
        match roll {
            // Malformed frame: valid framing, broken JSON. The server
            // must answer with a typed error and keep the connection.
            0 => {
                tally.malformed_frames += 1;
                if client.send("{\"id\":, not json").is_err() {
                    tally.transport_failures += 1;
                    return tally;
                }
                match client.recv() {
                    Ok(e) if e.event == "error" => {}
                    Ok(_) | Err(_) => {
                        tally.transport_failures += 1;
                        return tally;
                    }
                }
            }
            // Disconnect drill: separate connection, send a job, walk
            // away after admission. The server must cancel it quietly.
            1 => {
                tally.disconnect_drills += 1;
                if let Ok(mut doomed) = Client::connect(addr) {
                    let req = MapRequest {
                        id,
                        source,
                        library: "big".to_string(),
                        flow: "lily-area".to_string(),
                        compare: false,
                        deadline_ms: None,
                        stage_deadline_ms: None,
                        stage_retries: None,
                        faults: FaultSpec::None,
                        checkpoint: None,
                        kill_after: None,
                    };
                    let _ = doomed.send(&req.to_json());
                    let _ = doomed.recv(); // accepted (or rejected)
                    doomed.disconnect();
                }
            }
            // Probe: exercises the warm cache's scratch pool.
            2 => {
                tally.issued += 1;
                let req = ProbeRequest { id, source, library: "big".to_string() };
                let t0 = Instant::now();
                if client.send(&req.to_json()).is_err() {
                    tally.transport_failures += 1;
                    return tally;
                }
                match client.drive(id) {
                    Ok(events) => record_terminal(&mut tally, &events, t0),
                    Err(_) => {
                        tally.transport_failures += 1;
                        return tally;
                    }
                }
            }
            // Everything else: mapping jobs — healthy, fault-seeded,
            // compare-mode, or deadline-carrying.
            _ => {
                tally.issued += 1;
                let faults = if roll >= 7 {
                    FaultSpec::Seed { seed: rng.next_u64(), benign: roll == 7 }
                } else {
                    FaultSpec::None
                };
                let req = MapRequest {
                    id,
                    source,
                    library: if roll.is_multiple_of(2) {
                        "big".to_string()
                    } else {
                        "tiny".to_string()
                    },
                    flow: if roll == 5 { "mis-area".to_string() } else { "lily-area".to_string() },
                    compare: roll == 4,
                    deadline_ms: if roll == 6 { deadline_ms } else { None },
                    stage_deadline_ms: None,
                    stage_retries: Some(1),
                    faults,
                    checkpoint: None,
                    kill_after: None,
                };
                let t0 = Instant::now();
                if client.send(&req.to_json()).is_err() {
                    tally.transport_failures += 1;
                    return tally;
                }
                match client.drive(id) {
                    Ok(events) => record_terminal(&mut tally, &events, t0),
                    Err(_) => {
                        tally.transport_failures += 1;
                        return tally;
                    }
                }
            }
        }
    }
    tally
}

fn percentile(sorted: &[u64], pct: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() * pct / 100).min(sorted.len() - 1)]
}

/// Days-since-epoch to civil date (Howard Hinnant's `civil_from_days`),
/// so the stamp needs no external time crate.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

fn iso8601_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    let rem = secs % 86_400;
    format!("{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z", rem / 3600, (rem % 3600) / 60, rem % 60)
}

/// A spawned `lily-serve` child that is SIGKILLed on drop unless
/// [`ServerHandle::kill`] already reaped it — drill failures must not
/// leak daemons.
struct ServerHandle {
    child: Option<std::process::Child>,
    addr: String,
}

impl ServerHandle {
    fn kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Boots `lily-serve` with durable state under `state`, waits for its
/// `listening on <addr>` banner, and leaves a thread draining the rest
/// of its stdout so the child never blocks on a full pipe.
fn spawn_server(bin: &str, state: &Path, threads: Option<usize>) -> Result<ServerHandle, String> {
    use std::io::BufRead;
    let mut cmd = std::process::Command::new(bin);
    cmd.arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--queue")
        .arg("16")
        .arg("--journal-dir")
        .arg(state.join("journal"))
        .arg("--checkpoint-root")
        .arg(state.join("ckpt"))
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit());
    if let Some(t) = threads {
        cmd.arg("--threads").arg(t.to_string());
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawn {bin}: {e}"))?;
    let stdout = child.stdout.take().ok_or("server stdout not captured")?;
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| format!("read server banner: {e}"))?;
    let Some(addr) = line.strip_prefix("listening on ").map(|s| s.trim().to_string()) else {
        let _ = child.kill();
        return Err(format!("unexpected server banner: {line:?}"));
    };
    std::thread::spawn(move || {
        let mut sink = String::new();
        use std::io::Read;
        let _ = reader.read_to_string(&mut sink);
    });
    Ok(ServerHandle { child: Some(child), addr })
}

/// Submits the drill's checkpointed map job and waits for admission.
/// The returned client must stay alive until the SIGKILL: dropping it
/// disconnects, and the server would cancel the job instead of leaving
/// the orphan the drill is about to manufacture.
fn submit_drill_job(addr: &str, spec: &str, flow: &str) -> Result<Client, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let req = MapRequest {
        id: 1,
        source: Source::Circuit(spec.to_string()),
        library: "tiny".to_string(),
        flow: flow.to_string(),
        compare: false,
        deadline_ms: None,
        stage_deadline_ms: None,
        stage_retries: None,
        faults: FaultSpec::None,
        checkpoint: Some("drill".to_string()),
        kill_after: None,
    };
    client.send(&req.to_json()).map_err(|e| format!("send: {e}"))?;
    let e = client.recv().map_err(|e| format!("recv: {e}"))?;
    if e.event != "accepted" {
        return Err(format!("expected accepted, got `{}`", e.event));
    }
    Ok(client)
}

/// Polls the journal until the drill job's `completed` record appears
/// (or it fails, or the timeout passes). Read-only: never truncates a
/// live daemon's journal.
fn await_journal_completion(
    state: &Path,
    timeout: Duration,
) -> Result<lily::serve::Replay, String> {
    let t0 = Instant::now();
    loop {
        let replay =
            lily::serve::journal::replay_dir(&state.join("journal")).map_err(|e| e.to_string())?;
        if replay.records.iter().any(|r| matches!(r, JournalRecord::Completed { .. })) {
            return Ok(replay);
        }
        if let Some(kind) = replay.records.iter().find_map(|r| match r {
            JournalRecord::Failed { kind, .. } => Some(kind.clone()),
            _ => None,
        }) {
            return Err(format!("drill job journaled failed ({kind})"));
        }
        if t0.elapsed() > timeout {
            return Err(format!("no completed record after {}s", timeout.as_secs()));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Blanks run-to-run volatile metric values (wall times, the thread
/// count a run used) so journal metrics can be byte-compared across
/// runs and thread counts.
fn strip_volatile(s: &str) -> String {
    const KEYS: [&str; 2] = ["\"wall_ns\":", "\"threads_used\":"];
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    'outer: while i < bytes.len() {
        for key in KEYS {
            if bytes[i..].starts_with(key.as_bytes()) {
                out.extend_from_slice(key.as_bytes());
                out.push(b'_');
                i += key.len();
                while i < bytes.len()
                    && matches!(bytes[i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
                {
                    i += 1;
                }
                continue 'outer;
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    String::from_utf8(out).unwrap_or_else(|_| s.to_string())
}

/// One reference run on untouched state: same job, no kill, metrics
/// read back from the journal so both sides of the byte-identity
/// comparison travel the same path.
fn reference_metrics(
    args: &Args,
    state: &Path,
    spec: &str,
    timeout: Duration,
) -> Result<String, String> {
    let mut server = spawn_server(&args.server_bin, state, args.threads)?;
    let _client = submit_drill_job(&server.addr, spec, &args.flow)?;
    let replay = await_journal_completion(state, timeout)?;
    server.kill();
    let seq = replay
        .records
        .iter()
        .find_map(|r| match r {
            JournalRecord::Completed { seq, .. } => Some(*seq),
            _ => None,
        })
        .ok_or("reference run left no completed record")?;
    Ok(replay.completed_metrics(seq).map(strip_volatile).ok_or("no reference metrics")?)
}

/// One kill -9 / restart / auto-resume round. Returns the recovery
/// latency (restart spawn to journaled completion) and the stripped
/// resumed metrics.
fn recover_round(
    args: &Args,
    state: &Path,
    spec: &str,
    kill_after: Duration,
    timeout: Duration,
) -> Result<(u64, String), String> {
    let mut server = spawn_server(&args.server_bin, state, args.threads)?;
    let mut client = submit_drill_job(&server.addr, spec, &args.flow)?;
    std::thread::sleep(kill_after);
    // SIGKILL: no destructors, no flushes — exactly the crash the
    // journal's write-ahead discipline is built for.
    server.kill();
    // The in-flight request sees its connection drop, never a result.
    while let Ok(e) = client.recv() {
        if e.event == "done" {
            return Err("the in-flight request finished despite the SIGKILL".to_string());
        }
    }
    let t0 = Instant::now();
    let mut restarted = spawn_server(&args.server_bin, state, args.threads)?;
    let replay = await_journal_completion(state, timeout)?;
    let recovery_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    restarted.kill();
    if !replay.records.iter().any(|r| matches!(r, JournalRecord::Resumed { .. })) {
        return Err(format!(
            "job completed before the kill; lower --kill-after-ms (now {}ms)",
            kill_after.as_millis()
        ));
    }
    let seq = replay
        .records
        .iter()
        .find_map(|r| match r {
            JournalRecord::Completed { seq, .. } => Some(*seq),
            _ => None,
        })
        .ok_or("no completed record after resume")?;
    let metrics = replay.completed_metrics(seq).map(strip_volatile).ok_or("no resumed metrics")?;
    Ok((recovery_ns, metrics))
}

/// The full drill: per unique circuit, one clean reference run, then
/// kill/restart rounds that must converge to byte-identical metrics.
#[allow(clippy::too_many_lines)]
fn run_recover(args: &Args) -> ExitCode {
    let root = PathBuf::from(&args.state_dir);
    let mut plan: Vec<(String, String, Duration)> = (0..args.rounds)
        .map(|i| (format!("round-{i}"), args.spec.clone(), Duration::from_secs(300)))
        .collect();
    if let Some(big) = &args.big_spec {
        // The big round gets a longer leash and a later kill so the
        // SIGKILL still lands mid-flow on a job this size.
        plan.push((format!("round-{}-big", args.rounds), big.clone(), Duration::from_secs(1200)));
    }
    let mut references: Vec<(String, String)> = Vec::new(); // (spec, stripped metrics)
    let mut latencies = Vec::new();
    let mut first_metrics: Option<String> = None;
    for (tag, spec, timeout) in &plan {
        let reference = match references.iter().find(|(s, _)| s == spec) {
            Some((_, m)) => m.clone(),
            None => {
                let state = root.join(format!("fresh-{tag}"));
                match reference_metrics(args, &state, spec, *timeout) {
                    Ok(m) => {
                        references.push((spec.clone(), m.clone()));
                        m
                    }
                    Err(e) => {
                        eprintln!("lily-loadgen: recover reference ({spec}): {e}");
                        return ExitCode::from(1);
                    }
                }
            }
        };
        let kill_after = if spec == &args.spec {
            Duration::from_millis(args.kill_after_ms)
        } else {
            Duration::from_millis(args.kill_after_ms.saturating_mul(4))
        };
        let state = root.join(tag);
        match recover_round(args, &state, spec, kill_after, *timeout) {
            Ok((recovery_ns, metrics)) => {
                if metrics != reference {
                    eprintln!(
                        "lily-loadgen: recover {tag}: resumed metrics differ from the \
                         reference run"
                    );
                    return ExitCode::from(1);
                }
                println!(
                    "recover {tag}: {spec} resumed byte-identical, recovery {}ms",
                    recovery_ns / 1_000_000
                );
                if first_metrics.is_none() {
                    first_metrics = Some(metrics);
                }
                latencies.push(recovery_ns);
            }
            Err(e) => {
                eprintln!("lily-loadgen: recover {tag}: {e}");
                return ExitCode::from(1);
            }
        }
    }
    // The stripped metrics of the standard round, for cross-thread
    // byte-identity comparison by the smoke script.
    if let Some(m) = &first_metrics {
        if let Err(e) = std::fs::write(root.join("resumed-metrics.txt"), format!("{m}\n")) {
            eprintln!("lily-loadgen: cannot write resumed-metrics.txt: {e}");
            return ExitCode::from(1);
        }
    }
    latencies.sort_unstable();
    let doc = JsonObject::new()
        .string("bench", "serve-recover")
        .string("generated_at", &iso8601_now())
        .string("spec", &args.spec)
        .string("flow", &args.flow)
        .uint("rounds", plan.len() as u64)
        .uint("kill_after_ms", args.kill_after_ms)
        .uint("recovery_p50_ns", percentile(&latencies, 50))
        .uint("recovery_p99_ns", percentile(&latencies, 99))
        .uint("recovery_max_ns", latencies.last().copied().unwrap_or(0))
        .uint("threads", args.threads.unwrap_or(0) as u64)
        .finish();
    if let Err(e) = std::fs::write(&args.out, format!("{doc}\n")) {
        eprintln!("lily-loadgen: cannot write {}: {e}", args.out);
        return ExitCode::from(1);
    }
    println!(
        "recover: {} rounds, p50 {}ms, max {}ms -> {}",
        plan.len(),
        percentile(&latencies, 50) / 1_000_000,
        latencies.last().copied().unwrap_or(0) / 1_000_000,
        args.out
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lily-loadgen: {e}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.recover {
        return run_recover(&args);
    }
    let corpus = Arc::new(lily_workloads::fuzz::corpus());
    let next_id = Arc::new(AtomicU64::new(1));
    let t_run = Instant::now();
    let handles: Vec<_> = (0..args.clients)
        .map(|c| {
            let addr = args.addr.clone();
            let corpus = Arc::clone(&corpus);
            let next_id = Arc::clone(&next_id);
            let (requests, seed, deadline) = (args.requests, args.seed, args.deadline_ms);
            std::thread::spawn(move || {
                client_traffic(&addr, c, requests, seed, deadline, &corpus, &next_id)
            })
        })
        .collect();
    let mut tally = Tally::default();
    for h in handles {
        match h.join() {
            Ok(t) => tally.merge(t),
            Err(_) => tally.transport_failures += 1,
        }
    }
    let wall_ns = u64::try_from(t_run.elapsed().as_nanos()).unwrap_or(u64::MAX);

    // Final server-side counters (and optional shutdown) on a fresh
    // connection.
    let server_stats = (|| -> Option<StatsSnapshot> {
        let mut client = Client::connect(&args.addr).ok()?;
        client.set_recv_timeout(Some(Duration::from_secs(30))).ok()?;
        let id = next_id.fetch_add(1, Ordering::Relaxed);
        client.send(&format!("{{\"id\":{id},\"method\":\"stats\"}}")).ok()?;
        let e = client.recv().ok()?;
        let snap = (e.event == "stats").then(|| StatsSnapshot::from_event(&e))?;
        if args.shutdown {
            let id = next_id.fetch_add(1, Ordering::Relaxed);
            client.send(&format!("{{\"id\":{id},\"method\":\"shutdown\"}}")).ok()?;
            let _ = client.recv();
        }
        Some(snap)
    })();

    tally.latencies_ns.sort_unstable();
    let p50 = percentile(&tally.latencies_ns, 50);
    let p99 = percentile(&tally.latencies_ns, 99);
    let rejection_rate =
        if tally.issued == 0 { 0.0 } else { tally.rejected as f64 / tally.issued as f64 };
    let (cache_hits, cache_misses) =
        server_stats.map_or((0, 0), |s| (s.cache_hits, s.cache_misses));
    let cache_hit_rate = if cache_hits + cache_misses == 0 {
        0.0
    } else {
        cache_hits as f64 / (cache_hits + cache_misses) as f64
    };

    let mut doc = JsonObject::new()
        .string("bench", "serve")
        .string("generated_at", &iso8601_now())
        .string("addr", &args.addr)
        .uint("clients", args.clients as u64)
        .uint("requests_per_client", args.requests as u64)
        .uint("seed", args.seed)
        .uint("issued", tally.issued)
        .uint("done", tally.done)
        .uint("rejected", tally.rejected)
        .uint("errors", tally.errors)
        .uint("deadline_errors", tally.deadline_errors)
        .uint("disconnect_drills", tally.disconnect_drills)
        .uint("malformed_frames", tally.malformed_frames)
        .uint("internal_panics", tally.internal_panics)
        .uint("transport_failures", tally.transport_failures)
        .uint("latency_p50_ns", p50)
        .uint("latency_p99_ns", p99)
        .float("rejection_rate", rejection_rate)
        .uint("cache_hits", cache_hits)
        .uint("cache_misses", cache_misses)
        .float("cache_hit_rate", cache_hit_rate)
        .uint("wall_ns", wall_ns);
    if let Some(s) = server_stats {
        doc = doc.raw("server", &s.to_frame(0));
    }
    let doc = doc.finish();
    if let Err(e) = std::fs::write(&args.out, format!("{doc}\n")) {
        eprintln!("lily-loadgen: cannot write {}: {e}", args.out);
        return ExitCode::from(1);
    }
    println!(
        "issued={} done={} rejected={} errors={} p50_ns={} p99_ns={} cache_hit_rate={:.2} -> {}",
        tally.issued, tally.done, tally.rejected, tally.errors, p50, p99, cache_hit_rate, args.out
    );
    if tally.internal_panics > 0 {
        eprintln!("lily-loadgen: server reported internal panics");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
