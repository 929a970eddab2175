//! The serve-mix workload: an in-process `lily_serve::Server` with two
//! workers and a write-ahead journal, driven by two closed-loop
//! clients, each waiting for its reply before sending the next request.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lily_cells::Library;
use lily_core::flow::FlowResult;
use lily_core::FlowOptions;
use lily_netlist::{blif, Network};
use lily_serve::{
    Client, Event, FaultSpec, MapRequest, ServeError, Server, ServerConfig, Source, StatsSnapshot,
};

use crate::flows::{verify, FlowJob, Role};
use crate::inputs;

/// Library every request names.
pub const LIBRARY: &str = "big";
/// Concurrent server workers, and closed-loop clients.
pub const WORKERS: usize = 2;

/// One distinct request of the mix and what it must return.
#[derive(Debug)]
pub struct MixJob {
    /// `mix<i>/<flow>`.
    pub label: String,
    /// The request's BLIF source.
    pub blif: String,
    /// Wire flow name.
    pub flow: &'static str,
    /// The network the server will parse out of `blif`.
    pub net: Network,
    /// The in-process `run_flow` metrics with wall times removed.
    pub expected: String,
    /// The in-process result (QoR and oracle).
    pub reference: FlowResult,
}

/// Flow options for a wire flow name, as the server builds them.
pub fn options(flow: &str) -> FlowOptions {
    let mut o = match flow {
        "lily-area" => FlowOptions::lily_area(),
        "cut-area" => FlowOptions::cut_area(),
        "mis-delay" => FlowOptions::mis_delay(),
        other => unreachable!("flow `{other}` is not in the mix"),
    };
    o.verify = false;
    o
}

/// Removes every `"wall_ns":<n>,` field: the only bytes of a metrics
/// object that may differ between two runs of the same flow.
pub fn strip_wall_times(metrics: &str) -> String {
    let mut out = String::with_capacity(metrics.len());
    let mut rest = metrics;
    while let Some(at) = rest.find("\"wall_ns\":") {
        out.push_str(&rest[..at]);
        let tail = &rest[at + "\"wall_ns\":".len()..];
        let digits = tail.find(|c: char| !c.is_ascii_digit()).unwrap_or(tail.len());
        rest = tail[digits..].strip_prefix(',').unwrap_or(&tail[digits..]);
    }
    out.push_str(rest);
    out
}

/// A running server plus the address its clients dial.
pub struct Running {
    addr: SocketAddr,
    handle: JoinHandle<Result<StatsSnapshot, ServeError>>,
    journal: PathBuf,
}

/// Binds and starts a server journaling into a fresh directory under
/// `scratch`, then sends one warm-up request so the library-cache miss
/// lands here and not in the measured loop.
///
/// # Errors
///
/// Bind, journal or warm-up failure.
pub fn start(scratch: &Path, tag: usize, warm_blif: &str) -> Result<Running, String> {
    let journal = scratch.join(format!("serve-journal-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&journal);
    let server = Server::bind(ServerConfig {
        workers: WORKERS,
        journal_dir: Some(journal.clone()),
        ..ServerConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    let running = Running { addr, handle, journal };
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let done = request(&mut client, 0, warm_blif, "lily-area")?;
    if done.event.event != "done" {
        return Err(format!("warm-up request ended with `{}`", done.event.event));
    }
    Ok(running)
}

impl Running {
    /// The address clients dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Reads the server counters, shuts the server down, waits for it,
    /// and removes its journal.
    ///
    /// # Errors
    ///
    /// Transport failure or a server that did not stop cleanly.
    pub fn stop(self) -> Result<StatsSnapshot, String> {
        let mut client = Client::connect(self.addr).map_err(|e| e.to_string())?;
        client.send("{\"id\":1,\"method\":\"stats\"}").map_err(|e| e.to_string())?;
        let stats = StatsSnapshot::from_event(&client.recv().map_err(|e| e.to_string())?);
        client.send("{\"id\":2,\"method\":\"shutdown\"}").map_err(|e| e.to_string())?;
        let _ = client.recv();
        let joined = self.handle.join().map_err(|_| "server thread panicked".to_string())?;
        joined.map_err(|e| e.to_string())?;
        let _ = std::fs::remove_dir_all(&self.journal);
        Ok(stats)
    }
}

/// The terminal frame of one request, with what the client saw.
pub struct Reply {
    /// The terminal event.
    pub event: Event,
    /// Its raw text.
    pub text: String,
    /// Send → terminal frame, seconds.
    pub latency_s: f64,
    /// Σ of the streamed stage wall times, seconds.
    pub stage_s: f64,
}

fn request(client: &mut Client, id: u64, blif: &str, flow: &str) -> Result<Reply, String> {
    let req = MapRequest {
        id,
        source: Source::Blif(blif.to_string()),
        library: LIBRARY.to_string(),
        flow: flow.to_string(),
        compare: false,
        deadline_ms: None,
        stage_deadline_ms: None,
        stage_retries: None,
        faults: FaultSpec::None,
        checkpoint: None,
        kill_after: None,
    };
    let t0 = Instant::now();
    client.send(&req.to_json()).map_err(|e| e.to_string())?;
    let mut stage_ns = 0u64;
    loop {
        let text = client.recv_text().map_err(|e| e.to_string())?;
        let event = Event::parse(&text).map_err(|e| e.to_string())?;
        if event.id != id {
            continue;
        }
        match event.event.as_str() {
            "stage" => stage_ns += event.body.get("wall_ns").and_then(|v| v.as_u64()).unwrap_or(0),
            "done" | "error" | "rejected" => {
                let latency_s = t0.elapsed().as_secs_f64();
                return Ok(Reply { event, text, latency_s, stage_s: stage_ns as f64 / 1e9 });
            }
            _ => {}
        }
    }
}

/// Builds the distinct requests of the mix (every BLIF source under
/// every flow of [`inputs::SERVE_FLOWS`]) and their in-process
/// references, verified against their inputs. The references run on
/// `WORKERS` threads, each job sequentially as a server job runs, so
/// they record the thread count the server reports. Requests come back
/// largest network first, so a batch's makespan is not set by a large
/// job dealt last.
///
/// # Errors
///
/// A reference flow or oracle failure.
pub fn references(blifs: &[String], lib: &Library, seed: u64) -> Result<Vec<MixJob>, String> {
    let requests: Vec<(usize, &'static str)> = (0..blifs.len())
        .rev()
        .flat_map(|i| inputs::SERVE_FLOWS.into_iter().map(move |flow| (i, flow)))
        .collect();
    let par = lily_par::ParOptions::with_threads(WORKERS);
    lily_par::try_par_map(&par, &requests, |&(i, flow)| {
        let label = format!("mix{i}/{flow}");
        let net = blif::parse(&blifs[i]).map_err(|e| format!("{label}: {e}"))?;
        let r =
            lily_core::run_flow(&net, lib, &options(flow)).map_err(|e| format!("{label}: {e}"))?;
        verify(&net, &r.artifacts.subject, &r.mapped, lib, seed)
            .map_err(|e| format!("{label}: {e}"))?;
        Ok(MixJob {
            label,
            blif: blifs[i].clone(),
            flow,
            net,
            expected: strip_wall_times(&r.metrics.to_json()),
            reference: r,
        })
    })
}

/// The mix's requests as in-process flow jobs (for the traced walk).
pub fn flow_jobs(mix: &[MixJob], lib: &Arc<Library>) -> Vec<FlowJob> {
    mix.iter()
        .map(|j| FlowJob {
            label: j.label.clone(),
            net: j.net.clone(),
            lib: Arc::clone(lib),
            options: options(j.flow),
            compare: false,
            role: Role::Both,
        })
        .collect()
}

/// What the closed loop measured.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Makespan of each full batch (every distinct request once).
    pub batch_s: Vec<f64>,
    /// Per-request latency, seconds.
    pub latency_s: Vec<f64>,
    /// Per-request latency minus its in-job stage wall, seconds.
    pub overhead_s: Vec<f64>,
    /// Requests sent.
    pub attempted: usize,
    /// Requests whose reply was not a `done` frame byte-identical to
    /// the reference (after removing wall times).
    pub failed: Vec<String>,
}

/// Runs whole batches through `WORKERS` closed-loop clients while
/// another batch still fits in `seconds` (at least one batch).
///
/// # Errors
///
/// A transport failure (a wrong answer is counted, not raised).
pub fn closed_loop(addr: SocketAddr, mix: &[MixJob], seconds: f64) -> Result<LoopResult, String> {
    let mut clients: Vec<Client> = (0..WORKERS)
        .map(|_| Client::connect(addr).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let out = Mutex::new(LoopResult::default());
    let start = Instant::now();
    let mut batch = 0u64;
    let mut last_s = None;
    while last_s.is_none_or(|last| start.elapsed().as_secs_f64() + last <= seconds) {
        let next = AtomicUsize::new(0);
        let t0 = Instant::now();
        let errors: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .map(|client| {
                    let (next, out) = (&next, &out);
                    s.spawn(move || -> Result<(), String> {
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(job) = mix.get(i) else { return Ok(()) };
                            let id = 1 + batch * mix.len() as u64 + i as u64;
                            let reply = request(client, id, &job.blif, job.flow)?;
                            let got = reply
                                .text
                                .split_once("\"metrics\":")
                                .and_then(|(_, m)| m.strip_suffix('}'))
                                .map(strip_wall_times);
                            let mut o =
                                out.lock().expect("no client panics while holding the tally");
                            o.attempted += 1;
                            o.latency_s.push(reply.latency_s);
                            o.overhead_s.push(reply.latency_s - reply.stage_s);
                            if reply.event.event != "done" || got.as_deref() != Some(&job.expected)
                            {
                                o.failed.push(format!("{}: {}", job.label, reply.text));
                            }
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .filter_map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())).err())
                .collect()
        });
        if let Some(e) = errors.into_iter().next() {
            return Err(e);
        }
        let batch_s = t0.elapsed().as_secs_f64();
        out.lock().expect("clients have joined").batch_s.push(batch_s);
        last_s = Some(batch_s);
        batch += 1;
    }
    drop(clients);
    Ok(out.into_inner().expect("clients have joined"))
}

/// Idle pause between set-up repetitions, so one server's teardown does
/// not overlap the next one's bind.
pub const SETTLE: Duration = Duration::from_millis(20);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_times_are_the_only_bytes_removed() {
        let m = "{\"cells\":3,\"stages\":[{\"stage\":\"map\",\"wall_ns\":1234,\"size\":5}]}";
        assert_eq!(
            strip_wall_times(m),
            "{\"cells\":3,\"stages\":[{\"stage\":\"map\",\"size\":5}]}"
        );
        assert_eq!(strip_wall_times("{\"a\":1}"), "{\"a\":1}");
    }
}
