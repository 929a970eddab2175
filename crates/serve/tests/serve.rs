//! End-to-end tests of the mapping service over real loopback TCP:
//! protocol conformance, admission control, deadlines, disconnects,
//! request-scoped chaos, kill/restart resume, and the combined
//! concurrent chaos drill.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Duration;

use std::path::PathBuf;

use lily_fault::{FaultKind, FaultPlan};
use lily_serve::journal::replay_dir;
use lily_serve::server::StatsSnapshot;
use lily_serve::{
    Client, Event, FaultSpec, Journal, JournalRecord, MapRequest, ProbeRequest, Replay, Server,
    ServerConfig, Source,
};

/// Boots a server on an OS-assigned port; returns its address and the
/// handle that yields the final stats after `shutdown`.
fn boot(config: ServerConfig) -> (SocketAddr, std::thread::JoinHandle<StatsSnapshot>) {
    let server = Server::bind(config).expect("bind loopback");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

fn connect(addr: SocketAddr) -> Client {
    let mut c = Client::connect(addr).expect("connect");
    c.set_recv_timeout(Some(Duration::from_secs(60))).expect("timeout");
    c
}

fn shutdown(addr: SocketAddr) {
    let mut c = connect(addr);
    c.send("{\"id\":999999,\"method\":\"shutdown\"}").expect("send shutdown");
    let e = c.recv().expect("shutdown ack");
    assert_eq!(e.event, "ok");
}

fn healthy_map(id: u64) -> MapRequest {
    MapRequest {
        id,
        source: Source::Circuit("misex1".to_string()),
        library: "tiny".to_string(),
        flow: "lily-area".to_string(),
        compare: false,
        deadline_ms: None,
        stage_deadline_ms: None,
        stage_retries: None,
        faults: FaultSpec::None,
        checkpoint: None,
        kill_after: None,
    }
}

fn latency_plan(stage: &str, ms: u64) -> FaultSpec {
    let mut plan = FaultPlan::new();
    plan.push(stage, 0, FaultKind::Latency(ms));
    FaultSpec::Plan(plan)
}

/// Reads frames until every id in `ids` has seen a terminal event,
/// returning all frames grouped by id (raw text + parsed).
fn collect_terminals(client: &mut Client, ids: &[u64]) -> BTreeMap<u64, Vec<(String, Event)>> {
    let mut open: std::collections::BTreeSet<u64> = ids.iter().copied().collect();
    let mut got: BTreeMap<u64, Vec<(String, Event)>> = BTreeMap::new();
    while !open.is_empty() {
        let text = client.recv_text().expect("frame while requests in flight");
        let e = Event::parse(&text).expect("well-formed event");
        if !ids.contains(&e.id) {
            continue;
        }
        let id = e.id;
        let terminal = matches!(e.event.as_str(), "done" | "error" | "rejected");
        got.entry(id).or_default().push((text, e));
        if terminal {
            open.remove(&id);
        }
    }
    got
}

/// Strips every `"wall_ns":<digits>` value (the only sanctioned
/// nondeterminism in metrics JSON) so frames can be byte-compared.
fn strip_wall_ns(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find("\"wall_ns\":") {
        let (head, tail) = rest.split_at(at + "\"wall_ns\":".len());
        out.push_str(head);
        out.push('0');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// A fresh (removed) per-test temp directory.
fn temp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lily-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Blanks every volatile numeric value (`wall_ns`, `threads_used`) in a
/// metrics JSON text so runs can be byte-compared.
fn strip_volatile(text: &str) -> String {
    let mut out = text.to_string();
    for key in ["\"wall_ns\":", "\"threads_used\":"] {
        let mut from = 0;
        while let Some(at) = out[from..].find(key) {
            let start = from + at + key.len();
            let end = start
                + out[start..]
                    .find(|c: char| {
                        !(c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-'))
                    })
                    .unwrap_or(out.len() - start);
            out.replace_range(start..end, "_");
            from = start + 1;
        }
    }
    out
}

/// Polls the server's `stats` endpoint until `done(snapshot)` holds or
/// the timeout expires; returns the satisfying snapshot.
fn await_stats(addr: SocketAddr, done: impl Fn(&StatsSnapshot) -> bool) -> StatsSnapshot {
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    let mut c = connect(addr);
    loop {
        c.send("{\"id\":990,\"method\":\"stats\"}").unwrap();
        let snap = StatsSnapshot::from_event(&c.recv().expect("stats reply"));
        if done(&snap) {
            return snap;
        }
        assert!(std::time::Instant::now() < deadline, "stats condition timed out: {snap:?}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The shutdown-ordering invariant: scanning a job's journal records in
/// append order, once it settles (`suspended`, `completed`, `failed`)
/// the next record for that seq must be `resumed` — a job can never be
/// both journaled-resumable and reported-failed for the same run.
fn assert_single_settlement(replay: &Replay) {
    let mut settled: BTreeMap<u64, &JournalRecord> = BTreeMap::new();
    for rec in &replay.records {
        match rec {
            JournalRecord::Accepted { seq, .. } => {
                assert!(!settled.contains_key(seq), "seq {seq} re-accepted after settling");
            }
            JournalRecord::Resumed { seq } => {
                settled.remove(seq);
            }
            JournalRecord::Suspended { seq, .. }
            | JournalRecord::Completed { seq, .. }
            | JournalRecord::Failed { seq, .. } => {
                if let Some(prior) = settled.insert(*seq, rec) {
                    panic!("seq {seq} settled twice without a resume: {prior:?} then {rec:?}");
                }
            }
        }
    }
}

/// Extracts the `"metrics":{...}` tail of a `done` frame. The reply
/// builder emits `metrics` last, so the tail (minus the outer close
/// brace) is exactly the metrics object.
fn metrics_tail(done_frame: &str) -> &str {
    let at = done_frame.find("\"metrics\":").expect("done frame has metrics");
    &done_frame[at + "\"metrics\":".len()..done_frame.len() - 1]
}

#[test]
fn ping_stats_and_malformed_frames_share_one_connection() {
    let (addr, server) = boot(ServerConfig::default());
    let mut c = connect(addr);
    c.send("{\"id\":1,\"method\":\"ping\"}").unwrap();
    assert_eq!(c.recv().unwrap().event, "pong");

    // Broken JSON in a sound frame: typed error, connection survives.
    c.send("{\"id\":, nope").unwrap();
    let e = c.recv().unwrap();
    assert_eq!(e.event, "error");
    assert_eq!(e.body.get("kind").and_then(|k| k.as_str()), Some("bad-request"));

    // Unknown method: typed error carrying the salvaged id.
    c.send("{\"id\":7,\"method\":\"transmogrify\"}").unwrap();
    let e = c.recv().unwrap();
    assert_eq!((e.id, e.event.as_str()), (7, "error"));

    c.send("{\"id\":2,\"method\":\"stats\"}").unwrap();
    let e = c.recv().unwrap();
    assert_eq!(e.event, "stats");
    let snap = StatsSnapshot::from_event(&e);
    assert!(snap.queue_capacity >= 1);
    assert_eq!(snap.completed, 0);

    shutdown(addr);
    let final_stats = server.join().unwrap();
    assert_eq!(final_stats.accepted, 0);
}

#[test]
fn healthy_map_streams_stages_then_done() {
    let (addr, server) = boot(ServerConfig::default());
    let mut c = connect(addr);
    c.send(&healthy_map(11).to_json()).unwrap();
    let events = c.drive(11).expect("terminal frame");
    assert_eq!(events.first().map(|e| e.event.as_str()), Some("accepted"));
    let stages: Vec<&str> = events
        .iter()
        .filter(|e| e.event == "stage")
        .filter_map(|e| e.body.get("stage").and_then(|s| s.as_str()))
        .collect();
    assert!(stages.contains(&"decompose") && stages.contains(&"map") && stages.contains(&"sta"));
    let done = events.last().unwrap();
    assert_eq!(done.event, "done");
    let metrics = done.body.get("metrics").expect("metrics object");
    assert!(metrics.get("cells").and_then(|c| c.as_u64()).unwrap_or(0) > 0);

    // Same library again: the warm cache must report a hit.
    c.send(&healthy_map(12).to_json()).unwrap();
    let events = c.drive(12).unwrap();
    let done = events.last().unwrap();
    assert_eq!(done.body.get("cache").and_then(|s| s.as_str()), Some("hit"));

    shutdown(addr);
    let stats = server.join().unwrap();
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.cache_hits, 1);
}

#[test]
fn probe_reports_the_match_index_size() {
    let (addr, _server) = boot(ServerConfig::default());
    let mut c = connect(addr);
    let req = ProbeRequest {
        id: 21,
        source: Source::Circuit("misex1".to_string()),
        library: "tiny".to_string(),
    };
    c.send(&req.to_json()).unwrap();
    let events = c.drive(21).unwrap();
    let done = events.last().unwrap();
    assert_eq!(done.event, "done");
    let g = lily_netlist::decompose::decompose(
        &lily_workloads::circuits::circuit("misex1"),
        lily_netlist::decompose::DecomposeOrder::Balanced,
    )
    .unwrap();
    let idx = lily_core::MatchIndex::build(&g, &lily_cells::Library::tiny()).unwrap();
    assert_eq!(done.body.get("nodes").and_then(|n| n.as_u64()), Some(g.node_count() as u64));
    assert_eq!(done.body.get("matches").and_then(|n| n.as_u64()), Some(idx.total() as u64));
    shutdown(addr);
}

#[test]
fn overload_yields_typed_rejections_and_drains() {
    let config = ServerConfig { queue_capacity: 1, workers: 1, ..ServerConfig::default() };
    let (addr, server) = boot(config);
    let mut c = connect(addr);

    // Job A occupies the single worker for ~600 ms; B fills the queue.
    let mut a = healthy_map(31);
    a.faults = latency_plan("decompose", 600);
    c.send(&a.to_json()).unwrap();
    std::thread::sleep(Duration::from_millis(150)); // worker picks A
    let mut b = healthy_map(32);
    b.faults = latency_plan("decompose", 100);
    c.send(&b.to_json()).unwrap();
    std::thread::sleep(Duration::from_millis(50)); // B sits in queue
    c.send(&healthy_map(33).to_json()).unwrap();
    c.send(&healthy_map(34).to_json()).unwrap();

    let got = collect_terminals(&mut c, &[31, 32, 33, 34]);
    let terminal = |id: u64| got[&id].last().map(|(_, e)| e.event.clone()).unwrap();
    assert_eq!(terminal(31), "done");
    assert_eq!(terminal(32), "done");
    for id in [33, 34] {
        assert_eq!(terminal(id), "rejected", "request {id} must get a typed rejection");
        let (_, e) = got[&id].last().unwrap();
        assert_eq!(e.body.get("error").and_then(|s| s.as_str()), Some("overloaded"));
        assert_eq!(e.body.get("capacity").and_then(|n| n.as_u64()), Some(1));
    }

    shutdown(addr);
    let stats = server.join().unwrap();
    assert_eq!(stats.rejected, 2);
    assert_eq!(stats.completed, 2);
}

#[test]
fn queued_request_deadline_expires_before_execution() {
    let config = ServerConfig { queue_capacity: 4, workers: 1, ..ServerConfig::default() };
    let (addr, server) = boot(config);
    let mut c = connect(addr);

    let mut blocker = healthy_map(41);
    blocker.faults = latency_plan("decompose", 500);
    c.send(&blocker.to_json()).unwrap();
    std::thread::sleep(Duration::from_millis(100));

    let mut doomed = healthy_map(42);
    doomed.deadline_ms = Some(1);
    c.send(&doomed.to_json()).unwrap();

    let got = collect_terminals(&mut c, &[41, 42]);
    assert_eq!(got[&41].last().map(|(_, e)| e.event.as_str()), Some("done"));
    let (_, e) = got[&42].last().unwrap();
    assert_eq!(e.event, "error");
    assert_eq!(e.body.get("kind").and_then(|k| k.as_str()), Some("deadline"));

    shutdown(addr);
    let stats = server.join().unwrap();
    assert_eq!(stats.deadlines, 1);
}

#[test]
fn disconnect_cancels_in_flight_work_and_server_stays_up() {
    let config = ServerConfig { queue_capacity: 4, workers: 1, ..ServerConfig::default() };
    let (addr, server) = boot(config);

    let mut doomed = connect(addr);
    let mut slow = healthy_map(51);
    slow.faults = latency_plan("decompose", 400);
    doomed.send(&slow.to_json()).unwrap();
    assert_eq!(doomed.recv().unwrap().event, "accepted");
    doomed.disconnect();

    // The server must keep serving other clients immediately.
    let mut c = connect(addr);
    c.send("{\"id\":52,\"method\":\"ping\"}").unwrap();
    assert_eq!(c.recv().unwrap().event, "pong");
    c.send(&healthy_map(53).to_json()).unwrap();
    let events = c.drive(53).unwrap();
    assert_eq!(events.last().map(|e| e.event.as_str()), Some("done"));

    shutdown(addr);
    let stats = server.join().unwrap();
    assert_eq!(stats.disconnects, 1, "the dropped connection had a request in flight");
    assert_eq!(stats.completed + stats.cancelled, 2, "the doomed job completed or cancelled");
}

#[test]
fn fault_plans_are_scoped_to_their_request() {
    let (addr, _server) = boot(ServerConfig::default());
    let mut c = connect(addr);

    let mut chaotic = healthy_map(61);
    chaotic.faults = latency_plan("map", 5);
    c.send(&chaotic.to_json()).unwrap();
    let chaotic_done = c.drive(61).unwrap();
    let (last_event, fired) = {
        let e = chaotic_done.last().unwrap();
        (e.event.clone(), e.body.get("fired_faults").and_then(|n| n.as_u64()))
    };
    assert_eq!(last_event, "done", "benign plans must be survivable");
    assert!(fired.unwrap_or(0) > 0, "the benign plan must actually fire");

    // A healthy request right after on the same connection sees none
    // of the chaos: fault plans are request-scoped, not server state.
    c.send(&healthy_map(62).to_json()).unwrap();
    let clean = c.drive(62).unwrap();
    let e = clean.last().unwrap();
    assert_eq!(e.event, "done");
    assert_eq!(e.body.get("fired_faults").and_then(|n| n.as_u64()), Some(0));
    shutdown(addr);
}

#[test]
fn kill_restart_resume_is_bit_identical() {
    let root = std::env::temp_dir().join(format!("lily-serve-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let config = || ServerConfig {
        queue_capacity: 4,
        workers: 1,
        checkpoint_root: Some(root.clone()),
        ..ServerConfig::default()
    };

    // Server #1: run the job with a kill after `map` — the wire-level
    // stand-in for the daemon dying mid-job — then shut it down.
    let (addr, server1) = boot(config());
    let mut c = connect(addr);
    let mut req = healthy_map(71);
    req.checkpoint = Some("job71".to_string());
    req.kill_after = Some("map".to_string());
    c.send(&req.to_json()).unwrap();
    let events = c.drive(71).unwrap();
    let e = events.last().unwrap();
    assert_eq!(e.event, "error");
    assert_eq!(e.body.get("kind").and_then(|k| k.as_str()), Some("interrupted"));
    shutdown(addr);
    server1.join().unwrap();

    // Server #2 (fresh process state, same checkpoint root): resend
    // without the kill; the flow resumes from the surviving stages.
    let (addr, server2) = boot(config());
    let mut c = connect(addr);
    let mut resumed = healthy_map(72);
    resumed.checkpoint = Some("job71".to_string());
    c.send(&resumed.to_json()).unwrap();
    let resumed_events = c.drive(72).unwrap();
    let resumed_done = resumed_events.last().unwrap();
    assert_eq!(resumed_done.event, "done", "resume must complete: {:?}", resumed_done.body);

    // Reference: the same request run fresh (no checkpoint) on the
    // same server. Identical modulo the sanctioned wall clocks.
    c.send(&healthy_map(73).to_json()).unwrap();
    let fresh_done_text = loop {
        let text = c.recv_text().unwrap();
        let e = Event::parse(&text).unwrap();
        if e.id == 73 && e.event == "done" {
            break text;
        }
        assert_ne!(e.event, "error", "fresh reference run failed: {:?}", e.body);
    };
    // Re-request the resumed job's metrics byte-for-byte: a third run
    // against the *completed* checkpoint replays entirely from disk.
    let mut replayed = healthy_map(74);
    replayed.checkpoint = Some("job71".to_string());
    c.send(&replayed.to_json()).unwrap();
    let replay_done_text = loop {
        let text = c.recv_text().unwrap();
        let e = Event::parse(&text).unwrap();
        if e.id == 74 && e.event == "done" {
            break text;
        }
        assert_ne!(e.event, "error", "checkpoint replay failed: {:?}", e.body);
    };

    let fresh = strip_wall_ns(metrics_tail(&fresh_done_text));
    let replayed = strip_wall_ns(metrics_tail(&replay_done_text));
    assert_eq!(fresh, replayed, "kill → restart → resume must be bit-identical");

    shutdown(addr);
    server2.join().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

/// A checkpoint resumes one flow, so a checkpointed comparison is
/// refused up front — like a checkpointed fault plan — rather than run
/// as a single flow that the admission budget counted twice.
#[test]
fn checkpointed_compare_is_a_bad_request() {
    let root = temp("ck-compare");
    let config = ServerConfig { checkpoint_root: Some(root.clone()), ..ServerConfig::default() };
    let (addr, server) = boot(config);
    let mut c = connect(addr);
    let mut req = healthy_map(75);
    req.compare = true;
    req.checkpoint = Some("job75".to_string());
    c.send(&req.to_json()).unwrap();
    let e = c.drive(75).unwrap().pop().unwrap();
    assert_eq!(e.event, "error");
    assert_eq!(e.body.get("kind").and_then(|k| k.as_str()), Some("bad-request"));
    let message = e.body.get("message").and_then(|m| m.as_str()).unwrap_or_default();
    assert!(message.contains("compare"), "{message}");
    assert!(!root.join("job75").exists(), "a refused job must not touch its checkpoint");
    shutdown(addr);
    let stats = server.join().unwrap();
    assert_eq!((stats.completed, stats.errored), (0, 1));
    let _ = std::fs::remove_dir_all(&root);
}

/// The acceptance drill: ≥8 concurrent requests mixing healthy jobs,
/// random fault plans, malformed frames, mid-request disconnects, and
/// a deadline, against a multi-worker server. Nothing may panic and
/// every surviving request must end in a typed terminal frame.
#[test]
fn concurrent_chaos_drill() {
    let config = ServerConfig { queue_capacity: 16, workers: 2, ..ServerConfig::default() };
    let (addr, server) = boot(config);

    let handles: Vec<std::thread::JoinHandle<(&'static str, String)>> = (0u64..9)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                c.set_recv_timeout(Some(Duration::from_secs(120))).unwrap();
                let id = 100 + i;
                match i {
                    // Two disconnect drills: vanish right after admission.
                    0 | 1 => {
                        let mut req = healthy_map(id);
                        req.faults = latency_plan("decompose", 200);
                        c.send(&req.to_json()).unwrap();
                        let _ = c.recv();
                        c.disconnect();
                        ("disconnect", String::new())
                    }
                    // Malformed frame, then prove the connection still works.
                    2 => {
                        c.send("not even json").unwrap();
                        let e = c.recv().expect("typed error for malformed frame");
                        assert_eq!(e.event, "error");
                        c.send(&format!("{{\"id\":{id},\"method\":\"ping\"}}")).unwrap();
                        assert_eq!(c.recv().unwrap().event, "pong");
                        ("malformed", String::new())
                    }
                    // Benign chaos: must still complete.
                    3 | 4 => {
                        let mut req = healthy_map(id);
                        req.faults = FaultSpec::Seed { seed: 0xd1ce ^ i, benign: true };
                        c.send(&req.to_json()).unwrap();
                        let events = c.drive(id).unwrap();
                        ("benign-chaos", events.last().unwrap().event.clone())
                    }
                    // Unrestricted chaos: typed outcome either way.
                    5 => {
                        let mut req = healthy_map(id);
                        req.faults = FaultSpec::Seed { seed: 0xbad ^ i, benign: false };
                        req.stage_retries = Some(0);
                        c.send(&req.to_json()).unwrap();
                        let events = c.drive(id).unwrap();
                        ("wild-chaos", events.last().unwrap().event.clone())
                    }
                    // A tight-deadline request racing real work.
                    6 => {
                        let mut req = healthy_map(id);
                        req.faults = latency_plan("decompose", 150);
                        req.deadline_ms = Some(40);
                        c.send(&req.to_json()).unwrap();
                        let events = c.drive(id).unwrap();
                        let last = events.last().unwrap();
                        let kind = last
                            .body
                            .get("kind")
                            .and_then(|k| k.as_str())
                            .unwrap_or("")
                            .to_string();
                        ("deadline", format!("{}:{kind}", last.event))
                    }
                    // Plain healthy traffic.
                    _ => {
                        c.send(&healthy_map(id).to_json()).unwrap();
                        let events = c.drive(id).unwrap();
                        ("healthy", events.last().unwrap().event.clone())
                    }
                }
            })
        })
        .collect();

    for h in handles {
        let (class, outcome) = h.join().expect("no client panics");
        match class {
            "healthy" | "benign-chaos" => assert_eq!(outcome, "done", "{class} must complete"),
            "wild-chaos" => assert!(
                outcome == "done" || outcome == "error",
                "wild chaos must end typed, got {outcome}"
            ),
            "deadline" => assert!(
                outcome == "done" || outcome == "error:deadline",
                "deadline request must finish or time out typed, got {outcome}"
            ),
            _ => {}
        }
    }

    // The server is still healthy after the storm.
    let mut c = connect(addr);
    c.send("{\"id\":900,\"method\":\"stats\"}").unwrap();
    let snap = StatsSnapshot::from_event(&c.recv().unwrap());
    assert!(snap.completed >= 4, "healthy + benign traffic completed");
    c.send(&healthy_map(901).to_json()).unwrap();
    assert_eq!(c.drive(901).unwrap().last().unwrap().event, "done");

    shutdown(addr);
    let stats = server.join().unwrap();
    assert_eq!(stats.workers, 2);
}

/// An `accepted` journal record with no terminal record — exactly what
/// `kill -9` mid-job leaves behind — must be re-admitted and finished
/// on the next boot with no client participation, and the journal must
/// show the full `accepted → resumed → completed` audit trail.
#[test]
fn journal_orphan_is_auto_resumed_on_restart() {
    let jdir = temp("journal-orphan");
    let ckroot = temp("ck-orphan");

    // Plant the orphan: a checkpointed request accepted as seq 3,
    // journaled, then abandoned (the "daemon" dies before working).
    {
        let (journal, replay) = Journal::open(&jdir).expect("open journal");
        assert_eq!(replay, Replay::default());
        let mut req = healthy_map(81);
        req.checkpoint = Some("orphan81".to_string());
        journal.append(&JournalRecord::Accepted { seq: 3, request: req.to_json() }).unwrap();
    }

    let config = ServerConfig {
        workers: 1,
        journal_dir: Some(jdir.clone()),
        checkpoint_root: Some(ckroot.clone()),
        ..ServerConfig::default()
    };
    let (addr, server) = boot(config);
    let snap = await_stats(addr, |s| s.completed >= 1);
    assert_eq!(snap.resumed, 1, "the orphan must be re-admitted at startup");

    // Reference: the same circuit run fresh over the wire.
    let mut c = connect(addr);
    c.send(&healthy_map(82).to_json()).unwrap();
    let events = c.drive(82).unwrap();
    let done = events.last().unwrap();
    assert_eq!(done.event, "done");
    let fresh_metrics = {
        c.send(&healthy_map(83).to_json()).unwrap();
        let text = loop {
            let text = c.recv_text().unwrap();
            let e = Event::parse(&text).unwrap();
            if e.id == 83 && e.event == "done" {
                break text;
            }
            assert_ne!(e.event, "error", "reference run failed");
        };
        strip_volatile(metrics_tail(&text))
    };

    shutdown(addr);
    let stats = server.join().unwrap();
    assert_eq!((stats.resumed, stats.journal_torn), (1, 0));
    assert!(stats.completed >= 3);

    let replay = replay_dir(&jdir).expect("replay");
    assert_single_settlement(&replay);
    let seq3: Vec<&str> =
        replay.records.iter().filter(|r| r.seq() == 3).map(JournalRecord::kind).collect();
    assert_eq!(seq3, ["accepted", "resumed", "completed"], "durable audit trail");
    let resumed_metrics = strip_volatile(replay.completed_metrics(3).expect("journaled metrics"));
    assert_eq!(resumed_metrics, fresh_metrics, "auto-resume must be bit-identical");
    assert!(replay.orphans().is_empty(), "nothing left to resume");

    let _ = std::fs::remove_dir_all(&jdir);
    let _ = std::fs::remove_dir_all(&ckroot);
}

/// The two layers of stuck-job defense. A *cooperative* stall (the
/// `watchdog-trip` fault polls the attempt token) is cut by the stage
/// deadline itself — no watchdog needed. A *non-cooperative* hang
/// (injected latency sleeps through everything) blows past the whole
/// stage-deadline budget; only the watchdog can cut it, and the job is
/// reported as a typed `watchdog` error and journaled `suspended` —
/// resumable, never *also* failed.
#[test]
fn watchdog_cancels_a_stuck_job_and_journals_it_resumable() {
    let jdir = temp("journal-watchdog");
    let config = ServerConfig {
        workers: 1,
        journal_dir: Some(jdir.clone()),
        watchdog_grace: Duration::from_millis(50),
        ..ServerConfig::default()
    };
    let (addr, server) = boot(config);
    let mut c = connect(addr);

    // Layer 1: a cooperative stall dies at the 5 ms stage deadline,
    // milliseconds in — the watchdog (whose limit is the *whole*
    // deadline budget plus grace) never needs to fire.
    let mut stalled = healthy_map(84);
    stalled.stage_deadline_ms = Some(5);
    stalled.stage_retries = Some(0);
    let mut plan = FaultPlan::new();
    plan.push("decompose", 0, FaultKind::WatchdogTrip(60_000));
    stalled.faults = FaultSpec::Plan(plan);
    c.send(&stalled.to_json()).unwrap();
    let last = c.drive(84).unwrap().last().unwrap().clone();
    assert_eq!(last.event, "error");
    assert_eq!(last.body.get("kind").and_then(|k| k.as_str()), Some("stage-deadline"));

    // Layer 2: a non-cooperative hang (plain sleep, polls nothing)
    // exceeds the job's full deadline budget (~45 ms) plus the 50 ms
    // grace; the watchdog cancels it from outside.
    let mut hung = healthy_map(85);
    hung.stage_deadline_ms = Some(5);
    hung.stage_retries = Some(0);
    hung.faults = latency_plan("decompose", 1_500);
    c.send(&hung.to_json()).unwrap();
    let last = c.drive(85).expect("typed terminal").last().unwrap().clone();
    assert_eq!(last.event, "error");
    assert_eq!(
        last.body.get("kind").and_then(|k| k.as_str()),
        Some("watchdog"),
        "hung job must surface as a watchdog cancellation: {:?}",
        last.body
    );

    shutdown(addr);
    let stats = server.join().unwrap();
    assert_eq!(stats.watchdog_trips, 1, "only the non-cooperative hang trips");
    assert_eq!(stats.cancelled, 1, "the trip is accounted as a cancellation");
    assert_eq!(stats.errored, 1, "the stage-deadline error is ordinary");

    let replay = replay_dir(&jdir).expect("replay");
    assert_single_settlement(&replay);
    let per_seq = |seq: u64| -> Vec<&str> {
        replay.records.iter().filter(|r| r.seq() == seq).map(JournalRecord::kind).collect()
    };
    assert_eq!(per_seq(1), ["accepted", "failed"], "deadline error settles terminally");
    assert_eq!(per_seq(2), ["accepted", "suspended"], "tripped job parks resumable");
    assert!(matches!(
        replay.records.iter().find(|r| r.kind() == "suspended"),
        Some(JournalRecord::Suspended { reason, .. }) if reason == "watchdog"
    ));
    assert_eq!(replay.orphans().len(), 1, "the suspended job stays resumable");

    let _ = std::fs::remove_dir_all(&jdir);
}

/// The top rung of the memory-budget ladder: a job whose estimated
/// peak exceeds the budget gets a typed `rejected{reason:"memory"}`
/// frame before any allocation happens, and the server keeps serving
/// jobs that fit.
#[test]
fn memory_budget_rejects_oversized_jobs_typed() {
    let config =
        ServerConfig { workers: 1, memory_budget: Some(8 << 20), ..ServerConfig::default() };
    let (addr, server) = boot(config);
    let mut c = connect(addr);

    // ~20k parsed nodes → ~50 MiB estimated peak: over the 8 MiB budget.
    let mut huge = healthy_map(86);
    huge.source = Source::Circuit("scale:random-dag:20000:7".to_string());
    c.send(&huge.to_json()).unwrap();
    let events = c.drive(86).unwrap();
    let last = events.last().unwrap();
    assert_eq!(last.event, "rejected");
    assert_eq!(last.body.get("reason").and_then(|s| s.as_str()), Some("memory"));

    // A scale-family circuit that fits sails through on the same
    // connection — the refusal cost nothing but the estimate.
    let mut small = healthy_map(87);
    small.source = Source::Circuit("scale:tree-adder:128:1".to_string());
    c.send(&small.to_json()).unwrap();
    let events = c.drive(87).unwrap();
    assert_eq!(events.last().map(|e| e.event.as_str()), Some("done"));

    shutdown(addr);
    let stats = server.join().unwrap();
    assert_eq!(stats.memory_rejections, 1);
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.completed, 1);
}

/// The middle rung: a job over *half* the budget is admitted but
/// degraded (with an `audit` frame) to checkpoint-every-stage
/// streaming under a deterministic `auto-<seq>` checkpoint id.
#[test]
fn memory_pressure_degrades_to_streaming_with_audit() {
    let ckroot = temp("ck-stream");
    let config = ServerConfig {
        workers: 1,
        memory_budget: Some(8 << 20),
        checkpoint_root: Some(ckroot.clone()),
        ..ServerConfig::default()
    };
    let (addr, server) = boot(config);
    let mut c = connect(addr);

    // misex1 estimates ~6 MiB: under the 8 MiB budget, over half of it.
    c.send(&healthy_map(88).to_json()).unwrap();
    let events = c.drive(88).unwrap();
    assert_eq!(events.last().map(|e| e.event.as_str()), Some("done"));
    let audit = events
        .iter()
        .find(|e| e.event == "audit")
        .expect("over-half-budget admission must be audited");
    assert_eq!(audit.body.get("what").and_then(|s| s.as_str()), Some("memory-stream"));

    // The degradation is real: the first job (seq 1) streamed its
    // stages into the deterministic auto checkpoint.
    assert!(ckroot.join("auto-1").join("manifest.json").exists(), "auto checkpoint on disk");

    shutdown(addr);
    let stats = server.join().unwrap();
    assert_eq!((stats.completed, stats.memory_rejections), (1, 0));
    let _ = std::fs::remove_dir_all(&ckroot);
}

/// A comparison over half the budget is admitted as is: checkpoint
/// streaming resumes single flows only, so it must not turn the job
/// into one (nor refuse it).
#[test]
fn memory_pressure_never_streams_a_comparison() {
    let ckroot = temp("ck-stream-compare");
    let config = ServerConfig {
        workers: 1,
        memory_budget: Some(16 << 20),
        checkpoint_root: Some(ckroot.clone()),
        ..ServerConfig::default()
    };
    let (addr, server) = boot(config);
    let mut c = connect(addr);

    // Two misex1 tails estimate ~12 MiB: under the budget, over half.
    let mut req = healthy_map(89);
    req.compare = true;
    c.send(&req.to_json()).unwrap();
    let events = c.drive(89).unwrap();
    let done = events.last().unwrap();
    assert_eq!(done.event, "done", "{:?}", done.body);
    assert!(done.body.get("lily").is_some(), "a comparison replies with both flows");
    assert!(events.iter().all(|e| e.event != "audit"), "no streaming audit");
    assert!(!ckroot.join("auto-1").exists(), "no auto checkpoint for a comparison");

    shutdown(addr);
    let stats = server.join().unwrap();
    assert_eq!((stats.completed, stats.memory_rejections), (1, 0));
    let _ = std::fs::remove_dir_all(&ckroot);
}

/// Satellite drill for torn terminal records: a `torn-write` fault
/// makes the daemon journal a job's *completed* record half-written
/// (as if killed mid-append). The next boot must skip the torn tail
/// with an audit count — never fail startup — and re-run the job,
/// whose `accepted` record the truncation healed back into an orphan.
#[test]
fn torn_terminal_record_is_skipped_and_job_reruns_on_restart() {
    let jdir = temp("journal-torn");
    let config =
        || ServerConfig { workers: 1, journal_dir: Some(jdir.clone()), ..ServerConfig::default() };

    let (addr, server1) = boot(config());
    let mut c = connect(addr);
    let mut req = healthy_map(91);
    let mut plan = FaultPlan::new();
    plan.push("decompose", 0, FaultKind::TornWrite);
    req.faults = FaultSpec::Plan(plan);
    c.send(&req.to_json()).unwrap();
    let events = c.drive(91).unwrap();
    assert_eq!(events.last().map(|e| e.event.as_str()), Some("done"), "fault is journal-only");
    shutdown(addr);
    server1.join().unwrap();

    // The client saw `done`, but the journal's completed record is
    // torn: replay stops before it and the job scans as an orphan.
    let replay = replay_dir(&jdir).expect("replay");
    assert_eq!(replay.torn, 1);
    assert_eq!(replay.records.len(), 1);
    assert_eq!(replay.orphans().len(), 1);

    // Boot #2 truncates the torn tail, counts it, and re-runs the job.
    let (addr, server2) = boot(config());
    let snap = await_stats(addr, |s| s.completed >= 1);
    assert_eq!((snap.resumed, snap.journal_torn), (1, 1));
    shutdown(addr);
    server2.join().unwrap();

    let replay = replay_dir(&jdir).expect("replay after heal");
    assert_single_settlement(&replay);
    let kinds: Vec<&str> = replay.records.iter().map(JournalRecord::kind).collect();
    assert_eq!(kinds, ["accepted", "resumed", "completed"]);
    assert_eq!(replay.torn, 0, "the torn tail was truncated away");

    let _ = std::fs::remove_dir_all(&jdir);
}
