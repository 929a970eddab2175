//! The contract matrix: every flow gives the same bits at any thread
//! count, under a benign fault plan, after a kill and resume, and when
//! run through `lily-serve`.
//!
//! Each row is one input under one flow. Every cell of a row — an
//! execution at a thread count — runs into a fresh checkpoint
//! directory and is compared with the row's plain 1-thread run twice
//! over: the FNV-1a hash of every `NN-<stage>.json` artifact file, and
//! the metrics JSON, parsed, with only the `wall_ns` and `threads_used`
//! keys removed. The executions are:
//!
//! * plain; the 1-thread run also has every `lily-check` pass
//!   asserted error-free (the other cells match it bit for bit);
//! * a fixed plan of benign faults that leave values alone (closed
//!   workers, latency, an untripped watchdog stall);
//! * killed after each of the eight stages, then resumed at the next
//!   thread count in [`THREADS`];
//! * one request to an in-process `lily-serve` server.
//!
//! misex1 runs every cell under all six flows. Two inputs pin the
//! artifact hashes themselves: the flow fixture under Lily (flat
//! placement path) and `random-dag-2000` (seed 7) under the cut mapper
//! (multilevel placement path); a change to an artifact codec, or to
//! any artifact a stage produces, shows up there file by file.
//!
//! The larger inputs run plain only, in release builds:
//! `cargo test --release --test contracts -- --include-ignored`.
//!
//! `lily_par::set_threads` is process-wide, so the tests in this file
//! take turns on one lock.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use lily::cells::Library;
use lily::core::checkpoint::STAGE_NAMES;
use lily::core::flow::{FlowOptions, FlowResult, FlowRun};
use lily::core::json::Json;
use lily::core::MapError;
use lily::fault::{FaultKind, FaultPlan};
use lily::netlist::Network;
use lily::serve::{Client, FaultSpec, MapRequest, Server, ServerConfig, Source, StatsSnapshot};
use lily::workloads::structured::flow_fixture;
use lily::workloads::{circuit, scale_circuit, ScaleFamily};

const THREADS: [usize; 3] = [1, 2, 8];

/// A flow's name (as `lily-check` and `lily-serve` take it) and its
/// options.
type Flow = (&'static str, fn() -> FlowOptions);

const FLOWS: [Flow; 6] = [
    ("mis-area", FlowOptions::mis_area),
    ("lily-area", FlowOptions::lily_area),
    ("cut-area", FlowOptions::cut_area),
    ("mis-delay", FlowOptions::mis_delay),
    ("lily-delay", FlowOptions::lily_delay),
    ("cut-delay", FlowOptions::cut_delay),
];
const LILY_AREA: Flow = FLOWS[1];
const CUT_AREA: Flow = FLOWS[2];

const GOLDEN_FIXTURE: [(&str, u64); 8] = [
    ("00-decompose.json", 0x1df5_5f7a_c97a_951e),
    ("01-assign-pads.json", 0x89da_dd1a_38aa_a49b),
    ("02-subject-place.json", 0x9997_0d65_8446_dde1),
    ("03-map.json", 0x6fe4_9e28_5b32_4850),
    ("04-legalize.json", 0xa4b2_d624_5343_4ff6),
    ("05-detailed-place.json", 0x1ba8_cc97_db2a_dcf0),
    ("06-route-estimate.json", 0xcfcc_d9ef_99ae_68a8),
    ("07-sta.json", 0x7c5c_1600_bf6c_9be1),
];

const GOLDEN_DAG: [(&str, u64); 8] = [
    ("00-decompose.json", 0x37d5_85f2_eb7e_716a),
    ("01-assign-pads.json", 0xb5d6_8f01_f488_11ec),
    ("02-subject-place.json", 0x34c6_0882_20cf_1b0e),
    ("03-map.json", 0xe022_317c_18ee_4552),
    ("04-legalize.json", 0x64b0_313b_1fb5_65a1),
    ("05-detailed-place.json", 0xb28d_b558_ea1c_36a3),
    ("06-route-estimate.json", 0xa520_a006_de63_796f),
    ("07-sta.json", 0xabc0_b285_1213_efe7),
];

static SERIAL: Mutex<()> = Mutex::new(());

/// One input under one flow.
struct Row {
    /// The input's name; a bundled circuit's name is also its serve
    /// source.
    input: &'static str,
    net: Network,
    flow: Flow,
    lib: Library,
    /// Whether the flow takes the multilevel placement path, so the
    /// cluster-hierarchy pass must run (and be clean).
    multilevel: bool,
}

impl Row {
    fn new(input: &'static str, net: Network, flow: Flow, lib: Library) -> Self {
        Self { input, net, flow, lib, multilevel: false }
    }

    fn multilevel(self) -> Self {
        Self { multilevel: true, ..self }
    }

    fn label(&self) -> String {
        format!("{}/{}", self.input, self.flow.0)
    }

    fn options(&self) -> FlowOptions {
        (self.flow.1)()
    }
}

#[derive(Debug, Clone, Copy)]
enum Exec {
    Plain,
    Faults,
    KillAfter(&'static str),
    Serve,
}

/// What a run leaves behind: every artifact file's hash, in file-name
/// order, and the metrics JSON without its volatile keys.
struct Outcome {
    artifacts: Vec<(String, u64)>,
    metrics: Json,
}

/// FNV-1a 64 over a file's bytes.
fn file_hash(path: &Path) -> u64 {
    let bytes = std::fs::read(path).expect("artifact file");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The hash of every artifact file in a checkpoint directory.
fn artifact_hashes(dir: &Path) -> Vec<(String, u64)> {
    let mut files: Vec<String> = std::fs::read_dir(dir)
        .expect("checkpoint dir")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name != "manifest.json")
        .collect();
    files.sort();
    files.into_iter().map(|f| (f.clone(), file_hash(&dir.join(f)))).collect()
}

/// The metrics JSON with every `wall_ns` and `threads_used` key removed.
fn stable(metrics: Json) -> Json {
    match metrics {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| k != "wall_ns" && k != "threads_used")
                .map(|(k, v)| (k, stable(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.into_iter().map(stable).collect()),
        other => other,
    }
}

/// Faults that fire without changing a computed value.
fn benign_plan() -> FaultPlan {
    let mut plan = FaultPlan::new();
    plan.push("assign-pads", 0, FaultKind::Latency(1));
    plan.push("map", 0, FaultKind::CloseWorkers(2));
    plan.push("legalize", 0, FaultKind::WatchdogTrip(1));
    plan.push("route-estimate", 0, FaultKind::CloseWorkers(1));
    plan
}

/// A running in-process `lily-serve`, one worker, so each job runs at
/// the process's configured thread count.
struct Serve {
    client: Client,
    handle: std::thread::JoinHandle<StatsSnapshot>,
    root: PathBuf,
    next_id: u64,
}

impl Serve {
    fn boot(root: PathBuf) -> Self {
        let config = ServerConfig {
            workers: 1,
            checkpoint_root: Some(root.clone()),
            ..ServerConfig::default()
        };
        let server = Server::bind(config).expect("bind loopback");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        client.set_recv_timeout(Some(Duration::from_secs(300))).expect("timeout");
        let handle = std::thread::spawn(move || server.run().expect("server run"));
        Self { client, handle, root, next_id: 1 }
    }

    /// Runs `row` (a bundled circuit) as a checkpointed job.
    fn run(&mut self, row: &Row, job: &str) -> Outcome {
        let id = self.next_id;
        self.next_id += 1;
        let request = MapRequest {
            id,
            source: Source::Circuit(row.input.to_string()),
            library: "big".to_string(),
            flow: row.flow.0.to_string(),
            compare: false,
            deadline_ms: None,
            stage_deadline_ms: None,
            stage_retries: None,
            faults: FaultSpec::None,
            checkpoint: Some(job.to_string()),
            kill_after: None,
        };
        self.client.send(&request.to_json()).expect("send");
        let done = self.client.drive(id).expect("serve reply").pop().expect("terminal frame");
        assert_eq!(done.event, "done", "{}: {:?}", row.label(), done.body);
        let metrics = done.body.get("metrics").expect("done carries metrics").clone();
        Outcome { artifacts: artifact_hashes(&self.root.join(job)), metrics: stable(metrics) }
    }

    fn shutdown(mut self) {
        self.client.send("{\"id\":0,\"method\":\"shutdown\"}").expect("send shutdown");
        assert_eq!(self.client.recv().expect("shutdown ack").event, "ok");
        self.handle.join().expect("server thread");
    }
}

/// Asserts every `lily-check` pass over a finished flow is error-free
/// and its cluster hierarchy, if it has one, clean; a multilevel row
/// must have one.
fn assert_checks_pass(row: &Row, r: &FlowResult) {
    let report = lily::check::check_flow(
        &row.net,
        &r.artifacts.subject,
        &r.mapped,
        &row.lib,
        row.options().physical.multilevel_threshold,
        lily::check::DEFAULT_VECTORS,
        lily::check::DEFAULT_SEED,
    )
    .expect("check passes run");
    for (pass, report) in &report.passes {
        let label = format!("{} {pass}", row.label());
        match report {
            Some(r) => {
                assert!(!r.has_errors(), "{label}: {r}");
                assert!(*pass != "hierarchy" || r.is_clean(), "{label}: {r}");
            }
            None => assert!(*pass != "hierarchy" || !row.multilevel, "{label}: skipped"),
        }
    }
}

/// The thread count a run killed at `threads` resumes at.
fn resume_threads(threads: usize) -> usize {
    let i = THREADS.iter().position(|&t| t == threads).unwrap_or(0);
    THREADS[(i + 1) % THREADS.len()]
}

/// Runs one cell of `row`, into the empty directory `dir` unless it
/// goes through `serve`.
fn run(row: &Row, exec: Exec, threads: usize, dir: &Path, serve: Option<&mut Serve>) -> Outcome {
    let checkpoint = Some(dir.to_path_buf());
    let options = row.options();
    lily::par::set_threads(Some(threads));
    let result = match exec {
        Exec::Plain => {
            let run = FlowRun { checkpoint, ..FlowRun::default() };
            let r = run.single(&row.net, &row.lib, &options).0.expect("plain flow");
            if threads == 1 {
                assert_checks_pass(row, &r);
            }
            r
        }
        Exec::Faults => {
            let run = FlowRun { faults: benign_plan(), checkpoint, ..FlowRun::default() };
            let (r, report) = run.single(&row.net, &row.lib, &options);
            assert!(!report.fired.is_empty(), "{}: the fault plan never fired", row.label());
            r.expect("flow under benign faults")
        }
        Exec::KillAfter(stage) => {
            let kill = FlowRun {
                checkpoint: checkpoint.clone(),
                interrupt_after: Some(stage.to_string()),
                ..FlowRun::default()
            };
            // A flow that never runs `stage` (MIS has no subject
            // placement) completes instead.
            match kill.single(&row.net, &row.lib, &options).0 {
                Err(MapError::Interrupted { stage: at }) => assert_eq!(at, stage),
                other => drop(other.expect("killed flow")),
            }
            lily::par::set_threads(Some(resume_threads(threads)));
            let resume = FlowRun { checkpoint, ..FlowRun::default() };
            resume.single(&row.net, &row.lib, &options).0.expect("resumed flow")
        }
        Exec::Serve => {
            let serve = serve.expect("serve cells need a server");
            return serve.run(row, &format!("{}-{threads}", row.flow.0));
        }
    };
    let metrics = Json::parse(&result.metrics.to_json()).expect("metrics JSON parses");
    Outcome { artifacts: artifact_hashes(dir), metrics: stable(metrics) }
}

/// Runs `row` under every execution in `execs` at every thread count,
/// comparing each cell with the plain 1-thread run; pins that run's
/// artifact hashes to `golden` when given.
fn check_row(
    row: &Row,
    execs: &[Exec],
    golden: Option<&[(&str, u64)]>,
    mut serve: Option<&mut Serve>,
    scratch: &Path,
) {
    let mut cells = 0usize;
    let mut dir = || {
        cells += 1;
        let dir = scratch.join(format!("cell-{cells}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    let reference = run(row, Exec::Plain, 1, &dir(), None);
    if let Some(golden) = golden {
        let got: Vec<(&str, u64)> =
            reference.artifacts.iter().map(|(f, h)| (f.as_str(), *h)).collect();
        assert_eq!(got, golden, "{}: golden artifact hashes", row.label());
    }
    for metric in ["chip_area_channeled_um2", "peak_congestion"] {
        let value = reference.metrics.get(metric).and_then(Json::as_f64);
        assert!(value.is_some_and(|v| v > 0.0), "{}: {metric} is {value:?}", row.label());
    }
    for &exec in execs {
        for threads in THREADS {
            if matches!(exec, Exec::Plain) && threads == 1 {
                continue;
            }
            let got = run(row, exec, threads, &dir(), serve.as_deref_mut());
            let cell = format!("{} {exec:?} at {threads} threads", row.label());
            assert_eq!(got.artifacts, reference.artifacts, "{cell}: stage artifacts");
            assert_eq!(got.metrics, reference.metrics, "{cell}: metrics");
        }
    }
    lily::par::set_threads(None);
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lily-contracts-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn every_flow_is_bit_exact_across_threads_faults_resume_and_serve() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let root = scratch("tier1");
    let mut execs = vec![Exec::Plain, Exec::Faults, Exec::Serve];
    execs.extend(STAGE_NAMES.iter().map(|&s| Exec::KillAfter(s)));
    let mut serve = Serve::boot(root.join("serve"));
    for flow in FLOWS {
        let row = Row::new("misex1", circuit("misex1"), flow, Library::big());
        check_row(&row, &execs, None, Some(&mut serve), &root.join(flow.0));
    }
    serve.shutdown();

    let fixture = Row::new("fixture", flow_fixture(), LILY_AREA, Library::big());
    check_row(&fixture, &[Exec::Plain], Some(&GOLDEN_FIXTURE), None, &root.join("fixture"));
    let dag = scale_circuit(ScaleFamily::RandomDag, 2000, 7);
    let dag = Row::new("random-dag-2000-s7", dag, CUT_AREA, Library::big()).multilevel();
    check_row(&dag, &[Exec::Plain], Some(&GOLDEN_DAG), None, &root.join("dag"));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
#[ignore = "release-sized inputs: cargo test --release --test contracts -- --include-ignored"]
fn large_inputs_are_bit_exact_across_threads() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let root = scratch("release");
    let dag = |nodes, seed| scale_circuit(ScaleFamily::RandomDag, nodes, seed);
    let adder = scale_circuit(ScaleFamily::TreeAdder, 4000, 1);
    let mut rows = vec![
        Row::new("random-dag-2000", dag(2000, 1), CUT_AREA, Library::big()),
        Row::new("tree-adder-4000", adder, CUT_AREA, Library::big()),
        Row::new("random-dag-20000", dag(20_000, 1), CUT_AREA, Library::big()).multilevel(),
    ];
    // The stage-equivalence golden set, whose 1-thread values
    // `stage_equiv` pins.
    let (cut, tree): (Vec<Flow>, Vec<Flow>) =
        FLOWS.into_iter().partition(|f| f.0.starts_with("cut"));
    for name in ["misex1", "b9", "9symml", "apex7", "C432"] {
        for &flow in &tree {
            rows.push(Row::new(name, circuit(name), flow, golden_lib(flow)));
        }
    }
    for (name, net) in [
        ("misex1", circuit("misex1")),
        ("C432", circuit("C432")),
        ("random-dag-1000-s7", dag(1000, 7)),
    ] {
        for &flow in &cut {
            rows.push(Row::new(name, net.clone(), flow, golden_lib(flow)));
        }
    }
    rows.push(Row::new("random-dag-2000-s7", dag(2000, 7), CUT_AREA, Library::big()));
    for row in &rows {
        check_row(row, &[Exec::Plain], None, None, &root);
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// The library `stage_equiv` maps each flow with.
fn golden_lib(flow: Flow) -> Library {
    if flow.0.ends_with("-delay") {
        Library::big_1u()
    } else {
        Library::big()
    }
}
