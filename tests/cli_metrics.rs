//! The binaries end to end: `lily-check`'s `--metrics-json` output
//! names every one of the eight pipeline stages, each with a nonzero
//! wall time; `--kill-after` stops a checkpointed run with exit code 3
//! and a re-run resumes it; and `lily-loadgen`'s chaos traffic against
//! a server finds no internal panic and reports its headline figures.

use std::path::PathBuf;
use std::process::Command;

use lily::serve::{Server, ServerConfig};

fn temp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lily-cli-{tag}-{}", std::process::id()))
}

#[test]
fn metrics_json_times_every_pipeline_stage() {
    let out = temp("metrics.json");
    let status = Command::new(env!("CARGO_BIN_EXE_lily-check"))
        .args(["--circuit", "misex1", "--flow", "lily-area", "--metrics-json"])
        .arg(&out)
        .output()
        .expect("lily-check starts")
        .status;
    let json = std::fs::read_to_string(&out).expect("metrics JSON written");
    let _ = std::fs::remove_file(&out);
    assert!(status.success(), "lily-check exited with {status}");
    for stage in [
        "decompose",
        "assign-pads",
        "subject-place",
        "map",
        "legalize",
        "detailed-place",
        "route-estimate",
        "sta",
    ] {
        assert!(json.contains(&format!("\"stage\":\"{stage}\"")), "stage `{stage}` missing");
    }
    assert!(
        !json.contains("\"wall_ns\":0,") && !json.contains("\"wall_ns\":0}"),
        "a stage reported zero wall time: {json}"
    );
}

#[test]
fn kill_after_exits_3_and_a_rerun_resumes() {
    let dir = temp("checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
    let check = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_lily-check"))
            .args(["--circuit", "misex1", "--flow", "lily-area", "--checkpoint-dir"])
            .arg(&dir)
            .args(extra)
            .output()
            .expect("lily-check starts")
            .status
    };
    assert_eq!(check(&["--kill-after", "map"]).code(), Some(3));
    for artifact in ["00-decompose.json", "03-map.json"] {
        assert!(dir.join(artifact).is_file(), "no {artifact} after the kill");
    }
    let resumed = check(&[]);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(resumed.success(), "resume exited with {resumed}");
}

#[test]
fn loadgen_chaos_traffic_finds_no_panic() {
    let server = Server::bind(ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    let out = temp("serve.json");
    let status = Command::new(env!("CARGO_BIN_EXE_lily-loadgen"))
        .args(["--addr", &addr, "--clients", "4", "--requests", "5", "--deadline-ms", "250"])
        .args(["--seed", "5e21e", "--shutdown", "--out"])
        .arg(&out)
        .output()
        .expect("lily-loadgen starts")
        .status;
    // Checked before the join: a loadgen that fails never sends the
    // shutdown, so the server would run on.
    assert!(status.success(), "lily-loadgen exited with {status}");
    let report = std::fs::read_to_string(&out).expect("report written");
    let _ = std::fs::remove_file(&out);
    let stats = handle.join().expect("server thread");
    for field in
        ["latency_p50_ns", "latency_p99_ns", "rejection_rate", "cache_hit_rate", "internal_panics"]
    {
        assert!(report.contains(&format!("\"{field}\"")), "report lacks {field}: {report}");
    }
    assert!(stats.completed > 0, "no job completed: {stats:?}");
}
