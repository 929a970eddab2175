//! The stage-graph flow's per-stage metrics through the `lily-check`
//! CLI: a bundled workload's `--metrics-json` output names every one of
//! the eight pipeline stages, each with a nonzero wall time. Guards
//! against a stage silently dropping out of the pipeline or the JSON
//! writer losing the stages table.

use std::process::Command;

#[test]
fn metrics_json_times_every_pipeline_stage() {
    let out = std::env::temp_dir().join(format!("lily-cli-metrics-{}.json", std::process::id()));
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
