//! Bit-exact pins of the checkpoint format.
//!
//! A completed checkpointed run writes one `NN-<stage>.json` artifact
//! file per stage. The golden hashes below cover every byte of every
//! such file for two inputs: the flow fixture under Lily (flat
//! placement path) and `random-dag-2000` (seed 7) under the cut mapper
//! (multilevel placement path). They must be reproduced at any thread
//! count; a change to an artifact codec, or to any artifact a stage
//! produces, shows up here file by file.

use std::path::{Path, PathBuf};

use lily_cells::Library;
use lily_core::flow::{FlowOptions, FlowRun};
use lily_netlist::Network;
use lily_workloads::structured::flow_fixture;
use lily_workloads::{scale_circuit, ScaleFamily};

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

/// Runs one checkpointed flow into a fresh directory and returns the
/// hash of every artifact file, in file-name order.
fn artifact_hashes(tag: &str, net: &Network, options: &FlowOptions) -> Vec<(String, u64)> {
    let lib = Library::big();
    let dir: PathBuf =
        std::env::temp_dir().join(format!("lily-ckpt-exact-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run = FlowRun { checkpoint: Some(dir.clone()), ..FlowRun::default() };
    run.single(net, &lib, options).0.expect("checkpointed flow");
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("checkpoint dir")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name != "manifest.json")
        .collect();
    files.sort();
    let hashes = files
        .into_iter()
        .map(|f| {
            let h = file_hash(&dir.join(&f));
            (f, h)
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    hashes
}

fn assert_golden(got: &[(String, u64)], golden: &[(&str, u64)], what: &str) {
    let got: Vec<(&str, u64)> = got.iter().map(|(f, h)| (f.as_str(), *h)).collect();
    assert_eq!(got, golden, "{what}");
}

#[test]
fn checkpoint_artifacts_are_bit_exact_at_any_thread_count() {
    let dag = scale_circuit(ScaleFamily::RandomDag, 2000, 7);
    for threads in [1, 2, 8] {
        lily_par::set_threads(Some(threads));
        let fixture = artifact_hashes("fixture", &flow_fixture(), &FlowOptions::lily_area());
        assert_golden(&fixture, &GOLDEN_FIXTURE, &format!("fixture at {threads} threads"));
        let dag = artifact_hashes("dag", &dag, &FlowOptions::cut_area());
        assert_golden(&dag, &GOLDEN_DAG, &format!("random-dag-2000 at {threads} threads"));
    }
    lily_par::set_threads(None);
}
