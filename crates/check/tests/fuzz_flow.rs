//! Bounded fuzz smoke test: seeded mutated-BLIF and generator-parameter
//! inputs driven through the full mapping flow must never panic — every
//! case ends in `Ok` or a structured [`lily_core::MapError`].
//!
//! This is the tier-1-sized slice of the harness; the `lily-fuzz`
//! binary runs the same driver over thousands of cases.

use std::panic::{catch_unwind, AssertUnwindSafe};

use lily_cells::Library;
use lily_core::flow::FlowOptions;
use lily_netlist::{blif, Network};
use lily_workloads::fuzz;
use lily_workloads::gen::generate;

const CASES: u64 = 100;
const SEED: u64 = 0x1117_f1ce;

/// Flow configuration for case `i`: cycles the mappers' objectives.
fn options_for(i: u64) -> FlowOptions {
    let mut opts = match i % 3 {
        0 => FlowOptions::mis_area(),
        1 => FlowOptions::lily_area(),
        _ => FlowOptions::lily_delay(),
    };
    opts.verify = false;
    opts
}

/// Runs one network through the flow; the return value is irrelevant —
/// only "did it panic" matters.
fn drive(net: &Network, lib: &Library, i: u64) {
    let _ = options_for(i).run_detailed(net, lib);
}

#[test]
fn fuzzed_inputs_never_panic() {
    let corpus = fuzz::corpus();
    let lib = Library::big();
    let mut parsed = 0u64;
    for i in 0..CASES {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if i % 2 == 0 {
                let bytes = fuzz::blif_case(&corpus, SEED, i);
                let text = String::from_utf8_lossy(&bytes);
                if let Ok(net) = blif::parse(&text) {
                    parsed += 1;
                    drive(&net, &lib, i);
                }
            } else {
                let net = generate(fuzz::gen_case(SEED, i)).network;
                drive(&net, &lib, i);
            }
        }));
        assert!(outcome.is_ok(), "fuzz case {i} (seed {SEED:#x}) panicked");
    }
    // Sanity: the mutator must not reduce every BLIF case to a parse
    // error, or the flow itself is never fuzzed from this family.
    assert!(parsed > 0, "no mutated BLIF case survived parsing");
}
