//! Bit-exact pins of the multilevel pre-mapping placement.
//!
//! `random-dag-2000` (seed 7) decomposes to 7 437 movable subject
//! nodes, above `multilevel_threshold`, so both the pad ordering and
//! the subject placement take the clustered multilevel path. The
//! golden hashes below cover every bit of `PadPlan::pads` and of
//! `SubjectImage::positions`; they must be reproduced at any thread
//! count. `stage_equiv`'s `random-dag-2000` row pins what the mapper
//! builds on top of them.
//!
//! Regenerate with `cargo run --release --example golden_dump`.

use lily_cells::Library;
use lily_core::flow::FlowOptions;
use lily_core::stage::{AssignPads, Decompose, SubjectPlace};
use lily_core::FlowContext;
use lily_place::Point;
use lily_workloads::{scale_circuit, ScaleFamily};

/// [`points_hash`] of `PadPlan::pads`.
const GOLDEN_PADS: u64 = 0x4f0c_2339_36fd_7547;
/// [`points_hash`] of `SubjectImage::positions`.
const GOLDEN_IMAGE: u64 = 0x9d27_3151_7d49_3507;

/// FNV-1a over the raw bits of every coordinate, in order.
fn points_hash(points: &[Point]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in points {
        for bits in [p.x.to_bits(), p.y.to_bits()] {
            h ^= bits;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn multilevel_pads_and_image_are_bit_exact_at_any_thread_count() {
    let net = scale_circuit(ScaleFamily::RandomDag, 2000, 7);
    let lib = Library::big();
    for threads in [1, 2, 8] {
        lily_par::set_threads(Some(threads));
        let mut ctx = FlowContext::new(&lib, FlowOptions::cut_area());
        let g = ctx.run(&Decompose, &net).expect("decompose");
        let plan = ctx.run(&AssignPads, &*g).expect("assign-pads");
        let movable = plan.placement.problem.movable;
        assert!(movable >= ctx.options.physical.multilevel_threshold, "{movable} movable");
        let image = ctx.run(&SubjectPlace, (&*g, &plan)).expect("subject-place");
        let positions = image.positions.as_deref().expect("a converged layout image");
        assert_eq!(points_hash(plan.pads()), GOLDEN_PADS, "pads at {threads} threads");
        assert_eq!(points_hash(positions), GOLDEN_IMAGE, "image at {threads} threads");
    }
    lily_par::set_threads(None);
}
