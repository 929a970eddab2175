//! A tour of the placement substrate: quadratic placement, pad
//! assignment, balanced bi-partitioning, legalization, and the wire
//! estimators — the machinery Lily consults during mapping.
//!
//! Run with `cargo run --release --example placement_tour`.

use lily::netlist::decompose::{decompose, DecomposeOrder};
use lily::place::global::{quadrant_balance, try_global_place};
use lily::place::legalize::{hpwl, improve, legalize, LegalizeOptions};
use lily::place::{assign_pads, AreaModel, Point, SubjectPlacement};
use lily::route::{chung_hwang_factor, net_length, rsmt_length, WireModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let network = lily::workloads::circuits::c880();
    let subject = decompose(&network, DecomposeOrder::Balanced)?;
    println!(
        "inchoate network of `{}`: {} base gates, depth {}",
        subject.name(),
        subject.base_gate_count(),
        subject.depth()
    );

    // Size the layout image and assign pads from connectivity.
    let model = AreaModel::mcnc();
    let core = model.core_region(subject.base_gate_count() as f64 * 1.5 * 12.0 * 100.0);
    println!("layout image: {:.0} × {:.0} µm", core.width(), core.height());

    let sp = SubjectPlacement::new(&subject);
    let pads = assign_pads(&sp.problem, core);
    println!("assigned {} pads on the boundary", pads.len());

    // Balanced global placement (quadratic + bi-partitioning).
    let mut problem = sp.problem.clone();
    problem.fixed = pads.clone();
    let gp = try_global_place(&problem, core)?;
    println!(
        "global placement: {} levels of bi-partitioning, quadrant balance {:.2}",
        gp.levels,
        quadrant_balance(&gp.positions, core)
    );

    // Legalize into rows (pretend every module is one nand2 wide).
    let widths = vec![3.0 * 12.0; problem.movable];
    let lopts = LegalizeOptions { core, row_height: 100.0 };
    let legal = legalize(&widths, &gp.positions, &lopts);
    let before = hpwl(&problem.nets, &legal.positions, &pads);
    let better = improve(&legal, &widths, &problem.nets, &pads, &lopts);
    let after = hpwl(&problem.nets, &better.positions, &pads);
    println!(
        "legalized into {} rows; HPWL {:.0} µm → {:.0} µm after improvement",
        legal.rows.len(),
        before,
        after
    );

    // Wire estimators on one example net.
    let pins: Vec<Point> = gp.positions.iter().step_by(97).take(6).copied().collect();
    println!("\na 6-pin net estimated three ways:");
    for (label, model) in [
        ("half-perimeter × Chung–Hwang", WireModel::HalfPerimeterSteiner),
        ("rectilinear spanning tree", WireModel::SpanningTree),
    ] {
        println!("  {:<30} {:>8.0} µm", label, net_length(model, &pins));
    }
    println!("  {:<30} {:>8.0} µm", "iterated 1-Steiner", rsmt_length(&pins));
    println!("  (Chung–Hwang factor for 6 pins: {:.2})", chung_hwang_factor(6));
    Ok(())
}
