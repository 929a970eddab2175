//! Timing-mode mapping (paper Section 4): map a circuit for minimum
//! arrival time with the 1µ-scaled library, compare the wire-blind
//! baseline against Lily's placement-aware delay model, and inspect the
//! critical path.
//!
//! Run with `cargo run --release --example delay_mapping`.

use lily::prelude::*;
use lily::timing::load::WireLoad;
use lily::timing::sta::try_analyze;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let network = lily::workloads::circuits::apex7();
    let library = Library::big_1u(); // 3µ library scaled to 1µ, as in Table 2

    let mis = FlowOptions::mis_delay().run_detailed(&network, &library)?;
    let lily = FlowOptions::lily_delay().run_detailed(&network, &library)?;

    println!("circuit `{}` — timing mode, 1µ library", network.name());
    println!(
        "MIS 2.1:  {} cells, {:.3} mm², longest path {:.2} ns",
        mis.metrics.cells,
        mis.metrics.instance_area_mm2(),
        mis.metrics.critical_delay
    );
    println!(
        "Lily:     {} cells, {:.3} mm², longest path {:.2} ns ({:+.1}%)",
        lily.metrics.cells,
        lily.metrics.instance_area_mm2(),
        lily.metrics.critical_delay,
        (lily.metrics.critical_delay / mis.metrics.critical_delay - 1.0) * 100.0
    );

    // Walk Lily's critical path, printing gates and arrival times.
    let sta = try_analyze(&lily.mapped, &library, WireLoad::FromPlacement)
        .expect("static timing analysis failed");
    println!("\nLily critical path ({} stages):", sta.critical_path.len());
    for cell in &sta.critical_path {
        let c = lily.mapped.cell(*cell);
        let gate = library.gate(c.gate);
        println!(
            "  {:<8} at ({:>7.0}, {:>7.0}) µm, arrival {:>6.2} ns",
            gate.name(),
            c.position.0,
            c.position.1,
            sta.cell_arrival[cell.index()].worst()
        );
    }
    println!(
        "arrives at output `{}` after {:.2} ns (wire delay included)",
        lily.mapped.outputs[sta.critical_output].0, sta.critical_delay
    );
    Ok(())
}
