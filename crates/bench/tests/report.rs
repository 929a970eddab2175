//! The checked-in `repro_report.md` is a pinned artifact: every Table 1
//! and Table 2 row recomputed here must appear in it verbatim. A change
//! that moves the paper's numbers fails this test until the report is
//! regenerated (`cargo run --release -p lily-bench --bin repro`). CI
//! diffs the full report; this test covers the fast circuits.

use lily_bench::{fast_circuits, format_table1_row, format_table2_row, table1_row, table2_row};
use lily_cells::Library;
use lily_workloads::circuits;

fn report() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../repro_report.md");
    std::fs::read_to_string(path).expect("repro_report.md is readable")
}

#[test]
fn fast_table_rows_match_the_checked_in_report() {
    let report = report();
    let lines: Vec<&str> = report.lines().collect();
    let mut missing = Vec::new();
    let lib = Library::big();
    for name in fast_circuits() {
        let row = format_table1_row(&table1_row(name, &lib).expect("table 1 flow"));
        if !lines.contains(&row.as_str()) {
            missing.push(format!("table 1: {row}"));
        }
    }
    let lib1u = Library::big_1u();
    let table2 = circuits::table2_names();
    for name in fast_circuits().into_iter().filter(|n| table2.contains(n)) {
        let row = format_table2_row(&table2_row(name, &lib1u).expect("table 2 flow"));
        if !lines.contains(&row.as_str()) {
            missing.push(format!("table 2: {row}"));
        }
    }
    assert!(
        missing.is_empty(),
        "rows not in repro_report.md (regenerate it with `repro`):\n{}",
        missing.join("\n")
    );
}
