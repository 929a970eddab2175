//! Checkpoint/resume for the stage-graph flow.
//!
//! [`run_flow_checkpointed`] runs the same eight-stage pipeline as
//! [`run_flow`](crate::flow::run_flow), but persists every completed
//! stage artifact to a directory as it goes. A flow that is killed (or
//! deliberately interrupted with `interrupt_after`, the engine behind
//! `lily-check --kill-after`) can be re-run against the same directory
//! and resumes from the last completed stage: restored artifacts are
//! decoded bit-exactly — every `f64` round-trips through
//! [`hex_f64`]/[`f64_from_hex`] — so the resumed flow's result is
//! identical to an uninterrupted run, modulo stage wall times.
//!
//! The directory holds one `NN-<stage>.json` artifact file per
//! completed stage plus a `manifest.json` that records, per stage, the
//! artifact file, its metrics record, and the degradation-audit /
//! retry-counter deltas the stage produced — restoring a stage replays
//! its observable history, not just its data.
//!
//! Robustness rules (DESIGN.md §12):
//!
//! - A manifest written by a different `(options, input)` pair — the
//!   fingerprint mismatch — is ignored wholesale and overwritten.
//! - A *corrupt* artifact never fails the flow: the stage recomputes,
//!   audited as a `"checkpoint"` → `"recomputed"` degradation, and the
//!   stale checkpoint suffix is discarded.
//! - Only real I/O trouble (unwritable directory) errors, as
//!   [`MapError::Checkpoint`].

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::cover::MapStats;
use crate::error::MapError;
use crate::flow::{
    degenerate_guard, trivial_result, Degradation, FlowArtifacts, FlowMetrics, FlowOptions,
    FlowResult,
};
use crate::json::{array, f64_from_hex, hex_f64, Json, JsonObject};
use crate::stage::{
    mapped_problem, AssignPads, Decompose, DetailedPlace, FlowContext, LegalPlacement, Legalize,
    Map, Mapping, PadPlan, PlacedDesign, RouteEstimate, RouteFigures, Sta, SubjectImage,
    SubjectPlace, TimingArtifact,
};
use lily_cells::{CellId, Library, MappedCell, MappedNetwork, SignalSource};
use lily_netlist::{LifeCycleStats, Network, SubjectGraph, SubjectKind, SubjectNodeId};
use lily_place::legalize::Legalized;
use lily_place::{Point, Rect, SubjectPlacement};
use lily_timing::{Arrival, StaResult};

// ---------------------------------------------------------------------
// Intern tables
// ---------------------------------------------------------------------
//
// Stage records and degradation audits carry `&'static str` names; a
// decoded checkpoint must map stored strings back onto the canonical
// statics. An unknown string means the file was not written by this
// code (or was corrupted) — the decode fails and the stage recomputes.

/// The eight stage names in pipeline order — the valid values of
/// `interrupt_after` (and `lily-check --kill-after`).
pub const STAGE_NAMES: [&str; 8] = [
    "decompose",
    "assign-pads",
    "subject-place",
    "map",
    "legalize",
    "detailed-place",
    "route-estimate",
    "sta",
];

const UNITS: [&str; 5] = ["nodes", "pads", "points", "cells", "nets"];

const FLOWS: [&str; 4] = ["mis", "lily", "cut", "shared"];

const DEGRADE_STAGES: [&str; 7] = [
    "lily-global-place",
    "mapped-global-place",
    "detailed-placement",
    "anneal",
    "wire-load",
    "detailed-place",
    "checkpoint",
];

const FALLBACKS: [&str; 8] = [
    "mis-mapper",
    "mapper-positions",
    "core-center-seed",
    "greedy",
    "per-fanout",
    "no-wire-load",
    "legalized-only",
    "recomputed",
];

fn intern(table: &[&'static str], s: &str) -> Result<&'static str, String> {
    table.iter().find(|t| **t == s).copied().ok_or_else(|| format!("unknown name `{s}`"))
}

// ---------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------

/// FNV-1a 64 over the flow configuration and the input's coarse shape.
/// A checkpoint directory whose manifest carries a different
/// fingerprint belongs to a different run and is ignored wholesale.
/// (The per-node artifact replay below catches finer divergence: a
/// restored subject graph is rebuilt node by node and any mismatch
/// discards the checkpoint.)
fn fingerprint(net: &Network, options: &FlowOptions) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(format!("{options:?}").as_bytes());
    eat(net.name().as_bytes());
    eat(&(net.input_count() as u64).to_le_bytes());
    eat(&(net.output_count() as u64).to_le_bytes());
    eat(&(net.node_count() as u64).to_le_bytes());
    h
}

// ---------------------------------------------------------------------
// f64 / geometry helpers
// ---------------------------------------------------------------------

fn hex_field(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_str)
        .and_then(f64_from_hex)
        .ok_or_else(|| format!("bad hex float field `{key}`"))
}

fn hex_at(items: &[Json], i: usize) -> Result<f64, String> {
    items
        .get(i)
        .and_then(Json::as_str)
        .and_then(f64_from_hex)
        .ok_or_else(|| format!("bad hex float at index {i}"))
}

/// Encodes a flat list of f64s as a JSON array of bit-hex strings.
fn hex_array(values: impl IntoIterator<Item = f64>) -> String {
    array(values.into_iter().map(|x| format!("\"{}\"", hex_f64(x))))
}

fn decode_hex_array(v: &Json, key: &str) -> Result<Vec<f64>, String> {
    let items =
        v.get(key).and_then(Json::as_array).ok_or_else(|| format!("missing hex array `{key}`"))?;
    (0..items.len()).map(|i| hex_at(items, i)).collect()
}

fn encode_points(points: &[Point]) -> String {
    hex_array(points.iter().flat_map(|p| [p.x, p.y]))
}

fn decode_points(v: &Json, key: &str) -> Result<Vec<Point>, String> {
    let flat = decode_hex_array(v, key)?;
    if flat.len() % 2 != 0 {
        return Err(format!("odd point array `{key}`"));
    }
    Ok(flat.chunks_exact(2).map(|c| Point::new(c[0], c[1])).collect())
}

fn encode_rect(r: Rect) -> String {
    hex_array([r.llx, r.lly, r.urx, r.ury])
}

fn decode_rect(v: &Json, key: &str) -> Result<Rect, String> {
    let c = decode_hex_array(v, key)?;
    match c.as_slice() {
        [llx, lly, urx, ury] if llx <= urx && lly <= ury => {
            Ok(Rect { llx: *llx, lly: *lly, urx: *urx, ury: *ury })
        }
        _ => Err(format!("bad rectangle `{key}`")),
    }
}

fn str_field<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    v.get(key).and_then(Json::as_str).ok_or_else(|| format!("missing string field `{key}`"))
}

fn usize_field(v: &Json, key: &str) -> Result<usize, String> {
    v.get(key).and_then(Json::as_usize).ok_or_else(|| format!("missing uint field `{key}`"))
}

fn array_field<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    v.get(key).and_then(Json::as_array).ok_or_else(|| format!("missing array field `{key}`"))
}

// ---------------------------------------------------------------------
// Artifact codecs
// ---------------------------------------------------------------------

fn encode_subject(g: &SubjectGraph) -> String {
    let nodes = array(g.kinds().iter().map(|k| {
        let body = match k {
            SubjectKind::Input(_) => "i".to_string(),
            SubjectKind::Nand2(a, b) => format!("n:{}:{}", a.index(), b.index()),
            SubjectKind::Inv(a) => format!("v:{}", a.index()),
        };
        format!("\"{body}\"")
    }));
    let outputs = array(g.outputs().iter().map(|o| {
        JsonObject::new().string("name", &o.name).uint("driver", o.driver.index() as u64).finish()
    }));
    JsonObject::new()
        .string("name", g.name())
        .raw(
            "input_names",
            &array(g.input_names().iter().map(|n| format!("\"{}\"", crate::json::escape(n)))),
        )
        .raw("nodes", &nodes)
        .raw("outputs", &outputs)
        .finish()
}

/// Rebuilds a subject graph by *replaying* its construction: every
/// node is re-created through the canonical `add_input`/`nand2`/`inv`
/// builders and must land on its stored index. Structural hashing and
/// double-inverter cancellation make those builders non-injective, so
/// an index mismatch means the stored node list was never produced by
/// them — i.e. the file is corrupt — and the decode fails.
fn decode_subject(v: &Json) -> Result<Arc<SubjectGraph>, String> {
    let name = str_field(v, "name")?;
    let input_names: Vec<&str> = array_field(v, "input_names")?
        .iter()
        .map(|n| n.as_str().ok_or_else(|| "bad input name".to_string()))
        .collect::<Result<_, _>>()?;
    let nodes = array_field(v, "nodes")?;
    let mut g = SubjectGraph::new(name);
    let mut inputs_seen = 0usize;
    for (i, node) in nodes.iter().enumerate() {
        let spec = node.as_str().ok_or_else(|| format!("bad node {i}"))?;
        let id = if spec == "i" {
            let name = input_names
                .get(inputs_seen)
                .ok_or_else(|| format!("input {inputs_seen} unnamed"))?;
            inputs_seen += 1;
            g.add_input(*name)
        } else if let Some(rest) = spec.strip_prefix("n:") {
            let (a, b) = rest.split_once(':').ok_or_else(|| format!("bad nand node {i}"))?;
            let a: usize = a.parse().map_err(|_| format!("bad nand fanin at node {i}"))?;
            let b: usize = b.parse().map_err(|_| format!("bad nand fanin at node {i}"))?;
            if a >= i || b >= i {
                return Err(format!("forward fanin at node {i}"));
            }
            g.nand2(SubjectNodeId::from_index(a), SubjectNodeId::from_index(b))
        } else if let Some(rest) = spec.strip_prefix("v:") {
            let a: usize = rest.parse().map_err(|_| format!("bad inv fanin at node {i}"))?;
            if a >= i {
                return Err(format!("forward fanin at node {i}"));
            }
            g.inv(SubjectNodeId::from_index(a))
        } else {
            return Err(format!("unknown node spec `{spec}`"));
        };
        if id.index() != i {
            return Err(format!("node {i} replayed to index {}", id.index()));
        }
    }
    if inputs_seen != input_names.len() {
        return Err("input name count mismatch".to_string());
    }
    for o in array_field(v, "outputs")? {
        let name = str_field(o, "name")?;
        let driver = usize_field(o, "driver")?;
        if driver >= nodes.len() {
            return Err(format!("output `{name}` drives missing node {driver}"));
        }
        g.set_output(name, SubjectNodeId::from_index(driver));
    }
    Ok(Arc::new(g))
}

fn encode_pad_plan(plan: &PadPlan) -> String {
    JsonObject::new()
        .string("est_area", &hex_f64(plan.est_area))
        .raw("core", &encode_rect(plan.core))
        .raw("pads", &encode_points(plan.pads()))
        .finish()
}

/// The stored pad plan carries the measured fields; the placement
/// problem is a pure deterministic function of the subject graph and is
/// recomputed rather than stored, as is the prepared multilevel system
/// (`SubjectPlace` rebuilds it).
fn decode_pad_plan(v: &Json, g: &SubjectGraph) -> Result<Arc<PadPlan>, String> {
    let est_area = hex_field(v, "est_area")?;
    let core = decode_rect(v, "core")?;
    let pads = decode_points(v, "pads")?;
    if pads.len() != g.inputs().len() + g.outputs().len() {
        return Err("pad count does not match the subject graph".to_string());
    }
    let mut placement = SubjectPlacement::new(g);
    placement.problem.fixed = pads;
    Ok(Arc::new(PadPlan::restored(est_area, core, placement)))
}

fn encode_image(image: &SubjectImage) -> String {
    let mut o = JsonObject::new();
    o = match &image.positions {
        Some(points) => o.raw("positions", &encode_points(points)),
        None => o.raw("positions", "null"),
    };
    match &image.failure {
        Some(f) => o.string("failure", f),
        None => o.raw("failure", "null"),
    }
    .finish()
}

fn decode_image(v: &Json) -> Result<Arc<SubjectImage>, String> {
    let positions = match v.get("positions") {
        Some(Json::Null) => None,
        Some(_) => Some(decode_points(v, "positions")?),
        None => return Err("missing positions".to_string()),
    };
    let failure = match v.get("failure") {
        Some(Json::Null) => None,
        Some(f) => Some(f.as_str().ok_or_else(|| "bad failure field".to_string())?.to_string()),
        None => return Err("missing failure".to_string()),
    };
    Ok(Arc::new(SubjectImage { positions, failure }))
}

fn encode_source(s: &SignalSource) -> String {
    match s {
        SignalSource::Input(i) => format!("i:{i}"),
        SignalSource::Cell(c) => format!("c:{}", c.index()),
    }
}

fn decode_source(spec: &str, inputs: usize, cells: usize) -> Result<SignalSource, String> {
    if let Some(rest) = spec.strip_prefix("i:") {
        let i: usize = rest.parse().map_err(|_| format!("bad source `{spec}`"))?;
        if i >= inputs {
            return Err(format!("source input {i} out of range"));
        }
        Ok(SignalSource::Input(i))
    } else if let Some(rest) = spec.strip_prefix("c:") {
        let c: usize = rest.parse().map_err(|_| format!("bad source `{spec}`"))?;
        if c >= cells {
            return Err(format!("source cell {c} out of range"));
        }
        Ok(SignalSource::Cell(CellId::from_index(c)))
    } else {
        Err(format!("unknown source `{spec}`"))
    }
}

fn encode_mapped(mapped: &MappedNetwork, lib: &Library) -> String {
    let cells = array(mapped.cells().iter().map(|c| {
        JsonObject::new()
            .string("gate", lib.gate(c.gate).name())
            .raw("fanins", &array(c.fanins.iter().map(|s| format!("\"{}\"", encode_source(s)))))
            .raw("pos", &hex_array([c.position.0, c.position.1]))
            .finish()
    }));
    let outputs = array(mapped.outputs.iter().map(|(name, source)| {
        JsonObject::new().string("name", name).string("source", &encode_source(source)).finish()
    }));
    JsonObject::new()
        .string("name", mapped.name())
        .raw(
            "input_names",
            &array(mapped.input_names.iter().map(|n| format!("\"{}\"", crate::json::escape(n)))),
        )
        .raw(
            "input_positions",
            &hex_array(mapped.input_positions.iter().flat_map(|&(x, y)| [x, y])),
        )
        .raw(
            "output_positions",
            &hex_array(mapped.output_positions.iter().flat_map(|&(x, y)| [x, y])),
        )
        .raw("cells", &cells)
        .raw("outputs", &outputs)
        .finish()
}

fn decode_pairs(v: &Json, key: &str, expected: usize) -> Result<Vec<(f64, f64)>, String> {
    let flat = decode_hex_array(v, key)?;
    if flat.len() != expected * 2 {
        return Err(format!("`{key}` has {} values, expected {}", flat.len(), expected * 2));
    }
    Ok(flat.chunks_exact(2).map(|c| (c[0], c[1])).collect())
}

/// Gates are stored by *name* and re-resolved against the live library,
/// so a checkpoint written against a different library is rejected
/// instead of silently mapping onto the wrong cells.
fn decode_mapped(v: &Json, lib: &Library) -> Result<MappedNetwork, String> {
    let name = str_field(v, "name")?;
    let input_names: Vec<String> = array_field(v, "input_names")?
        .iter()
        .map(|n| n.as_str().map(str::to_string).ok_or_else(|| "bad input name".to_string()))
        .collect::<Result<_, _>>()?;
    let n_inputs = input_names.len();
    let mut mapped = MappedNetwork::new(name, input_names);
    let cells = array_field(v, "cells")?;
    let n_cells = cells.len();
    for (i, cell) in cells.iter().enumerate() {
        let gate_name = str_field(cell, "gate")?;
        let gate = lib
            .find(gate_name)
            .ok_or_else(|| format!("gate `{gate_name}` not in library `{}`", lib.name()))?;
        let fanins = array_field(cell, "fanins")?
            .iter()
            .map(|f| {
                f.as_str()
                    .ok_or_else(|| format!("bad fanin on cell {i}"))
                    .and_then(|s| decode_source(s, n_inputs, n_cells))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let pos = decode_hex_array(cell, "pos")?;
        let position = match pos.as_slice() {
            [x, y] => (*x, *y),
            _ => return Err(format!("bad position on cell {i}")),
        };
        mapped.add_cell(MappedCell { gate, fanins, position });
    }
    for o in array_field(v, "outputs")? {
        let name = str_field(o, "name")?;
        let source = decode_source(str_field(o, "source")?, n_inputs, n_cells)?;
        mapped.add_output(name, source);
    }
    mapped.input_positions = decode_pairs(v, "input_positions", n_inputs)?;
    mapped.output_positions = decode_pairs(v, "output_positions", mapped.outputs.len())?;
    Ok(mapped)
}

fn encode_stats(stats: &MapStats) -> String {
    let mut o = JsonObject::new()
        .uint("hatched", stats.lifecycle.hatched as u64)
        .uint("doves", stats.lifecycle.doves as u64)
        .uint("hawks", stats.lifecycle.hawks as u64)
        .uint("reincarnations", stats.lifecycle.reincarnations as u64)
        .uint("matches_enumerated", stats.matches_enumerated as u64)
        .uint("scopes", stats.scopes as u64)
        .uint("dp_solves", stats.dp_solves as u64)
        .uint("dp_reused", stats.dp_reused as u64);
    o = match stats.ordering_cost {
        Some(c) => o.uint("ordering_cost", c as u64),
        None => o.raw("ordering_cost", "null"),
    };
    o = match stats.cuts {
        Some(c) => o.raw(
            "cuts",
            &JsonObject::new()
                .uint("nodes", c.nodes as u64)
                .uint("kept", c.kept as u64)
                .uint("pruned_width", c.pruned_width as u64)
                .uint("pruned_dominated", c.pruned_dominated as u64)
                .uint("pruned_overflow", c.pruned_overflow as u64)
                .uint("max_per_node", c.max_per_node as u64)
                .finish(),
        ),
        None => o.raw("cuts", "null"),
    };
    o.finish()
}

fn decode_stats(v: &Json) -> Result<MapStats, String> {
    Ok(MapStats {
        lifecycle: LifeCycleStats {
            hatched: usize_field(v, "hatched")?,
            doves: usize_field(v, "doves")?,
            hawks: usize_field(v, "hawks")?,
            reincarnations: usize_field(v, "reincarnations")?,
        },
        matches_enumerated: usize_field(v, "matches_enumerated")?,
        scopes: usize_field(v, "scopes")?,
        dp_solves: usize_field(v, "dp_solves")?,
        dp_reused: usize_field(v, "dp_reused")?,
        ordering_cost: match v.get("ordering_cost") {
            Some(Json::Null) => None,
            Some(c) => Some(c.as_usize().ok_or_else(|| "bad ordering_cost".to_string())?),
            None => return Err("missing ordering_cost".to_string()),
        },
        // Absent in pre-cut checkpoints: decode as "the cut mapper did
        // not run" rather than rejecting the whole checkpoint.
        cuts: match v.get("cuts") {
            Some(Json::Null) | None => None,
            Some(c) => Some(lily_netlist::CutStats {
                nodes: usize_field(c, "nodes")?,
                kept: usize_field(c, "kept")?,
                pruned_width: usize_field(c, "pruned_width")?,
                pruned_dominated: usize_field(c, "pruned_dominated")?,
                pruned_overflow: usize_field(c, "pruned_overflow")?,
                max_per_node: usize_field(c, "max_per_node")?,
            }),
        },
    })
}

fn encode_mapping(m: &Mapping, lib: &Library) -> String {
    JsonObject::new()
        .raw("mapped", &encode_mapped(&m.mapped, lib))
        .raw("stats", &encode_stats(&m.stats))
        .raw("constructive", if m.constructive { "true" } else { "false" })
        .finish()
}

fn decode_mapping(v: &Json, lib: &Library) -> Result<Mapping, String> {
    let mapped = decode_mapped(v.get("mapped").ok_or_else(|| "missing mapped".to_string())?, lib)?;
    let stats = decode_stats(v.get("stats").ok_or_else(|| "missing stats".to_string())?)?;
    let constructive = v
        .get("constructive")
        .and_then(Json::as_bool)
        .ok_or_else(|| "missing constructive".to_string())?;
    Ok(Mapping { mapped, stats, constructive })
}

fn encode_legal(l: &LegalPlacement, lib: &Library) -> String {
    let mut o = JsonObject::new()
        .raw("mapped", &encode_mapped(&l.mapped, lib))
        .raw("core", &encode_rect(l.core))
        .raw("stats", &encode_stats(&l.stats));
    o = match &l.legal {
        Some(legal) => o.raw(
            "legal",
            &JsonObject::new()
                .raw("positions", &encode_points(&legal.positions))
                .raw(
                    "rows",
                    &array(legal.rows.iter().map(|row| array(row.iter().map(|c| c.to_string())))),
                )
                .raw("row_y", &hex_array(legal.row_y.iter().copied()))
                .finish(),
        ),
        None => o.raw("legal", "null"),
    };
    o.finish()
}

/// Widths, the placement problem, and the fixed pad list are all pure
/// functions of the restored netlist and library; only the measured
/// pieces (netlist, core, stats, legalized rows) are stored.
fn decode_legal(v: &Json, lib: &Library) -> Result<LegalPlacement, String> {
    let mapped = decode_mapped(v.get("mapped").ok_or_else(|| "missing mapped".to_string())?, lib)?;
    let core = decode_rect(v, "core")?;
    let stats = decode_stats(v.get("stats").ok_or_else(|| "missing stats".to_string())?)?;
    let legal = match v.get("legal") {
        Some(Json::Null) => None,
        Some(l) => {
            let positions = decode_points(l, "positions")?;
            let rows = array_field(l, "rows")?
                .iter()
                .map(|row| {
                    row.as_array()
                        .ok_or_else(|| "bad row".to_string())?
                        .iter()
                        .map(|c| c.as_usize().ok_or_else(|| "bad row cell".to_string()))
                        .collect::<Result<Vec<_>, _>>()
                })
                .collect::<Result<Vec<_>, _>>()?;
            let row_y = decode_hex_array(l, "row_y")?;
            if positions.len() != mapped.cell_count() {
                return Err("legalized position count mismatch".to_string());
            }
            if rows.iter().flatten().any(|&c| c >= mapped.cell_count()) {
                return Err("legalized row references missing cell".to_string());
            }
            Some(Legalized { positions, rows, row_y })
        }
        None => return Err("missing legal".to_string()),
    };
    let tech = lib.technology();
    let widths: Vec<f64> =
        mapped.cells().iter().map(|c| lib.gate(c.gate).grids() as f64 * tech.grid_width).collect();
    let (problem, _) = mapped_problem(&mapped);
    let fixed: Vec<Point> = mapped
        .input_positions
        .iter()
        .chain(mapped.output_positions.iter())
        .map(|&(x, y)| Point::new(x, y))
        .collect();
    Ok(LegalPlacement { mapped, core, stats, widths, problem, fixed, legal })
}

fn encode_placed(p: &PlacedDesign, lib: &Library) -> String {
    JsonObject::new()
        .raw("mapped", &encode_mapped(&p.mapped, lib))
        .raw("core", &encode_rect(p.core))
        .raw("stats", &encode_stats(&p.stats))
        .finish()
}

fn decode_placed(v: &Json, lib: &Library) -> Result<PlacedDesign, String> {
    let mapped = decode_mapped(v.get("mapped").ok_or_else(|| "missing mapped".to_string())?, lib)?;
    let core = decode_rect(v, "core")?;
    let stats = decode_stats(v.get("stats").ok_or_else(|| "missing stats".to_string())?)?;
    Ok(PlacedDesign { mapped, core, stats })
}

fn encode_route(r: &RouteFigures) -> String {
    JsonObject::new()
        .string("wire_length", &hex_f64(r.wire_length))
        .string("instance_area", &hex_f64(r.instance_area))
        .string("chip_area", &hex_f64(r.chip_area))
        .string("chip_area_channeled", &hex_f64(r.chip_area_channeled))
        .string("peak_congestion", &hex_f64(r.peak_congestion))
        .uint("nets", r.nets as u64)
        .finish()
}

fn decode_route(v: &Json) -> Result<RouteFigures, String> {
    Ok(RouteFigures {
        wire_length: hex_field(v, "wire_length")?,
        instance_area: hex_field(v, "instance_area")?,
        chip_area: hex_field(v, "chip_area")?,
        chip_area_channeled: hex_field(v, "chip_area_channeled")?,
        peak_congestion: hex_field(v, "peak_congestion")?,
        nets: usize_field(v, "nets")?,
    })
}

fn encode_timing(t: &TimingArtifact) -> String {
    JsonObject::new()
        .raw("cell_arrival", &hex_array(t.sta.cell_arrival.iter().flat_map(|a| [a.rise, a.fall])))
        .raw(
            "output_arrival",
            &hex_array(t.sta.output_arrival.iter().flat_map(|a| [a.rise, a.fall])),
        )
        .string("critical_delay", &hex_f64(t.sta.critical_delay))
        .uint("critical_output", t.sta.critical_output as u64)
        .raw("critical_path", &array(t.sta.critical_path.iter().map(|c| c.index().to_string())))
        .raw("cell_slack", &hex_array(t.sta.cell_slack.iter().copied()))
        .uint("cells", t.cells as u64)
        .finish()
}

fn decode_arrivals(v: &Json, key: &str) -> Result<Vec<Arrival>, String> {
    let flat = decode_hex_array(v, key)?;
    if flat.len() % 2 != 0 {
        return Err(format!("odd arrival array `{key}`"));
    }
    Ok(flat.chunks_exact(2).map(|c| Arrival { rise: c[0], fall: c[1] }).collect())
}

fn decode_timing(v: &Json) -> Result<TimingArtifact, String> {
    let critical_path = array_field(v, "critical_path")?
        .iter()
        .map(|c| {
            c.as_usize().map(CellId::from_index).ok_or_else(|| "bad critical path".to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(TimingArtifact {
        sta: StaResult {
            cell_arrival: decode_arrivals(v, "cell_arrival")?,
            output_arrival: decode_arrivals(v, "output_arrival")?,
            critical_delay: hex_field(v, "critical_delay")?,
            critical_output: usize_field(v, "critical_output")?,
            critical_path,
            cell_slack: decode_hex_array(v, "cell_slack")?,
        },
        cells: usize_field(v, "cells")?,
    })
}

// ---------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------

/// One completed stage in the manifest: where its artifact lives plus
/// the observable history the stage produced (metrics record and the
/// degradation/retry deltas), so restoring the stage replays exactly
/// what running it recorded.
#[derive(Debug, Clone)]
struct ManifestEntry {
    stage: String,
    file: String,
    wall_ns: u64,
    size: usize,
    unit: String,
    retries: u32,
    deadline_hits: u32,
    degradations: Vec<(String, String, String, String)>,
}

impl ManifestEntry {
    fn to_json(&self) -> String {
        let degradations =
            array(self.degradations.iter().map(|(flow, stage, fallback, detail)| {
                JsonObject::new()
                    .string("flow", flow)
                    .string("stage", stage)
                    .string("fallback", fallback)
                    .string("detail", detail)
                    .finish()
            }));
        JsonObject::new()
            .string("stage", &self.stage)
            .string("file", &self.file)
            .uint("wall_ns", self.wall_ns)
            .uint("size", self.size as u64)
            .string("unit", &self.unit)
            .uint("retries", u64::from(self.retries))
            .uint("deadline_hits", u64::from(self.deadline_hits))
            .raw("degradations", &degradations)
            .finish()
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let degradations = array_field(v, "degradations")?
            .iter()
            .map(|d| {
                Ok((
                    str_field(d, "flow")?.to_string(),
                    str_field(d, "stage")?.to_string(),
                    str_field(d, "fallback")?.to_string(),
                    str_field(d, "detail")?.to_string(),
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self {
            stage: str_field(v, "stage")?.to_string(),
            file: str_field(v, "file")?.to_string(),
            wall_ns: v.get("wall_ns").and_then(Json::as_u64).ok_or("missing wall_ns")?,
            size: usize_field(v, "size")?,
            unit: str_field(v, "unit")?.to_string(),
            retries: v
                .get("retries")
                .and_then(Json::as_u64)
                .and_then(|r| u32::try_from(r).ok())
                .ok_or("missing retries")?,
            deadline_hits: v
                .get("deadline_hits")
                .and_then(Json::as_u64)
                .and_then(|r| u32::try_from(r).ok())
                .ok_or("missing deadline_hits")?,
            degradations,
        })
    }
}

/// A checkpoint directory: the manifest of completed stages plus a
/// cursor tracking how far the current run has aligned with it.
#[derive(Debug)]
pub struct CheckpointDir {
    dir: PathBuf,
    fingerprint: u64,
    entries: Vec<ManifestEntry>,
    /// How many stages of the current run have been matched (restored
    /// or re-saved) against `entries`.
    cursor: usize,
    /// Whether the stored prefix is still usable: any decode failure or
    /// stage-name mismatch permanently drops to live recomputation (and
    /// truncates the stale suffix at the next save).
    live: bool,
    /// Whether the manifest existed but was torn — unparsable JSON or
    /// undecodable entries, the signature of a write cut short by a
    /// crash. A fresh start either way, but a torn manifest deserves an
    /// audit entry where a missing or foreign one does not.
    torn: bool,
}

impl CheckpointDir {
    /// Opens (creating if needed) a checkpoint directory for a run with
    /// the given fingerprint. A manifest from a different fingerprint —
    /// or no manifest at all, or an unparsable one — starts fresh.
    ///
    /// # Errors
    ///
    /// [`MapError::Checkpoint`] when the directory cannot be created.
    pub fn open(dir: &Path, fingerprint: u64) -> Result<Self, MapError> {
        fs::create_dir_all(dir).map_err(|e| MapError::Checkpoint {
            context: "open",
            message: format!("cannot create `{}`: {e}", dir.display()),
        })?;
        let mut torn = false;
        let entries = match fs::read_to_string(dir.join("manifest.json")).ok() {
            // No manifest: a genuinely fresh directory.
            None => Vec::new(),
            Some(text) => match Json::parse(&text) {
                // Present but unparsable: a torn write — detected and
                // skipped (audited by the caller), never a startup
                // failure.
                Err(_) => {
                    torn = true;
                    Vec::new()
                }
                Ok(m) => {
                    let stored = m
                        .get("fingerprint")
                        .and_then(Json::as_str)
                        .and_then(|s| u64::from_str_radix(s, 16).ok());
                    match stored {
                        // A manifest always carries a fingerprint; a
                        // parsable object without one is torn too.
                        None => {
                            torn = true;
                            Vec::new()
                        }
                        // A different run's manifest: silent fresh start.
                        Some(fp) if fp != fingerprint => Vec::new(),
                        Some(_) => {
                            let decoded =
                                m.get("entries").and_then(Json::as_array).and_then(|entries| {
                                    entries
                                        .iter()
                                        .map(ManifestEntry::from_json)
                                        .collect::<Result<Vec<_>, _>>()
                                        .ok()
                                });
                            match decoded {
                                Some(entries) => entries,
                                None => {
                                    torn = true;
                                    Vec::new()
                                }
                            }
                        }
                    }
                }
            },
        };
        let live = !entries.is_empty();
        Ok(Self { dir: dir.to_path_buf(), fingerprint, entries, cursor: 0, live, torn })
    }

    /// Whether the manifest on disk was torn (see the field docs); the
    /// flow audits this as a `"checkpoint"` → `"recomputed"` entry.
    #[must_use]
    pub fn manifest_torn(&self) -> bool {
        self.torn
    }

    /// Tries to restore the next stage from the stored prefix. On a hit
    /// the stage's observable history (metrics record, degradation
    /// audit, retry counters) is replayed into `ctx` and the decoded
    /// artifact returned. On a miss — cursor past the prefix, stage
    /// mismatch, unreadable or corrupt artifact — the checkpoint goes
    /// dead, a corrupt artifact is audited as `"checkpoint"` →
    /// `"recomputed"`, and `None` asks the caller to recompute.
    fn try_load<T>(
        &mut self,
        ctx: &mut FlowContext<'_>,
        name: &'static str,
        decode: impl FnOnce(&Json) -> Result<T, String>,
    ) -> Option<T> {
        if !self.live {
            return None;
        }
        let entry = match self.entries.get(self.cursor) {
            Some(e) if e.stage == name => e.clone(),
            _ => {
                self.live = false;
                return None;
            }
        };
        let restored = fs::read_to_string(self.dir.join(&entry.file))
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text).map_err(|e| e.to_string()))
            .and_then(|v| decode(&v))
            .and_then(|artifact| {
                let unit = intern(&UNITS, &entry.unit)?;
                let degradations = entry
                    .degradations
                    .iter()
                    .map(|(flow, stage, fallback, detail)| {
                        Ok(Degradation {
                            flow: intern(&FLOWS, flow)?,
                            stage: intern(&DEGRADE_STAGES, stage)?,
                            fallback: intern(&FALLBACKS, fallback)?,
                            detail: detail.clone(),
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok((artifact, unit, degradations))
            });
        match restored {
            Ok((artifact, unit, degradations)) => {
                ctx.stages.record(name, entry.wall_ns.max(1), entry.size, unit);
                ctx.degradations.extend(degradations);
                ctx.retries += entry.retries;
                ctx.deadline_hits += entry.deadline_hits;
                self.cursor += 1;
                Some(artifact)
            }
            Err(why) => {
                self.live = false;
                ctx.degrade(
                    "checkpoint",
                    "recomputed",
                    format!("stage `{name}` checkpoint unusable ({why})"),
                );
                None
            }
        }
    }

    /// Persists a freshly computed stage: artifact file first, then the
    /// manifest, both atomically (write-to-temp + rename), truncating
    /// any stale suffix left from a dead prefix.
    ///
    /// # Errors
    ///
    /// [`MapError::Checkpoint`] on I/O failure.
    fn save(
        &mut self,
        name: &'static str,
        entry_body: &str,
        ctx: &FlowContext<'_>,
        marks: &StageMarks,
    ) -> Result<(), MapError> {
        self.entries.truncate(self.cursor);
        let file = format!("{:02}-{name}.json", self.cursor);
        self.write_atomic(&file, entry_body)?;
        let record = ctx.stages.get(name);
        let degradations = ctx
            .degradations
            .get(marks.degradations..)
            .unwrap_or_default()
            .iter()
            .map(|d| {
                (d.flow.to_string(), d.stage.to_string(), d.fallback.to_string(), d.detail.clone())
            })
            .collect();
        self.entries.push(ManifestEntry {
            stage: name.to_string(),
            file,
            wall_ns: record.map_or(1, |r| r.wall_ns),
            size: record.map_or(0, |r| r.size),
            unit: record.map_or("nodes", |r| r.unit).to_string(),
            retries: ctx.retries - marks.retries,
            deadline_hits: ctx.deadline_hits - marks.deadline_hits,
            degradations,
        });
        self.cursor += 1;
        self.live = true;
        let manifest = JsonObject::new()
            .string("fingerprint", &format!("{:016x}", self.fingerprint))
            .raw("entries", &array(self.entries.iter().map(ManifestEntry::to_json)))
            .finish();
        self.write_atomic("manifest.json", &manifest)
    }

    fn write_atomic(&self, file: &str, body: &str) -> Result<(), MapError> {
        let tmp = self.dir.join(format!("{file}.tmp"));
        let target = self.dir.join(file);
        fs::write(&tmp, body).and_then(|()| fs::rename(&tmp, &target)).map_err(|e| {
            MapError::Checkpoint {
                context: "save",
                message: format!("cannot write `{}`: {e}", target.display()),
            }
        })
    }
}

/// The observable-history counters captured before a stage runs, so
/// [`CheckpointDir::save`] can store exactly the deltas the stage
/// produced.
struct StageMarks {
    degradations: usize,
    retries: u32,
    deadline_hits: u32,
}

impl StageMarks {
    fn of(ctx: &FlowContext<'_>) -> Self {
        Self {
            degradations: ctx.degradations.len(),
            retries: ctx.retries,
            deadline_hits: ctx.deadline_hits,
        }
    }
}

/// Runs one checkpointed stage: restore it from the directory when the
/// stored prefix still matches, otherwise run it live and persist the
/// result. With `interrupt_after == Some(name)` the flow stops right
/// after this stage is safely on disk, returning
/// [`MapError::Interrupted`].
fn step<T>(
    ckpt: &mut CheckpointDir,
    ctx: &mut FlowContext<'_>,
    name: &'static str,
    interrupt_after: Option<&str>,
    decode: impl FnOnce(&Json) -> Result<T, String>,
    encode: impl FnOnce(&T) -> String,
    run: impl FnOnce(&mut FlowContext<'_>) -> Result<T, MapError>,
) -> Result<T, MapError> {
    let marks = StageMarks::of(ctx);
    let out = match ckpt.try_load(ctx, name, decode) {
        Some(out) => out,
        None => {
            let out = run(ctx)?;
            ckpt.save(name, &encode(&out), ctx, &marks)?;
            out
        }
    };
    if interrupt_after == Some(name) {
        return Err(MapError::Interrupted { stage: name });
    }
    Ok(out)
}

/// Runs one full pipeline with per-stage checkpointing into `dir` (see
/// the module docs). Resuming against a directory holding a completed
/// or partial run of the same `(net, options)` pair restores every
/// stored stage bit-exactly and computes only the remainder.
/// `interrupt_after` names a stage to deliberately stop after
/// (`lily-check --kill-after`); the trivial zero-gate flow ignores it
/// (there is nothing downstream to resume).
///
/// # Errors
///
/// See [`FlowOptions::run`](crate::flow::FlowOptions::run), plus
/// [`MapError::Checkpoint`] for unusable directories and
/// [`MapError::Interrupted`] for deliberate interrupts.
pub fn run_flow_checkpointed(
    net: &Network,
    lib: &Library,
    options: &FlowOptions,
    dir: &Path,
    interrupt_after: Option<&str>,
) -> Result<FlowResult, MapError> {
    let mut ckpt = CheckpointDir::open(dir, fingerprint(net, options))?;
    let mut ctx = FlowContext::new(lib, *options);
    if ckpt.manifest_torn() {
        ctx.degrade(
            "checkpoint",
            "recomputed",
            "manifest torn (crash mid-write); prefix discarded, recomputing from scratch"
                .to_string(),
        );
    }
    let ia = interrupt_after;

    let g: Arc<SubjectGraph> = step(
        &mut ckpt,
        &mut ctx,
        "decompose",
        ia,
        decode_subject,
        |g| encode_subject(g),
        |ctx| ctx.run(&Decompose, net),
    )?;
    degenerate_guard(&g)?;
    if g.base_gate_count() == 0 {
        return Ok(trivial_result(g, ctx));
    }

    let plan: Arc<PadPlan> = step(
        &mut ckpt,
        &mut ctx,
        "assign-pads",
        ia,
        |v| decode_pad_plan(v, &g),
        |p| encode_pad_plan(p),
        |ctx| ctx.run(&AssignPads, &*g).map(Arc::new),
    )?;

    let image: Option<Arc<SubjectImage>> = if Map::wants_image(lib, options) {
        Some(step(
            &mut ckpt,
            &mut ctx,
            "subject-place",
            ia,
            decode_image,
            |i| encode_image(i),
            |ctx| ctx.run(&SubjectPlace, (&*g, &*plan)).map(Arc::new),
        )?)
    } else {
        None
    };

    let mapping: Mapping = step(
        &mut ckpt,
        &mut ctx,
        "map",
        ia,
        |v| decode_mapping(v, lib),
        |m| encode_mapping(m, lib),
        |ctx| ctx.run(&Map, (&*g, &*plan, image.as_deref())),
    )?;

    let legal: LegalPlacement = step(
        &mut ckpt,
        &mut ctx,
        "legalize",
        ia,
        |v| decode_legal(v, lib),
        |l| encode_legal(l, lib),
        |ctx| ctx.run(&Legalize, (&*plan, mapping)),
    )?;

    let placed: PlacedDesign = step(
        &mut ckpt,
        &mut ctx,
        "detailed-place",
        ia,
        |v| decode_placed(v, lib),
        |p| encode_placed(p, lib),
        |ctx| ctx.run(&DetailedPlace, legal),
    )?;

    let route: RouteFigures =
        step(&mut ckpt, &mut ctx, "route-estimate", ia, decode_route, encode_route, |ctx| {
            ctx.run(&RouteEstimate, &placed)
        })?;

    let timing: TimingArtifact =
        step(&mut ckpt, &mut ctx, "sta", ia, decode_timing, encode_timing, |ctx| {
            ctx.run(&Sta, &placed)
        })?;

    let metrics = FlowMetrics {
        cells: placed.mapped.cell_count(),
        instance_area: route.instance_area,
        chip_area: route.chip_area,
        wire_length: route.wire_length,
        chip_area_channeled: route.chip_area_channeled,
        critical_delay: timing.sta.critical_delay,
        peak_congestion: route.peak_congestion,
        stats: placed.stats,
        degradations: ctx.degradations,
        stages: ctx.stages,
        retries: ctx.retries,
        deadline_hits: ctx.deadline_hits,
    };
    Ok(FlowResult {
        metrics,
        mapped: placed.mapped,
        artifacts: FlowArtifacts { subject: g, pads: Some(plan), image },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lily_workloads::structured::flow_fixture;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lily-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn checkpointed_flow_matches_plain_flow() {
        let lib = Library::big();
        let net = flow_fixture();
        let options = FlowOptions::lily_area();
        let dir = temp_dir("plain");
        let plain = options.run_detailed(&net, &lib).unwrap();
        let ck = run_flow_checkpointed(&net, &lib, &options, &dir, None).unwrap();
        assert_eq!(plain.metrics.cells, ck.metrics.cells);
        assert_eq!(plain.metrics.wire_length.to_bits(), ck.metrics.wire_length.to_bits());
        assert_eq!(plain.metrics.critical_delay.to_bits(), ck.metrics.critical_delay.to_bits());
        assert_eq!(plain.metrics.chip_area.to_bits(), ck.metrics.chip_area.to_bits());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cut_flow_checkpoints_round_trip_cut_stats() {
        let lib = Library::big();
        let net = flow_fixture();
        let options = FlowOptions::cut_area();
        let dir = temp_dir("cutstats");
        let full = options.run_detailed(&net, &lib).unwrap();
        let full_cuts = full.metrics.stats.cuts.expect("cut flow records cut stats");
        // Kill after the mapper so the resumed run decodes the map
        // artifact — including the nested cut-stats object — from disk.
        let killed = run_flow_checkpointed(&net, &lib, &options, &dir, Some("map"));
        assert!(matches!(killed, Err(MapError::Interrupted { stage: "map" })));
        let resumed = run_flow_checkpointed(&net, &lib, &options, &dir, None).unwrap();
        assert_eq!(resumed.metrics.stats.cuts, Some(full_cuts));
        assert_eq!(full.metrics.cells, resumed.metrics.cells);
        assert_eq!(full.metrics.wire_length.to_bits(), resumed.metrics.wire_length.to_bits());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_flow_resumes_bit_exactly() {
        let lib = Library::big();
        // The fixture under Lily, killed after the mapper (four stages on
        // disk). And random-dag-2000, whose pad ordering prepares the
        // multilevel system the subject placement then solves: killed
        // after each of the two, so the resumed run rebuilds the system
        // from a decoded pad plan.
        let dag = lily_workloads::scale_circuit(lily_workloads::ScaleFamily::RandomDag, 2000, 7);
        let cases = [
            ("resume", flow_fixture(), FlowOptions::lily_area(), "map"),
            ("resume-pads", dag.clone(), FlowOptions::cut_area(), "assign-pads"),
            ("resume-image", dag, FlowOptions::cut_area(), "subject-place"),
        ];
        for (tag, net, options, kill) in &cases {
            let dir = temp_dir(tag);
            let full_dir = temp_dir(&format!("{tag}-full"));
            let full = run_flow_checkpointed(net, &lib, options, &full_dir, None).unwrap();
            let _ = fs::remove_dir_all(&full_dir);
            let killed = run_flow_checkpointed(net, &lib, options, &dir, Some(kill));
            assert!(
                matches!(killed, Err(MapError::Interrupted { stage }) if stage == *kill),
                "{tag}: {killed:?}"
            );
            // Resume: the stored prefix restores, the rest computes.
            let resumed = run_flow_checkpointed(net, &lib, options, &dir, None).unwrap();
            let (f, r) = (&full.metrics, &resumed.metrics);
            assert!(r.degradations.iter().all(|d| d.stage != "checkpoint"), "{tag}");
            assert_eq!(f.cells, r.cells, "{tag}");
            assert_eq!(f.wire_length.to_bits(), r.wire_length.to_bits(), "{tag}");
            assert_eq!(f.critical_delay.to_bits(), r.critical_delay.to_bits(), "{tag}");
            assert_eq!(f.chip_area_channeled.to_bits(), r.chip_area_channeled.to_bits(), "{tag}");
            assert_eq!(f.retries, r.retries, "{tag}");
            assert_eq!(f.degradations, r.degradations, "{tag}");
            // The stage tables agree on everything but wall time.
            let shape = |m: &FlowMetrics| -> Vec<_> {
                m.stages.records().iter().map(|r| (r.stage, r.size, r.unit)).collect()
            };
            assert_eq!(shape(f), shape(r), "{tag}");
            // The pad plan, the layout image and the final netlist are
            // byte-identical.
            let upstream = |r: &FlowResult| {
                let plan = r.artifacts.pads.as_deref().expect("pad plan");
                (encode_pad_plan(plan), r.artifacts.image.as_deref().map(encode_image))
            };
            assert_eq!(upstream(&full), upstream(&resumed), "{tag}");
            assert_eq!(encode_mapped(&full.mapped, &lib), encode_mapped(&resumed.mapped, &lib));
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn corrupt_artifact_recomputes_with_audit() {
        let lib = Library::big();
        let net = flow_fixture();
        let options = FlowOptions::lily_area();
        let dir = temp_dir("corrupt");
        let killed = run_flow_checkpointed(&net, &lib, &options, &dir, Some("map"));
        assert!(matches!(killed, Err(MapError::Interrupted { .. })));
        // Truncate the mapper artifact mid-file.
        let map_file = dir.join("03-map.json");
        let text = fs::read_to_string(&map_file).unwrap();
        fs::write(&map_file, &text[..text.len() / 2]).unwrap();
        let resumed = run_flow_checkpointed(&net, &lib, &options, &dir, None).unwrap();
        let audited: Vec<_> = resumed
            .metrics
            .degradations
            .iter()
            .filter(|d| d.stage == "checkpoint" && d.fallback == "recomputed")
            .collect();
        assert_eq!(audited.len(), 1, "{:?}", resumed.metrics.degradations);
        // Recomputation still lands on the uninterrupted answer.
        let plain = options.run_detailed(&net, &lib).unwrap();
        assert_eq!(plain.metrics.wire_length.to_bits(), resumed.metrics.wire_length.to_bits());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_manifest_is_skipped_with_audit_not_a_startup_failure() {
        let lib = Library::big();
        let net = flow_fixture();
        let options = FlowOptions::lily_area();
        let dir = temp_dir("torn-manifest");
        let killed = run_flow_checkpointed(&net, &lib, &options, &dir, Some("map"));
        assert!(matches!(killed, Err(MapError::Interrupted { .. })));
        // Tear the manifest itself mid-file, as a crash inside a
        // non-atomic writer would: truncated JSON cannot parse.
        let manifest = dir.join("manifest.json");
        let text = fs::read_to_string(&manifest).unwrap();
        fs::write(&manifest, &text[..text.len() / 2]).unwrap();
        // The resume must not fail startup: it discards the prefix,
        // audits the torn manifest once, and recomputes to the same
        // answer as an uninterrupted run.
        let resumed = run_flow_checkpointed(&net, &lib, &options, &dir, None).unwrap();
        let audited: Vec<_> = resumed
            .metrics
            .degradations
            .iter()
            .filter(|d| d.stage == "checkpoint" && d.fallback == "recomputed")
            .collect();
        assert_eq!(audited.len(), 1, "{:?}", resumed.metrics.degradations);
        assert!(audited[0].detail.contains("manifest torn"));
        let plain = options.run_detailed(&net, &lib).unwrap();
        assert_eq!(plain.metrics.wire_length.to_bits(), resumed.metrics.wire_length.to_bits());
        // A second resume runs against the healed (re-written) manifest
        // with no audit entry at all.
        let healed = run_flow_checkpointed(&net, &lib, &options, &dir, None).unwrap();
        assert!(healed.metrics.degradations.iter().all(|d| d.stage != "checkpoint"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_fingerprint_starts_fresh() {
        let lib = Library::big();
        let net = flow_fixture();
        let dir = temp_dir("fingerprint");
        let killed =
            run_flow_checkpointed(&net, &lib, &FlowOptions::lily_area(), &dir, Some("map"));
        assert!(matches!(killed, Err(MapError::Interrupted { .. })));
        // A different configuration must not adopt the stored prefix.
        let mis = run_flow_checkpointed(&net, &lib, &FlowOptions::mis_area(), &dir, None).unwrap();
        assert!(mis.metrics.degradations.iter().all(|d| d.stage != "checkpoint"));
        let plain = FlowOptions::mis_area().run_detailed(&net, &lib).unwrap();
        assert_eq!(plain.metrics.wire_length.to_bits(), mis.metrics.wire_length.to_bits());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn map_stats_codec_round_trips_the_dp_counters() {
        let lib = Library::big();
        let stats = FlowOptions::cut_area().run(&flow_fixture(), &lib).unwrap().stats;
        assert!(stats.dp_solves > 0);
        let decoded = decode_stats(&Json::parse(&encode_stats(&stats)).unwrap()).unwrap();
        assert_eq!(decoded, stats);
        let odd = MapStats { dp_solves: 7, dp_reused: 1 << 40, ..stats };
        assert_eq!(decode_stats(&Json::parse(&encode_stats(&odd)).unwrap()).unwrap(), odd);
    }

    #[test]
    fn subject_codec_replays_exactly() {
        let net = flow_fixture();
        let g = lily_netlist::decompose::decompose(
            &net,
            lily_netlist::decompose::DecomposeOrder::Balanced,
        )
        .unwrap();
        let encoded = encode_subject(&g);
        let decoded = decode_subject(&Json::parse(&encoded).unwrap()).unwrap();
        assert_eq!(g.node_count(), decoded.node_count());
        assert_eq!(g.kinds(), decoded.kinds());
        assert_eq!(encode_subject(&decoded), encoded);
    }
}
