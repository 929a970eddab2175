//! Checkpoint codecs of the types the stage artifacts are built from.
//!
//! Each artifact's own [`ArtifactCodec`] impl sits next to the artifact
//! in [`stages`](super::stages); this module holds what they share: the
//! JSON field readers, the bit-exact `f64` encodings (every float is
//! stored as its bit pattern via [`hex_f64`]), and the codecs of the
//! foreign types the artifacts carry — the subject graph, the mapped
//! netlist and the mapper statistics.

use std::sync::Arc;

use crate::cover::MapStats;
use crate::json::{array, escape, f64_from_hex, hex_f64, Json, JsonObject};
use crate::stage::ArtifactCodec;
use lily_cells::{CellId, Library, MappedCell, MappedNetwork, SignalSource};
use lily_netlist::{CutStats, LifeCycleStats, Network, SubjectGraph, SubjectKind, SubjectNodeId};
use lily_place::{Point, Rect};

/// Encodes a flat list of f64s as a JSON array of bit-hex strings.
pub(crate) fn hex_array(values: impl IntoIterator<Item = f64>) -> String {
    array(values.into_iter().map(|x| format!("\"{}\"", hex_f64(x))))
}

pub(crate) fn encode_points(points: &[Point]) -> String {
    hex_array(points.iter().flat_map(|p| [p.x, p.y]))
}

pub(crate) fn encode_rect(r: Rect) -> String {
    hex_array([r.llx, r.lly, r.urx, r.ury])
}

/// The field readers of a checkpoint document. Every failure is a
/// message naming what is missing or malformed.
pub(crate) trait Fields {
    /// The value under `key`.
    fn field(&self, key: &str) -> Result<&Json, String>;
    /// The value under `key`, `None` for an explicit `null`.
    fn nullable(&self, key: &str) -> Result<Option<&Json>, String>;
    fn str_field(&self, key: &str) -> Result<&str, String>;
    fn usize_field(&self, key: &str) -> Result<usize, String>;
    fn array_field(&self, key: &str) -> Result<&[Json], String>;
    /// A bit-hex float.
    fn hex_field(&self, key: &str) -> Result<f64, String>;
    /// An array of bit-hex floats.
    fn hex_array(&self, key: &str) -> Result<Vec<f64>, String>;
    /// A bit-hex array of `(a, b)` pairs; `what` names the pair kind in
    /// the error for an odd-length array.
    fn pairs(&self, key: &str, what: &str) -> Result<Vec<(f64, f64)>, String>;
    fn points(&self, key: &str) -> Result<Vec<Point>, String>;
    fn rect(&self, key: &str) -> Result<Rect, String>;
    /// This object as a mapped netlist written by [`encode_mapped`].
    fn mapped_network(&self, lib: &Library) -> Result<MappedNetwork, String>;
    /// This object as mapper statistics written by [`encode_stats`].
    fn map_stats(&self) -> Result<MapStats, String>;
}

impl Fields for Json {
    fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| format!("missing {key}"))
    }

    fn nullable(&self, key: &str) -> Result<Option<&Json>, String> {
        self.field(key).map(|v| (!v.is_null()).then_some(v))
    }

    fn str_field(&self, key: &str) -> Result<&str, String> {
        self.get(key).and_then(Json::as_str).ok_or_else(|| format!("missing string field `{key}`"))
    }

    fn usize_field(&self, key: &str) -> Result<usize, String> {
        self.get(key).and_then(Json::as_usize).ok_or_else(|| format!("missing uint field `{key}`"))
    }

    fn array_field(&self, key: &str) -> Result<&[Json], String> {
        self.get(key).and_then(Json::as_array).ok_or_else(|| format!("missing array field `{key}`"))
    }

    fn hex_field(&self, key: &str) -> Result<f64, String> {
        self.get(key)
            .and_then(Json::as_str)
            .and_then(f64_from_hex)
            .ok_or_else(|| format!("bad hex float field `{key}`"))
    }

    fn hex_array(&self, key: &str) -> Result<Vec<f64>, String> {
        let items = self.array_field(key).map_err(|_| format!("missing hex array `{key}`"))?;
        let hex = |(i, x): (usize, &Json)| {
            x.as_str().and_then(f64_from_hex).ok_or_else(|| format!("bad hex float at index {i}"))
        };
        items.iter().enumerate().map(hex).collect()
    }

    fn pairs(&self, key: &str, what: &str) -> Result<Vec<(f64, f64)>, String> {
        let flat = self.hex_array(key)?;
        if flat.len() % 2 != 0 {
            return Err(format!("odd {what} array `{key}`"));
        }
        Ok(flat.chunks_exact(2).map(|c| (c[0], c[1])).collect())
    }

    fn points(&self, key: &str) -> Result<Vec<Point>, String> {
        Ok(self.pairs(key, "point")?.into_iter().map(|(x, y)| Point::new(x, y)).collect())
    }

    fn rect(&self, key: &str) -> Result<Rect, String> {
        match self.hex_array(key)?.as_slice() {
            [llx, lly, urx, ury] if llx <= urx && lly <= ury => {
                Ok(Rect { llx: *llx, lly: *lly, urx: *urx, ury: *ury })
            }
            _ => Err(format!("bad rectangle `{key}`")),
        }
    }

    /// Gates are stored by *name* and re-resolved against the live
    /// library, so a checkpoint written against a different library is
    /// rejected instead of silently mapping onto the wrong cells.
    fn mapped_network(&self, lib: &Library) -> Result<MappedNetwork, String> {
        let input_names: Vec<String> = self
            .array_field("input_names")?
            .iter()
            .map(|n| n.as_str().map(str::to_string).ok_or_else(|| "bad input name".to_string()))
            .collect::<Result<_, _>>()?;
        let n_inputs = input_names.len();
        let mut mapped = MappedNetwork::new(self.str_field("name")?, input_names);
        let cells = self.array_field("cells")?;
        let n_cells = cells.len();
        for (i, cell) in cells.iter().enumerate() {
            let gate_name = cell.str_field("gate")?;
            let gate = lib
                .find(gate_name)
                .ok_or_else(|| format!("gate `{gate_name}` not in library `{}`", lib.name()))?;
            let fanins = cell
                .array_field("fanins")?
                .iter()
                .map(|f| {
                    f.as_str()
                        .ok_or_else(|| format!("bad fanin on cell {i}"))
                        .and_then(|s| decode_source(s, n_inputs, n_cells))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let position = match cell.hex_array("pos")?.as_slice() {
                [x, y] => (*x, *y),
                _ => return Err(format!("bad position on cell {i}")),
            };
            mapped.add_cell(MappedCell { gate, fanins, position });
        }
        for o in self.array_field("outputs")? {
            let source = decode_source(o.str_field("source")?, n_inputs, n_cells)?;
            mapped.add_output(o.str_field("name")?, source);
        }
        mapped.input_positions = pads(self, "input_positions", n_inputs)?;
        mapped.output_positions = pads(self, "output_positions", mapped.outputs.len())?;
        Ok(mapped)
    }

    fn map_stats(&self) -> Result<MapStats, String> {
        Ok(MapStats {
            lifecycle: LifeCycleStats {
                hatched: self.usize_field("hatched")?,
                doves: self.usize_field("doves")?,
                hawks: self.usize_field("hawks")?,
                reincarnations: self.usize_field("reincarnations")?,
            },
            matches_enumerated: self.usize_field("matches_enumerated")?,
            scopes: self.usize_field("scopes")?,
            dp_solves: self.usize_field("dp_solves")?,
            dp_reused: self.usize_field("dp_reused")?,
            ordering_cost: self
                .nullable("ordering_cost")?
                .map(|c| c.as_usize().ok_or_else(|| "bad ordering_cost".to_string()))
                .transpose()?,
            // Absent in pre-cut checkpoints: decode as "the cut mapper
            // did not run" rather than rejecting the whole checkpoint.
            cuts: match self.get("cuts") {
                Some(Json::Null) | None => None,
                Some(c) => Some(CutStats {
                    nodes: c.usize_field("nodes")?,
                    kept: c.usize_field("kept")?,
                    pruned_width: c.usize_field("pruned_width")?,
                    pruned_dominated: c.usize_field("pruned_dominated")?,
                    pruned_overflow: c.usize_field("pruned_overflow")?,
                    max_per_node: c.usize_field("max_per_node")?,
                }),
            },
        })
    }
}

fn string_array(names: &[String]) -> String {
    array(names.iter().map(|n| format!("\"{}\"", escape(n))))
}

// ---------------------------------------------------------------------
// Subject graph (the `decompose` artifact)
// ---------------------------------------------------------------------

impl<'a> ArtifactCodec<&'a Network> for Arc<SubjectGraph> {
    fn encode(&self, _lib: &Library) -> String {
        let g = &**self;
        let nodes = array(g.kinds().iter().map(|k| {
            let body = match k {
                SubjectKind::Input(_) => "i".to_string(),
                SubjectKind::Nand2(a, b) => format!("n:{}:{}", a.index(), b.index()),
                SubjectKind::Inv(a) => format!("v:{}", a.index()),
            };
            format!("\"{body}\"")
        }));
        let outputs = array(g.outputs().iter().map(|o| {
            JsonObject::new()
                .string("name", &o.name)
                .uint("driver", o.driver.index() as u64)
                .finish()
        }));
        JsonObject::new()
            .string("name", g.name())
            .raw("input_names", &string_array(g.input_names()))
            .raw("nodes", &nodes)
            .raw("outputs", &outputs)
            .finish()
    }

    /// Rebuilds a subject graph by *replaying* its construction: every
    /// node is re-created through the canonical `add_input`/`nand2`/`inv`
    /// builders and must land on its stored index. Structural hashing
    /// and double-inverter cancellation make those builders
    /// non-injective, so an index mismatch means the stored node list
    /// was never produced by them — i.e. the file is corrupt — and the
    /// decode fails.
    fn decode(v: &Json, _lib: &Library, _net: &&'a Network) -> Result<Self, String> {
        let input_names: Vec<&str> = v
            .array_field("input_names")?
            .iter()
            .map(|n| n.as_str().ok_or_else(|| "bad input name".to_string()))
            .collect::<Result<_, _>>()?;
        let nodes = v.array_field("nodes")?;
        let mut g = SubjectGraph::new(v.str_field("name")?);
        let mut inputs_seen = 0usize;
        let fanin = |s: &str, i: usize, kind: &str| -> Result<SubjectNodeId, String> {
            let a: usize = s.parse().map_err(|_| format!("bad {kind} fanin at node {i}"))?;
            if a >= i {
                return Err(format!("forward fanin at node {i}"));
            }
            Ok(SubjectNodeId::from_index(a))
        };
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
                let (a, b) = (fanin(a, i, "nand")?, fanin(b, i, "nand")?);
                g.nand2(a, b)
            } else if let Some(rest) = spec.strip_prefix("v:") {
                let a = fanin(rest, i, "inv")?;
                g.inv(a)
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
        for o in v.array_field("outputs")? {
            let name = o.str_field("name")?;
            let driver = o.usize_field("driver")?;
            if driver >= nodes.len() {
                return Err(format!("output `{name}` drives missing node {driver}"));
            }
            g.set_output(name, SubjectNodeId::from_index(driver));
        }
        Ok(Arc::new(g))
    }
}

// ---------------------------------------------------------------------
// Mapped netlist
// ---------------------------------------------------------------------

fn encode_source(s: &SignalSource) -> String {
    match s {
        SignalSource::Input(i) => format!("i:{i}"),
        SignalSource::Cell(c) => format!("c:{}", c.index()),
    }
}

fn decode_source(spec: &str, inputs: usize, cells: usize) -> Result<SignalSource, String> {
    let index = |rest: &str| rest.parse::<usize>().map_err(|_| format!("bad source `{spec}`"));
    if let Some(rest) = spec.strip_prefix("i:") {
        let i = index(rest)?;
        if i >= inputs {
            return Err(format!("source input {i} out of range"));
        }
        Ok(SignalSource::Input(i))
    } else if let Some(rest) = spec.strip_prefix("c:") {
        let c = index(rest)?;
        if c >= cells {
            return Err(format!("source cell {c} out of range"));
        }
        Ok(SignalSource::Cell(CellId::from_index(c)))
    } else {
        Err(format!("unknown source `{spec}`"))
    }
}

pub(crate) fn encode_mapped(mapped: &MappedNetwork, lib: &Library) -> String {
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
        .raw("input_names", &string_array(&mapped.input_names))
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

/// The pad positions stored under `key`: exactly one `(x, y)` pair per
/// pad.
fn pads(v: &Json, key: &str, expected: usize) -> Result<Vec<(f64, f64)>, String> {
    let flat = v.hex_array(key)?;
    if flat.len() != expected * 2 {
        return Err(format!("`{key}` has {} values, expected {}", flat.len(), expected * 2));
    }
    Ok(flat.chunks_exact(2).map(|c| (c[0], c[1])).collect())
}

// ---------------------------------------------------------------------
// Mapper statistics
// ---------------------------------------------------------------------

/// The cut-enumeration counters as a JSON object (shared with the
/// metrics JSON, which writes the same object).
pub(crate) fn cut_stats_json(c: &CutStats) -> String {
    JsonObject::new()
        .uint("nodes", c.nodes as u64)
        .uint("kept", c.kept as u64)
        .uint("pruned_width", c.pruned_width as u64)
        .uint("pruned_dominated", c.pruned_dominated as u64)
        .uint("pruned_overflow", c.pruned_overflow as u64)
        .uint("max_per_node", c.max_per_node as u64)
        .finish()
}

pub(crate) fn encode_stats(stats: &MapStats) -> String {
    let o = JsonObject::new()
        .uint("hatched", stats.lifecycle.hatched as u64)
        .uint("doves", stats.lifecycle.doves as u64)
        .uint("hawks", stats.lifecycle.hawks as u64)
        .uint("reincarnations", stats.lifecycle.reincarnations as u64)
        .uint("matches_enumerated", stats.matches_enumerated as u64)
        .uint("scopes", stats.scopes as u64)
        .uint("dp_solves", stats.dp_solves as u64)
        .uint("dp_reused", stats.dp_reused as u64);
    let o = match stats.ordering_cost {
        Some(c) => o.uint("ordering_cost", c as u64),
        None => o.raw("ordering_cost", "null"),
    };
    o.raw("cuts", &stats.cuts.as_ref().map_or_else(|| "null".to_string(), cut_stats_json)).finish()
}
