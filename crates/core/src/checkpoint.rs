//! Checkpoint/resume for the stage-graph flow.
//!
//! A [`CheckpointDir`] attached to a [`FlowContext`] (the `checkpoint`
//! policy of [`FlowRun`]) persists every completed stage artifact to a
//! directory as the flow goes. A flow that is killed (or deliberately interrupted
//! with `interrupt_after`, the engine behind `lily-check --kill-after`)
//! can be re-run against the same directory and resumes from the last
//! completed stage: restored artifacts are decoded bit-exactly by their
//! own [`ArtifactCodec`](crate::stage::ArtifactCodec), so the resumed
//! flow's result is identical to an uninterrupted run, modulo stage
//! wall times.
//!
//! The directory holds one `NN-<stage>.json` artifact file per
//! completed stage plus a `manifest.json` that records, per stage, the
//! artifact file, its metrics record, and the degradation-audit /
//! retry-counter deltas the stage produced — restoring a stage replays
//! its observable history, not just its data. This module owns the
//! run fingerprint, the manifest, and the atomic directory I/O.
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
//!
//! [`FlowRun`]: crate::flow::FlowRun

use std::fs;
use std::path::{Path, PathBuf};

use crate::error::MapError;
use crate::flow::{Degradation, FlowOptions};
use crate::json::{array, Json, JsonObject};
use crate::stage::codec::Fields;
use crate::stage::FlowContext;
use lily_netlist::hash::Fnv1a;
use lily_netlist::Network;

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

/// Every [`Degradation::stage`] the flow records.
const DEGRADE_STAGES: [&str; 8] = [
    "lily-global-place",
    "mapped-global-place",
    "map",
    "detailed-placement",
    "anneal",
    "wire-load",
    "detailed-place",
    "checkpoint",
];

/// Every [`Degradation::fallback`] the flow records.
const FALLBACKS: [&str; 9] = [
    "mis-mapper",
    "mapper-positions",
    "tree-partition",
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
/// (The per-node artifact replay catches finer divergence: a restored
/// subject graph is rebuilt node by node and any mismatch discards the
/// checkpoint.)
fn fingerprint(net: &Network, options: &FlowOptions) -> u64 {
    let mut h = Fnv1a::default();
    h.bytes(format!("{options:?}").as_bytes());
    h.bytes(net.name().as_bytes());
    h.bytes(&(net.input_count() as u64).to_le_bytes());
    h.bytes(&(net.output_count() as u64).to_le_bytes());
    h.bytes(&(net.node_count() as u64).to_le_bytes());
    h.finish()
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
        let counter = |key: &str| {
            let n = v.get(key).and_then(Json::as_u64).and_then(|r| u32::try_from(r).ok());
            n.ok_or_else(|| format!("missing {key}"))
        };
        let degradations = v
            .array_field("degradations")?
            .iter()
            .map(|d| {
                Ok((
                    d.str_field("flow")?.to_string(),
                    d.str_field("stage")?.to_string(),
                    d.str_field("fallback")?.to_string(),
                    d.str_field("detail")?.to_string(),
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self {
            stage: v.str_field("stage")?.to_string(),
            file: v.str_field("file")?.to_string(),
            wall_ns: v.get("wall_ns").and_then(Json::as_u64).ok_or("missing wall_ns")?,
            size: v.usize_field("size")?,
            unit: v.str_field("unit")?.to_string(),
            retries: counter("retries")?,
            deadline_hits: counter("deadline_hits")?,
            degradations,
        })
    }
}

/// The entries of a manifest written for `fingerprint` — none for a
/// different run's manifest, a silent fresh start — or `None` when the
/// manifest is torn: unparsable, without a fingerprint, or with an
/// undecodable entry.
fn read_manifest(text: &str, fingerprint: u64) -> Option<Vec<ManifestEntry>> {
    let m = Json::parse(text).ok()?;
    let stored = m.str_field("fingerprint").ok().and_then(|s| u64::from_str_radix(s, 16).ok())?;
    if stored != fingerprint {
        return Some(Vec::new());
    }
    let entries = m.array_field("entries").ok()?;
    entries.iter().map(ManifestEntry::from_json).collect::<Result<_, _>>().ok()
}

/// A checkpoint directory: the manifest of completed stages plus a
/// cursor tracking how far the current run has aligned with it.
#[derive(Debug)]
pub struct CheckpointDir {
    dir: PathBuf,
    fingerprint: u64,
    /// The stage after which the run stops (once it is on disk).
    interrupt_after: Option<String>,
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
    /// Opens (creating if needed) a checkpoint directory for a run of
    /// `options` on `net`. A manifest written by a different run — or
    /// no manifest at all, or an unparsable one — starts fresh.
    ///
    /// # Errors
    ///
    /// [`MapError::Checkpoint`] when the directory cannot be created.
    pub(crate) fn open(dir: &Path, net: &Network, options: &FlowOptions) -> Result<Self, MapError> {
        let fingerprint = fingerprint(net, options);
        fs::create_dir_all(dir).map_err(|e| MapError::Checkpoint {
            context: "open",
            message: format!("cannot create `{}`: {e}", dir.display()),
        })?;
        // No manifest: a genuinely fresh directory. A present but
        // unreadable one is torn — detected and skipped (audited by the
        // caller), never a startup failure.
        let (entries, torn) = match fs::read_to_string(dir.join("manifest.json")) {
            Err(_) => (Vec::new(), false),
            Ok(text) => match read_manifest(&text, fingerprint) {
                Some(entries) => (entries, false),
                None => (Vec::new(), true),
            },
        };
        let live = !entries.is_empty();
        Ok(Self {
            dir: dir.to_path_buf(),
            fingerprint,
            interrupt_after: None,
            entries,
            cursor: 0,
            live,
            torn,
        })
    }

    /// Names a stage to deliberately stop after: once it is safely on
    /// disk the flow fails with [`MapError::Interrupted`]. The trivial
    /// zero-gate flow never reaches the stages after `decompose`, so
    /// naming one of them has no effect there.
    #[must_use]
    pub(crate) fn interrupt_after(mut self, stage: Option<&str>) -> Self {
        self.interrupt_after = stage.map(str::to_string);
        self
    }

    /// Whether the run stops after stage `name`.
    pub(crate) fn interrupts_after(&self, name: &str) -> bool {
        self.interrupt_after.as_deref() == Some(name)
    }

    /// Whether the manifest on disk was torn (see the field docs); the
    /// flow audits this as a `"checkpoint"` → `"recomputed"` entry.
    #[must_use]
    pub(crate) fn manifest_torn(&self) -> bool {
        self.torn
    }

    /// Tries to restore the next stage from the stored prefix. On a hit
    /// the stage's observable history (metrics record, degradation
    /// audit, retry counters) is replayed into `ctx` and the decoded
    /// artifact returned. On a miss — cursor past the prefix, stage
    /// mismatch, unreadable or corrupt artifact — the checkpoint goes
    /// dead, a corrupt artifact is audited as `"checkpoint"` →
    /// `"recomputed"`, and `None` asks the caller to recompute.
    pub(crate) fn restore<T>(
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
    /// any stale suffix left from a dead prefix. `mark` is the context's
    /// `(audit length, retries, deadline hits)` from before the stage
    /// ran, so the manifest stores exactly the history the stage added.
    ///
    /// # Errors
    ///
    /// [`MapError::Checkpoint`] on I/O failure.
    pub(crate) fn save(
        &mut self,
        ctx: &FlowContext<'_>,
        name: &'static str,
        entry_body: &str,
        mark: (usize, u32, u32),
    ) -> Result<(), MapError> {
        let (audit_mark, retries_mark, deadline_mark) = mark;
        self.entries.truncate(self.cursor);
        let file = format!("{:02}-{name}.json", self.cursor);
        self.write_atomic(&file, entry_body)?;
        let record = ctx.stages.get(name);
        let degradations = ctx
            .degradations
            .get(audit_mark..)
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
            retries: ctx.retries - retries_mark,
            deadline_hits: ctx.deadline_hits - deadline_mark,
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

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::cover::MapStats;
    use crate::flow::{FlowMetrics, FlowResult, FlowRun, PhysicalOptions};
    use crate::stage::codec::{encode_mapped, encode_stats};
    use crate::stage::{
        ArtifactCodec, AssignPads, Decompose, DetailedPlace, Legalize, Map, RouteEstimate, Sta,
        SubjectPlace,
    };
    use lily_cells::Library;
    use lily_netlist::SubjectGraph;
    use lily_workloads::structured::flow_fixture;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lily-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// One flow checkpointed into `dir`, optionally stopped after
    /// `kill`.
    fn checkpointed(
        net: &Network,
        lib: &Library,
        options: &FlowOptions,
        dir: &Path,
        kill: Option<&str>,
    ) -> Result<FlowResult, MapError> {
        let run = FlowRun {
            checkpoint: Some(dir.to_path_buf()),
            interrupt_after: kill.map(str::to_string),
            ..FlowRun::default()
        };
        run.single(net, lib, options).0
    }

    #[test]
    fn checkpointed_flow_matches_plain_flow() {
        let lib = Library::big();
        let net = flow_fixture();
        let options = FlowOptions::lily_area();
        let dir = temp_dir("plain");
        let plain = options.run_detailed(&net, &lib).unwrap();
        let ck = checkpointed(&net, &lib, &options, &dir, None).unwrap();
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
        let killed = checkpointed(&net, &lib, &options, &dir, Some("map"));
        assert!(matches!(killed, Err(MapError::Interrupted { stage: "map" })));
        let resumed = checkpointed(&net, &lib, &options, &dir, None).unwrap();
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
        // from a decoded pad plan. Last, the fixture above a (lowered)
        // cone ceiling, killed after the mapper: the stored map entry
        // carries the `map` → `tree-partition` audit entry.
        let dag = lily_workloads::scale_circuit(lily_workloads::ScaleFamily::RandomDag, 2000, 7);
        let trees = FlowOptions {
            physical: PhysicalOptions { cone_partition_max_nodes: 1, ..PhysicalOptions::default() },
            ..FlowOptions::lily_area()
        };
        let cases = [
            ("resume", flow_fixture(), FlowOptions::lily_area(), "map"),
            ("resume-pads", dag.clone(), FlowOptions::cut_area(), "assign-pads"),
            ("resume-image", dag, FlowOptions::cut_area(), "subject-place"),
            ("resume-trees", flow_fixture(), trees, "map"),
        ];
        for (tag, net, options, kill) in &cases {
            let dir = temp_dir(tag);
            let full_dir = temp_dir(&format!("{tag}-full"));
            let full = checkpointed(net, &lib, options, &full_dir, None).unwrap();
            let _ = fs::remove_dir_all(&full_dir);
            let killed = checkpointed(net, &lib, options, &dir, Some(kill));
            assert!(
                matches!(killed, Err(MapError::Interrupted { stage }) if stage == *kill),
                "{tag}: {killed:?}"
            );
            // Resume: the stored prefix restores, the rest computes.
            let resumed = checkpointed(net, &lib, options, &dir, None).unwrap();
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
                (plan.encode(&lib), r.artifacts.image.as_deref().map(|i| i.encode(&lib)))
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
        let killed = checkpointed(&net, &lib, &options, &dir, Some("map"));
        assert!(matches!(killed, Err(MapError::Interrupted { .. })));
        // Truncate the mapper artifact mid-file.
        let map_file = dir.join("03-map.json");
        let text = fs::read_to_string(&map_file).unwrap();
        fs::write(&map_file, &text[..text.len() / 2]).unwrap();
        let resumed = checkpointed(&net, &lib, &options, &dir, None).unwrap();
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
        let killed = checkpointed(&net, &lib, &options, &dir, Some("map"));
        assert!(matches!(killed, Err(MapError::Interrupted { .. })));
        // Tear the manifest itself mid-file, as a crash inside a
        // non-atomic writer would: truncated JSON cannot parse.
        let manifest = dir.join("manifest.json");
        let text = fs::read_to_string(&manifest).unwrap();
        fs::write(&manifest, &text[..text.len() / 2]).unwrap();
        // The resume must not fail startup: it discards the prefix,
        // audits the torn manifest once, and recomputes to the same
        // answer as an uninterrupted run.
        let resumed = checkpointed(&net, &lib, &options, &dir, None).unwrap();
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
        let healed = checkpointed(&net, &lib, &options, &dir, None).unwrap();
        assert!(healed.metrics.degradations.iter().all(|d| d.stage != "checkpoint"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_fingerprint_starts_fresh() {
        let lib = Library::big();
        let net = flow_fixture();
        let dir = temp_dir("fingerprint");
        let killed = checkpointed(&net, &lib, &FlowOptions::lily_area(), &dir, Some("map"));
        assert!(matches!(killed, Err(MapError::Interrupted { .. })));
        // A different configuration must not adopt the stored prefix.
        let mis = checkpointed(&net, &lib, &FlowOptions::mis_area(), &dir, None).unwrap();
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
        let decoded = Json::parse(&encode_stats(&stats)).unwrap().map_stats().unwrap();
        assert_eq!(decoded, stats);
        let odd = MapStats { dp_solves: 7, dp_reused: 1 << 40, ..stats };
        assert_eq!(Json::parse(&encode_stats(&odd)).unwrap().map_stats().unwrap(), odd);
    }

    #[test]
    fn subject_codec_replays_exactly() {
        let (lib, net) = (Library::big(), flow_fixture());
        let g = lily_netlist::decompose::decompose(
            &net,
            lily_netlist::decompose::DecomposeOrder::Balanced,
        )
        .unwrap();
        let g = Arc::new(g);
        let encoded = g.encode(&lib);
        let decoded =
            <Arc<SubjectGraph>>::decode(&Json::parse(&encoded).unwrap(), &lib, &&net).unwrap();
        assert_eq!(g.node_count(), decoded.node_count());
        assert_eq!(g.kinds(), decoded.kinds());
        assert_eq!(decoded.encode(&lib), encoded);
    }

    /// Checks `encode(decode(encode(a))) == encode(a)`.
    fn assert_round_trip<In, T: ArtifactCodec<In>>(a: &T, lib: &Library, input: &In, what: &str) {
        let encoded = a.encode(lib);
        let json = Json::parse(&encoded).unwrap_or_else(|e| panic!("{what}: {e}"));
        let decoded = T::decode(&json, lib, input).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(decoded.encode(lib), encoded, "{what}");
    }

    #[test]
    fn every_stage_artifact_codec_round_trips() {
        let lib = Library::big();
        let dag = lily_workloads::scale_circuit(lily_workloads::ScaleFamily::RandomDag, 2000, 7);
        let cases = [
            ("fixture/lily-area", flow_fixture(), FlowOptions::lily_area()),
            ("fixture/mis-delay", flow_fixture(), FlowOptions::mis_delay()),
            ("fixture/cut-area", flow_fixture(), FlowOptions::cut_area()),
            ("random-dag-2000/cut-area", dag, FlowOptions::cut_area()),
        ];
        for (tag, net, options) in &cases {
            let mut ctx = FlowContext::new(&lib, *options);
            let g = ctx.run(&Decompose, net).unwrap();
            assert_round_trip(&g, &lib, &net, &format!("{tag}: decompose"));
            let plan = ctx.run(&AssignPads, &*g).unwrap();
            assert_round_trip(&plan, &lib, &&*g, &format!("{tag}: assign-pads"));
            // The MIS flow skips the subject placement, but the image
            // codec is exercised on every input.
            let image = ctx.run(&SubjectPlace, (&*g, &plan)).unwrap();
            assert_round_trip(&image, &lib, &(&*g, &plan), &format!("{tag}: subject-place"));
            let map_input = (&*g, &plan, Some(&image));
            let mapping = ctx.run(&Map, map_input).unwrap();
            assert_round_trip(&mapping, &lib, &map_input, &format!("{tag}: map"));
            let legal = ctx.run(&Legalize, (&plan, mapping.clone())).unwrap();
            assert_round_trip(&legal, &lib, &(&plan, mapping), &format!("{tag}: legalize"));
            let placed = ctx.run(&DetailedPlace, legal.clone()).unwrap();
            assert_round_trip(&placed, &lib, &legal, &format!("{tag}: detailed-place"));
            let route = ctx.run(&RouteEstimate, &placed).unwrap();
            assert_round_trip(&route, &lib, &&placed, &format!("{tag}: route-estimate"));
            let timing = ctx.run(&Sta, &placed).unwrap();
            assert_round_trip(&timing, &lib, &&placed, &format!("{tag}: sta"));
        }
    }
}
