//! Write-ahead job journal: crash-consistent job accounting for the
//! daemon.
//!
//! Every admitted map job appends an `accepted` record — the raw
//! request frame plus a daemon-assigned sequence number — *before* any
//! work starts, and exactly one terminal record (`completed`, `failed`,
//! or the resumable `suspended`) after. On startup the daemon replays
//! the journal; jobs whose last record is non-terminal are *orphans*
//! (the process died mid-job) and are re-admitted automatically,
//! resuming from their checkpoint if the request named one. The
//! `resumed` record is the durable `journal → resumed` audit entry.
//!
//! ## On-disk format
//!
//! One `journal.log` per journal directory, a sequence of
//! length-prefixed, fingerprint-guarded JSON records:
//!
//! ```text
//! ┌──────────────┬────────────────────┬──────────────┐
//! │ len: u32 BE  │ fnv1a(payload): u64 BE │ payload (JSON) │
//! └──────────────┴────────────────────┴──────────────┘
//! ```
//!
//! Appends are flushed and `sync_data`ed, so a record either survives
//! `kill -9` whole or is a *torn tail*: a short header, short payload,
//! or fingerprint mismatch. Replay stops at the first torn record,
//! counts it, and [`Journal::open`] truncates the file back to the
//! last valid boundary — the classic WAL recovery rule that keeps a
//! torn record from hiding later appends forever.
//!
//! The writer side is deliberately tiny: the daemon owns record
//! ordering (the worker that runs a job is the sole writer of its
//! terminal record), the journal just makes the bytes durable.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use lily_core::json::{Json, JsonObject, ParseLimits};
use lily_netlist::hash::fnv1a;

/// File name of the journal inside `--journal-dir`.
pub const JOURNAL_FILE: &str = "journal.log";

/// Upper bound on a single record payload; matches the absolute wire
/// frame ceiling so a journaled request always fits.
pub const MAX_RECORD_BYTES: usize = 64 << 20;

/// Bytes of header preceding every payload: u32 length + u64 FNV-1a.
const HEADER_BYTES: usize = 12;

/// One durable journal entry. `seq` is the daemon-assigned job
/// sequence number — monotone across restarts, never the client's
/// request id (those collide across connections).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// Job admitted; `request` is the raw request frame text.
    Accepted {
        /// Daemon-assigned job sequence number.
        seq: u64,
        /// Raw JSON request frame, replayable via `Request::from_json`.
        request: String,
    },
    /// Orphan re-admitted at startup — the `journal → resumed` audit.
    Resumed {
        /// Sequence number of the re-admitted job.
        seq: u64,
    },
    /// Job parked resumable: watchdog trip or daemon shutdown.
    Suspended {
        /// Sequence number of the parked job.
        seq: u64,
        /// Why it was parked (`"watchdog"`, `"shutdown"`).
        reason: String,
    },
    /// Job finished cleanly; `metrics` is the flow-metrics JSON.
    Completed {
        /// Sequence number of the finished job.
        seq: u64,
        /// Raw `FlowMetrics::to_json` text, for drill comparison.
        metrics: String,
    },
    /// Job failed terminally (client error, typed flow error, cancel).
    Failed {
        /// Sequence number of the failed job.
        seq: u64,
        /// Stable error slug (`error_kind`) or cancel class.
        kind: String,
    },
}

impl JournalRecord {
    /// The job sequence number this record belongs to.
    #[must_use]
    pub fn seq(&self) -> u64 {
        match *self {
            JournalRecord::Accepted { seq, .. }
            | JournalRecord::Resumed { seq }
            | JournalRecord::Suspended { seq, .. }
            | JournalRecord::Completed { seq, .. }
            | JournalRecord::Failed { seq, .. } => seq,
        }
    }

    /// Stable record-kind name as written to disk.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            JournalRecord::Accepted { .. } => "accepted",
            JournalRecord::Resumed { .. } => "resumed",
            JournalRecord::Suspended { .. } => "suspended",
            JournalRecord::Completed { .. } => "completed",
            JournalRecord::Failed { .. } => "failed",
        }
    }

    /// True if this record ends a job's journal lifecycle.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(self, JournalRecord::Completed { .. } | JournalRecord::Failed { .. })
    }

    /// Serializes to the JSON payload stored inside a record frame.
    #[must_use]
    pub fn to_json(&self) -> String {
        let base = JsonObject::new().string("record", self.kind()).uint("seq", self.seq());
        match self {
            JournalRecord::Accepted { request, .. } => base.string("request", request),
            JournalRecord::Resumed { .. } => base,
            JournalRecord::Suspended { reason, .. } => base.string("reason", reason),
            JournalRecord::Completed { metrics, .. } => base.string("metrics", metrics),
            JournalRecord::Failed { kind, .. } => base.string("kind", kind),
        }
        .finish()
    }

    /// Decodes a parsed payload; `None` for unknown or malformed
    /// record kinds (skipped, counted, never fatal — forward compat).
    #[must_use]
    pub fn from_json(json: &Json) -> Option<JournalRecord> {
        let seq = json.get("seq")?.as_u64()?;
        let field = |key: &str| json.get(key).and_then(Json::as_str).map(str::to_owned);
        match json.get("record")?.as_str()? {
            "accepted" => Some(JournalRecord::Accepted { seq, request: field("request")? }),
            "resumed" => Some(JournalRecord::Resumed { seq }),
            "suspended" => Some(JournalRecord::Suspended { seq, reason: field("reason")? }),
            "completed" => Some(JournalRecord::Completed { seq, metrics: field("metrics")? }),
            "failed" => Some(JournalRecord::Failed { seq, kind: field("kind")? }),
            _ => None,
        }
    }
}

/// Everything recovered from a journal scan.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Replay {
    /// Valid records, in append order.
    pub records: Vec<JournalRecord>,
    /// 1 if the scan stopped at a torn tail (short header, short
    /// payload, oversized length, or fingerprint/JSON mismatch).
    pub torn: usize,
    /// Structurally valid records of an unknown kind, skipped.
    pub unknown: usize,
}

/// An in-flight job recovered from the journal: accepted (possibly
/// resumed or suspended since) but never terminated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Orphan {
    /// Daemon-assigned sequence number.
    pub seq: u64,
    /// Raw request frame text from the `accepted` record.
    pub request: String,
    /// How many times this job has already been re-admitted.
    pub resumes: u64,
}

impl Replay {
    /// Jobs whose last record is non-terminal, in sequence order.
    #[must_use]
    pub fn orphans(&self) -> Vec<Orphan> {
        let mut live: std::collections::BTreeMap<u64, Orphan> = std::collections::BTreeMap::new();
        for rec in &self.records {
            match rec {
                JournalRecord::Accepted { seq, request } => {
                    live.insert(*seq, Orphan { seq: *seq, request: request.clone(), resumes: 0 });
                }
                JournalRecord::Resumed { seq } => {
                    if let Some(orphan) = live.get_mut(seq) {
                        orphan.resumes += 1;
                    }
                }
                JournalRecord::Suspended { .. } => {}
                JournalRecord::Completed { seq, .. } | JournalRecord::Failed { seq, .. } => {
                    live.remove(seq);
                }
            }
        }
        live.into_values().collect()
    }

    /// The next free sequence number after everything seen.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.records.iter().map(JournalRecord::seq).max().map_or(1, |m| m.saturating_add(1))
    }

    /// The metrics JSON of the latest `completed` record for `seq`.
    #[must_use]
    pub fn completed_metrics(&self, seq: u64) -> Option<&str> {
        self.records.iter().rev().find_map(|rec| match rec {
            JournalRecord::Completed { seq: s, metrics } if *s == seq => Some(metrics.as_str()),
            _ => None,
        })
    }
}

/// Scans raw journal bytes; returns the replay plus the byte length of
/// the valid prefix (the truncation point for WAL recovery).
fn scan(bytes: &[u8]) -> (Replay, usize) {
    let mut replay = Replay::default();
    let mut pos = 0usize;
    while pos < bytes.len() {
        if bytes.len() - pos < HEADER_BYTES {
            replay.torn = 1;
            break;
        }
        let be = |range: std::ops::Range<usize>| {
            bytes[range].iter().fold(0u64, |acc, &b| (acc << 8) | u64::from(b))
        };
        let len = be(pos..pos + 4) as usize;
        let fp = be(pos + 4..pos + 12);
        if len > MAX_RECORD_BYTES || bytes.len() - pos - HEADER_BYTES < len {
            replay.torn = 1;
            break;
        }
        let payload = &bytes[pos + HEADER_BYTES..pos + HEADER_BYTES + len];
        if fnv1a(payload) != fp {
            replay.torn = 1;
            break;
        }
        let parsed = std::str::from_utf8(payload).ok().and_then(|text| {
            Json::parse_with_limits(
                text,
                ParseLimits { max_bytes: MAX_RECORD_BYTES, ..ParseLimits::default() },
            )
            .ok()
        });
        let Some(json) = parsed else {
            replay.torn = 1;
            break;
        };
        match JournalRecord::from_json(&json) {
            Some(rec) => replay.records.push(rec),
            None => replay.unknown += 1,
        }
        pos += HEADER_BYTES + len;
    }
    (replay, pos)
}

/// Read-only replay of a journal directory; missing file is an empty
/// journal, not an error. Never truncates — safe for external drills
/// inspecting a live daemon's journal.
pub fn replay_dir(dir: &Path) -> io::Result<Replay> {
    match fs::read(dir.join(JOURNAL_FILE)) {
        Ok(bytes) => Ok(scan(&bytes).0),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Replay::default()),
        Err(e) => Err(e),
    }
}

/// Append-only handle on a journal file. Cheap to share behind an
/// `Arc`; appends serialize through an internal mutex.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: Mutex<File>,
}

impl Journal {
    /// Opens (creating if needed) the journal under `dir`, replays it,
    /// and truncates any torn tail so future appends land on a valid
    /// boundary. Returns the handle plus everything recovered.
    pub fn open(dir: &Path) -> io::Result<(Journal, Replay)> {
        fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let (replay, valid_len) = scan(&bytes);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        file.set_len(valid_len as u64)?;
        Ok((Journal { path, file: Mutex::new(file) }, replay))
    }

    /// Path of the underlying `journal.log`.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Durably appends one record: header + payload in one write,
    /// flushed and `sync_data`ed before returning.
    pub fn append(&self, record: &JournalRecord) -> io::Result<()> {
        self.write_frame(record, None)
    }

    /// Deliberately writes a *torn* record — the full header but only
    /// half the payload, as if the process died mid-write. Fault
    /// injection only (`FaultKind::TornWrite`); replay will skip it
    /// and the next [`Journal::open`] truncates it away.
    pub fn append_torn(&self, record: &JournalRecord) -> io::Result<()> {
        let payload = record.to_json();
        self.write_frame(record, Some(payload.len() / 2))
    }

    fn write_frame(&self, record: &JournalRecord, keep: Option<usize>) -> io::Result<()> {
        let payload = record.to_json();
        let payload = payload.as_bytes();
        let mut frame = Vec::with_capacity(HEADER_BYTES + payload.len().min(MAX_RECORD_BYTES));
        let len = u32::try_from(payload.len()).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidInput, "journal record exceeds u32 length")
        })?;
        frame.extend_from_slice(&len.to_be_bytes());
        frame.extend_from_slice(&fnv1a(payload).to_be_bytes());
        frame.extend_from_slice(&payload[..keep.unwrap_or(payload.len())]);
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        file.write_all(&frame)?;
        file.flush()?;
        file.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lily-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Accepted {
                seq: 1,
                request: r#"{"id":7,"method":"map","circuit":"misex1"}"#.to_owned(),
            },
            JournalRecord::Resumed { seq: 1 },
            JournalRecord::Suspended { seq: 1, reason: "watchdog".to_owned() },
            JournalRecord::Completed { seq: 1, metrics: r#"{"cells":12}"#.to_owned() },
            JournalRecord::Failed { seq: 2, kind: "bad-request".to_owned() },
        ]
    }

    #[test]
    fn records_round_trip_through_append_and_replay() {
        let dir = temp_dir("roundtrip");
        let (journal, replay) = Journal::open(&dir).expect("open fresh");
        assert_eq!(replay, Replay::default());
        for rec in sample_records() {
            journal.append(&rec).expect("append");
        }
        let replay = replay_dir(&dir).expect("replay");
        assert_eq!(replay.records, sample_records());
        assert_eq!((replay.torn, replay.unknown), (0, 0));
        assert_eq!(replay.next_seq(), 3);
        assert_eq!(replay.completed_metrics(1), Some(r#"{"cells":12}"#));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_at_every_byte_recovers_the_valid_prefix() {
        let dir = temp_dir("truncate");
        let (journal, _) = Journal::open(&dir).expect("open");
        let records = sample_records();
        let mut boundaries = vec![0u64];
        for rec in &records {
            journal.append(rec).expect("append");
            boundaries.push(fs::metadata(journal.path()).expect("meta").len());
        }
        drop(journal);
        let total = *boundaries.last().expect("non-empty");
        let bytes = fs::read(dir.join(JOURNAL_FILE)).expect("read");
        for cut in 0..=total {
            fs::write(dir.join(JOURNAL_FILE), &bytes[..cut as usize]).expect("truncate");
            let replay = replay_dir(&dir).expect("replay never errors");
            let whole = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
            assert_eq!(replay.records, records[..whole], "cut at byte {cut}");
            let at_boundary = boundaries.contains(&cut);
            assert_eq!(replay.torn, usize::from(!at_boundary), "cut at byte {cut}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_fingerprint_stops_replay_at_the_bad_record() {
        let dir = temp_dir("corrupt");
        let (journal, _) = Journal::open(&dir).expect("open");
        for rec in sample_records() {
            journal.append(&rec).expect("append");
        }
        drop(journal);
        let mut bytes = fs::read(dir.join(JOURNAL_FILE)).expect("read");
        // Flip one payload byte of the second record.
        let first_len = u32::from_be_bytes(bytes[0..4].try_into().expect("len")) as usize;
        let second_payload = 12 + first_len + 12;
        bytes[second_payload] ^= 0x40;
        fs::write(dir.join(JOURNAL_FILE), &bytes).expect("write back");
        let replay = replay_dir(&dir).expect("replay");
        assert_eq!(replay.records.len(), 1, "only the record before the corruption survives");
        assert_eq!(replay.torn, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_truncates_a_torn_tail_so_later_appends_are_reachable() {
        let dir = temp_dir("heal");
        let (journal, _) = Journal::open(&dir).expect("open");
        journal.append(&sample_records()[0]).expect("good record");
        journal.append_torn(&sample_records()[3]).expect("torn record");
        drop(journal);
        // First reopen: sees the torn tail, truncates it away.
        let (journal, replay) = Journal::open(&dir).expect("reopen");
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.torn, 1);
        journal.append(&sample_records()[3]).expect("append after heal");
        drop(journal);
        // Second reopen: fully clean, completed record visible.
        let (_, replay) = Journal::open(&dir).expect("reopen clean");
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.torn, 0);
        assert!(replay.orphans().is_empty(), "completed job is no orphan");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn orphan_state_machine_tracks_lifecycles() {
        let recs = |tail: &[JournalRecord]| {
            let mut all = vec![JournalRecord::Accepted { seq: 9, request: "{}".to_owned() }];
            all.extend_from_slice(tail);
            Replay { records: all, ..Replay::default() }
        };
        assert_eq!(recs(&[]).orphans().len(), 1, "accepted alone is an orphan");
        assert_eq!(recs(&[JournalRecord::Resumed { seq: 9 }]).orphans()[0].resumes, 1);
        assert_eq!(
            recs(&[JournalRecord::Suspended { seq: 9, reason: "watchdog".to_owned() }])
                .orphans()
                .len(),
            1,
            "suspended stays resumable"
        );
        assert!(recs(&[JournalRecord::Completed { seq: 9, metrics: "{}".to_owned() }])
            .orphans()
            .is_empty());
        assert!(recs(&[JournalRecord::Failed { seq: 9, kind: "cancelled".to_owned() }])
            .orphans()
            .is_empty());
        // A resumed/suspended record without its accepted is ignored.
        let stray =
            Replay { records: vec![JournalRecord::Resumed { seq: 42 }], ..Replay::default() };
        assert!(stray.orphans().is_empty());
    }

    #[test]
    fn unknown_record_kinds_are_skipped_not_fatal() {
        let dir = temp_dir("unknown");
        let (journal, _) = Journal::open(&dir).expect("open");
        journal.append(&sample_records()[0]).expect("append");
        // Hand-roll a record of a future kind.
        let payload = br#"{"record":"vacuumed","seq":3}"#;
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(&fnv1a(payload).to_be_bytes());
        frame.extend_from_slice(payload);
        {
            let mut file = journal.file.lock().expect("lock");
            file.write_all(&frame).expect("write");
            file.sync_data().expect("sync");
        }
        journal.append(&sample_records()[1]).expect("append after");
        drop(journal);
        let replay = replay_dir(&dir).expect("replay");
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.unknown, 1);
        assert_eq!(replay.torn, 0);
        fs::remove_dir_all(&dir).ok();
    }
}
