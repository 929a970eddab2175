//! Request/response schema of the mapping service.
//!
//! Requests are JSON objects with a `method` field (`ping`, `stats`,
//! `map`, `probe`, `shutdown`) and a client-chosen `id` echoed on
//! every reply, so several requests can be in flight on one
//! connection and their frames interleaved. Responses carry an
//! `event` field (`accepted`, `rejected`, `stage`, `done`, `error`,
//! `pong`, `stats`, `ok`).
//!
//! The codec is symmetric — [`MapRequest::to_json`] produces exactly
//! what [`Request::from_json`] consumes — so the load generator, the
//! tests, and any external client share one wire dialect.

use lily_core::json::{Json, JsonError, JsonObject, ParseLimits};
use lily_core::stage::StageRecord;
use lily_core::MapError;
use lily_fault::{FaultKind, FaultPlan};

/// A parsed client request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Liveness probe; answered inline with `pong`.
    Ping {
        /// Echoed request id.
        id: u64,
    },
    /// Server counters snapshot; answered inline with `stats`.
    Stats {
        /// Echoed request id.
        id: u64,
    },
    /// Graceful shutdown: the server acknowledges with `ok`, cancels
    /// every in-flight job, and exits its accept loop.
    Shutdown {
        /// Echoed request id.
        id: u64,
    },
    /// A mapping job (queued through admission control).
    Map(MapRequest),
    /// A match-enumeration probe (queued through admission control).
    Probe(ProbeRequest),
}

/// Where the request's network comes from.
#[derive(Debug, Clone)]
pub enum Source {
    /// Inline BLIF text.
    Blif(String),
    /// A named benchmark circuit from `lily-workloads`.
    Circuit(String),
}

/// Optional per-request fault injection.
#[derive(Debug, Clone)]
pub enum FaultSpec {
    /// No faults.
    None,
    /// An explicit plan, fault by fault.
    Plan(FaultPlan),
    /// A deterministic random plan derived from a seed.
    Seed {
        /// Plan seed.
        seed: u64,
        /// Restrict the plan to benign (recoverable) fault kinds.
        benign: bool,
    },
}

/// A mapping job request.
#[derive(Debug, Clone)]
pub struct MapRequest {
    /// Client-chosen id echoed on every reply frame.
    pub id: u64,
    /// The network to map.
    pub source: Source,
    /// Library name: `tiny`, `big`, `big-sized`, or `big-1u`.
    pub library: String,
    /// Flow name: `mis-area`, `lily-area`, `cut-area`, `mis-delay`,
    /// `lily-delay`, `cut-delay`.
    pub flow: String,
    /// Run both pipelines ([`compare_flows`]) instead of one.
    ///
    /// [`compare_flows`]: lily_core::compare_flows
    pub compare: bool,
    /// Whole-request wall-clock deadline, milliseconds.
    pub deadline_ms: Option<u64>,
    /// Per-stage deadline forwarded into the flow options.
    pub stage_deadline_ms: Option<u64>,
    /// Per-stage retry budget forwarded into the flow options.
    pub stage_retries: Option<u32>,
    /// Chaos: faults injected into this request only.
    pub faults: FaultSpec,
    /// Resumable-job id: artifacts checkpoint under this name in the
    /// server's checkpoint root, and a re-sent request resumes from
    /// whatever completed stages survive on disk.
    pub checkpoint: Option<String>,
    /// Chaos: interrupt the (checkpointed) job after this stage, as a
    /// deterministic stand-in for killing the server mid-job.
    pub kill_after: Option<String>,
}

/// A match-enumeration probe: decompose the network and build its
/// structural match index on the warm cache's library.
#[derive(Debug, Clone)]
pub struct ProbeRequest {
    /// Client-chosen id echoed on the reply frame.
    pub id: u64,
    /// The network to probe.
    pub source: Source,
    /// Library name.
    pub library: String,
}

/// Typed protocol failure: the frame was sound JSON-wise or not, and
/// either way the connection stays usable — the server answers with
/// an `error` event and keeps reading frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The payload is not valid JSON (or exceeds the parser limits).
    Json(JsonError),
    /// The payload parses but is not a JSON object.
    NotAnObject,
    /// A required field is absent.
    MissingField {
        /// The absent field.
        field: &'static str,
    },
    /// A field is present with the wrong type or an invalid value.
    BadField {
        /// The offending field.
        field: &'static str,
        /// What the protocol expects there.
        expected: &'static str,
    },
    /// The `method` value is not part of the protocol.
    UnknownMethod {
        /// The offending method string.
        method: String,
    },
    /// A fault entry names a kind `lily-fault` does not define.
    UnknownFaultKind {
        /// The offending kind string.
        kind: String,
    },
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Json(e) => write!(f, "malformed JSON: {e}"),
            ProtoError::NotAnObject => write!(f, "request must be a JSON object"),
            ProtoError::MissingField { field } => write!(f, "missing required field `{field}`"),
            ProtoError::BadField { field, expected } => {
                write!(f, "field `{field}` must be {expected}")
            }
            ProtoError::UnknownMethod { method } => write!(f, "unknown method `{method}`"),
            ProtoError::UnknownFaultKind { kind } => write!(f, "unknown fault kind `{kind}`"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<JsonError> for ProtoError {
    fn from(e: JsonError) -> Self {
        ProtoError::Json(e)
    }
}

fn u64_field(obj: &Json, field: &'static str) -> Result<Option<u64>, ProtoError> {
    match obj.get(field) {
        None => Ok(None),
        Some(v) => {
            v.as_u64().map(Some).ok_or(ProtoError::BadField { field, expected: "an integer" })
        }
    }
}

fn str_field<'j>(obj: &'j Json, field: &'static str) -> Result<Option<&'j str>, ProtoError> {
    match obj.get(field) {
        None => Ok(None),
        Some(v) => v.as_str().map(Some).ok_or(ProtoError::BadField { field, expected: "a string" }),
    }
}

fn bool_field(obj: &Json, field: &'static str) -> Result<bool, ProtoError> {
    match obj.get(field) {
        None => Ok(false),
        Some(v) => v.as_bool().ok_or(ProtoError::BadField { field, expected: "a boolean" }),
    }
}

fn source_of(obj: &Json) -> Result<Source, ProtoError> {
    match (str_field(obj, "blif")?, str_field(obj, "circuit")?) {
        (Some(text), None) => Ok(Source::Blif(text.to_string())),
        (None, Some(name)) => Ok(Source::Circuit(name.to_string())),
        (Some(_), Some(_)) => {
            Err(ProtoError::BadField { field: "blif", expected: "exclusive with `circuit`" })
        }
        (None, None) => Err(ProtoError::MissingField { field: "blif" }),
    }
}

fn faults_of(obj: &Json) -> Result<FaultSpec, ProtoError> {
    if let Some(list) = obj.get("faults") {
        let list = list
            .as_array()
            .ok_or(ProtoError::BadField { field: "faults", expected: "an array" })?;
        let mut plan = FaultPlan::new();
        for entry in list {
            let stage = str_field(entry, "stage")?
                .ok_or(ProtoError::MissingField { field: "stage" })?
                .to_string();
            let invocation = u64_field(entry, "invocation")?.unwrap_or(0);
            let invocation = u32::try_from(invocation)
                .map_err(|_| ProtoError::BadField { field: "invocation", expected: "a u32" })?;
            let kind_name =
                str_field(entry, "kind")?.ok_or(ProtoError::MissingField { field: "kind" })?;
            let param = u64_field(entry, "param")?.unwrap_or(0);
            let kind = FaultKind::from_name(kind_name, param)
                .ok_or_else(|| ProtoError::UnknownFaultKind { kind: kind_name.to_string() })?;
            plan.push(stage, invocation, kind);
        }
        return Ok(FaultSpec::Plan(plan));
    }
    if let Some(seed) = u64_field(obj, "fault_seed")? {
        let benign = bool_field(obj, "fault_benign")?;
        return Ok(FaultSpec::Seed { seed, benign });
    }
    Ok(FaultSpec::None)
}

impl Request {
    /// Parses one request frame, enforcing `limits` on the JSON layer.
    ///
    /// # Errors
    ///
    /// Any [`ProtoError`]; the framing layer stays in sync, so the
    /// caller can answer with a typed `error` event and keep going.
    pub fn from_json(text: &str, limits: ParseLimits) -> Result<Self, ProtoError> {
        let obj = Json::parse_with_limits(text, limits)?;
        if !matches!(obj, Json::Obj(_)) {
            return Err(ProtoError::NotAnObject);
        }
        let method =
            str_field(&obj, "method")?.ok_or(ProtoError::MissingField { field: "method" })?;
        let id = u64_field(&obj, "id")?.ok_or(ProtoError::MissingField { field: "id" })?;
        match method {
            "ping" => Ok(Request::Ping { id }),
            "stats" => Ok(Request::Stats { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            "probe" => Ok(Request::Probe(ProbeRequest {
                id,
                source: source_of(&obj)?,
                library: str_field(&obj, "library")?.unwrap_or("tiny").to_string(),
            })),
            "map" => {
                let stage_retries = match u64_field(&obj, "stage_retries")? {
                    None => None,
                    Some(n) => Some(u32::try_from(n).map_err(|_| ProtoError::BadField {
                        field: "stage_retries",
                        expected: "a u32",
                    })?),
                };
                Ok(Request::Map(MapRequest {
                    id,
                    source: source_of(&obj)?,
                    library: str_field(&obj, "library")?.unwrap_or("tiny").to_string(),
                    flow: str_field(&obj, "flow")?.unwrap_or("lily-area").to_string(),
                    compare: bool_field(&obj, "compare")?,
                    deadline_ms: u64_field(&obj, "deadline_ms")?,
                    stage_deadline_ms: u64_field(&obj, "stage_deadline_ms")?,
                    stage_retries,
                    faults: faults_of(&obj)?,
                    checkpoint: str_field(&obj, "checkpoint")?.map(str::to_string),
                    kill_after: str_field(&obj, "kill_after")?.map(str::to_string),
                }))
            }
            other => Err(ProtoError::UnknownMethod { method: other.to_string() }),
        }
    }

    /// Best-effort id extraction from an arbitrary frame, so even a
    /// request that fails validation gets its `error` reply tagged
    /// with the id the client sent (0 when unrecoverable).
    #[must_use]
    pub fn salvage_id(text: &str, limits: ParseLimits) -> u64 {
        Json::parse_with_limits(text, limits)
            .ok()
            .and_then(|j| j.get("id").and_then(Json::as_u64))
            .unwrap_or(0)
    }
}

fn source_fields(o: JsonObject, source: &Source) -> JsonObject {
    match source {
        Source::Blif(text) => o.string("blif", text),
        Source::Circuit(name) => o.string("circuit", name),
    }
}

/// Serializes a fault plan as the protocol's `faults` array body.
#[must_use]
pub fn plan_to_json(plan: &FaultPlan) -> String {
    let entries = plan.faults().iter().map(|f| {
        JsonObject::new()
            .string("stage", &f.stage)
            .uint("invocation", u64::from(f.invocation))
            .string("kind", f.kind.name())
            .uint("param", f.kind.param())
            .finish()
    });
    lily_core::json::array(entries)
}

impl MapRequest {
    /// Serializes the request as one wire frame payload.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new().uint("id", self.id).string("method", "map");
        o = source_fields(o, &self.source);
        o = o.string("library", &self.library).string("flow", &self.flow);
        if self.compare {
            o = o.raw("compare", "true");
        }
        if let Some(ms) = self.deadline_ms {
            o = o.uint("deadline_ms", ms);
        }
        if let Some(ms) = self.stage_deadline_ms {
            o = o.uint("stage_deadline_ms", ms);
        }
        if let Some(n) = self.stage_retries {
            o = o.uint("stage_retries", u64::from(n));
        }
        match &self.faults {
            FaultSpec::None => {}
            FaultSpec::Plan(plan) => o = o.raw("faults", &plan_to_json(plan)),
            FaultSpec::Seed { seed, benign } => {
                o = o.uint("fault_seed", *seed);
                if *benign {
                    o = o.raw("fault_benign", "true");
                }
            }
        }
        if let Some(job) = &self.checkpoint {
            o = o.string("checkpoint", job);
        }
        if let Some(stage) = &self.kill_after {
            o = o.string("kill_after", stage);
        }
        o.finish()
    }
}

impl ProbeRequest {
    /// Serializes the request as one wire frame payload.
    #[must_use]
    pub fn to_json(&self) -> String {
        let o = JsonObject::new().uint("id", self.id).string("method", "probe");
        source_fields(o, &self.source).string("library", &self.library).finish()
    }
}

/// A parsed response frame, for clients (load generator, tests).
#[derive(Debug, Clone)]
pub struct Event {
    /// The request id the frame answers.
    pub id: u64,
    /// The event tag (`accepted`, `stage`, `done`, `error`, ...).
    pub event: String,
    /// The whole frame body for event-specific field access.
    pub body: Json,
}

impl Event {
    /// Parses one response frame.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] when the frame is not a well-formed event.
    pub fn parse(text: &str) -> Result<Self, ProtoError> {
        let body = Json::parse_with_limits(text, ParseLimits::default())?;
        let id = body
            .get("id")
            .and_then(Json::as_u64)
            .ok_or(ProtoError::MissingField { field: "id" })?;
        let event = body
            .get("event")
            .and_then(Json::as_str)
            .ok_or(ProtoError::MissingField { field: "event" })?
            .to_string();
        Ok(Self { id, event, body })
    }
}

/// Maps a flow error to its stable wire slug. Slugs are part of the
/// protocol: clients branch on them, so renames are breaking changes.
#[must_use]
pub fn error_kind(e: &MapError) -> &'static str {
    match e {
        MapError::IncompleteLibrary { .. } => "incomplete-library",
        MapError::NoMatch { .. } => "no-match",
        MapError::MissingPlacement { .. } => "missing-placement",
        MapError::Netlist(_) => "netlist",
        MapError::Library(_) => "library",
        MapError::SolverDiverged { .. } => "solver-diverged",
        MapError::DegenerateInput { .. } => "degenerate-input",
        MapError::NonFiniteValue { .. } => "non-finite-value",
        MapError::Verify { .. } => "verify",
        MapError::Cancelled { .. } => "cancelled",
        MapError::StageDeadline { .. } => "stage-deadline",
        MapError::FaultInjected { .. } => "fault-injected",
        MapError::Interrupted { .. } => "interrupted",
        MapError::Checkpoint { .. } => "checkpoint",
    }
}

/// Response frame builders (server side).
pub mod reply {
    use super::{JsonObject, StageRecord};

    /// Job admitted; `queue_depth` is the depth it saw on entry.
    #[must_use]
    pub fn accepted(id: u64, queue_depth: usize) -> String {
        JsonObject::new()
            .uint("id", id)
            .string("event", "accepted")
            .uint("queue_depth", queue_depth as u64)
            .finish()
    }

    /// Typed admission rejection. `reason` is a stable slug clients
    /// branch on: `"overloaded"` (the admission queue is full) or
    /// `"memory"` (the job's estimated peak working set does not fit
    /// the server's memory budget). The legacy `error` field carries
    /// the same slug for older clients.
    #[must_use]
    pub fn rejected(id: u64, capacity: usize, reason: &str) -> String {
        JsonObject::new()
            .uint("id", id)
            .string("event", "rejected")
            .string("error", reason)
            .string("reason", reason)
            .uint("capacity", capacity as u64)
            .finish()
    }

    /// A non-terminal audit notice: the job was admitted but degraded
    /// (e.g. `"memory-stream"` — forced checkpoint-every-stage
    /// streaming because its estimate crossed the soft memory
    /// threshold). Streamed right after `accepted`.
    #[must_use]
    pub fn audit(id: u64, what: &str, detail: &str) -> String {
        JsonObject::new()
            .uint("id", id)
            .string("event", "audit")
            .string("what", what)
            .string("detail", detail)
            .finish()
    }

    /// One per-stage metrics record, streamed before `done`.
    #[must_use]
    pub fn stage(id: u64, flow: &str, r: &StageRecord) -> String {
        JsonObject::new()
            .uint("id", id)
            .string("event", "stage")
            .string("flow", flow)
            .string("stage", r.stage)
            .uint("wall_ns", r.wall_ns)
            .uint("size", r.size as u64)
            .string("unit", r.unit)
            .finish()
    }

    /// Terminal success frame for a single-flow job.
    #[must_use]
    pub fn done_single(id: u64, cache: &str, fired: usize, metrics_json: &str) -> String {
        JsonObject::new()
            .uint("id", id)
            .string("event", "done")
            .string("cache", cache)
            .uint("fired_faults", fired as u64)
            .raw("metrics", metrics_json)
            .finish()
    }

    /// Terminal success frame for a compare job (both pipelines).
    #[must_use]
    pub fn done_compare(
        id: u64,
        cache: &str,
        fired: usize,
        mis_json: &str,
        lily_json: &str,
    ) -> String {
        JsonObject::new()
            .uint("id", id)
            .string("event", "done")
            .string("cache", cache)
            .uint("fired_faults", fired as u64)
            .raw("mis", mis_json)
            .raw("lily", lily_json)
            .finish()
    }

    /// Terminal success frame for a probe job.
    #[must_use]
    pub fn probe_done(id: u64, cache: &str, nodes: usize, matches: usize) -> String {
        JsonObject::new()
            .uint("id", id)
            .string("event", "done")
            .string("cache", cache)
            .uint("nodes", nodes as u64)
            .uint("matches", matches as u64)
            .finish()
    }

    /// Terminal failure frame, tagged with a stable error slug.
    #[must_use]
    pub fn error(id: u64, kind: &str, message: &str) -> String {
        JsonObject::new()
            .uint("id", id)
            .string("event", "error")
            .string("kind", kind)
            .string("message", message)
            .finish()
    }

    /// `ping` answer.
    #[must_use]
    pub fn pong(id: u64) -> String {
        JsonObject::new().uint("id", id).string("event", "pong").finish()
    }

    /// `shutdown` acknowledgement.
    #[must_use]
    pub fn ok(id: u64) -> String {
        JsonObject::new().uint("id", id).string("event", "ok").finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_request_round_trips_through_the_codec() {
        let mut plan = FaultPlan::new();
        plan.push("map", 0, FaultKind::Latency(7));
        plan.push("sta", 1, FaultKind::StageError);
        let req = MapRequest {
            id: 42,
            source: Source::Blif(".model t\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n".into()),
            library: "big".into(),
            flow: "lily-delay".into(),
            compare: true,
            deadline_ms: Some(1500),
            stage_deadline_ms: Some(200),
            stage_retries: Some(2),
            faults: FaultSpec::Plan(plan),
            checkpoint: Some("job-7".into()),
            kill_after: Some("map".into()),
        };
        let text = req.to_json();
        let back = Request::from_json(&text, ParseLimits::default()).unwrap();
        let Request::Map(back) = back else { panic!("expected map request") };
        assert_eq!(back.id, 42);
        assert_eq!(back.library, "big");
        assert_eq!(back.flow, "lily-delay");
        assert!(back.compare);
        assert_eq!(back.deadline_ms, Some(1500));
        assert_eq!(back.stage_deadline_ms, Some(200));
        assert_eq!(back.stage_retries, Some(2));
        assert_eq!(back.checkpoint.as_deref(), Some("job-7"));
        assert_eq!(back.kill_after.as_deref(), Some("map"));
        let FaultSpec::Plan(plan) = back.faults else { panic!("expected explicit plan") };
        assert_eq!(plan.faults().len(), 2);
        assert_eq!(plan.faults()[0].kind, FaultKind::Latency(7));
        assert_eq!(plan.faults()[1].invocation, 1);
    }

    #[test]
    fn malformed_requests_fail_with_typed_errors() {
        let limits = ParseLimits::default();
        assert!(matches!(
            Request::from_json("not json", limits),
            Err(ProtoError::Json(JsonError::Syntax { .. }))
        ));
        assert_eq!(
            Request::from_json("{\"id\":1}", limits).unwrap_err(),
            ProtoError::MissingField { field: "method" }
        );
        assert_eq!(
            Request::from_json("{\"id\":1,\"method\":\"fly\"}", limits).unwrap_err(),
            ProtoError::UnknownMethod { method: "fly".into() }
        );
        assert_eq!(
            Request::from_json("{\"method\":\"ping\"}", limits).unwrap_err(),
            ProtoError::MissingField { field: "id" }
        );
        assert_eq!(
            Request::from_json(
                "{\"id\":1,\"method\":\"map\",\"blif\":\"x\",\"circuit\":\"y\"}",
                limits
            )
            .unwrap_err(),
            ProtoError::BadField { field: "blif", expected: "exclusive with `circuit`" }
        );
        assert_eq!(
            Request::from_json(
                "{\"id\":1,\"method\":\"map\",\"blif\":\"x\",\
                 \"faults\":[{\"stage\":\"map\",\"kind\":\"meteor\"}]}",
                limits
            )
            .unwrap_err(),
            ProtoError::UnknownFaultKind { kind: "meteor".into() }
        );
    }

    #[test]
    fn salvage_id_recovers_what_it_can() {
        let limits = ParseLimits::default();
        assert_eq!(Request::salvage_id("{\"id\":9,\"method\":\"fly\"}", limits), 9);
        assert_eq!(Request::salvage_id("garbage", limits), 0);
    }

    #[test]
    fn events_parse_and_expose_their_body() {
        let e = Event::parse(&reply::rejected(3, 16, "overloaded")).unwrap();
        assert_eq!(e.id, 3);
        assert_eq!(e.event, "rejected");
        assert_eq!(e.body.get("capacity").and_then(Json::as_u64), Some(16));
        assert_eq!(e.body.get("reason").and_then(Json::as_str), Some("overloaded"));
        let m = Event::parse(&reply::rejected(4, 16, "memory")).unwrap();
        assert_eq!(m.body.get("reason").and_then(Json::as_str), Some("memory"));
        let a = Event::parse(&reply::audit(5, "memory-stream", "est 2 GiB > soft 1 GiB")).unwrap();
        assert_eq!(a.event, "audit");
        assert_eq!(a.body.get("what").and_then(Json::as_str), Some("memory-stream"));
        assert!(Event::parse("{\"event\":\"done\"}").is_err());
    }

    #[test]
    fn error_kind_slugs_are_stable() {
        assert_eq!(error_kind(&MapError::Cancelled { context: "x" }), "cancelled");
        assert_eq!(
            error_kind(&MapError::StageDeadline { stage: "map", deadline_ms: 5 }),
            "stage-deadline"
        );
        assert_eq!(error_kind(&MapError::Interrupted { stage: "map" }), "interrupted");
    }
}
