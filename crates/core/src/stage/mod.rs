//! The stage-graph flow engine.
//!
//! The paper's experiment (Section 5) is two pipelines that differ
//! *only* in the mapper; everything upstream and downstream of gate
//! selection is shared. This module makes that structure explicit: the
//! flow is an orchestrated sequence of typed stages
//!
//! ```text
//! Decompose → AssignPads → SubjectPlace → Map → Legalize
//!          → DetailedPlace → RouteEstimate → Sta
//! ```
//!
//! each consuming the previous stage's artifact and producing its own.
//! A [`FlowContext`] carries everything that is not an artifact: the
//! library, the [`FlowOptions`](crate::flow::FlowOptions), the
//! graceful-degradation audit trail, a [`StageMetrics`] sink that
//! records wall-time and artifact size per stage, and the optional
//! run policies: a fault-injection plan and a checkpoint directory
//! (every artifact carries its own [`ArtifactCodec`]).
//!
//! The one driver in [`flow`](crate::flow) sequences these stages;
//! [`run_flow`] and [`compare_flows`] are its plain runs.
//! [`compare_flows`](crate::flow::compare_flows) runs the MIS and Lily
//! pipelines while *sharing* the upstream artifacts they have in common
//! (decomposition, pad assignment, subject placement image), so the
//! comparison measures the mapper and nothing else.
//!
//! [`run_flow`]: crate::flow::run_flow
//! [`compare_flows`]: crate::flow::compare_flows

pub(crate) mod codec;
mod context;
mod mapper;
mod metrics;
mod stages;

pub use context::FlowContext;
pub use mapper::{MapImage, Mapper};
pub use metrics::{StageMetrics, StageRecord};
pub use stages::{
    mapped_problem, AssignPads, Decompose, DetailedPlace, LegalPlacement, Legalize, Map, Mapping,
    PadPlan, PlacedDesign, RouteEstimate, RouteFigures, Sta, SubjectImage, SubjectPlace,
    TimingArtifact,
};

use crate::error::MapError;
use crate::json::Json;
use lily_cells::Library;

/// A typed pipeline stage: consumes `In`, produces [`Stage::Out`].
///
/// Stages are stateless unit structs; all configuration comes from the
/// [`FlowContext`] (options, library) and all inter-stage data flows
/// through the typed artifacts. Run stages with
/// [`FlowContext::run`], which times the stage and records its
/// artifact's size into the per-stage metrics table.
pub trait Stage<In> {
    /// The artifact this stage produces.
    type Out: StageArtifact + ArtifactCodec<In>;

    /// Stable stage name, used in metrics, degradation audits, and
    /// diagnostics.
    fn name(&self) -> &'static str;

    /// Runs the stage.
    ///
    /// # Errors
    ///
    /// Returns a structured [`MapError`] on unrecoverable trouble;
    /// recoverable trouble degrades via
    /// [`FlowContext::degrade`] instead.
    fn run(&self, ctx: &mut FlowContext<'_>, input: In) -> Result<Self::Out, MapError>;

    /// Last rung of the retry ladder: called by [`FlowContext::run`]
    /// after every attempt (including retries) failed with a transient
    /// error. A stage that can produce a meaningful fallback artifact
    /// from its input alone returns `Some` (and records the
    /// degradation via [`FlowContext::degrade`]); the default `None`
    /// propagates the error.
    fn degraded(
        &self,
        _ctx: &mut FlowContext<'_>,
        _input: In,
        _err: &MapError,
    ) -> Option<Self::Out> {
        None
    }
}

/// A measurable stage output: every artifact reports a size (and the
/// unit it is counted in) for the per-stage metrics table.
pub trait StageArtifact {
    /// Number of `unit`s in this artifact (nodes, cells, nets, ...).
    fn size(&self) -> usize;

    /// What [`StageArtifact::size`] counts.
    fn unit(&self) -> &'static str;
}

/// The checkpoint codec of a stage artifact produced from `In`.
///
/// Encodings are bit-exact — every `f64` is stored as its bit pattern —
/// so a restored artifact is indistinguishable from the one the stage
/// computed. What is a pure function of the stage input or the library
/// (placement problems, cell widths, prepared solver systems) is not
/// stored but rebuilt on decode.
pub trait ArtifactCodec<In>: Sized {
    /// Encodes the artifact as one JSON document.
    fn encode(&self, lib: &Library) -> String;

    /// Decodes an artifact written by [`ArtifactCodec::encode`] for the
    /// stage input `input`.
    ///
    /// # Errors
    ///
    /// A message naming what is missing or malformed; the caller
    /// recomputes the stage and audits the message.
    fn decode(v: &Json, lib: &Library, input: &In) -> Result<Self, String>;
}

impl<T: StageArtifact> StageArtifact for std::sync::Arc<T> {
    fn size(&self) -> usize {
        (**self).size()
    }

    fn unit(&self) -> &'static str {
        (**self).unit()
    }
}

impl StageArtifact for lily_netlist::SubjectGraph {
    fn size(&self) -> usize {
        self.node_count()
    }

    fn unit(&self) -> &'static str {
        "nodes"
    }
}
