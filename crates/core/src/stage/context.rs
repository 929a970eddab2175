//! The shared state a flow threads through its stages.

use std::time::{Duration, Instant};

use crate::checkpoint::CheckpointDir;
use crate::error::MapError;
use crate::flow::{Degradation, FlowOptions};
use crate::matching::MatchSlot;
use crate::stage::{ArtifactCodec, Stage, StageArtifact, StageMetrics};
use lily_cells::Library;
use lily_fault::{ArmedFaults, FaultKind, FaultPlan, FiredLog, Injector};

/// Everything a stage needs besides its typed input artifact: the
/// target library, the flow options, the graceful-degradation audit
/// trail, the per-stage metrics sink, the faults armed for the current
/// stage attempt, and the run policies [`FlowContext::run`] applies to
/// every stage — a fault-injection plan and a checkpoint directory.
///
/// Stage attempts are cancelled through the *ambient* token
/// ([`lily_fault::ambient_token`]), which [`FlowContext::run`] installs
/// per attempt; kernels snapshot it on the calling thread.
#[derive(Debug)]
pub struct FlowContext<'l> {
    /// The target gate library.
    pub lib: &'l Library,
    /// The flow configuration.
    pub options: FlowOptions,
    /// Audit trail of every degradation-ladder step taken so far.
    pub degradations: Vec<Degradation>,
    /// Wall-time and artifact-size records of every stage run so far.
    pub stages: StageMetrics,
    /// Flow tag stamped into every degradation audit entry (`"mis"`,
    /// `"lily"`, or `"shared"` for the upstream prefix of
    /// [`compare_flows`](crate::flow::compare_flows)).
    pub flow: &'static str,
    /// Kernel faults armed for the current stage attempt; stage bodies
    /// consume them at their natural injection points via the `take_*`
    /// methods.
    pub armed: ArmedFaults,
    /// How many stage attempts were retried after a transient failure.
    pub retries: u32,
    /// How many stage attempts failed against the per-stage deadline.
    pub deadline_hits: u32,
    /// The structural match index of the subject graph being mapped,
    /// built by the first structural mapper that needs it and shared by
    /// every context that adopted this one.
    pub matches: MatchSlot,
    injector: Injector,
    checkpoint: Option<CheckpointDir>,
}

impl<'l> FlowContext<'l> {
    /// Creates a fresh context. The stage table records the parallel
    /// runtime's effective thread count at creation, so the flow's
    /// metrics carry the configuration they were measured under.
    pub fn new(lib: &'l Library, options: FlowOptions) -> Self {
        let mut stages = StageMetrics::default();
        stages.set_threads_used(lily_par::effective_threads());
        let flow = match options.mapper {
            crate::flow::FlowMapper::Mis => "mis",
            crate::flow::FlowMapper::Lily => "lily",
            crate::flow::FlowMapper::Cut => "cut",
        };
        Self {
            lib,
            options,
            degradations: Vec::new(),
            stages,
            flow,
            armed: ArmedFaults::idle(),
            retries: 0,
            deadline_hits: 0,
            matches: MatchSlot::default(),
            injector: Injector::default(),
            checkpoint: None,
        }
    }

    /// Overrides the flow tag stamped into degradation audit entries.
    pub fn with_flow(mut self, flow: &'static str) -> Self {
        self.flow = flow;
        self
    }

    /// Installs a deterministic fault-injection plan: each stage
    /// attempt arms the plan's matching faults (chaos testing).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.injector = Injector::new(plan);
        self
    }

    /// Attaches a checkpoint directory: every stage [`FlowContext::run`]
    /// runs from now on is restored from it when its stored prefix
    /// still matches, and saved to it otherwise. A torn manifest is
    /// audited as a `"checkpoint"` → `"recomputed"` degradation.
    pub(crate) fn with_checkpoint(mut self, dir: CheckpointDir) -> Self {
        if dir.manifest_torn() {
            self.degrade(
                "checkpoint",
                "recomputed",
                "manifest torn (crash mid-write); prefix discarded, recomputing from scratch"
                    .to_string(),
            );
        }
        self.checkpoint = Some(dir);
        self
    }

    /// The shared fired-fault log (snapshot it after the flow returns
    /// to see which scheduled faults actually fired).
    pub fn fault_log(&self) -> FiredLog {
        self.injector.log()
    }

    /// Adopts another context's observable history — stage records,
    /// degradation audit, retry/deadline counters — and shares its
    /// match slot; used by [`compare_flows`](crate::flow::compare_flows)
    /// to hand the shared upstream prefix to both pipeline tails, which
    /// then build the structural match index once between them.
    pub fn adopt(&mut self, other: &FlowContext<'_>) {
        self.stages.adopt(&other.stages);
        self.degradations.extend(other.degradations.iter().cloned());
        self.retries += other.retries;
        self.deadline_hits += other.deadline_hits;
        self.matches = other.matches.clone();
    }

    /// Runs one stage under the context's policies, records its wall
    /// time and artifact size into the metrics table, and returns the
    /// artifact.
    ///
    /// With a checkpoint attached, a stage whose artifact is stored
    /// (and still matches the run so far) is restored — its recorded
    /// metrics, audit entries and retry counters replayed — instead of
    /// run; a stage that runs is saved afterwards. A configured
    /// interrupt stage stops the flow with [`MapError::Interrupted`]
    /// once it is on disk.
    ///
    /// Each attempt gets a fresh cancellation token (carrying
    /// [`FlowOptions::stage_deadline`] when configured) and freshly
    /// armed faults; a transient failure (cancellation, deadline,
    /// injected fault, solver divergence, non-finite value) is retried up to [`FlowOptions::stage_retries`] times.
    /// When every attempt fails the stage's [`Stage::degraded`] hook
    /// may still produce a fallback artifact; otherwise the last error
    /// propagates. Non-transient errors (degenerate input, verification
    /// failures, library defects) propagate immediately.
    ///
    /// # Errors
    ///
    /// Propagates the stage's error (nothing is recorded for a failed
    /// stage), [`MapError::Checkpoint`] when a checkpoint cannot be
    /// written, and [`MapError::Interrupted`] after the interrupt stage.
    pub fn run<In: Clone, S: Stage<In>>(
        &mut self,
        stage: &S,
        input: In,
    ) -> Result<S::Out, MapError> {
        let Some(mut dir) = self.checkpoint.take() else {
            return self.run_live(stage, input);
        };
        let out = self.run_checkpointed(&mut dir, stage, input);
        self.checkpoint = Some(dir);
        out
    }

    /// The checkpoint policy around [`FlowContext::run_live`].
    fn run_checkpointed<In: Clone, S: Stage<In>>(
        &mut self,
        dir: &mut CheckpointDir,
        stage: &S,
        input: In,
    ) -> Result<S::Out, MapError> {
        let (name, lib) = (stage.name(), self.lib);
        // The history mark precedes the restore attempt, so a stage saved
        // after an unusable checkpoint keeps its `checkpoint` audit entry.
        let mark = (self.degradations.len(), self.retries, self.deadline_hits);
        let out = match dir.restore(self, name, |v| S::Out::decode(v, lib, &input)) {
            Some(out) => out,
            None => {
                let out = self.run_live(stage, input)?;
                dir.save(self, name, &out.encode(lib), mark)?;
                out
            }
        };
        if dir.interrupts_after(name) {
            return Err(MapError::Interrupted { stage: name });
        }
        Ok(out)
    }

    /// Runs one stage live with the retry/deadline/fault policy.
    fn run_live<In: Clone, S: Stage<In>>(
        &mut self,
        stage: &S,
        input: In,
    ) -> Result<S::Out, MapError> {
        let t0 = Instant::now();
        let retries = self.options.stage_retries;
        let mut attempt = 0u32;
        let err = loop {
            match self.attempt(stage, input.clone()) {
                Ok(out) => {
                    self.record(stage.name(), t0, &out);
                    return Ok(out);
                }
                Err(e) => {
                    if matches!(e, MapError::StageDeadline { .. }) {
                        self.deadline_hits += 1;
                    }
                    if !Self::transient(&e) {
                        return Err(e);
                    }
                    if attempt >= retries {
                        break e;
                    }
                    attempt += 1;
                    self.retries += 1;
                }
            }
        };
        if let Some(out) = stage.degraded(self, input, &err) {
            self.record(stage.name(), t0, &out);
            return Ok(out);
        }
        Err(err)
    }

    fn record<O: StageArtifact>(&mut self, name: &'static str, t0: Instant, out: &O) {
        let wall_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.stages.record(name, wall_ns, out.size(), out.unit());
    }

    /// Whether an error class is worth retrying: trouble that a clean
    /// re-run (or a degradation rung) can plausibly clear, as opposed
    /// to a property of the input or configuration.
    fn transient(e: &MapError) -> bool {
        matches!(
            e,
            MapError::Cancelled { .. }
                | MapError::StageDeadline { .. }
                | MapError::FaultInjected { .. }
                | MapError::SolverDiverged { .. }
                | MapError::NonFiniteValue { .. }
        )
    }

    /// One stage attempt: arms the fault plan, installs the attempt's
    /// cancellation token as the ambient token the stage's kernels
    /// snapshot, runs the body, and classifies a cancellation against
    /// the deadline. A failed attempt leaves no degradation-audit
    /// residue.
    fn attempt<In, S: Stage<In>>(&mut self, stage: &S, input: In) -> Result<S::Out, MapError> {
        let deadline = self.options.stage_deadline;
        // The attempt token is a *child* of the ambient token, so an
        // outer scope — a server's per-request deadline, cancellation
        // on client disconnect — reaches into the stage body without
        // the stage knowing about it. Standalone flows have the inert
        // `never` ambient and behave exactly as before. The deadline
        // token is created *before* injected latency is served, so a
        // latency fault can push an attempt over its deadline exactly
        // like genuinely slow work would.
        let parent = lily_fault::ambient_token();
        let cancel = match deadline {
            Some(d) => parent.child_with_deadline(d),
            None => parent.child(),
        };
        let armed = self.injector.arm(stage.name());
        if armed.latency_ms > 0 {
            armed.note_boundary(FaultKind::Latency(armed.latency_ms));
            std::thread::sleep(Duration::from_millis(armed.latency_ms));
        }
        if armed.stall_ms > 0 {
            // The watchdog-trip fault: a *cancellable* stall. Unlike
            // injected latency it polls the attempt token, so an
            // external watchdog (or disconnect) cuts it short and the
            // attempt reports a typed cancellation; undisturbed it
            // degenerates to latency.
            armed.note_boundary(FaultKind::WatchdogTrip(armed.stall_ms));
            let until = Instant::now() + Duration::from_millis(armed.stall_ms);
            while Instant::now() < until && !cancel.is_cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
            if cancel.is_cancelled() {
                return Err(if cancel.deadline_expired() {
                    MapError::StageDeadline {
                        stage: stage.name(),
                        deadline_ms: deadline
                            .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX)),
                    }
                } else {
                    MapError::Cancelled { context: stage.name() }
                });
            }
        }
        if armed.close_workers > 0 {
            armed.note_boundary(FaultKind::CloseWorkers(armed.close_workers));
            lily_par::chaos::close_workers(armed.close_workers as usize);
        }
        if armed.cancel {
            armed.note_boundary(FaultKind::Cancel);
            cancel.cancel();
        }
        if armed.error {
            armed.note_boundary(FaultKind::StageError);
            return Err(MapError::FaultInjected {
                stage: stage.name(),
                invocation: armed.invocation(),
            });
        }
        let audit_mark = self.degradations.len();
        let _ambient = lily_fault::set_ambient(cancel.clone());
        let prev_armed = std::mem::replace(&mut self.armed, armed);
        let out = stage.run(self, input);
        self.armed = prev_armed;
        // Unclaimed worker closures must not leak into later stages:
        // fault selection is strictly per (stage, invocation).
        lily_par::chaos::reset();
        match out {
            Err(e) => {
                self.degradations.truncate(audit_mark);
                if matches!(e, MapError::Cancelled { .. }) && cancel.deadline_expired() {
                    Err(MapError::StageDeadline {
                        stage: stage.name(),
                        deadline_ms: deadline
                            .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX)),
                    })
                } else {
                    Err(e)
                }
            }
            ok => ok,
        }
    }

    /// Records one step down the degradation ladder, stamped with this
    /// context's flow tag. This is the only construction site of
    /// [`Degradation`].
    pub fn degrade(&mut self, stage: &'static str, fallback: &'static str, detail: String) {
        self.degradations.push(Degradation { flow: self.flow, stage, fallback, detail });
    }

    /// Fails the flow when a verification pass reports errors, if
    /// per-stage verification is enabled (warning-only reports pass).
    ///
    /// # Errors
    ///
    /// [`MapError::Verify`] when the report carries errors.
    pub fn checkpoint(
        &self,
        stage: &'static str,
        report: impl FnOnce() -> lily_check::Report,
    ) -> Result<(), MapError> {
        if !self.options.verify {
            return Ok(());
        }
        let report = report();
        if report.has_errors() {
            Err(MapError::Verify { stage, report })
        } else {
            Ok(())
        }
    }
}
