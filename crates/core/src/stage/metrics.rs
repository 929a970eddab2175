//! Per-stage observability: wall-time and artifact-size records.

/// One stage's measurement: how long it ran and how big its artifact
/// came out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageRecord {
    /// Stage name (`"decompose"`, `"assign-pads"`, ...).
    pub stage: &'static str,
    /// Wall-clock time of the stage, nanoseconds (clamped to ≥ 1 so a
    /// recorded stage is always distinguishable from an unrun one).
    pub wall_ns: u64,
    /// Artifact size in `unit`s.
    pub size: usize,
    /// What `size` counts (nodes, cells, nets, ...).
    pub unit: &'static str,
}

/// The per-stage metrics table of one flow run, in execution order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageMetrics {
    records: Vec<StageRecord>,
    threads_used: usize,
}

impl StageMetrics {
    /// Appends a record (stages append in execution order).
    pub fn record(&mut self, stage: &'static str, wall_ns: u64, size: usize, unit: &'static str) {
        self.records.push(StageRecord { stage, wall_ns: wall_ns.max(1), size, unit });
    }

    /// All records, in execution order.
    pub fn records(&self) -> &[StageRecord] {
        &self.records
    }

    /// Looks up a stage by name (first occurrence).
    pub fn get(&self, stage: &str) -> Option<&StageRecord> {
        self.records.iter().find(|r| r.stage == stage)
    }

    /// Total wall time across all recorded stages, nanoseconds.
    pub fn total_wall_ns(&self) -> u64 {
        self.records.iter().map(|r| r.wall_ns).sum()
    }

    /// Number of recorded stages.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no stage has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Adopts the records of a shared upstream prefix (used by
    /// [`compare_flows`](crate::flow::compare_flows) so both pipelines
    /// report the stages they share).
    pub fn adopt(&mut self, shared: &StageMetrics) {
        self.records.extend(shared.records.iter().cloned());
    }

    /// The parallel-runtime thread count the flow ran with (0 when the
    /// flow predates the runtime or never set it).
    pub fn threads_used(&self) -> usize {
        self.threads_used
    }

    /// Records the thread count the flow ran with.
    pub fn set_threads_used(&mut self, threads: usize) {
        self.threads_used = threads;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_and_lookup() {
        let mut m = StageMetrics::default();
        m.record("decompose", 120, 10, "nodes");
        m.record("map", 0, 4, "cells"); // clamped to 1 ns
        assert_eq!(m.len(), 2);
        assert_eq!(m.records()[0].stage, "decompose");
        assert_eq!(m.get("map").unwrap().wall_ns, 1);
        assert_eq!(m.total_wall_ns(), 121);
        assert!(m.get("sta").is_none());
    }

    #[test]
    fn adopt_prepends_shared_prefix() {
        let mut shared = StageMetrics::default();
        shared.record("decompose", 5, 1, "nodes");
        let mut m = StageMetrics::default();
        m.adopt(&shared);
        m.record("map", 7, 2, "cells");
        assert_eq!(m.len(), 2);
        assert_eq!(m.records()[0].stage, "decompose");
    }
}
