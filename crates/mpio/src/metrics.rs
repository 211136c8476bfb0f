//! Per-phase measurements collected by the execution loop.
//!
//! The paper reports: open time (mean over ranks), close time, and
//! *effective bandwidth* — total bytes over the span from the first rank
//! entering the phase to the last rank leaving it, **including open and
//! close time** (§IV: "our definition of read bandwidth includes the time
//! to open and close the file"). [`Metrics`] keeps per-kind aggregates and
//! offers both calculations.

use crate::ops::LogicalOp;
use simcore::SimTime;
use std::collections::HashMap;

/// Discriminant of a logical op, used as the metrics key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    OpenWrite,
    Write,
    CloseWrite,
    OpenRead,
    Read,
    CloseRead,
    Barrier,
    Compute,
    Exchange,
    FlushCaches,
    Unlink,
}

impl From<&LogicalOp> for OpKind {
    fn from(op: &LogicalOp) -> Self {
        match op {
            LogicalOp::OpenWrite { .. } => OpKind::OpenWrite,
            LogicalOp::Write { .. } => OpKind::Write,
            LogicalOp::CloseWrite { .. } => OpKind::CloseWrite,
            LogicalOp::OpenRead { .. } => OpKind::OpenRead,
            LogicalOp::Read { .. } => OpKind::Read,
            LogicalOp::CloseRead { .. } => OpKind::CloseRead,
            LogicalOp::Barrier => OpKind::Barrier,
            LogicalOp::Compute { .. } => OpKind::Compute,
            LogicalOp::Exchange { .. } => OpKind::Exchange,
            LogicalOp::FlushCaches => OpKind::FlushCaches,
            LogicalOp::Unlink { .. } => OpKind::Unlink,
        }
    }
}

/// Aggregate over all completions of one op kind.
#[derive(Debug, Clone, Copy)]
pub struct PhaseStat {
    pub count: u64,
    pub sum_duration_s: f64,
    pub max_duration_s: f64,
    pub first_start: SimTime,
    pub last_finish: SimTime,
    pub bytes: u64,
}

impl PhaseStat {
    fn new() -> Self {
        PhaseStat {
            count: 0,
            sum_duration_s: 0.0,
            max_duration_s: 0.0,
            first_start: SimTime(u64::MAX),
            last_finish: SimTime::ZERO,
            bytes: 0,
        }
    }

    /// Mean per-completion duration in seconds.
    pub fn mean_duration_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_duration_s / self.count as f64
        }
    }

    /// Wall span of the phase: first entry to last exit, in seconds.
    #[cfg(test)]
    pub(crate) fn span_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.last_finish.since(self.first_start).as_secs_f64()
        }
    }
}

/// All phase statistics for one simulated job.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    stats: HashMap<OpKind, PhaseStat>,
}

impl Metrics {
    pub fn new() -> Self {
        Metrics::default()
    }

    pub fn record(&mut self, kind: OpKind, start: SimTime, finish: SimTime, bytes: u64) {
        let s = self.stats.entry(kind).or_insert_with(PhaseStat::new);
        s.count += 1;
        let d = finish.since(start).as_secs_f64();
        s.sum_duration_s += d;
        s.max_duration_s = s.max_duration_s.max(d);
        s.first_start = s.first_start.min(start);
        s.last_finish = s.last_finish.max(finish);
        s.bytes += bytes;
    }

    pub fn get(&self, kind: OpKind) -> Option<&PhaseStat> {
        self.stats.get(&kind)
    }

    /// Mean duration of one op kind across all completions (the paper's
    /// "Open Time" / "Close Time" metric).
    pub fn mean_duration_s(&self, kind: OpKind) -> f64 {
        self.get(kind).map(|s| s.mean_duration_s()).unwrap_or(0.0)
    }

    /// Wall span of the phase.
    #[cfg(test)]
    pub(crate) fn span_s(&self, kind: OpKind) -> f64 {
        self.get(kind).map(|s| s.span_s()).unwrap_or(0.0)
    }

    /// Plain bandwidth of the data phase alone, bytes/second.
    #[cfg(test)]
    pub(crate) fn phase_bandwidth(&self, kind: OpKind) -> f64 {
        let s = match self.get(kind) {
            Some(s) if s.span_s() > 0.0 => s,
            _ => return 0.0,
        };
        s.bytes as f64 / s.span_s()
    }

    /// The paper's *effective bandwidth*: bytes of the data phase over the
    /// span from the first open start to the last close finish.
    pub(crate) fn effective_bandwidth(&self, open: OpKind, data: OpKind, close: OpKind) -> f64 {
        let (Some(o), Some(d), Some(c)) = (self.get(open), self.get(data), self.get(close)) else {
            return 0.0;
        };
        let span = c.last_finish.since(o.first_start).as_secs_f64();
        if span <= 0.0 {
            0.0
        } else {
            d.bytes as f64 / span
        }
    }

    /// Effective *read* bandwidth (open + read + close), the Figure 4b/5/8a
    /// metric.
    pub fn effective_read_bandwidth(&self) -> f64 {
        self.effective_bandwidth(OpKind::OpenRead, OpKind::Read, OpKind::CloseRead)
    }

    /// Effective *write* bandwidth (open + write + close), the Figure 4d
    /// metric.
    pub fn effective_write_bandwidth(&self) -> f64 {
        self.effective_bandwidth(OpKind::OpenWrite, OpKind::Write, OpKind::CloseWrite)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn record_accumulates() {
        let mut m = Metrics::new();
        m.record(OpKind::OpenRead, t(0.0), t(2.0), 0);
        m.record(OpKind::OpenRead, t(1.0), t(2.0), 0);
        let s = m.get(OpKind::OpenRead).unwrap();
        assert_eq!(s.count, 2);
        assert!((s.mean_duration_s() - 1.5).abs() < 1e-12);
        assert!((s.max_duration_s - 2.0).abs() < 1e-12);
        assert!((s.span_s() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn effective_bandwidth_includes_open_and_close() {
        let mut m = Metrics::new();
        // Open [0, 1], read 100 bytes [1, 2], close [2, 3].
        m.record(OpKind::OpenRead, t(0.0), t(1.0), 0);
        m.record(OpKind::Read, t(1.0), t(2.0), 100);
        m.record(OpKind::CloseRead, t(2.0), t(3.0), 0);
        // Data-phase-only bandwidth: 100 B/s; effective: 100/3.
        assert!((m.phase_bandwidth(OpKind::Read) - 100.0).abs() < 1e-9);
        assert!((m.effective_read_bandwidth() - 100.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn missing_phases_yield_zero() {
        let m = Metrics::new();
        assert_eq!(m.mean_duration_s(OpKind::Write), 0.0);
        assert_eq!(m.effective_write_bandwidth(), 0.0);
        assert_eq!(m.span_s(OpKind::Barrier), 0.0);
    }

    #[test]
    fn op_kind_mapping() {
        let op = LogicalOp::Exchange { bytes_per_rank: 8 };
        assert_eq!(OpKind::from(&op), OpKind::Exchange);
    }
}
