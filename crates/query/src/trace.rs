//! Per-query plan traces: what the planner chose, what it believed, and
//! what actually happened.
//!
//! Every execution produces a [`PlanTrace`] attached to
//! [`crate::QueryOutcome`]: the combine strategy, the per-condition
//! execution order with the planner's cardinality estimate next to the
//! actual result size, the blocks each condition read, and wall-clock
//! per-condition timings. The trace is plain data — cheap to build,
//! comparable in tests, renderable as an `EXPLAIN ANALYZE`-style report
//! via [`PlanTrace::render`], and the payload the server's slow-query
//! log captures.

use crate::plan::CombineStrategy;

/// What one condition of a conjunctive query did at execution time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CondTrace {
    /// Attribute the condition filters on.
    pub attr: String,
    /// Whether the condition was negated after normalization.
    pub negated: bool,
    /// The planner's pre-decode cardinality estimate (drives the
    /// execution order).
    pub estimate: u64,
    /// Actual result cardinality of the condition.
    pub actual: u64,
    /// Simulated blocks read answering this condition.
    pub blocks_read: u64,
    /// Wall-clock nanoseconds spent on this condition.
    pub elapsed_ns: u64,
    /// Whether the condition was answered by the degraded table-scan
    /// fallback instead of its index.
    pub degraded: bool,
}

/// The full execution trace of one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanTrace {
    /// Combine strategy the planner chose.
    pub strategy: CombineStrategy,
    /// Per-condition traces, in execution order.
    pub conditions: Vec<CondTrace>,
    /// Cardinality of the combined result.
    pub result_rows: u64,
    /// Wall-clock nanoseconds for the whole execution.
    pub elapsed_ns: u64,
}

impl PlanTrace {
    /// Largest estimate-vs-actual misestimate factor across conditions
    /// (1.0 = every estimate exact). The planner's order is only as good
    /// as its estimates; this is the one-number health check.
    pub fn worst_misestimate(&self) -> f64 {
        self.conditions
            .iter()
            .map(|c| {
                let (e, a) = (c.estimate.max(1) as f64, c.actual.max(1) as f64);
                (e / a).max(a / e)
            })
            .fold(1.0, f64::max)
    }

    /// Renders the trace as an `EXPLAIN ANALYZE`-style report: one line
    /// per condition in execution order, then the combine summary.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "plan: {:?} over {} condition(s)",
            self.strategy,
            self.conditions.len()
        );
        for (i, c) in self.conditions.iter().enumerate() {
            let _ = writeln!(
                out,
                "  [{i}] {}{}: est={} actual={} blocks={} time={}ns{}",
                if c.negated { "not " } else { "" },
                c.attr,
                c.estimate,
                c.actual,
                c.blocks_read,
                c.elapsed_ns,
                if c.degraded { " DEGRADED(scan)" } else { "" },
            );
        }
        let _ = writeln!(
            out,
            "result: {} row(s) in {}ns worst_misestimate={:.2}",
            self.result_rows,
            self.elapsed_ns,
            self.worst_misestimate(),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cond(attr: &str, estimate: u64, actual: u64) -> CondTrace {
        CondTrace {
            attr: attr.into(),
            negated: false,
            estimate,
            actual,
            blocks_read: 2,
            elapsed_ns: 0,
            degraded: false,
        }
    }

    #[test]
    fn worst_misestimate_is_symmetric_and_floored_at_one() {
        let t = PlanTrace {
            strategy: CombineStrategy::Gallop,
            conditions: vec![cond("a", 10, 10), cond("b", 3, 12), cond("c", 8, 2)],
            result_rows: 2,
            elapsed_ns: 0,
        };
        assert!((t.worst_misestimate() - 4.0).abs() < 1e-9);
        let exact = PlanTrace {
            strategy: CombineStrategy::Scan,
            conditions: vec![cond("a", 5, 5)],
            result_rows: 5,
            elapsed_ns: 0,
        };
        assert!((exact.worst_misestimate() - 1.0).abs() < 1e-9);
        // Zero estimates and actuals do not divide by zero.
        let zeros = PlanTrace {
            strategy: CombineStrategy::Probe,
            conditions: vec![cond("a", 0, 0)],
            result_rows: 0,
            elapsed_ns: 0,
        };
        assert!((zeros.worst_misestimate() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn render_mentions_every_condition_and_flags_degradation() {
        let mut c = cond("city", 4, 7);
        c.degraded = true;
        c.negated = true;
        let t = PlanTrace {
            strategy: CombineStrategy::Probe,
            conditions: vec![cond("age", 2, 2), c],
            result_rows: 1,
            elapsed_ns: 0,
        };
        let text = t.render();
        assert!(text.contains("Probe"));
        assert!(text.contains("[0] age: est=2 actual=2"));
        assert!(text.contains("[1] not city"));
        assert!(text.contains("DEGRADED(scan)"));
        assert!(text.contains("result: 1 row(s)"));
    }
}
