//! The cost-based conjunction planner.
//!
//! Every strategy issues the *same* per-attribute index queries (the same
//! covers, hence identical simulated I/O — asserted by the replay tests);
//! what the planner chooses is the CPU-side combine and, crucially, the
//! *order*: intersecting in ascending estimated-cardinality order keeps
//! every intermediate result no larger than the smallest input, so the
//! galloping leapfrog jumps the broad streams instead of decoding them.
//!
//! Estimates come from [`psi_api::SecondaryIndex::cardinality_hint`] —
//! prefix counts and catalog directories read *before any payload
//! decode*. Structures without such metadata fall back to a uniformity
//! assumption; both paths are exercised by the differential suite.

/// How the per-condition results are combined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CombineStrategy {
    /// Pairwise galloping intersection in plan order
    /// ([`psi_api::RidSet::intersect`]): each round leapfrogs the larger
    /// stream through its skip directory, or, where galloping cannot
    /// skip, filters through its word bitset. The general-purpose choice.
    Gallop,
    /// Semi-join: materialize the smallest result, then filter it by
    /// `O(lg z)` [`psi_api::RidSet::contains`] probes against every other
    /// result, or by bit tests against the word bitset of a result that
    /// [prefers words](psi_api::RidSet::prefers_words) — no intermediate
    /// re-encoding. Wins when one condition is far more selective than
    /// the rest.
    Probe,
    /// Linear k-way co-scan of all logical streams. When every condition
    /// is non-selective the results are dense (mostly complement
    /// representations), no gallop can jump, and the branch-free linear
    /// scan is the cheapest way through.
    Scan,
}

/// Probe is chosen when the smallest estimate times this factor still
/// undercuts the second smallest: the semi-join does `z_min` directory
/// probes per remaining condition, against the gallop's cost of walking
/// (and re-encoding) intermediate results of size up to `z_second`.
pub const PROBE_RATIO: u64 = 8;

/// Scan is chosen when even the smallest estimate exceeds this fraction
/// of the universe (numerator/denominator): every input is dense, so
/// leapfrogging degenerates to stepping and the linear co-scan wins.
pub const SCAN_MIN_FRACTION: (u64, u64) = (1, 2);

/// An execution plan for one conjunctive query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Condition indices in execution order (ascending estimate).
    pub order: Vec<usize>,
    /// Estimated result cardinality per condition, parallel to `order`.
    pub estimates: Vec<u64>,
    /// The combine strategy.
    pub strategy: CombineStrategy,
}

/// Plans a conjunction over a universe of `n` rows from per-condition
/// cardinality estimates (`estimates[i]` for condition `i`, in predicate
/// order). Pure metadata: no index is touched.
pub fn plan_conjunction(n: u64, estimates: &[u64]) -> Plan {
    let mut order: Vec<usize> = (0..estimates.len()).collect();
    order.sort_by_key(|&i| (estimates[i], i));
    let ordered: Vec<u64> = order.iter().map(|&i| estimates[i]).collect();
    let strategy = match ordered.as_slice() {
        [] | [_] => CombineStrategy::Gallop,
        [z_min, rest @ ..] => {
            let (num, den) = SCAN_MIN_FRACTION;
            if z_min.saturating_mul(den) > n.saturating_mul(num) {
                CombineStrategy::Scan
            } else if z_min.saturating_mul(PROBE_RATIO) <= rest[0] {
                CombineStrategy::Probe
            } else {
                CombineStrategy::Gallop
            }
        }
    };
    Plan {
        order,
        estimates: ordered,
        strategy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_ascending_and_stable() {
        let p = plan_conjunction(1000, &[500, 20, 20, 100]);
        assert_eq!(p.order, vec![1, 2, 3, 0]);
        assert_eq!(p.estimates, vec![20, 20, 100, 500]);
    }

    #[test]
    fn selective_outlier_probes() {
        let p = plan_conjunction(100_000, &[40_000, 10, 35_000]);
        assert_eq!(p.strategy, CombineStrategy::Probe);
        assert_eq!(p.order[0], 1);
    }

    #[test]
    fn dense_everything_scans() {
        let p = plan_conjunction(1000, &[800, 900, 700]);
        assert_eq!(p.strategy, CombineStrategy::Scan);
    }

    #[test]
    fn comparable_selectivities_gallop() {
        let p = plan_conjunction(100_000, &[400, 300, 900]);
        assert_eq!(p.strategy, CombineStrategy::Gallop);
        let single = plan_conjunction(100, &[90]);
        assert_eq!(single.strategy, CombineStrategy::Gallop);
        assert!(plan_conjunction(10, &[]).order.is_empty());
    }
}
