//! Theoretical-bound auditing.
//!
//! Every algorithm entry point registers its paper round bound as a closure
//! of the instance parameters `(n, D, h, k, ε)` and reports the rounds it
//! actually used. The auditor computes the measured-vs-bound ratio, records
//! it into the active trace (if any), and — in debug builds — fails an
//! assertion when the measurement exceeds the bound.
//!
//! The closures encode *concrete* envelopes: the paper's asymptotic bounds
//! with explicit constants calibrated against the simulator (see
//! `docs/observability.md` for the full table). A regression that blows a
//! constant — an extra BFS sweep, a dropped pipeline — therefore fails every
//! debug test run, not just a dedicated benchmark.

/// The instance parameters a round bound may depend on.
///
/// Unused fields are zero; `diameter` is always an *upper bound* on the
/// hop diameter of the communication topology (audits compare measured ≤
/// bound, so overestimating D is safe while underestimating is not).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BoundInputs {
    /// Number of nodes.
    pub n: usize,
    /// Upper bound on the hop diameter of the communication graph.
    pub diameter: u64,
    /// The algorithm's hop parameter (h-hop BFS depth, sample bound, …).
    pub h: u64,
    /// The algorithm's cardinality parameter (sources k, σ, message count, …).
    pub k: u64,
    /// Approximation parameter ε (zero for exact algorithms).
    pub eps: f64,
}

impl BoundInputs {
    /// Inputs with just `n` set; builder-style setters fill the rest.
    pub fn n(n: usize) -> Self {
        BoundInputs {
            n,
            ..BoundInputs::default()
        }
    }

    /// Sets the diameter upper bound.
    pub fn diameter(mut self, d: u64) -> Self {
        self.diameter = d;
        self
    }

    /// Sets the hop parameter.
    pub fn h(mut self, h: u64) -> Self {
        self.h = h;
        self
    }

    /// Sets the cardinality parameter.
    pub fn k(mut self, k: u64) -> Self {
        self.k = k;
        self
    }

    /// Sets ε.
    pub fn eps(mut self, eps: f64) -> Self {
        self.eps = eps;
        self
    }
}

/// One recorded audit: an algorithm's measured rounds against its bound.
#[derive(Clone, Debug, PartialEq)]
pub struct AuditRecord {
    /// Registered algorithm name, e.g. `"congest/multibfs"`.
    pub algorithm: String,
    /// Rounds the run actually took.
    pub measured_rounds: u64,
    /// The bound closure evaluated on [`AuditRecord::inputs`].
    pub bound_rounds: f64,
    /// `measured / bound` (bound clamped to ≥ 1).
    pub ratio: f64,
    /// The instance parameters the bound was evaluated on.
    pub inputs: BoundInputs,
}

/// Audits a finished run against its registered bound.
///
/// Evaluates `bound` on `inputs`, records the [`AuditRecord`] into the
/// active trace, and returns it. In debug builds, asserts
/// `measured ≤ bound` (the bound clamped to ≥ 1).
///
/// # Panics
///
/// Debug builds panic when the measurement exceeds the bound —
/// that is the point: every debug test run doubles as a regression check
/// on the paper's round bounds.
pub fn check_bound(
    algorithm: &str,
    inputs: BoundInputs,
    measured_rounds: u64,
    bound: impl FnOnce(&BoundInputs) -> f64,
) -> AuditRecord {
    let bound_rounds = bound(&inputs);
    let ratio = measured_rounds as f64 / bound_rounds.max(1.0);
    let record = AuditRecord {
        algorithm: algorithm.to_owned(),
        measured_rounds,
        bound_rounds,
        ratio,
        inputs,
    };
    crate::record_audit(record.clone());
    debug_assert!(
        measured_rounds as f64 <= bound_rounds.max(1.0),
        "bound audit failed for {algorithm}: measured {measured_rounds} rounds > \
         {bound_rounds:.0} on {inputs:?}"
    );
    record
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceSession;

    #[test]
    fn passing_audit_records_ratio() {
        let session = TraceSession::memory();
        let rec = check_bound("test/alg", BoundInputs::n(100).h(10), 40, |i| {
            5.0 * i.h as f64
        });
        assert!((rec.ratio - 0.8).abs() < 1e-12);
        let data = session.finish();
        assert_eq!(data.orphan_audits.len(), 1);
        assert_eq!(data.all_audits().len(), 1);
    }

    #[test]
    fn audits_attach_to_open_span() {
        let session = TraceSession::memory();
        {
            let _s = crate::span("alg");
            check_bound("test/alg", BoundInputs::n(4), 1, |_| 10.0);
        }
        let data = session.finish();
        assert_eq!(data.roots[0].audits.len(), 1);
        assert!(data.orphan_audits.is_empty());
    }

    #[test]
    #[should_panic(expected = "bound audit failed")]
    #[cfg(debug_assertions)]
    fn failing_audit_panics_in_debug() {
        check_bound("test/fail", BoundInputs::n(4), 1000, |_| 10.0);
    }

    #[test]
    fn zero_bound_is_clamped() {
        // A degenerate bound of 0 must not divide by zero or reject a
        // zero-round run.
        let rec = check_bound("test/zero", BoundInputs::n(0), 0, |_| 0.0);
        assert_eq!(rec.ratio, 0.0);
    }
}
