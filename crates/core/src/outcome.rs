//! Result types shared by all distributed MWC algorithms.

use mwc_congest::Ledger;
use mwc_graph::{CycleWitness, Graph, NodeId, Weight};

/// The outcome of a distributed MWC computation: the reported weight, a
/// witness cycle certifying it, and the round/traffic ledger.
///
/// Per Definition 1.1 of the paper, algorithms report the weight of a
/// cycle; approximation algorithms report the weight of a real cycle within
/// the approximation factor. `weight` is `None` when the graph has no cycle
/// (the algorithm detected none — for exact algorithms that *is* the
/// answer; for approximation algorithms it is correct w.h.p.).
#[derive(Clone, Debug)]
pub struct MwcOutcome {
    /// Weight of the best cycle found (`None`: no cycle found).
    pub weight: Option<Weight>,
    /// A witness for `weight`.
    pub witness: Option<CycleWitness>,
    /// Round/word accounting of the whole computation.
    pub ledger: Ledger,
}

impl MwcOutcome {
    /// The per-node routing view of the found cycle, per Definition 1.1's
    /// remark that the cycle can be constructed "by storing the next
    /// vertex on the cycle at each vertex that is part of the MWC":
    /// `table[v] = Some(next)` iff `v` lies on the witness cycle and
    /// `next` follows it.
    ///
    /// Returns `None` if no cycle was found.
    ///
    /// # Examples
    ///
    /// ```
    /// use mwc_core::exact_mwc;
    /// use mwc_graph::{Graph, Orientation};
    ///
    /// # fn main() -> Result<(), mwc_graph::GraphError> {
    /// let g = Graph::from_edges(3, Orientation::Directed,
    ///     [(0, 1, 1), (1, 2, 1), (2, 0, 1)])?;
    /// let out = exact_mwc(&g);
    /// let table = out.cycle_routing(3).expect("cycle found");
    /// // Following the table from any on-cycle vertex walks the cycle.
    /// let mut v = 0;
    /// for _ in 0..3 { v = table[v].unwrap(); }
    /// assert_eq!(v, 0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn cycle_routing(&self, n: usize) -> Option<Vec<Option<NodeId>>> {
        let w = self.witness.as_ref()?;
        let mut table = vec![None; n];
        let vs = w.vertices();
        for i in 0..vs.len() {
            table[vs[i]] = Some(vs[(i + 1) % vs.len()]);
        }
        Some(table)
    }

    /// Checks internal consistency against the input graph: if a weight is
    /// reported there is a witness, the witness is a real simple cycle,
    /// and its weight equals the reported value.
    ///
    /// # Panics
    ///
    /// Panics with a description of the violated condition. Tests call
    /// this on every outcome.
    pub fn assert_valid(&self, g: &Graph) {
        match (&self.weight, &self.witness) {
            (None, None) => {}
            (Some(w), Some(c)) => {
                let actual = c
                    .validate(g)
                    .unwrap_or_else(|e| panic!("witness invalid: {e} ({c})"));
                assert_eq!(actual, *w, "witness weight {actual} ≠ reported {w}");
            }
            (Some(w), None) => panic!("weight {w} reported without witness"),
            (None, Some(c)) => panic!("witness {c} without weight"),
        }
    }
}

/// Intermediate result of an algorithm phase: best cycle so far plus the
/// accumulated ledger. Crate-internal composition helper.
#[derive(Clone, Debug, Default)]
pub(crate) struct Partial {
    pub best: BestCycle,
    pub ledger: Ledger,
}

/// Accumulates `(weight, witness)` candidates, keeping the minimum.
///
/// Distributed algorithms discover many candidate cycles (at different
/// nodes, in different phases); this helper keeps the lightest and builds
/// the final [`MwcOutcome`].
#[derive(Clone, Debug, Default)]
pub struct BestCycle {
    best: Option<(Weight, CycleWitness)>,
}

impl BestCycle {
    /// An empty accumulator.
    pub fn new() -> Self {
        BestCycle::default()
    }

    /// Offers a candidate; kept iff strictly lighter than the current best.
    pub fn offer(&mut self, weight: Weight, witness: CycleWitness) {
        if self.best.as_ref().is_none_or(|(w, _)| weight < *w) {
            self.best = Some((weight, witness));
        }
    }

    /// Offers the vertex sequence `cycle` at its weight in `g` after
    /// validating it; a sequence that is not a cycle of `g` is dropped, so
    /// a kept weight always belongs to a real cycle.
    pub(crate) fn offer_validated(&mut self, g: &Graph, cycle: Vec<NodeId>) {
        let w = CycleWitness::new(cycle);
        if let Ok(weight) = w.validate(g) {
            self.offer(weight, w);
        }
    }

    /// The current best weight, if any.
    pub fn weight(&self) -> Option<Weight> {
        self.best.as_ref().map(|(w, _)| *w)
    }

    /// Consumes the accumulator into its `(weight, witness)` pair.
    pub fn into_parts(self) -> Option<(Weight, CycleWitness)> {
        self.best
    }

    /// Consumes the accumulator into an outcome with the given ledger.
    pub fn into_outcome(self, ledger: Ledger) -> MwcOutcome {
        match self.best {
            Some((w, c)) => MwcOutcome {
                weight: Some(w),
                witness: Some(c),
                ledger,
            },
            None => MwcOutcome {
                weight: None,
                witness: None,
                ledger,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_graph::{Graph, Orientation};

    #[test]
    fn best_cycle_keeps_minimum() {
        let mut b = BestCycle::new();
        assert_eq!(b.weight(), None);
        b.offer(10, CycleWitness::new(vec![0, 1, 2]));
        b.offer(12, CycleWitness::new(vec![0, 1, 3]));
        b.offer(7, CycleWitness::new(vec![1, 2, 3]));
        assert_eq!(b.weight(), Some(7));
        let o = b.into_outcome(Ledger::new());
        assert_eq!(o.weight, Some(7));
        assert_eq!(o.witness.unwrap().vertices(), &[1, 2, 3]);
    }

    #[test]
    fn cycle_routing_walks_the_cycle() {
        let o = MwcOutcome {
            weight: Some(3),
            witness: Some(CycleWitness::new(vec![4, 1, 7])),
            ledger: Ledger::new(),
        };
        let t = o.cycle_routing(8).unwrap();
        assert_eq!(t[4], Some(1));
        assert_eq!(t[1], Some(7));
        assert_eq!(t[7], Some(4));
        assert_eq!(t[0], None);
        let none = MwcOutcome {
            weight: None,
            witness: None,
            ledger: Ledger::new(),
        };
        assert!(none.cycle_routing(8).is_none());
    }

    #[test]
    fn outcome_validation_passes_for_real_cycle() {
        let g =
            Graph::from_edges(3, Orientation::Directed, [(0, 1, 2), (1, 2, 2), (2, 0, 2)]).unwrap();
        let o = MwcOutcome {
            weight: Some(6),
            witness: Some(CycleWitness::new(vec![0, 1, 2])),
            ledger: Ledger::new(),
        };
        o.assert_valid(&g);
    }

    #[test]
    #[should_panic(expected = "witness weight")]
    fn outcome_validation_catches_wrong_weight() {
        let g =
            Graph::from_edges(3, Orientation::Directed, [(0, 1, 2), (1, 2, 2), (2, 0, 2)]).unwrap();
        let o = MwcOutcome {
            weight: Some(5),
            witness: Some(CycleWitness::new(vec![0, 1, 2])),
            ledger: Ledger::new(),
        };
        o.assert_valid(&g);
    }

    #[test]
    #[should_panic(expected = "without witness")]
    fn outcome_validation_catches_missing_witness() {
        let g = Graph::directed(2);
        let o = MwcOutcome {
            weight: Some(5),
            witness: None,
            ledger: Ledger::new(),
        };
        o.assert_valid(&g);
    }
}
