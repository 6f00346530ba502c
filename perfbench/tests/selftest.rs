//! Self-tests of the benchmark: determinism of its counts, seed
//! sensitivity of its inputs, its guarantee checks and its span fold.

use std::time::Duration;

use mwc_perfbench::probe::{scaled_ms, Probe, NOMINAL_MS};
use mwc_perfbench::{
    closed_loop, layer_of, probed, run_instance, run_traced, InstanceSet, LayerFold, PassTotals,
    Shape, Workload, LAYERS,
};

const TINY: Shape = Shape {
    n: 48,
    graphs: 2,
    seeds_per_graph: 2,
};

/// One pass over a tiny instance set: its totals and failure count.
fn tiny_pass(workload: Workload, seed: u64) -> (PassTotals, usize) {
    let set = InstanceSet::build(workload, TINY, seed);
    let samples = closed_loop(&set, Duration::ZERO, 0, |i| run_instance(&set, i));
    assert_eq!(samples.len(), set.instances.len());
    let failed = samples.iter().filter(|s| s.error.is_some()).count();
    (PassTotals::of(&samples), failed)
}

#[test]
fn a_seed_repeats_exactly() {
    for w in Workload::ALL {
        let first = tiny_pass(w, 5);
        assert_eq!(first, tiny_pass(w, 5), "{}", w.name());
        assert_eq!(first.1, 0, "{} failed at this seed", w.name());
    }
}

#[test]
fn another_seed_gives_another_instance_set() {
    for w in Workload::ALL {
        let a = InstanceSet::build(w, TINY, 5);
        let b = InstanceSet::build(w, TINY, 6);
        let edges = |s: &InstanceSet| {
            s.graphs
                .iter()
                .map(|g| g.edges().to_vec())
                .collect::<Vec<_>>()
        };
        assert_ne!(edges(&a), edges(&b), "{}", w.name());
        if w != Workload::DetectEngine {
            assert_ne!(a.instances, b.instances, "{}", w.name());
        }
    }
}

#[test]
fn repeated_passes_agree() {
    let set = InstanceSet::build(Workload::WeightedDirected, TINY, 9);
    let len = set.instances.len();
    let samples = closed_loop(&set, Duration::ZERO, 3 * len, |i| run_instance(&set, i));
    assert_eq!(samples.len(), 3 * len);
    assert!(samples.iter().all(|s| s.error.is_none()));
    assert_eq!(
        PassTotals::of(&samples[..len]),
        PassTotals::of(&samples[2 * len..])
    );
}

#[test]
fn checks_apply_each_theorem_guarantee() {
    use Workload::*;
    assert_eq!(GirthUnit.check(Some(9), Some(5)), Ok(1.8));
    assert!(GirthUnit.check(Some(10), Some(5)).is_err());
    assert!(GirthUnit.check(Some(4), Some(5)).is_err());
    assert!(GirthUnit.check(None, Some(5)).is_err());
    // ⌈2.25 · 10⌉ + 2 = 25.
    assert!(WeightedDirected.check(Some(25), Some(10)).is_ok());
    assert!(WeightedDirected.check(Some(26), Some(10)).is_err());
    assert_eq!(WeightedDirected.check(None, None), Ok(1.0));
    // Detection is exact, and a girth beyond q means "no cycle".
    assert_eq!(DetectEngine.check(Some(6), Some(6)), Ok(1.0));
    assert!(DetectEngine.check(Some(7), Some(6)).is_err());
    assert_eq!(DetectEngine.check(None, Some(9)), Ok(1.0));
    assert!(DetectEngine.check(Some(9), Some(9)).is_err());
}

#[test]
fn span_labels_fold_into_layers() {
    let layer = |label: &str| layer_of(label).map(|i| LAYERS[i]);
    assert_eq!(layer("detect/cycle-within"), Some("core.detection"));
    assert_eq!(layer("detect/σ-source detection"), Some("congest.detect"));
    assert_eq!(layer("weighted/scale-3"), Some("core.weighted"));
    assert_eq!(
        layer("multibfs/stretched BFS: scale 2^4"),
        Some("congest.multibfs")
    );
    assert_eq!(layer("tree/broadcast"), Some("congest.tree"));
    assert_eq!(layer("ksssp/skeleton-apsp"), Some("core.ksssp"));
    assert_eq!(layer("program/run"), None);
}

#[test]
fn traced_solves_fold_completely() {
    for w in Workload::ALL {
        let set = InstanceSet::build(w, TINY, 3);
        let mut fold = LayerFold::default();
        for i in 0..set.instances.len() {
            assert!(run_traced(&set, i, &mut fold).error.is_none());
        }
        assert!(
            fold.unmapped_labels.is_empty(),
            "{:?}",
            fold.unmapped_labels
        );
        assert!(fold.total_wall_ns() > 0);
        assert!(fold.bound_ratio_max > 0.0);
    }
}

#[test]
fn the_probe_does_fixed_work_and_scales_walls() {
    let probe = Probe::new();
    let checksum = probe.run();
    assert!(checksum > 0);
    assert_eq!(checksum, Probe::new().run());
    // A solve as long as the probe reads as long as the probe's nominal
    // wall, and twice as long reads twice that.
    assert_eq!(scaled_ms(3_000_000, 3_000_000), NOMINAL_MS);
    assert_eq!(scaled_ms(6_000_000, 3_000_000), 2.0 * NOMINAL_MS);
    let set = InstanceSet::build(Workload::GirthUnit, TINY, 5);
    let sample = probed(&probe, || run_instance(&set, 0));
    assert!(sample.probe_ns > 0 && sample.error.is_none());
}
