//! Pins the classifier work of the three built-in crosscheck grids at zero
//! tolerance.
//!
//! The decision procedure depends only on `(property, n, t)` and the
//! reference domain, so a grid classifies each distinct in-band triple
//! once ([`CrosscheckMatrix::classifier_inputs`]) and shares the verdict
//! across its cells. Admissibility evaluations, counted by
//! [`classify_with_cost`], are deterministic: the figures below move only
//! when a grid, the classifier's band or the decision procedure changes.

use validity_core::{classify_with_cost, Domain, SystemParams};
use validity_lab::{classifier_in_band, CrosscheckMatrix, ValiditySpec};

/// Admissibility evaluations of one classification of `(validity, n, t)`.
fn evals(validity: ValiditySpec, n: usize, t: usize, domain: u64) -> u64 {
    let params = SystemParams::new(n, t).expect("grid systems are valid");
    classify_with_cost(&validity.property(t), params, &Domain::range(domain)).1
}

#[test]
fn classifier_work_per_grid_is_pinned() {
    // (grid, distinct triples, evaluations over them, in-band cells,
    // evaluations had every in-band cell classified on its own)
    let grids = [
        (CrosscheckMatrix::suite(), 6, 233_961, 36, 1_403_766),
        (CrosscheckMatrix::chaos(), 4, 155_974, 60, 2_339_610),
        (CrosscheckMatrix::adaptive(), 4, 155_974, 64, 2_495_584),
    ];
    let (mut shared, mut per_cell) = (0, 0);
    for (m, triples, triple_evals, in_band, cell_evals) in grids {
        let inputs = m.classifier_inputs();
        let costs: Vec<u64> = inputs
            .iter()
            .map(|&(v, n, t)| evals(v, n, t, m.domain))
            .collect();
        assert_eq!(inputs.len(), triples, "{}: distinct triples", m.name);
        assert_eq!(costs.iter().sum::<u64>(), triple_evals, "{}", m.name);

        // Each in-band cell would cost what its triple costs.
        let cells: Vec<u64> = m
            .cells()
            .iter()
            .filter(|c| classifier_in_band(c.n, m.domain))
            .map(|c| {
                let i = inputs
                    .iter()
                    .position(|&input| input == (c.validity, c.n, c.t))
                    .expect("every in-band cell's triple is a classifier input");
                costs[i]
            })
            .collect();
        assert_eq!(cells.len(), in_band, "{}: in-band cells", m.name);
        assert_eq!(cells.iter().sum::<u64>(), cell_evals, "{}", m.name);
        shared += triple_evals;
        per_cell += cell_evals;
    }
    assert_eq!(shared, 545_909);
    assert_eq!(per_cell, 6_238_960);
}
