//! Exact Figure 4 pins: precision and recall of GLADE-P1 and GLADE on the
//! four Section 8.2 languages at the paper's scale (`EvalConfig::default()`:
//! 50 seeds, 1000 samples each way), rng seeds 1–3. The `paper` binary
//! writes the same runs into `BENCH_paper.json`; a change to learning or
//! scoring that moves one of these figures must update the pin and say why.

use glade_eval::{run_learner, EvalConfig, Learner};
use glade_targets::languages::section82_languages;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(precision, recall)` at rng seeds 1, 2 and 3.
type Cells = [(f64, f64); 3];

/// Per language and learner, in `section82_languages()` order.
const PINS: [(&str, &str, Cells); 8] = [
    ("url", "GLADE-P1", [(0.25, 0.973), (0.348, 1.0), (0.203, 0.921)]),
    ("url", "GLADE", [(0.353, 1.0), (0.379, 1.0), (0.278, 1.0)]),
    ("grep", "GLADE-P1", [(0.936, 0.667), (0.904, 0.646), (0.946, 0.641)]),
    ("grep", "GLADE", [(0.927, 0.982), (0.903, 0.861), (0.918, 0.964)]),
    ("lisp", "GLADE-P1", [(0.867, 0.897), (0.899, 0.901), (0.876, 0.883)]),
    ("lisp", "GLADE", [(0.56, 1.0), (0.611, 1.0), (0.652, 0.904)]),
    ("xml", "GLADE-P1", [(0.947, 0.664), (0.918, 0.688), (0.928, 0.679)]),
    ("xml", "GLADE", [(0.781, 0.811), (0.775, 0.861), (0.749, 0.811)]),
];

#[test]
fn glade_and_p1_precision_and_recall_at_paper_scale() {
    let config = EvalConfig::default();
    let mut got = Vec::new();
    for language in section82_languages() {
        for learner in [Learner::GladeP1, Learner::Glade] {
            let cells = [1, 2, 3].map(|seed| {
                let row =
                    run_learner(&language, learner, &config, &mut StdRng::seed_from_u64(seed));
                (row.quality.precision, row.quality.recall)
            });
            got.push((language.name(), learner.name(), cells));
        }
    }
    assert_eq!(got, PINS);
}
