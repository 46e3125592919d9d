//! The two CSC conflict detectors against each other on random
//! state-signal insertion candidates — the exact perturbations the
//! encoding search enumerates. The explicit detector ranks those
//! candidates; the symbolic one answers conflict checks and audits
//! accepted resolutions, so the two must agree on every candidate.

use proptest::prelude::*;
use rt_stg::symbolic::csc::csc_conflicts_symbolic;
use rt_stg::{corpus, explore, models, Stg, StgError};
use rt_synth::csc::{insert_state_signal_with, simple_places};

/// The conflicted models the search perturbs.
fn conflicted_models() -> Vec<Stg> {
    vec![
        models::fifo_stg(),
        corpus::parse(corpus::VME_READ_G).expect("parses"),
        corpus::parse(corpus::PIPELINE_STAGE_G).expect("parses"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random state-signal insertion candidates — exactly the nets the
    /// encoding search enumerates — must get the same verdict from
    /// both detectors: equal conflict counts and marking counts when
    /// the candidate explores, matching `Inconsistent` rejections when
    /// it does not.
    #[test]
    fn random_insertion_candidates_agree_across_detectors(
        model in 0usize..3,
        plus_pick in 0usize..1 << 16,
        minus_pick in 0usize..1 << 16,
        token_after in proptest::bool::ANY,
    ) {
        let stg = &conflicted_models()[model];
        let places = simple_places(stg);
        let plus = places[plus_pick % places.len()];
        let minus = places[minus_pick % places.len()];
        if plus == minus {
            return;
        }
        let candidate = insert_state_signal_with(stg, "px", plus, minus, token_after);
        match explore(&candidate) {
            Ok(sg) => {
                let analysis = csc_conflicts_symbolic(&candidate)
                    .expect("explicitly explorable candidates analyse symbolically");
                prop_assert_eq!(analysis.conflicts, sg.csc_conflicts().len() as u64);
                prop_assert_eq!(analysis.markings, sg.state_count() as u64);
                prop_assert_eq!(analysis.deadlock_free, sg.deadlock_states().is_empty());
                prop_assert_eq!(analysis.strongly_connected, sg.is_strongly_connected());
            }
            Err(StgError::Inconsistent { .. }) => {
                let err = csc_conflicts_symbolic(&candidate)
                    .expect_err("inconsistent candidates must be rejected symbolically too");
                prop_assert!(matches!(err, StgError::Inconsistent { .. }));
            }
            // Unbounded/oversized candidates are outside the detector
            // contract (both analysers only compare on safe nets).
            Err(_) => {}
        }
    }
}
