//! The kernel sanitizer runs in every debug build and is compiled out of
//! release: a prepare and predict perform the NaN/Inf and plan checks
//! (visible through the `nn::sanitize_*` counters) in debug builds and none
//! in release, for the full model and for a CNN-only one that never runs
//! the GNN pass.
//!
//! The counters are process-global, so everything runs in one `#[test]`.

use restructure_timing::flow::{Dataset, FlowConfig};
use restructure_timing::obs;
use restructure_timing::prelude::*;

#[test]
fn sanitizer_checks_run_in_debug_builds_only() {
    let cfg = FlowConfig { scale: Scale::Tiny };
    let ds = Dataset::generate_subset(&cfg, 1, 1);
    let mc = ModelConfig::tiny();
    let design = ds.test_designs()[0];
    let model = TimingModel::new(mc.clone());
    // A CNN-only model never runs the GNN pass; its global map and
    // regressor output are scanned instead.
    let cnn_only = TimingModel::new(mc.clone().with_variant(ModelVariant::CnnOnly));

    // Prepare after the reset so the GnnPlan build-time checks count too.
    obs::reset();
    let prep = design.prepared(&ds.library, &mc);
    assert!(!model.predict(&prep).is_empty(), "tiny design has endpoints");
    let counters = obs::snapshot().counters;
    obs::reset();
    let _ = cnn_only.predict(&prep);
    let cnn_counters = obs::snapshot().counters;

    let count =
        |c: &std::collections::BTreeMap<String, u64>, key: &str| c.get(key).copied().unwrap_or(0);
    let value_checks = count(&counters, "nn::sanitize_value_checks");
    let plan_checks = count(&counters, "nn::sanitize_plan_checks");
    let cnn_value_checks = count(&cnn_counters, "nn::sanitize_value_checks");
    if cfg!(debug_assertions) {
        assert!(value_checks > 0, "no value checks ran in a debug build");
        assert!(plan_checks > 0, "no plan checks ran in a debug build");
        assert!(cnn_value_checks > 0, "a CNN-only predict ran no value checks");
    } else {
        assert_eq!(
            value_checks + plan_checks + cnn_value_checks,
            0,
            "sanitizer must be compiled out of release"
        );
    }
}
