//! The debug-build kernel sanitizer must be an observer: running the
//! serving path under `RTT_SANITIZE=1` performs the NaN/Inf and plan
//! checks (visible through the `nn::sanitize_*` counters in debug builds)
//! without changing a single output bit, for the full model and for a
//! CNN-only one that never runs the GNN pass.
//!
//! The env var is process-global, so everything runs in one `#[test]`.

use restructure_timing::flow::{Dataset, FlowConfig};
use restructure_timing::obs;
use restructure_timing::prelude::*;

#[test]
fn sanitized_predict_is_bit_identical_and_checks_run() {
    let cfg = FlowConfig { scale: Scale::Tiny };
    let ds = Dataset::generate_subset(&cfg, 1, 1);
    let mc = ModelConfig::tiny();
    let design = ds.test_designs()[0];

    // Reference pass with the sanitizer off.
    std::env::remove_var("RTT_SANITIZE");
    let prep = design.prepared(&ds.library, &mc);
    let model = TimingModel::new(mc.clone());
    let plain = model.predict(&prep);
    assert!(!plain.is_empty(), "tiny design has endpoints");

    // A CNN-only model never runs the GNN pass; its global map and
    // regressor output are scanned instead.
    let cnn_only = TimingModel::new(mc.clone().with_variant(ModelVariant::CnnOnly));
    let plain_cnn = cnn_only.predict(&prep);

    // Sanitized pass: re-prepare so the GnnPlan build-time checks run too,
    // then predict with every kernel output scanned.
    obs::reset();
    std::env::set_var("RTT_SANITIZE", "1");
    let prep_s = design.prepared(&ds.library, &mc);
    let sanitized = model.predict(&prep_s);
    let counters = obs::snapshot().counters;
    obs::reset();
    let sanitized_cnn = cnn_only.predict(&prep);
    let cnn_counters = obs::snapshot().counters;
    std::env::remove_var("RTT_SANITIZE");

    for (what, plain, sanitized) in
        [("full", &plain, &sanitized), ("cnn-only", &plain_cnn, &sanitized_cnn)]
    {
        assert_eq!(plain.len(), sanitized.len());
        for (i, (a, b)) in plain.iter().zip(sanitized).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "{what} prediction {i} changed under RTT_SANITIZE=1: {a:?} vs {b:?}"
            );
        }
    }

    // In debug builds the sanitizer must actually have looked at
    // something; in release it is compiled out and the counters stay 0.
    let count =
        |c: &std::collections::BTreeMap<String, u64>, key: &str| c.get(key).copied().unwrap_or(0);
    let value_checks = count(&counters, "nn::sanitize_value_checks");
    let plan_checks = count(&counters, "nn::sanitize_plan_checks");
    let cnn_value_checks = count(&cnn_counters, "nn::sanitize_value_checks");
    if cfg!(debug_assertions) {
        assert!(value_checks > 0, "no value checks ran under RTT_SANITIZE=1");
        assert!(plan_checks > 0, "no plan checks ran under RTT_SANITIZE=1");
        assert!(cnn_value_checks > 0, "a CNN-only predict ran no value checks");
    } else {
        assert_eq!(
            value_checks + plan_checks + cnn_value_checks,
            0,
            "sanitizer must be compiled out of release"
        );
    }
}
