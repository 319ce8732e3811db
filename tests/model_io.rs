//! Model persistence and reuse across the facade.

use restructure_timing::flow::{Dataset, FlowConfig};
use restructure_timing::prelude::*;

#[test]
fn trained_model_roundtrips_through_bytes() {
    let cfg = FlowConfig { scale: Scale::Tiny };
    let ds = Dataset::generate_subset(&cfg, 1, 1);
    let lib = &ds.library;
    let mc = ModelConfig::tiny();
    let train: Vec<PreparedDesign> =
        ds.train_designs().iter().map(|d| d.prepared(lib, &mc)).collect();
    let mut model = TimingModel::new(mc.clone());
    model.train(&train, &TrainConfig { epochs: 5, ..TrainConfig::default() });

    let test_prep = ds.test_designs()[0].prepared(lib, &mc);
    let expect = model.predict(&test_prep);

    let blob = model.save_weights();
    let mut restored = TimingModel::new(mc);
    restored.load_weights(&blob).expect("same architecture");
    let restored_pred = restored.predict(&test_prep);
    let bits = |v: &[f32]| v.iter().map(|p| p.to_bits()).collect::<Vec<u32>>();
    assert_eq!(bits(&restored_pred), bits(&expect), "reload must preserve predictions exactly");
    // The round-trip holds on both execution backends: the tape-backed
    // reference path must agree with the tape-free predictions to the bit.
    assert_eq!(
        bits(&restored.predict_taped(&test_prep)),
        bits(&expect),
        "taped reference diverged from tape-free predict after reload"
    );
}

/// Corrupt-file fixtures against the versioned `RTTM` container: every
/// damaged variant must come back as a typed error — never a panic,
/// never a partially-loaded model.
#[test]
fn corrupt_model_files_are_rejected_with_typed_errors() {
    use restructure_timing::model::model_io::{load_model, save_model, ModelIoError};

    let model = TimingModel::new(ModelConfig::tiny());
    let good = save_model(&model);
    assert!(load_model(&good).is_ok(), "pristine container loads");

    // Truncations at every interesting boundary: magic, version, config,
    // mid-payload, missing checksum.
    for cut in [0, 3, 7, 20, good.len() / 2, good.len() - 9, good.len() - 1] {
        let err = load_model(&good[..cut]).expect_err("truncated file must be refused");
        assert!(
            matches!(
                err,
                // A cut that leaves 8+ trailing bytes reads them as the
                // checksum, which then cannot match — equally typed.
                ModelIoError::Truncated { .. }
                    | ModelIoError::BadMagic
                    | ModelIoError::Checksum { .. }
            ),
            "cut={cut}: {err}"
        );
    }

    // A single flipped bit anywhere in the body trips the checksum.
    for pos in [8, 16, good.len() / 2, good.len() - 10] {
        let mut bad = good.clone();
        bad[pos] ^= 0x01;
        let err = load_model(&bad).expect_err("bit flip must be refused");
        assert!(
            matches!(err, ModelIoError::Checksum { .. } | ModelIoError::BadMagic),
            "pos={pos}: {err}"
        );
    }

    // Wrong magic and future version are identified as such.
    let mut bad = good.clone();
    bad[..4].copy_from_slice(b"NOPE");
    assert_eq!(load_model(&bad).expect_err("bad magic"), ModelIoError::BadMagic);

    // Arbitrary garbage of various lengths: typed error, no panic.
    let mut state = 0x9E37u64;
    for len in [0usize, 1, 8, 33, 64, 1024] {
        let garbage: Vec<u8> = (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect();
        assert!(load_model(&garbage).is_err(), "garbage len={len} must not load");
    }
}

#[test]
fn variants_predict_differently() {
    let cfg = FlowConfig { scale: Scale::Tiny };
    let ds = Dataset::generate_subset(&cfg, 1, 0);
    let lib = &ds.library;
    let d = ds.train_designs()[0];

    let mut preds = Vec::new();
    for variant in [ModelVariant::Full, ModelVariant::GnnOnly, ModelVariant::CnnOnly] {
        let mc = ModelConfig::tiny().with_variant(variant);
        let prep = d.prepared(lib, &mc);
        let model = TimingModel::new(mc);
        preds.push(model.predict(&prep));
    }
    assert_ne!(preds[0], preds[1]);
    assert_ne!(preds[0], preds[2]);
    assert_ne!(preds[1], preds[2]);
}
