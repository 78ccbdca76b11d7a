//! Property tests: the batched columnar estimation pipeline is
//! bit-identical to the scalar reference path over random databases.
//!
//! This is the acceptance bar for the batched refactor — not statistical
//! closeness but exact equality of every `Estimate` field, for random
//! parameters, widths, populations and query values.

use proptest::prelude::*;
use psketch::prf::Prg;
use psketch::{
    BitString, BitSubset, ConjunctiveEstimator, ConjunctiveQuery, Profile, SketchDb, SketchParams,
    Sketcher, UserId,
};
use rand::SeedableRng;

/// Builds a random database of `m` users with `k`-bit profiles drawn from
/// the given bit seeds.
fn build_db(
    p: f64,
    k: usize,
    profile_seeds: &[u64],
    rng_seed: u64,
) -> (SketchParams, SketchDb, BitSubset) {
    let params =
        SketchParams::with_sip(p, 10, psketch::GlobalKey::from_seed(rng_seed ^ 0xABCD)).unwrap();
    let sketcher = Sketcher::new(params);
    let subset = BitSubset::range(0, k as u32);
    let db = SketchDb::new();
    let mut rng = Prg::seed_from_u64(rng_seed);
    for (i, &seed) in profile_seeds.iter().enumerate() {
        let bits: Vec<bool> = (0..k).map(|b| (seed >> (b % 64)) & 1 == 1).collect();
        let profile = Profile::from_bits(&bits);
        let sketch = sketcher
            .sketch(UserId(i as u64), &profile, &subset, &mut rng)
            .unwrap();
        db.insert(subset.clone(), UserId(i as u64), sketch);
    }
    (params, db, subset)
}

proptest! {
    /// `estimate` (batched) equals `estimate_scalar` exactly on random
    /// databases and random query values.
    #[test]
    fn batched_estimate_is_bit_identical_to_scalar(
        p_milli in 50u64..450,
        k in 1usize..10,
        profile_seeds in proptest::collection::vec(any::<u64>(), 1..200),
        value_seed in any::<u64>(),
        rng_seed in any::<u64>(),
    ) {
        let p = p_milli as f64 / 1000.0;
        let (params, db, subset) = build_db(p, k, &profile_seeds, rng_seed);
        let estimator = ConjunctiveEstimator::new(params);
        let value = BitString::from_u64(value_seed & ((1 << k) - 1), k);
        let query = ConjunctiveQuery::new(subset, value).unwrap();

        let batched = estimator.estimate(&db, &query).unwrap();
        let scalar = estimator.estimate_scalar(&db, &query).unwrap();
        prop_assert_eq!(batched.fraction.to_bits(), scalar.fraction.to_bits());
        prop_assert_eq!(batched.raw.to_bits(), scalar.raw.to_bits());
        prop_assert_eq!(batched.sample_size, scalar.sample_size);
        prop_assert_eq!(batched.p.to_bits(), scalar.p.to_bits());
    }

    /// The distribution scan (one scan over all 2^k values) equals 2^k
    /// independent scalar scans exactly.
    #[test]
    fn one_pass_distribution_is_bit_identical_to_scalar_scans(
        p_milli in 50u64..450,
        k in 1usize..6,
        profile_seeds in proptest::collection::vec(any::<u64>(), 1..120),
        rng_seed in any::<u64>(),
    ) {
        let p = p_milli as f64 / 1000.0;
        let (params, db, subset) = build_db(p, k, &profile_seeds, rng_seed);
        let estimator = ConjunctiveEstimator::new(params);
        let dist = estimator.estimate_distribution(&db, &subset).unwrap();
        prop_assert_eq!(dist.len(), 1 << k);
        for (value, batched) in dist.iter().enumerate() {
            let query = ConjunctiveQuery::new(
                subset.clone(),
                BitString::from_u64(value as u64, k),
            )
            .unwrap();
            let scalar = estimator.estimate_scalar(&db, &query).unwrap();
            prop_assert_eq!(batched.fraction.to_bits(), scalar.fraction.to_bits());
            prop_assert_eq!(batched.raw.to_bits(), scalar.raw.to_bits());
            prop_assert_eq!(batched.sample_size, scalar.sample_size);
        }
    }

    /// Wide distributions — up to 256 value tails in one scan — equal
    /// 2^k independent scalar scans exactly at every lane width.
    #[test]
    fn wide_distribution_is_bit_identical_to_scalar_at_every_lane_width(
        p_milli in 50u64..450,
        k in 5usize..=8,
        profile_seeds in proptest::collection::vec(any::<u64>(), 1..40),
        rng_seed in any::<u64>(),
    ) {
        let p = p_milli as f64 / 1000.0;
        let (params, db, subset) = build_db(p, k, &profile_seeds, rng_seed);
        let estimator = ConjunctiveEstimator::new(params);
        let scalar: Vec<_> = (0..1u64 << k)
            .map(|value| {
                let query = ConjunctiveQuery::new(subset.clone(), BitString::from_u64(value, k))
                    .unwrap();
                estimator.estimate_scalar(&db, &query).unwrap()
            })
            .collect();
        for width in psketch::core::SUPPORTED_LANE_WIDTHS.iter().copied() {
            psketch::core::set_lane_width(width).unwrap();
            let dist = estimator.estimate_distribution(&db, &subset).unwrap();
            prop_assert_eq!(dist.len(), 1 << k);
            for (batched, scalar) in dist.iter().zip(&scalar) {
                prop_assert_eq!(
                    batched.fraction.to_bits(), scalar.fraction.to_bits(),
                    "k = {} diverged at width {}", k, width
                );
                prop_assert_eq!(batched.raw.to_bits(), scalar.raw.to_bits());
                prop_assert_eq!(batched.sample_size, scalar.sample_size);
            }
        }
        psketch::core::set_lane_width(0).unwrap();
    }
}
