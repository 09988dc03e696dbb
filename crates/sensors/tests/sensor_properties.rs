//! Property-based tests of the CPM and telemetry substrate.

use p7_sensors::{calibration, Amester, CpmBank, CpmReading, CriticalPathMonitor};
use p7_types::{CoreId, CpmId, MegaHertz, Seconds, Volts};
use proptest::prelude::*;

proptest! {
    #[test]
    fn cpm_transfer_function_is_monotone_everywhere(
        sensitivity in 10.0f64..30.0,
        skew in -10.0f64..10.0,
        m1 in -100.0f64..300.0,
        m2 in -100.0f64..300.0,
        fmhz in 3000.0f64..4400.0,
    ) {
        let id = CpmId::new(CoreId::new(0).unwrap(), 0).unwrap();
        let cpm = CriticalPathMonitor::with_variation(id, sensitivity, skew);
        let f = MegaHertz(fmhz);
        let (lo, hi) = if m1 <= m2 { (m1, m2) } else { (m2, m1) };
        prop_assert!(
            cpm.read(Volts::from_millivolts(lo), f)
                <= cpm.read(Volts::from_millivolts(hi), f)
        );
    }

    #[test]
    fn calibration_is_idempotent(
        seed in 0u64..200,
        margin_mv in 20.0f64..150.0,
    ) {
        let mut bank = CpmBank::with_seed(seed);
        let margin = Volts::from_millivolts(margin_mv);
        let f = MegaHertz(4200.0);
        let first = calibration::calibrate_bank(&mut bank, margin, f).unwrap();
        let second = calibration::calibrate_bank(&mut bank, margin, f).unwrap();
        prop_assert_eq!(first.worst_error_taps, 0);
        prop_assert_eq!(second.worst_error_taps, 0);
        // Post-calibration the whole bank reads the target at the margin.
        let mins = bank.core_min_readings(&[margin; 8], &[f; 8]);
        for r in mins {
            prop_assert_eq!(r.value(), calibration::CALIBRATION_TARGET);
        }
    }

    #[test]
    fn readings_saturate_rather_than_wrap(
        seed in 0u64..200,
        margin_mv in -2000.0f64..2000.0,
    ) {
        let bank = CpmBank::with_seed(seed);
        let f = MegaHertz(4200.0);
        let readings = bank.read_all(&[Volts::from_millivolts(margin_mv); 8], &[f; 8]);
        for r in readings {
            prop_assert!(r >= CpmReading::MIN && r <= CpmReading::MAX);
        }
    }

    #[test]
    fn amester_round_trip_preserves_windows(
        samples in prop::collection::vec(0u8..12, 1..20),
    ) {
        let mut amester = Amester::new();
        for (i, &v) in samples.iter().enumerate() {
            let sample = [CpmReading::new(v).unwrap(); 40];
            let sticky = [CpmReading::new(v.saturating_sub(1)).unwrap(); 40];
            amester
                .record(Seconds(i as f64 * 0.032), sample, sticky)
                .unwrap();
        }
        prop_assert_eq!(amester.windows().len(), samples.len());
        let id = CpmId::new(CoreId::new(0).unwrap(), 0).unwrap();
        let expected_worst = samples.iter().map(|v| v.saturating_sub(1)).min().unwrap();
        prop_assert_eq!(amester.worst_sticky(id).unwrap().value(), expected_worst);
        let expected_mean =
            samples.iter().map(|&v| f64::from(v)).sum::<f64>() / samples.len() as f64;
        prop_assert!((amester.mean_sample(id).unwrap() - expected_mean).abs() < 1e-9);
    }

    #[test]
    fn sensitivity_grows_with_frequency(
        seed in 0u64..100,
        f1 in 3000.0f64..4000.0,
        delta in 50.0f64..400.0,
    ) {
        let bank = CpmBank::with_seed(seed);
        let low = bank.mean_sensitivity(MegaHertz(f1));
        let high = bank.mean_sensitivity(MegaHertz(f1 + delta));
        prop_assert!(high > low, "sensitivity must grow with clock: {low} vs {high}");
    }
}

/// `CpmReading::saturating` as it was written with `f64::round`: the
/// reference its libm-free rounding must reproduce exactly.
fn saturating_by_round(value: f64) -> u8 {
    if value.is_nan() || value <= 0.0 {
        0
    } else if value >= 11.0 {
        11
    } else {
        value.round() as u8
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    #[test]
    fn saturating_rounds_exactly_like_round(value in -1.0f64..12.0) {
        prop_assert_eq!(CpmReading::saturating(value).value(), saturating_by_round(value));
    }
}

#[test]
fn saturating_rounds_exactly_like_round_at_every_edge() {
    let mut edges = vec![
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::MIN_POSITIVE / 2.0,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        11.0,
        11.0f64.next_up(),
        11.0f64.next_down(),
    ];
    for k in 0..11 {
        let half = f64::from(k) + 0.5;
        edges.extend([half, half.next_up(), half.next_down()]);
    }
    for value in edges {
        assert_eq!(
            CpmReading::saturating(value).value(),
            saturating_by_round(value),
            "{value:e}"
        );
    }
}
