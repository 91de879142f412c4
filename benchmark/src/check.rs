//! The output check: when a run counts as failed.

/// What one finished run produced, reduced to what the rules look at.
#[derive(Debug, Clone, PartialEq)]
pub struct Observed {
    /// Realizations simulated by the run.
    pub new_volume: u64,
    /// Ranks the collector declared lost.
    pub lost_workers: usize,
    /// Realizations moved between ranks by fault recovery.
    pub reassigned: u64,
    /// Sample means, row-major.
    pub means: Vec<f64>,
    /// Absolute stochastic errors (3σ/√L), row-major.
    pub abs_errors: Vec<f64>,
    /// The bytes of `results/checkpoint.dat`.
    pub checkpoint: Vec<u8>,
}

/// What a run of one arm has to reproduce.
pub struct Expected<'a> {
    /// The sample volume asked for.
    pub volume: u64,
    /// The checkpoint of the first repetition of the same arm.
    pub first_checkpoint: Option<&'a [u8]>,
    /// Means of the serial replay of the same streams.
    pub serial_means: Option<&'a [f64]>,
    /// The analytic mean of a cell, where the volume is large enough
    /// for the 5-abs-error rule to mean something.
    pub exact_mean: Option<&'a dyn Fn(usize) -> f64>,
}

/// How many abs-errors (each 3σ/√L) a mean may lie from its analytic
/// value.
const ABS_ERRORS_ALLOWED: f64 = 5.0;

/// The first rule `observed` breaks, or `None` if the run passes.
pub fn failure(observed: &Observed, expected: &Expected<'_>) -> Option<String> {
    if observed.new_volume != expected.volume {
        return Some(format!(
            "new_volume {} != L {}",
            observed.new_volume, expected.volume
        ));
    }
    if observed.lost_workers != 0 {
        return Some(format!("{} workers lost", observed.lost_workers));
    }
    if observed.reassigned != 0 {
        return Some(format!("{} realizations reassigned", observed.reassigned));
    }
    if let Some(first) = expected.first_checkpoint {
        if observed.checkpoint != first {
            return Some("checkpoint.dat differs from the arm's first repetition".into());
        }
    }
    if let Some(serial) = expected.serial_means {
        let same = observed.means.len() == serial.len()
            && observed
                .means
                .iter()
                .zip(serial)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            return Some("means differ from the serial replay of the same streams".into());
        }
    }
    if let Some(exact) = expected.exact_mean {
        for (cell, (mean, eps)) in observed.means.iter().zip(&observed.abs_errors).enumerate() {
            let off = (mean - exact(cell)).abs();
            // A NaN mean is not within any distance.
            let within = off <= ABS_ERRORS_ALLOWED * eps;
            if !within {
                return Some(format!(
                    "cell {cell}: mean {mean} is {off} from the analytic {}, over 5 abs-errors of {eps}",
                    exact(cell)
                ));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good() -> Observed {
        Observed {
            new_volume: 100,
            lost_workers: 0,
            reassigned: 0,
            means: vec![0.5, 0.51],
            abs_errors: vec![0.01, 0.01],
            checkpoint: b"3 sums\n# fnv64 0123 len 7\n".to_vec(),
        }
    }

    fn half(_cell: usize) -> f64 {
        0.5
    }

    #[test]
    fn a_clean_run_passes_every_rule() {
        let obs = good();
        let first = obs.checkpoint.clone();
        let serial = obs.means.clone();
        let expected = Expected {
            volume: 100,
            first_checkpoint: Some(&first),
            serial_means: Some(&serial),
            exact_mean: Some(&half),
        };
        assert_eq!(failure(&obs, &expected), None);
    }

    #[test]
    fn a_corrupted_checkpoint_fails_the_run() {
        let obs = good();
        let mut first = obs.checkpoint.clone();
        first[0] ^= 1;
        let expected = Expected {
            volume: 100,
            first_checkpoint: Some(&first),
            serial_means: None,
            exact_mean: None,
        };
        assert!(failure(&obs, &expected).unwrap().contains("checkpoint"));
        // A truncated file is just as wrong as a flipped bit.
        let short = &obs.checkpoint[..obs.checkpoint.len() - 1];
        let expected = Expected {
            first_checkpoint: Some(short),
            ..expected
        };
        assert!(failure(&obs, &expected).is_some());
    }

    #[test]
    fn each_other_rule_fails_on_its_own() {
        let base = || Expected {
            volume: 100,
            first_checkpoint: None,
            serial_means: None,
            exact_mean: None,
        };
        let mut obs = good();
        obs.new_volume = 99;
        assert!(failure(&obs, &base()).unwrap().contains("new_volume"));

        let mut obs = good();
        obs.lost_workers = 1;
        assert!(failure(&obs, &base()).unwrap().contains("lost"));

        let mut obs = good();
        obs.reassigned = 7;
        assert!(failure(&obs, &base()).unwrap().contains("reassigned"));

        // One ulp off the serial reference is a failure: bit identity.
        let obs = good();
        let serial = vec![0.5, f64::from_bits(0.51f64.to_bits() + 1)];
        let expected = Expected {
            serial_means: Some(&serial),
            ..base()
        };
        assert!(failure(&obs, &expected).unwrap().contains("serial"));

        let mut obs = good();
        obs.means[1] = 0.56; // 6 abs-errors out
        let expected = Expected {
            exact_mean: Some(&half),
            ..base()
        };
        assert!(failure(&obs, &expected).unwrap().contains("cell 1"));
        obs.means[1] = f64::NAN;
        assert!(failure(&obs, &expected).is_some());
    }
}
