//! Order statistics over the small samples a run produces.

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between the two
/// closest ranks. `None` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// What gets reported for a timed quantity: the median with its sample
/// count, and the 90th percentile only when at least ten samples lie
/// beyond it — with fewer, a tail percentile is a handful of observations
/// and is not reported.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub p90: Option<f64>,
}

pub const MIN_SAMPLES_FOR_P90: usize = 100;

pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let median = median(samples)?;
    Some(Summary {
        n: samples.len(),
        median,
        p90: (samples.len() >= MIN_SAMPLES_FOR_P90)
            .then(|| quantile(samples, 0.9))
            .flatten(),
    })
}

/// One reported number. `n` is the number of samples behind a median
/// (1 for an exact count or a time taken once).
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub n: usize,
    pub p90: Option<f64>,
}

impl Metric {
    pub fn once(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            n: 1,
            p90: None,
        }
    }

    /// The median of `samples` (and their p90, when there are enough),
    /// each multiplied by `scale`. `None` for an empty sample.
    pub fn median_of(
        name: &str,
        unit: &'static str,
        samples: &[f64],
        scale: f64,
    ) -> Option<Metric> {
        let s = summarize(samples)?;
        Some(Metric {
            name: name.to_string(),
            unit,
            value: s.median * scale,
            n: s.n,
            p90: s.p90.map(|p| p * scale),
        })
    }

    /// The smallest of `samples`: what a whole-run timing is reported as.
    /// Interference on a shared box only ever adds time, so over a handful
    /// of repetitions the fastest one is the steadiest estimate of what
    /// the code costs. `None` for an empty sample.
    pub fn fastest_of(name: &str, unit: &'static str, samples: &[f64]) -> Option<Metric> {
        let fastest = samples.iter().copied().min_by(f64::total_cmp)?;
        Some(Metric {
            n: samples.len(),
            ..Metric::once(name, unit, fastest)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.0), Some(0.0));
        assert_eq!(quantile(&v, 0.9), Some(9.0));
        assert_eq!(quantile(&v, 1.0), Some(10.0));
        assert_eq!(quantile(&[10.0, 20.0], 0.25), Some(12.5));
    }

    #[test]
    fn fastest_keeps_the_sample_count() {
        let m = Metric::fastest_of("train_s", "s", &[7.5, 6.25, 9.0]).unwrap();
        assert_eq!((m.value, m.n, m.p90), (6.25, 3, None));
        assert_eq!(Metric::fastest_of("train_s", "s", &[]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (0..99).map(f64::from).collect();
        let s = summarize(&few).unwrap();
        assert_eq!((s.n, s.median, s.p90), (99, 49.0, None));
        let enough: Vec<f64> = (0..101).map(f64::from).collect();
        let s = summarize(&enough).unwrap();
        assert_eq!((s.n, s.median, s.p90), (101, 50.0, Some(90.0)));
    }
}
