//! Evaluation metrics used by Table 3: classification accuracy and MSE.

/// Fraction of exact label matches.
pub fn accuracy(predicted: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(predicted.len(), truth.len());
    assert!(!predicted.is_empty(), "empty prediction set");
    let correct = predicted
        .iter()
        .zip(truth)
        .filter(|(p, t)| (**p - **t).abs() < 0.5)
        .count();
    correct as f64 / predicted.len() as f64
}

/// Mean squared error.
pub fn mse(predicted: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(predicted.len(), truth.len());
    assert!(!predicted.is_empty(), "empty prediction set");
    let sum: f64 = predicted
        .iter()
        .zip(truth)
        .map(|(p, t)| (p - t) * (p - t))
        .sum();
    sum / predicted.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_matches() {
        assert_eq!(accuracy(&[0.0, 1.0, 1.0], &[0.0, 1.0, 0.0]), 2.0 / 3.0);
        assert_eq!(accuracy(&[1.0], &[1.0]), 1.0);
    }

    #[test]
    fn mse_squares_errors() {
        assert_eq!(mse(&[0.0, 2.0], &[0.0, 0.0]), 2.0);
        assert_eq!(mse(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_rejected() {
        accuracy(&[], &[]);
    }
}
