//! Synthetic stand-ins for the paper's evaluation datasets.
//!
//! The paper trains random forests on two open ML datasets —
//! *census income* and *soccer international history* (mldata.io) —
//! purely to obtain realistically-shaped models. Those files are not
//! redistributable here, so this module generates synthetic datasets
//! with the same schema and learnable structure: a hidden noisy scoring
//! rule maps features to labels, so CART training recovers forests in
//! the same size regime.
//!
//! All features are fixed-point integers quantised to the dataset's
//! declared precision, matching the paper's compile-time fixed-point
//! representation (§4.1.2).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A labelled dataset of fixed-point feature rows.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Dataset {
    /// Dataset name (for reports).
    pub name: String,
    /// One name per feature column.
    pub feature_names: Vec<String>,
    /// One name per class label.
    pub label_names: Vec<String>,
    /// Fixed-point precision of the feature values, in bits.
    pub precision: u32,
    /// Feature rows; every row has `feature_names.len()` entries, each
    /// `< 2^precision`.
    pub rows: Vec<Vec<u64>>,
    /// Class index per row.
    pub labels: Vec<usize>,
}

impl Dataset {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of feature columns.
    pub fn feature_count(&self) -> usize {
        self.feature_names.len()
    }

    /// Deterministically shuffles and splits into (train, test).
    ///
    /// # Panics
    ///
    /// Panics if `train_fraction` is not within `(0, 1)`.
    pub fn split(&self, train_fraction: f64, seed: u64) -> (Dataset, Dataset) {
        assert!(
            train_fraction > 0.0 && train_fraction < 1.0,
            "train_fraction must be in (0, 1)"
        );
        let mut order: Vec<usize> = (0..self.len()).collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let cut = ((self.len() as f64) * train_fraction).round() as usize;
        let take = |ix: &[usize], suffix: &str| Dataset {
            name: format!("{}-{suffix}", self.name),
            feature_names: self.feature_names.clone(),
            label_names: self.label_names.clone(),
            precision: self.precision,
            rows: ix.iter().map(|&i| self.rows[i].clone()).collect(),
            labels: ix.iter().map(|&i| self.labels[i]).collect(),
        };
        (take(&order[..cut], "train"), take(&order[cut..], "test"))
    }
}

/// Clamps a float into the fixed-point range of `precision` bits.
fn quantize(v: f64, precision: u32) -> u64 {
    let max = ((1u64 << precision) - 1) as f64;
    v.clamp(0.0, max) as u64
}

/// Synthetic census-income dataset: predict whether a person earns
/// above the threshold from demographic/work features (binary label,
/// schema modeled on the UCI/mldata census-income data the paper uses).
pub fn income(n: usize, precision: u32, seed: u64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed);
    let max = ((1u64 << precision) - 1) as f64;
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        // Raw semantic quantities.
        let age = rng.gen_range(17.0..80.0);
        let education_years = rng.gen_range(4.0..21.0);
        let hours_per_week = rng.gen_range(5.0..80.0);
        let capital_gain = if rng.gen_bool(0.15) {
            rng.gen_range(0.0..30000.0)
        } else {
            0.0
        };
        let occupation = rng.gen_range(0.0..14.0);
        let marital = rng.gen_range(0.0..6.0);
        let sex = f64::from(rng.gen_bool(0.5));
        let workclass = rng.gen_range(0.0..8.0);

        // Hidden scoring rule with noise: high income correlates with
        // education, hours, age (concave) and capital gains.
        let score = 0.9 * (education_years - 9.0)
            + 0.05 * (hours_per_week - 35.0)
            + 0.04 * (age - 30.0) * f64::from(age < 60.0)
            + 2.5 * f64::from(capital_gain > 5000.0)
            + 0.3 * f64::from(occupation < 4.0)
            + 0.4 * f64::from(marital < 2.0)
            + rng.gen_range(-2.0..2.0);
        labels.push(usize::from(score > 2.0));

        rows.push(vec![
            quantize(age / 80.0 * max, precision),
            quantize(education_years / 21.0 * max, precision),
            quantize(hours_per_week / 80.0 * max, precision),
            quantize(capital_gain / 30000.0 * max, precision),
            quantize(occupation / 14.0 * max, precision),
            quantize(marital / 6.0 * max, precision),
            quantize(sex * max, precision),
            quantize(workclass / 8.0 * max, precision),
        ]);
    }
    Dataset {
        name: "income".into(),
        feature_names: [
            "age",
            "education_years",
            "hours_per_week",
            "capital_gain",
            "occupation",
            "marital",
            "sex",
            "workclass",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        label_names: vec!["<=50K".into(), ">50K".into()],
        precision,
        rows,
        labels,
    }
}

/// Synthetic soccer match-history dataset: predict home win / draw /
/// away win from team strength and form features (3-class label,
/// schema modeled on the mldata soccer-international-history data).
pub fn soccer(n: usize, precision: u32, seed: u64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed);
    let max = ((1u64 << precision) - 1) as f64;
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let home_rank = rng.gen_range(1.0..120.0);
        let away_rank = rng.gen_range(1.0..120.0);
        let home_form = rng.gen_range(0.0..15.0); // points from last 5
        let away_form = rng.gen_range(0.0..15.0);
        let home_goals_avg = rng.gen_range(0.0..4.0);
        let away_goals_avg = rng.gen_range(0.0..4.0);
        let neutral = f64::from(rng.gen_bool(0.2));

        // Hidden rule: rank difference, recent form, scoring rate and
        // home advantage (suppressed at neutral venues) plus noise.
        let edge = 0.02 * (away_rank - home_rank)
            + 0.12 * (home_form - away_form)
            + 0.35 * (home_goals_avg - away_goals_avg)
            + 0.5 * (1.0 - neutral)
            + rng.gen_range(-1.2..1.2);
        let label = if edge > 0.55 {
            0 // home win
        } else if edge < -0.55 {
            2 // away win
        } else {
            1 // draw
        };
        labels.push(label);

        rows.push(vec![
            quantize(home_rank / 120.0 * max, precision),
            quantize(away_rank / 120.0 * max, precision),
            quantize(home_form / 15.0 * max, precision),
            quantize(away_form / 15.0 * max, precision),
            quantize(home_goals_avg / 4.0 * max, precision),
            quantize(away_goals_avg / 4.0 * max, precision),
            quantize(neutral * max, precision),
        ]);
    }
    Dataset {
        name: "soccer".into(),
        feature_names: [
            "home_rank",
            "away_rank",
            "home_form",
            "away_form",
            "home_goals_avg",
            "away_goals_avg",
            "neutral_venue",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        label_names: vec!["home_win".into(), "draw".into(), "away_win".into()],
        precision,
        rows,
        labels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn income_shape() {
        let d = income(500, 8, 1);
        assert_eq!(d.len(), 500);
        assert_eq!(d.feature_count(), 8);
        assert_eq!(d.label_names.len(), 2);
        for row in &d.rows {
            assert_eq!(row.len(), 8);
            assert!(row.iter().all(|&v| v < 256));
        }
    }

    #[test]
    fn soccer_shape() {
        let d = soccer(400, 8, 2);
        assert_eq!(d.len(), 400);
        assert_eq!(d.feature_count(), 7);
        assert_eq!(d.label_names.len(), 3);
    }

    #[test]
    fn labels_are_nondegenerate() {
        // Both classes/all three classes must actually occur, otherwise
        // training would be trivial.
        let d = income(2000, 8, 3);
        let ones = d.labels.iter().filter(|&&l| l == 1).count();
        assert!(ones > 200 && ones < 1800, "ones = {ones}");

        let s = soccer(2000, 8, 4);
        for class in 0..3 {
            let c = s.labels.iter().filter(|&&l| l == class).count();
            assert!(c > 100, "class {class} count = {c}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(income(50, 8, 7), income(50, 8, 7));
        assert_ne!(income(50, 8, 7), income(50, 8, 8));
    }

    #[test]
    fn split_partitions_rows() {
        let d = income(100, 8, 5);
        let (train, test) = d.split(0.8, 42);
        assert_eq!(train.len(), 80);
        assert_eq!(test.len(), 20);
        assert_eq!(train.feature_names, d.feature_names);
    }

    #[test]
    #[should_panic(expected = "train_fraction")]
    fn split_rejects_bad_fraction() {
        let _ = income(10, 8, 0).split(1.5, 0);
    }

    #[test]
    fn precision_16_scales_values() {
        let d = income(100, 16, 9);
        assert!(d.rows.iter().flatten().any(|&v| v > 255));
        assert!(d.rows.iter().flatten().all(|&v| v < 65536));
    }
}
