//! The paper's normalisation methodology (§V-B): to quantify one
//! architectural feature, every simulation is normalised against the
//! simulation sharing *all other* parameters, with the feature at its
//! baseline value; bars show the average over all such pairs
//! ("with a total of 864 simulations per application, we are averaging
//! 96 samples per bar").

use std::collections::HashMap;

use musa_arch::{CoresPerNode, Feature};

use crate::sim::ConfigResult;

/// Which scalar is being normalised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Execution-time speedup (baseline / value — higher is better).
    Speedup,
    /// Node power ratio (value / baseline).
    Power,
    /// Energy-to-solution ratio (value / baseline).
    Energy,
    /// Core+L1 power component ratio.
    PowerCore,
    /// L2+L3 power component ratio.
    PowerCache,
    /// DRAM power component ratio.
    PowerMem,
}

impl Metric {
    fn value(self, r: &ConfigResult) -> f64 {
        match self {
            Metric::Speedup => r.time_ns,
            Metric::Power => r.power.total_w(),
            Metric::Energy => r.energy_j,
            Metric::PowerCore => r.power.core_l1_w,
            Metric::PowerCache => r.power.l2_l3_w,
            Metric::PowerMem => r.power.mem_w,
        }
    }

    fn ratio(self, value: f64, baseline: f64) -> f64 {
        match self {
            // Speedup is baseline-over-value; everything else
            // value-over-baseline.
            Metric::Speedup => baseline / value,
            _ => value / baseline,
        }
    }
}

/// Mean and standard deviation of the normalised samples for one
/// (feature value, core count) bar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bar {
    /// Mean normalised value.
    pub mean: f64,
    /// Standard deviation across the paired samples.
    pub std: f64,
    /// Number of samples averaged.
    pub samples: usize,
}

/// Normalised impact of one feature for one application:
/// `bars[(value_label, cores)] → Bar`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FeatureImpact {
    /// Keyed by (feature value label, cores-per-node count).
    pub bars: HashMap<(String, u32), Bar>,
}

impl FeatureImpact {
    /// Bar for a feature value at a core count.
    pub fn bar(&self, value_label: &str, cores: u32) -> Option<Bar> {
        self.bars.get(&(value_label.to_string(), cores)).copied()
    }
}

/// Compute the normalised impact of `feature` on `metric` over one
/// application's results, using `baseline_label` as the denominator
/// value (e.g. `"128bit"` for the SIMD-width study of Fig. 5).
///
/// Results for 1-core configurations are kept but typically plotted
/// separately; the paper shows 32- and 64-core panels.
pub fn feature_impact(
    results: &[ConfigResult],
    feature: Feature,
    metric: Metric,
    baseline_label: &str,
) -> FeatureImpact {
    // Index the baseline runs by their feature-erased key.
    let mut baselines: HashMap<String, f64> = HashMap::new();
    for r in results {
        if feature.value_label(&r.config) == baseline_label {
            baselines.insert(feature.erased_key(&r.config), metric.value(r));
        }
    }

    // Accumulate the ratios.
    let mut acc: HashMap<(String, u32), Vec<f64>> = HashMap::new();
    for r in results {
        let key = feature.erased_key(&r.config);
        let Some(&base) = baselines.get(&key) else {
            continue;
        };
        if base <= 0.0 {
            continue;
        }
        let ratio = metric.ratio(metric.value(r), base);
        acc.entry((feature.value_label(&r.config), r.config.cores.count()))
            .or_default()
            .push(ratio);
    }

    let bars = acc
        .into_iter()
        .map(|(k, v)| {
            let n = v.len();
            let mean = v.iter().sum::<f64>() / n as f64;
            let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
            (
                k,
                Bar {
                    mean,
                    std: var.sqrt(),
                    samples: n,
                },
            )
        })
        .collect();

    FeatureImpact { bars }
}

/// Convenience: bars for the 32- and 64-core panels in the order of a
/// list of value labels, as (label, mean@32, mean@64).
pub fn panel_rows(
    impact: &FeatureImpact,
    labels: &[&str],
) -> Vec<(String, Option<f64>, Option<f64>)> {
    labels
        .iter()
        .map(|&l| {
            (
                l.to_string(),
                impact.bar(l, CoresPerNode::C32.count()).map(|b| b.mean),
                impact.bar(l, CoresPerNode::C64.count()).map(|b| b.mean),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use musa_arch::{DesignSpace, NodeConfig, VectorWidth};
    use musa_power::PowerBreakdown;

    /// Synthetic results: time depends multiplicatively on width and
    /// frequency so the pairing is exactly recoverable.
    fn synthetic() -> Vec<ConfigResult> {
        DesignSpace::iter()
            .map(|config: NodeConfig| {
                let w = match config.vector {
                    VectorWidth::V128 => 1.0,
                    VectorWidth::V256 => 0.8,
                    VectorWidth::V512 => 0.7,
                    _ => 1.0,
                };
                let f = 2.0 / config.freq.ghz();
                ConfigResult {
                    app: "synthetic".into(),
                    config,
                    time_ns: 1000.0 * w * f,
                    region_ns: 100.0 * w * f,
                    power: PowerBreakdown {
                        core_l1_w: 50.0 / w,
                        l2_l3_w: 10.0,
                        mem_w: 8.0,
                    },
                    energy_j: 1000.0 * w * f * (68.0 / w) * 1e-9,
                    l1_mpki: 5.0,
                    l2_mpki: 1.0,
                    l3_mpki: 0.2,
                    mem_mpki: 0.3,
                    gmemreq_per_s: 0.1,
                    mem_stretch: 1.0,
                    region_efficiency: 0.8,
                }
            })
            .collect()
    }

    #[test]
    fn recovers_exact_speedups_and_sample_counts() {
        let results = synthetic();
        let imp = feature_impact(&results, Feature::Vector, Metric::Speedup, "128bit");
        // 864 / 3 widths = 288 per width; split over 3 core counts = 96
        // per (width, cores) — the paper's "96 samples per bar".
        let b = imp.bar("512bit", 64).unwrap();
        assert_eq!(b.samples, 96);
        assert!((b.mean - 1.0 / 0.7).abs() < 1e-9);
        assert!(b.std < 1e-9);
        let base = imp.bar("128bit", 32).unwrap();
        assert!((base.mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn power_ratio_direction() {
        let results = synthetic();
        let imp = feature_impact(&results, Feature::Vector, Metric::PowerCore, "128bit");
        let b = imp.bar("512bit", 32).unwrap();
        assert!((b.mean - 1.0 / 0.7).abs() < 1e-9, "power grew with width");
    }

    #[test]
    fn frequency_speedup_is_linear_in_synthetic_data() {
        let results = synthetic();
        let imp = feature_impact(&results, Feature::Frequency, Metric::Speedup, "1.5GHz");
        let b = imp.bar("3.0GHz", 64).unwrap();
        assert!((b.mean - 2.0).abs() < 1e-9);
    }

    #[test]
    fn panel_rows_order_and_presence() {
        let results = synthetic();
        let imp = feature_impact(&results, Feature::Vector, Metric::Speedup, "128bit");
        let rows = panel_rows(&imp, &["128bit", "256bit", "512bit"]);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.1.is_some() && r.2.is_some()));
        assert_eq!(rows[0].0, "128bit");
    }
}
