//! CPU clock frequencies and the 22 nm voltage model used for power scaling.

/// Explored CPU clock frequencies (Table I): 1.5, 2.0, 2.5, 3.0 GHz.
///
/// TaskSim clocks the whole chip — cores and all cache levels — at this
/// frequency, which we reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Frequency {
    /// 1.5 GHz (normalisation baseline of Figure 9).
    F1_5,
    /// 2.0 GHz (the frequency used for PCA and Table II studies).
    F2_0,
    /// 2.5 GHz.
    F2_5,
    /// 3.0 GHz.
    F3_0,
}

musa_obs::json_enum!(Frequency {
    F1_5,
    F2_0,
    F2_5,
    F3_0
});

impl Frequency {
    /// All frequencies in ascending order.
    pub const ALL: [Frequency; 4] = [
        Frequency::F1_5,
        Frequency::F2_0,
        Frequency::F2_5,
        Frequency::F3_0,
    ];

    /// Frequency in GHz.
    pub const fn ghz(self) -> f64 {
        match self {
            Frequency::F1_5 => 1.5,
            Frequency::F2_0 => 2.0,
            Frequency::F2_5 => 2.5,
            Frequency::F3_0 => 3.0,
        }
    }

    /// Frequency in Hz.
    pub const fn hz(self) -> f64 {
        self.ghz() * 1e9
    }

    /// Cycle time in nanoseconds.
    pub const fn cycle_ns(self) -> f64 {
        1.0 / self.ghz()
    }

    /// Label used in plots.
    pub const fn label(self) -> &'static str {
        match self {
            Frequency::F1_5 => "1.5",
            Frequency::F2_0 => "2.0",
            Frequency::F2_5 => "2.5",
            Frequency::F3_0 => "3.0",
        }
    }
}

impl std::fmt::Display for Frequency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}GHz", self.label())
    }
}

/// 22 nm process voltage/frequency operating points.
///
/// The paper feeds McPAT "adequate voltage parameters to scale up voltage
/// accordingly to 22 nm process technology". We model supply voltage as an
/// affine function of frequency across the explored band, anchored so that
/// going from 1.5 GHz to 3.0 GHz yields the ≈2.5× power increase the paper
/// reports (P ∝ f·V²; 2·(V₃.₀/V₁.₅)² ≈ 2.5 ⇒ V₃.₀/V₁.₅ ≈ 1.12).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageModel {
    /// Supply voltage at the lowest operating point (1.5 GHz), in volts.
    pub v_min: f64,
    /// Supply voltage at the highest operating point (3.0 GHz), in volts.
    pub v_max: f64,
}

impl Default for VoltageModel {
    fn default() -> Self {
        // 22 nm-style operating band: 0.85 V @ 1.5 GHz … 0.95 V @ 3.0 GHz.
        VoltageModel {
            v_min: 0.85,
            v_max: 0.95,
        }
    }
}

impl VoltageModel {
    /// Supply voltage at `freq` (linear interpolation over the band).
    pub fn vdd(&self, freq: Frequency) -> f64 {
        let span = Frequency::F3_0.ghz() - Frequency::F1_5.ghz();
        let t = (freq.ghz() - Frequency::F1_5.ghz()) / span;
        self.v_min + t * (self.v_max - self.v_min)
    }

    /// Dynamic-power scale factor relative to the 1.5 GHz point: f·V² ratio.
    pub fn dynamic_scale(&self, freq: Frequency) -> f64 {
        let base = Frequency::F1_5;
        (freq.ghz() / base.ghz()) * (self.vdd(freq) / self.vdd(base)).powi(2)
    }

    /// Leakage-power scale factor relative to 1.5 GHz (leakage ∝ V).
    pub fn leakage_scale(&self, freq: Frequency) -> f64 {
        self.vdd(freq) / self.vdd(Frequency::F1_5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequencies_match_table1() {
        let ghz: Vec<f64> = Frequency::ALL.iter().map(|f| f.ghz()).collect();
        assert_eq!(ghz, vec![1.5, 2.0, 2.5, 3.0]);
    }

    #[test]
    fn cycle_time_is_inverse() {
        for f in Frequency::ALL {
            assert!((f.cycle_ns() * f.ghz() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn voltage_monotonic_in_frequency() {
        let vm = VoltageModel::default();
        let v: Vec<f64> = Frequency::ALL.iter().map(|&f| vm.vdd(f)).collect();
        assert!(v.windows(2).all(|w| w[0] < w[1]));
        assert!((vm.vdd(Frequency::F1_5) - 0.85).abs() < 1e-12);
        assert!((vm.vdd(Frequency::F3_0) - 0.95).abs() < 1e-12);
    }

    #[test]
    fn dynamic_scale_reproduces_paper_2_5x_band() {
        // Paper §V-B5: 1.5 → 3.0 GHz gives ~2× performance at ~2.5× power.
        let vm = VoltageModel::default();
        let s = vm.dynamic_scale(Frequency::F3_0);
        assert!(s > 2.2 && s < 2.8, "got {s}");
        assert!((vm.dynamic_scale(Frequency::F1_5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn leakage_scale_is_modest() {
        let vm = VoltageModel::default();
        let s = vm.leakage_scale(Frequency::F3_0);
        assert!(s > 1.0 && s < 1.2);
    }
}
