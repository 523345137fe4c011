//! Core out-of-order capability classes (Table I, middle block).

/// The four core pipeline classes explored in the paper.
///
/// From Table I:
///
/// | Label      | ROB | Issue&commit | Store buffer | #ALU/#FPU | IRF/FRF |
/// |------------|-----|--------------|--------------|-----------|---------|
/// | low-end    | 40  | 2            | 20           | 1 / 3     | 30/50   |
/// | medium     | 180 | 4            | 100          | 3 / 3     | 130/70  |
/// | high       | 224 | 6            | 120          | 4 / 3     | 180/100 |
/// | aggressive | 300 | 8            | 150          | 5 / 4     | 210/120 |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CoreClass {
    /// Modest, close to in-order, low-power core (but floating-point capable).
    LowEnd,
    /// Server-class core, lower-mid range.
    Medium,
    /// Server-class core, upper-mid range.
    High,
    /// High-end configuration with 8-wide issue and large buffers.
    Aggressive,
}

musa_obs::json_enum!(CoreClass {
    LowEnd,
    Medium,
    High,
    Aggressive
});

/// Microarchitectural sizing of the out-of-order engine for one [`CoreClass`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OooParams {
    /// Reorder-buffer entries.
    pub rob: u32,
    /// Instructions issued and committed per cycle.
    pub issue_width: u32,
    /// Store-buffer entries.
    pub store_buffer: u32,
    /// Integer ALU count.
    pub alus: u32,
    /// Floating-point unit count.
    pub fpus: u32,
    /// Integer register file entries.
    pub int_rf: u32,
    /// Floating-point register file entries.
    pub fp_rf: u32,
}

impl CoreClass {
    /// All classes in Table I order.
    pub const ALL: [CoreClass; 4] = [
        CoreClass::LowEnd,
        CoreClass::Medium,
        CoreClass::High,
        CoreClass::Aggressive,
    ];

    /// Out-of-order sizing for this class (Table I values).
    pub const fn ooo(self) -> OooParams {
        match self {
            CoreClass::LowEnd => OooParams {
                rob: 40,
                issue_width: 2,
                store_buffer: 20,
                alus: 1,
                fpus: 3,
                int_rf: 30,
                fp_rf: 50,
            },
            CoreClass::Medium => OooParams {
                rob: 180,
                issue_width: 4,
                store_buffer: 100,
                alus: 3,
                fpus: 3,
                int_rf: 130,
                fp_rf: 70,
            },
            CoreClass::High => OooParams {
                rob: 224,
                issue_width: 6,
                store_buffer: 120,
                alus: 4,
                fpus: 3,
                int_rf: 180,
                fp_rf: 100,
            },
            CoreClass::Aggressive => OooParams {
                rob: 300,
                issue_width: 8,
                store_buffer: 150,
                alus: 5,
                fpus: 4,
                int_rf: 210,
                fp_rf: 120,
            },
        }
    }

    /// The label used in the paper's plots.
    pub const fn label(self) -> &'static str {
        match self {
            CoreClass::LowEnd => "lowend",
            CoreClass::Medium => "medium",
            CoreClass::High => "high",
            CoreClass::Aggressive => "aggressive",
        }
    }
}

impl std::fmt::Display for CoreClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values_match_paper() {
        let low = CoreClass::LowEnd.ooo();
        assert_eq!(low.rob, 40);
        assert_eq!(low.issue_width, 2);
        assert_eq!(low.store_buffer, 20);
        assert_eq!((low.alus, low.fpus), (1, 3));
        assert_eq!((low.int_rf, low.fp_rf), (30, 50));

        let med = CoreClass::Medium.ooo();
        assert_eq!(med.rob, 180);
        assert_eq!(med.issue_width, 4);

        let high = CoreClass::High.ooo();
        assert_eq!(high.rob, 224);
        assert_eq!(high.issue_width, 6);
        assert_eq!(high.store_buffer, 120);

        let agg = CoreClass::Aggressive.ooo();
        assert_eq!(agg.rob, 300);
        assert_eq!(agg.issue_width, 8);
        assert_eq!((agg.alus, agg.fpus), (5, 4));
        assert_eq!((agg.int_rf, agg.fp_rf), (210, 120));
    }

    #[test]
    fn classes_are_ordered_by_capability() {
        // PartialOrd derives in declaration order; declaration follows
        // increasing capability so comparisons read naturally.
        assert!(CoreClass::LowEnd < CoreClass::Medium);
        assert!(CoreClass::Medium < CoreClass::High);
        assert!(CoreClass::High < CoreClass::Aggressive);
        let mut robs: Vec<u32> = CoreClass::ALL.iter().map(|c| c.ooo().rob).collect();
        let sorted = robs.clone();
        robs.sort_unstable();
        assert_eq!(robs, sorted, "ROB sizes grow with class");
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            CoreClass::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn display_matches_label() {
        for c in CoreClass::ALL {
            assert_eq!(format!("{c}"), c.label());
        }
    }
}
