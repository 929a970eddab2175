//! Library gates and their linear delay model.
//!
//! Section 4.1 of the paper: the delay through a gate from input `i` is
//! `t_y = t_i + I_i + R_i·C_L`, with separate rise and fall values for
//! the intrinsic delay `I_i` and output resistance `R_i`. Each input pin
//! also presents a capacitance used to compute the load `C_L` of its
//! driver, and each has a fixed [`Unateness`] that decides how the
//! rise and fall edges cross it.

use crate::pattern::{same_as_earlier, PatternGraph};
use lily_netlist::TruthTable;

/// Index of a gate within a [`crate::Library`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(pub(crate) u32);

impl GateId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Constructs from a raw index.
    pub fn from_index(i: usize) -> Self {
        Self(i as u32)
    }
}

/// Rise/fall pair of the linear delay model parameters for one pin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayParams {
    /// Intrinsic delay, rise / fall, ns.
    pub intrinsic_rise: f64,
    /// Intrinsic delay for a falling output, ns.
    pub intrinsic_fall: f64,
    /// Output resistance seen from this pin for a rising output, kΩ
    /// (multiplied by a pF load, yields ns).
    pub resistance_rise: f64,
    /// Output resistance for a falling output, kΩ.
    pub resistance_fall: f64,
}

impl DelayParams {
    /// A symmetric rise/fall parameter set.
    pub fn symmetric(intrinsic: f64, resistance: f64) -> Self {
        Self {
            intrinsic_rise: intrinsic,
            intrinsic_fall: intrinsic,
            resistance_rise: resistance,
            resistance_fall: resistance,
        }
    }

    /// Worst-case intrinsic delay.
    pub fn intrinsic_max(&self) -> f64 {
        self.intrinsic_rise.max(self.intrinsic_fall)
    }

    /// Worst-case output resistance.
    pub fn resistance_max(&self) -> f64 {
        self.resistance_rise.max(self.resistance_fall)
    }

    /// Scales all parameters (used by [`crate::Technology::scaled`]-style
    /// library scaling).
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        Self {
            intrinsic_rise: self.intrinsic_rise * factor,
            intrinsic_fall: self.intrinsic_fall * factor,
            resistance_rise: self.resistance_rise * factor,
            resistance_fall: self.resistance_fall * factor,
        }
    }
}

/// How a gate output responds to one input pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Unateness {
    /// Output never falls when the input rises (AND/OR pins).
    Positive,
    /// Output never rises when the input rises (NAND/NOR/INV pins).
    Negative,
    /// Both polarities occur (XOR pins).
    Binate,
}

/// Determines the unateness of `pin` in `function` by scanning all
/// cofactor pairs. A [`Gate`] runs this once per pin when it is built;
/// read [`Gate::unateness`] instead of rescanning.
///
/// # Panics
///
/// Panics if `pin` is out of range.
pub fn unateness(function: TruthTable, pin: usize) -> Unateness {
    assert!(pin < function.inputs(), "pin out of range");
    let n = function.inputs();
    let stride = 1u64 << pin;
    let mut saw_pos = false;
    let mut saw_neg = false;
    for row in 0..(1u64 << n) {
        if row & stride != 0 {
            continue;
        }
        let lo = (function.bits() >> row) & 1;
        let hi = (function.bits() >> (row | stride)) & 1;
        if lo == 0 && hi == 1 {
            saw_pos = true;
        }
        if lo == 1 && hi == 0 {
            saw_neg = true;
        }
    }
    match (saw_pos, saw_neg) {
        (true, true) => Unateness::Binate,
        (false, true) => Unateness::Negative,
        // A pin with no observable effect is treated as positive; it
        // never determines the arrival anyway.
        _ => Unateness::Positive,
    }
}

/// One input pin of a gate.
#[derive(Debug, Clone, PartialEq)]
pub struct Pin {
    /// Pin name (`a`, `b`, …).
    pub name: String,
    /// Input capacitance, pF.
    pub capacitance: f64,
    /// Pin-to-output delay parameters.
    pub delay: DelayParams,
}

/// One library gate: function, layout area, pins, and pattern graphs.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    name: String,
    function: TruthTable,
    area: f64,
    grids: usize,
    pins: Vec<Pin>,
    /// Each pin's unateness in `function`, computed once.
    unate: Vec<Unateness>,
    patterns: Vec<PatternGraph>,
    /// Whether an earlier pattern is the same tree up to operand order,
    /// per pattern.
    same_as_earlier: Vec<bool>,
}

impl Gate {
    /// Assembles a gate, deriving its truth function from the first
    /// pattern graph and verifying all patterns agree.
    ///
    /// # Panics
    ///
    /// Panics if `patterns` is empty, if pin counts disagree, or if two
    /// patterns compute different functions — all library construction
    /// bugs.
    pub fn new(
        name: impl Into<String>,
        area: f64,
        grids: usize,
        pins: Vec<Pin>,
        patterns: Vec<PatternGraph>,
    ) -> Self {
        let name = name.into();
        assert!(!patterns.is_empty(), "gate `{name}` needs at least one pattern");
        for p in &patterns {
            assert_eq!(p.pins(), pins.len(), "gate `{name}`: pattern/pin count mismatch");
        }
        let function = TruthTable::from_fn(pins.len(), |row| {
            let vals: Vec<bool> = (0..pins.len()).map(|b| (row >> b) & 1 == 1).collect();
            patterns[0].eval(&vals)
        });
        for p in &patterns[1..] {
            let f = TruthTable::from_fn(pins.len(), |row| {
                let vals: Vec<bool> = (0..pins.len()).map(|b| (row >> b) & 1 == 1).collect();
                p.eval(&vals)
            });
            assert_eq!(f, function, "gate `{name}`: patterns disagree on the function");
        }
        let unate = (0..pins.len()).map(|pin| unateness(function, pin)).collect();
        let same_as_earlier = same_as_earlier(&patterns);
        Self { name, function, area, grids, pins, unate, patterns, same_as_earlier }
    }

    /// The gate name (`nand3`, `aoi22`, …).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Logic function over the pins (pin 0 is table input 0).
    pub fn function(&self) -> TruthTable {
        self.function
    }

    /// Layout area, µm².
    pub fn area(&self) -> f64 {
        self.area
    }

    /// Cell width in layout grids.
    pub fn grids(&self) -> usize {
        self.grids
    }

    /// Input pins.
    pub fn pins(&self) -> &[Pin] {
        &self.pins
    }

    /// How the output responds to `pin`: [`unateness`] of the gate
    /// function, computed when the gate was built.
    ///
    /// # Panics
    ///
    /// Panics if `pin` is out of range.
    pub fn unateness(&self, pin: usize) -> Unateness {
        self.unate[pin]
    }

    /// Number of input pins.
    pub fn fanin(&self) -> usize {
        self.pins.len()
    }

    /// All pattern graphs.
    pub fn patterns(&self) -> &[PatternGraph] {
        &self.patterns
    }

    /// Whether an earlier pattern of this gate is the same tree as
    /// pattern `pattern` up to the order of NAND2 operands
    /// ([`same_as_earlier`], run when the gate was built). Only then can
    /// a match of it that binds no node twice repeat an earlier
    /// pattern's match.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is out of range.
    pub fn pattern_same_as_earlier(&self, pattern: usize) -> bool {
        self.same_as_earlier[pattern]
    }

    /// Worst-case intrinsic delay over all pins, ns.
    pub fn intrinsic_max(&self) -> f64 {
        self.pins.iter().map(|p| p.delay.intrinsic_max()).fold(0.0, f64::max)
    }

    /// Worst-case output resistance over all pins, kΩ.
    pub fn resistance_max(&self) -> f64 {
        self.pins.iter().map(|p| p.delay.resistance_max()).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{inv_pattern, nand_patterns};
    use crate::technology::Technology;

    fn pin(name: &str) -> Pin {
        Pin {
            name: name.into(),
            capacitance: Technology::mcnc_3u().pin_cap,
            delay: DelayParams::symmetric(1.0, 2.0),
        }
    }

    #[test]
    fn gate_derives_function_from_patterns() {
        let g = Gate::new("nand2", 3600.0, 3, vec![pin("a"), pin("b")], nand_patterns(2));
        assert_eq!(g.function().bits(), 0b0111);
        assert_eq!(g.fanin(), 2);
        assert_eq!(g.name(), "nand2");
    }

    #[test]
    fn inverter_gate() {
        let g = Gate::new("inv", 2400.0, 2, vec![pin("a")], inv_pattern());
        assert_eq!(g.function().bits(), 0b01);
        assert!((g.intrinsic_max() - 1.0).abs() < 1e-12);
        assert!((g.resistance_max() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn multi_shape_gate_patterns_agree() {
        // nand4 has two shapes; construction validates agreement.
        let pins = vec![pin("a"), pin("b"), pin("c"), pin("d")];
        let g = Gate::new("nand4", 6000.0, 5, pins, nand_patterns(4));
        assert_eq!(g.patterns().len(), 2);
    }

    #[test]
    #[should_panic(expected = "pattern/pin count mismatch")]
    fn pin_count_mismatch_panics() {
        let _ = Gate::new("bad", 1.0, 1, vec![pin("a")], nand_patterns(2));
    }

    #[test]
    fn delay_params_scaling() {
        let d = DelayParams::symmetric(3.0, 6.0).scaled(1.0 / 3.0);
        assert!((d.intrinsic_rise - 1.0).abs() < 1e-12);
        assert!((d.resistance_fall - 2.0).abs() < 1e-12);
    }
}
