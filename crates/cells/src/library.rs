//! Gate libraries: named collections of [`Gate`]s with a designated
//! inverter and shared [`Technology`] parameters.
//!
//! Section 5 of the paper compares mapping with a *tiny* library (gates
//! up to 3 inputs) against a *big* library (gates up to 6 inputs):
//! *"The big library has much smaller active cell area, but its routing
//! complexity is high."* [`Library::tiny`] and [`Library::big`]
//! reproduce those two operating points.

use crate::error::LibraryError;
use crate::gate::{Gate, GateId};
use crate::kinds::GateKind;
use crate::npn::NpnIndex;
use crate::technology::Technology;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// A technology-mapping target library.
///
/// ```
/// use lily_cells::Library;
/// let lib = Library::big();
/// assert!(lib.max_fanin() == 6);
/// let inv = lib.gate(lib.inverter());
/// assert_eq!(inv.name(), "inv");
/// ```
#[derive(Debug, Clone)]
pub struct Library {
    name: String,
    gates: Vec<Gate>,
    by_name: BTreeMap<String, GateId>,
    inverter: GateId,
    technology: Technology,
    /// The NPN/permutation match index over the gate functions,
    /// computed once per built library on first use (cut-based mappers
    /// and the serve-cache fingerprint probe it; structural matching
    /// never touches it). Cloning a library shares the built index.
    npn: OnceLock<Arc<NpnIndex>>,
}

impl Library {
    /// Builds a library from gate kinds. The list must contain
    /// [`GateKind::Inv`], which becomes the designated inverter.
    ///
    /// # Panics
    ///
    /// Panics if the kinds contain no inverter or duplicate names (the
    /// built-in kind lists are statically well-formed; use
    /// [`Library::try_from_gates`] for external gate data).
    pub fn from_kinds(name: impl Into<String>, kinds: &[GateKind], technology: Technology) -> Self {
        let gates: Vec<Gate> = kinds.iter().map(|k| k.build(&technology)).collect();
        match Self::try_from_gates(name, gates, technology) {
            Ok(lib) => lib,
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds a library from pre-constructed gates (used by the genlib
    /// reader).
    ///
    /// # Panics
    ///
    /// Panics where [`Library::try_from_gates`] errors; prefer that for
    /// gate data read from external sources.
    pub fn from_gates(name: impl Into<String>, gates: Vec<Gate>, technology: Technology) -> Self {
        match Self::try_from_gates(name, gates, technology) {
            Ok(lib) => lib,
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds a library from pre-constructed gates, rejecting malformed
    /// input with a structured error instead of panicking.
    ///
    /// The designated inverter is the first 1-input gate computing `!a`.
    ///
    /// # Errors
    ///
    /// * [`LibraryError::DuplicateGate`] — two gates share a name.
    /// * [`LibraryError::NoInverter`] — no 1-input `!a` gate present.
    /// * [`LibraryError::InvalidGate`] — a gate has a zero, negative or
    ///   non-finite area, pin capacitance, or delay coefficient.
    /// * [`LibraryError::InvalidTechnology`] — a negative or non-finite
    ///   `cap_h`, `cap_v` or `pin_cap`.
    pub fn try_from_gates(
        name: impl Into<String>,
        gates: Vec<Gate>,
        technology: Technology,
    ) -> Result<Self, LibraryError> {
        validate_technology(&technology)?;
        let mut by_name = BTreeMap::new();
        let mut inverter = None;
        for (i, gate) in gates.iter().enumerate() {
            validate_gate(gate)?;
            if by_name.insert(gate.name().to_string(), GateId(i as u32)).is_some() {
                return Err(LibraryError::DuplicateGate { name: gate.name().to_string() });
            }
            if inverter.is_none() && gate.fanin() == 1 && gate.function().bits() == 0b01 {
                inverter = Some(GateId(i as u32));
            }
        }
        let inverter = inverter.ok_or(LibraryError::NoInverter)?;
        Ok(Self { name: name.into(), gates, by_name, inverter, technology, npn: OnceLock::new() })
    }

    /// The tiny library of Section 5: gates up to 3 inputs.
    pub fn tiny() -> Self {
        Self::from_kinds(
            "tiny",
            &[
                GateKind::Inv,
                GateKind::Nand(2),
                GateKind::Nand(3),
                GateKind::Nor(2),
                GateKind::Nor(3),
                GateKind::And(2),
                GateKind::Or(2),
                GateKind::Xor2,
                GateKind::Xnor2,
                GateKind::Aoi(vec![2, 1]),
                GateKind::Oai(vec![2, 1]),
            ],
            Technology::mcnc_3u(),
        )
    }

    /// The big library of Section 5: gates up to 6 inputs.
    pub fn big() -> Self {
        Self::from_kinds(
            "big",
            &[
                GateKind::Inv,
                GateKind::Nand(2),
                GateKind::Nand(3),
                GateKind::Nand(4),
                GateKind::Nand(5),
                GateKind::Nand(6),
                GateKind::Nor(2),
                GateKind::Nor(3),
                GateKind::Nor(4),
                GateKind::Nor(5),
                GateKind::Nor(6),
                GateKind::And(2),
                GateKind::And(3),
                GateKind::And(4),
                GateKind::Or(2),
                GateKind::Or(3),
                GateKind::Or(4),
                GateKind::Xor2,
                GateKind::Xnor2,
                GateKind::Aoi(vec![2, 1]),
                GateKind::Aoi(vec![2, 2]),
                GateKind::Aoi(vec![2, 2, 1]),
                GateKind::Aoi(vec![2, 2, 2]),
                GateKind::Oai(vec![2, 1]),
                GateKind::Oai(vec![2, 2]),
                GateKind::Oai(vec![2, 2, 1]),
                GateKind::Oai(vec![2, 2, 2]),
            ],
            Technology::mcnc_3u(),
        )
    }

    /// The big library extended with double-drive (`_x2`) variants of
    /// every gate: ~1.5× area, half the output resistance, 1.8× the pin
    /// capacitance. Delay-mode mapping picks them up under heavy loads;
    /// area mode ignores them.
    pub fn big_sized() -> Self {
        let base = Self::big();
        let mut gates = base.gates.clone();
        for g in base.gates() {
            let pins = g
                .pins()
                .iter()
                .map(|p| crate::gate::Pin {
                    name: p.name.clone(),
                    capacitance: p.capacitance * 1.8,
                    delay: crate::gate::DelayParams {
                        intrinsic_rise: p.delay.intrinsic_rise,
                        intrinsic_fall: p.delay.intrinsic_fall,
                        resistance_rise: p.delay.resistance_rise / 2.0,
                        resistance_fall: p.delay.resistance_fall / 2.0,
                    },
                })
                .collect();
            gates.push(Gate::new(
                format!("{}_x2", g.name()),
                g.area() * 1.5,
                g.grids() + (g.grids() / 2).max(1),
                pins,
                g.patterns().to_vec(),
            ));
        }
        let mut lib = Self::from_gates("big-sized", gates, base.technology);
        // Keep the unit-drive inverter designated.
        lib.inverter = base.inverter;
        lib
    }

    /// The big library scaled to the 1µ process (Table 2's setup: the
    /// paper scaled the delay, gate capacitance and wiring capacitance
    /// of the 3µ technology). Areas are left in 3µ units so Table 2's
    /// area column stays comparable to Table 1, as in the paper.
    pub fn big_1u() -> Self {
        Self::big().delay_scaled(1.0 / 3.0)
    }

    /// A copy with every delay parameter and capacitance scaled by
    /// `factor` (area untouched).
    ///
    /// # Panics
    ///
    /// Panics where [`Library::try_from_gates`] rejects the scaled
    /// parameters: a `factor` that is not finite and positive.
    #[must_use]
    pub fn delay_scaled(&self, factor: f64) -> Self {
        let technology = Technology {
            cap_h: self.technology.cap_h * factor,
            cap_v: self.technology.cap_v * factor,
            pin_cap: self.technology.pin_cap * factor,
            ..self.technology
        };
        let gates = self
            .gates
            .iter()
            .map(|g| {
                let pins = g
                    .pins()
                    .iter()
                    .map(|p| crate::gate::Pin {
                        name: p.name.clone(),
                        capacitance: p.capacitance * factor,
                        delay: p.delay.scaled(factor),
                    })
                    .collect();
                Gate::new(g.name(), g.area(), g.grids(), pins, g.patterns().to_vec())
            })
            .collect();
        let mut out = Self::from_gates(format!("{}-scaled", self.name), gates, technology);
        out.inverter = self.inverter;
        out
    }

    /// The library name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All gates.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Looks up a gate by id.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Looks up a gate id by name.
    pub fn find(&self, name: &str) -> Option<GateId> {
        self.by_name.get(name).copied()
    }

    /// The designated inverter gate.
    pub fn inverter(&self) -> GateId {
        self.inverter
    }

    /// Shared technology parameters.
    pub fn technology(&self) -> &Technology {
        &self.technology
    }

    /// Number of gates.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether the library is empty (never true for built-ins).
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Iterator over `(GateId, &Gate)`.
    pub fn iter(&self) -> impl Iterator<Item = (GateId, &Gate)> {
        self.gates.iter().enumerate().map(|(i, g)| (GateId(i as u32), g))
    }

    /// Largest pin count in the library.
    pub fn max_fanin(&self) -> usize {
        self.gates.iter().map(Gate::fanin).max().unwrap_or(0)
    }

    /// Total number of pattern graphs (a matching-cost statistic).
    pub fn pattern_count(&self) -> usize {
        self.gates.iter().map(|g| g.patterns().len()).sum()
    }

    /// The NPN/permutation match index over this library's gate
    /// functions, built on first call and cached for the library's
    /// lifetime (clones share it). Structural matchers never pay for
    /// it; [`crate::npn::NpnIndex`] documents what it answers.
    pub fn npn(&self) -> &NpnIndex {
        self.npn.get_or_init(|| Arc::new(NpnIndex::build(self)))
    }
}

/// Checks the parasitics every load is summed from: a negative or
/// non-finite one would let a load shrink as wire or sinks are added.
fn validate_technology(t: &Technology) -> Result<(), LibraryError> {
    for (what, v) in [("cap_h", t.cap_h), ("cap_v", t.cap_v), ("pin_cap", t.pin_cap)] {
        if !(v.is_finite() && v >= 0.0) {
            return Err(LibraryError::InvalidTechnology {
                message: format!("{what} must be finite and non-negative, got {v}"),
            });
        }
    }
    Ok(())
}

/// Checks one gate's numeric parameters: a zero/negative/non-finite
/// area, pin capacitance or delay coefficient would poison area
/// accounting, load computation or arrival times downstream.
fn validate_gate(gate: &Gate) -> Result<(), LibraryError> {
    let bad =
        |message: String| LibraryError::InvalidGate { gate: gate.name().to_string(), message };
    if !(gate.area().is_finite() && gate.area() > 0.0) {
        return Err(bad(format!("area must be finite and positive, got {}", gate.area())));
    }
    for pin in gate.pins() {
        if !(pin.capacitance.is_finite() && pin.capacitance > 0.0) {
            return Err(bad(format!(
                "pin `{}` capacitance must be finite and positive, got {}",
                pin.name, pin.capacitance
            )));
        }
        for (what, v) in [
            ("intrinsic_rise", pin.delay.intrinsic_rise),
            ("intrinsic_fall", pin.delay.intrinsic_fall),
            ("resistance_rise", pin.delay.resistance_rise),
            ("resistance_fall", pin.delay.resistance_fall),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(bad(format!(
                    "pin `{}` {what} must be finite and non-negative, got {v}",
                    pin.name
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_library_caps_fanin_at_three() {
        let lib = Library::tiny();
        assert_eq!(lib.max_fanin(), 3);
        assert!(lib.find("nand3").is_some());
        assert!(lib.find("nand4").is_none());
    }

    #[test]
    fn big_library_caps_fanin_at_six() {
        let lib = Library::big();
        assert_eq!(lib.max_fanin(), 6);
        assert!(lib.find("nand6").is_some());
        assert!(lib.find("aoi222").is_some());
        assert!(lib.len() > Library::tiny().len());
    }

    #[test]
    fn inverter_is_designated() {
        let lib = Library::tiny();
        assert_eq!(lib.gate(lib.inverter()).name(), "inv");
        assert_eq!(lib.gate(lib.inverter()).fanin(), 1);
    }

    #[test]
    fn every_gate_function_matches_all_its_patterns() {
        // Gate::new already validates; this exercises the whole library.
        for lib in [Library::tiny(), Library::big()] {
            for (_, g) in lib.iter() {
                for p in g.patterns() {
                    let mut vals = vec![false; g.fanin()];
                    for row in 0..(1u32 << g.fanin()) {
                        for (b, v) in vals.iter_mut().enumerate() {
                            *v = (row >> b) & 1 == 1;
                        }
                        assert_eq!(
                            p.eval(&vals),
                            g.function().eval(&vals),
                            "{} pattern {}",
                            g.name(),
                            p.root()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn delay_scaling_leaves_area() {
        let big = Library::big();
        let one = Library::big_1u();
        let g3 = big.find("nand3").unwrap();
        let g1 = one.find("nand3").unwrap();
        assert!((big.gate(g3).area() - one.gate(g1).area()).abs() < 1e-9);
        let p3 = &big.gate(g3).pins()[0];
        let p1 = &one.gate(g1).pins()[0];
        assert!((p1.capacitance * 3.0 - p3.capacitance).abs() < 1e-9);
        assert!((p1.delay.intrinsic_rise * 3.0 - p3.delay.intrinsic_rise).abs() < 1e-9);
    }

    #[test]
    fn zero_area_gate_is_rejected() {
        let tech = Technology::mcnc_3u();
        let mut gates = Library::tiny().gates().to_vec();
        let g = &gates[1];
        gates[1] = Gate::new(g.name(), 0.0, g.grids(), g.pins().to_vec(), g.patterns().to_vec());
        let err = Library::try_from_gates("bad", gates, tech).unwrap_err();
        assert!(
            matches!(&err, LibraryError::InvalidGate { message, .. } if message.contains("area")),
            "{err}"
        );
    }

    #[test]
    fn zero_pin_cap_gate_is_rejected() {
        let tech = Technology::mcnc_3u();
        let mut gates = Library::tiny().gates().to_vec();
        let g = gates[2].clone();
        let mut pins = g.pins().to_vec();
        pins[0].capacitance = 0.0;
        gates[2] = Gate::new(g.name(), g.area(), g.grids(), pins, g.patterns().to_vec());
        let err = Library::try_from_gates("bad", gates, tech).unwrap_err();
        assert!(
            matches!(&err, LibraryError::InvalidGate { message, .. }
                if message.contains("capacitance")),
            "{err}"
        );
    }

    #[test]
    fn nan_delay_gate_is_rejected() {
        let tech = Technology::mcnc_3u();
        let mut gates = Library::tiny().gates().to_vec();
        let g = gates[0].clone();
        let mut pins = g.pins().to_vec();
        pins[0].delay.intrinsic_rise = f64::NAN;
        gates[0] = Gate::new(g.name(), g.area(), g.grids(), pins, g.patterns().to_vec());
        let err = Library::try_from_gates("bad", gates, tech).unwrap_err();
        assert!(matches!(err, LibraryError::InvalidGate { .. }), "{err}");
    }

    #[test]
    fn negative_or_non_finite_parasitics_are_rejected() {
        let gates = Library::tiny().gates().to_vec();
        let zero = Technology { cap_h: 0.0, cap_v: 0.0, pin_cap: 0.0, ..Technology::mcnc_3u() };
        assert!(Library::try_from_gates("zero", gates.clone(), zero).is_ok(), "zero is allowed");
        for what in ["cap_h", "cap_v", "pin_cap"] {
            for v in [-1e-6, f64::NAN, f64::INFINITY] {
                let mut tech = Technology::mcnc_3u();
                match what {
                    "cap_h" => tech.cap_h = v,
                    "cap_v" => tech.cap_v = v,
                    _ => tech.pin_cap = v,
                }
                let err = Library::try_from_gates("bad", gates.clone(), tech).unwrap_err();
                assert!(
                    matches!(&err, LibraryError::InvalidTechnology { message }
                        if message.starts_with(what)),
                    "{what} = {v}: {err}"
                );
            }
        }
    }

    #[test]
    fn duplicate_and_missing_inverter_are_structured_errors() {
        let tech = Technology::mcnc_3u();
        let base = Library::tiny();
        let mut gates = base.gates().to_vec();
        gates.push(gates[0].clone());
        assert!(matches!(
            Library::try_from_gates("dup", gates, tech).unwrap_err(),
            LibraryError::DuplicateGate { .. }
        ));
        let no_inv: Vec<Gate> = base.gates().iter().filter(|g| g.fanin() != 1).cloned().collect();
        assert!(matches!(
            Library::try_from_gates("noinv", no_inv, tech).unwrap_err(),
            LibraryError::NoInverter
        ));
    }

    #[test]
    fn big_has_more_patterns_than_gates() {
        let lib = Library::big();
        assert!(lib.pattern_count() > lib.len(), "wide gates carry multiple shapes");
    }
}
