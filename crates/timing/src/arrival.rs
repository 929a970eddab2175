//! Rise/fall arrival times and the linear delay model arcs. A pin's
//! [`Unateness`] is a property of its gate, computed once when the gate
//! is built ([`lily_cells::Gate::unateness`]).

use lily_cells::Pin;
pub use lily_cells::Unateness;

/// A rise/fall arrival-time pair, ns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Arrival of the rising transition.
    pub rise: f64,
    /// Arrival of the falling transition.
    pub fall: f64,
}

impl Arrival {
    /// Arrival at time zero (primary inputs).
    pub const ZERO: Arrival = Arrival { rise: 0.0, fall: 0.0 };

    /// The identity for [`Arrival::max`]: minus infinity on both edges.
    pub const NEG_INF: Arrival = Arrival { rise: f64::NEG_INFINITY, fall: f64::NEG_INFINITY };

    /// Creates an arrival pair.
    pub fn new(rise: f64, fall: f64) -> Self {
        Self { rise, fall }
    }

    /// Edge-wise maximum (worst case over converging paths).
    #[must_use]
    pub fn max(self, other: Arrival) -> Arrival {
        Arrival { rise: self.rise.max(other.rise), fall: self.fall.max(other.fall) }
    }

    /// The worst of the two edges — the scalar "arrival time" the
    /// paper's tables report.
    pub fn worst(self) -> f64 {
        self.rise.max(self.fall)
    }

    /// The raw bit patterns of both edges, for bit-exact comparison.
    pub fn to_bits(self) -> (u64, u64) {
        (self.rise.to_bits(), self.fall.to_bits())
    }

    /// Adds a constant to both edges.
    #[must_use]
    pub fn offset(self, dt: f64) -> Arrival {
        Arrival { rise: self.rise + dt, fall: self.fall + dt }
    }
}

impl Default for Arrival {
    fn default() -> Self {
        Arrival::ZERO
    }
}

/// Block arrival time at a gate output through one pin: the
/// load-independent part `b_i = t_i + I_i`, with the rise/fall crossing
/// dictated by the pin's unateness (paper §4.3: "LIs have zero output
/// resistance").
pub fn block_arrival(input: Arrival, pin: &Pin, unate: Unateness) -> Arrival {
    let d = &pin.delay;
    // Candidate output-rise sources: input rise (non-inverting arc) and
    // input fall (inverting arc).
    let rise_noninv = input.rise + d.intrinsic_rise;
    let rise_inv = input.fall + d.intrinsic_rise;
    let fall_noninv = input.fall + d.intrinsic_fall;
    let fall_inv = input.rise + d.intrinsic_fall;
    match unate {
        Unateness::Positive => Arrival::new(rise_noninv, fall_noninv),
        Unateness::Negative => Arrival::new(rise_inv, fall_inv),
        Unateness::Binate => Arrival::new(rise_noninv.max(rise_inv), fall_noninv.max(fall_inv)),
    }
}

/// Load-dependent completion: `b_i + R_i·C_L` on each edge (paper §4.3:
/// "LD has zero intrinsic delay … only the `R_i·C_L` part has to be
/// redone for different loads").
pub fn ld_arrival(block: Arrival, pin: &Pin, load_pf: f64) -> Arrival {
    Arrival::new(
        block.rise + pin.delay.resistance_rise * load_pf,
        block.fall + pin.delay.resistance_fall * load_pf,
    )
}

/// One-step propagation through a pin: `t_y = t_i + I_i + R_i·C_L`
/// (the composition of [`block_arrival`] and [`ld_arrival`]).
pub fn propagate(input: Arrival, pin: &Pin, unate: Unateness, load_pf: f64) -> Arrival {
    ld_arrival(block_arrival(input, pin, unate), pin, load_pf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lily_cells::gate::unateness;
    use lily_cells::DelayParams;
    use lily_netlist::TruthTable;

    fn pin(intrinsic: f64, resistance: f64) -> Pin {
        Pin {
            name: "a".into(),
            capacitance: 0.25,
            delay: DelayParams::symmetric(intrinsic, resistance),
        }
    }

    #[test]
    fn arrival_algebra() {
        let a = Arrival::new(1.0, 3.0);
        let b = Arrival::new(2.0, 1.0);
        assert_eq!(a.max(b), Arrival::new(2.0, 3.0));
        assert_eq!(a.worst(), 3.0);
        assert_eq!(a.offset(1.0), Arrival::new(2.0, 4.0));
        assert_eq!(Arrival::NEG_INF.max(a), a);
    }

    #[test]
    fn unateness_of_common_gates() {
        let and2 = TruthTable::from_fn(2, |r| r == 3);
        let nand2 = and2.not();
        let xor2 = TruthTable::from_fn(2, |r| r.count_ones() % 2 == 1);
        assert_eq!(unateness(and2, 0), Unateness::Positive);
        assert_eq!(unateness(nand2, 0), Unateness::Negative);
        assert_eq!(unateness(xor2, 0), Unateness::Binate);
        assert_eq!(unateness(xor2, 1), Unateness::Binate);
        // AOI21 = !(ab + c): all pins negative.
        let aoi = TruthTable::from_fn(3, |r| {
            let (a, b, c) = (r & 1 == 1, r >> 1 & 1 == 1, r >> 2 & 1 == 1);
            !((a && b) || c)
        });
        for p in 0..3 {
            assert_eq!(unateness(aoi, p), Unateness::Negative, "pin {p}");
        }
    }

    #[test]
    fn inverting_arc_crosses_edges() {
        let p = pin(1.0, 2.0);
        let input = Arrival::new(5.0, 3.0);
        let out = propagate(input, &p, Unateness::Negative, 0.5);
        // Output rise from input fall: 3 + 1 + 2*0.5 = 5.
        assert!((out.rise - 5.0).abs() < 1e-12);
        // Output fall from input rise: 5 + 1 + 1 = 7.
        assert!((out.fall - 7.0).abs() < 1e-12);
    }

    #[test]
    fn binate_takes_worst_of_both_arcs() {
        let p = pin(1.0, 0.0);
        let input = Arrival::new(5.0, 3.0);
        let out = propagate(input, &p, Unateness::Binate, 0.0);
        assert!((out.rise - 6.0).abs() < 1e-12); // from the later (rise) edge
        assert!((out.fall - 6.0).abs() < 1e-12);
    }

    #[test]
    fn block_plus_ld_equals_propagate() {
        let p = pin(0.7, 1.3);
        let input = Arrival::new(2.0, 4.0);
        for unate in [Unateness::Positive, Unateness::Negative, Unateness::Binate] {
            let direct = propagate(input, &p, unate, 0.8);
            let split = ld_arrival(block_arrival(input, &p, unate), &p, 0.8);
            assert_eq!(direct, split);
        }
    }

    #[test]
    fn load_only_affects_ld_part() {
        let p = pin(1.0, 2.0);
        let b = block_arrival(Arrival::ZERO, &p, Unateness::Negative);
        let light = ld_arrival(b, &p, 0.1);
        let heavy = ld_arrival(b, &p, 1.0);
        assert!((heavy.rise - light.rise - 2.0 * 0.9).abs() < 1e-12);
    }
}
