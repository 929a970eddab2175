//! Logic function representations: truth tables, sums of products, and the
//! node-function enumeration used by [`crate::Network`].

use crate::error::NetlistError;
use std::fmt;

/// Maximum number of inputs a [`TruthTable`] supports (the table fits in a
/// `u64`). Library gates in this reproduction never exceed 6 inputs, which
/// matches the "big" library of the paper.
pub const MAX_TT_INPUTS: usize = 6;

/// Per adjacent variable pair `(j, j + 1)`: the rows the pair leaves in
/// place (both bits equal), the rows with only `j` set, and the rows with
/// only `j + 1` set. A swap moves the second group up by `2^j` rows and
/// the third down by as much.
const SWAP_MASKS: [[u64; 3]; MAX_TT_INPUTS - 1] = [
    [0x9999_9999_9999_9999, 0x2222_2222_2222_2222, 0x4444_4444_4444_4444],
    [0xc3c3_c3c3_c3c3_c3c3, 0x0c0c_0c0c_0c0c_0c0c, 0x3030_3030_3030_3030],
    [0xf00f_f00f_f00f_f00f, 0x00f0_00f0_00f0_00f0, 0x0f00_0f00_0f00_0f00],
    [0xff00_00ff_ff00_00ff, 0x0000_ff00_0000_ff00, 0x00ff_0000_00ff_0000],
    [0xffff_0000_0000_ffff, 0x0000_0000_ffff_0000, 0x0000_ffff_0000_0000],
];

/// Per variable `i`: the rows where `i` is clear (the negative cofactor).
const CLEAR_ROWS: [u64; MAX_TT_INPUTS] = [
    0x5555_5555_5555_5555,
    0x3333_3333_3333_3333,
    0x0f0f_0f0f_0f0f_0f0f,
    0x00ff_00ff_00ff_00ff,
    0x0000_ffff_0000_ffff,
    0x0000_0000_ffff_ffff,
];

/// Exchanges variables `j` and `j + 1` of a raw 64-row table.
fn swap_bits(bits: u64, j: usize) -> u64 {
    let [keep, up, down] = SWAP_MASKS[j];
    let shift = 1u32 << j;
    (bits & keep) | ((bits & up) << shift) | ((bits & down) >> shift)
}

/// A complete truth table over at most [`MAX_TT_INPUTS`] variables.
///
/// Bit `i` of [`TruthTable::bits`] holds the function value on the input
/// assignment whose binary encoding is `i` (input 0 is the least
/// significant bit of the row index).
///
/// ```
/// use lily_netlist::TruthTable;
/// let and2 = TruthTable::from_fn(2, |row| row == 0b11);
/// assert!(and2.eval(&[true, true]));
/// assert!(!and2.eval(&[true, false]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TruthTable {
    inputs: usize,
    bits: u64,
}

impl TruthTable {
    /// Creates a table from raw bits. Bits above the `2^inputs` rows are
    /// masked off.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::TooManyInputs`] when `inputs` exceeds
    /// [`MAX_TT_INPUTS`].
    pub fn new(inputs: usize, bits: u64) -> Result<Self, NetlistError> {
        if inputs > MAX_TT_INPUTS {
            return Err(NetlistError::TooManyInputs { got: inputs, max: MAX_TT_INPUTS });
        }
        Ok(Self { inputs, bits: bits & Self::mask(inputs) })
    }

    /// Builds a table by evaluating `f` on every row index.
    ///
    /// # Panics
    ///
    /// Panics if `inputs > MAX_TT_INPUTS`; use [`TruthTable::new`] for a
    /// fallible path.
    pub fn from_fn(inputs: usize, mut f: impl FnMut(u64) -> bool) -> Self {
        assert!(inputs <= MAX_TT_INPUTS, "truth table limited to {MAX_TT_INPUTS} inputs");
        let mut bits = 0u64;
        for row in 0..(1u64 << inputs) {
            if f(row) {
                bits |= 1 << row;
            }
        }
        Self { inputs, bits }
    }

    fn mask(inputs: usize) -> u64 {
        if inputs >= 6 {
            u64::MAX
        } else {
            (1u64 << (1usize << inputs)) - 1
        }
    }

    /// Number of input variables.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Raw table bits (row `i` in bit `i`).
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Evaluates the function on a full input assignment.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.inputs()`.
    pub fn eval(&self, values: &[bool]) -> bool {
        assert_eq!(values.len(), self.inputs, "truth table arity mismatch");
        let mut row = 0u64;
        for (i, &v) in values.iter().enumerate() {
            if v {
                row |= 1 << i;
            }
        }
        (self.bits >> row) & 1 == 1
    }

    /// The complement of this function.
    #[must_use]
    pub fn not(&self) -> Self {
        Self { inputs: self.inputs, bits: !self.bits & Self::mask(self.inputs) }
    }

    /// The NAND of two functions over the same variables.
    #[must_use]
    pub fn nand(&self, other: &Self) -> Self {
        debug_assert_eq!(self.inputs, other.inputs, "nand of tables over different variables");
        Self { inputs: self.inputs, bits: !(self.bits & other.bits) & Self::mask(self.inputs) }
    }

    /// Whether this function actually depends on input `i`: its two
    /// cofactors on `i`, compared bit-parallel.
    pub fn depends_on(&self, i: usize) -> bool {
        assert!(i < self.inputs);
        (self.bits ^ (self.bits >> (1u32 << i))) & CLEAR_ROWS[i] != 0
    }

    /// The same function with variables `j` and `j + 1` exchanged.
    /// `j + 1` must be below [`TruthTable::inputs`].
    #[must_use]
    pub fn swap_adjacent(&self, j: usize) -> Self {
        debug_assert!(
            j + 1 < self.inputs,
            "swap of x{j} and x{} in a {}-input table",
            j + 1,
            self.inputs
        );
        Self { inputs: self.inputs, bits: swap_bits(self.bits, j) }
    }

    /// Embeds this function into `n` variables: variable `i` becomes
    /// variable `slots[i]` and the new variables are don't-cares.
    /// `slots` holds one strictly increasing slot per input, each below
    /// `n ≤ MAX_TT_INPUTS`.
    ///
    /// Bit-parallel: the table is replicated across all 64 rows (making
    /// every variable above the inputs a don't-care), then each variable,
    /// highest first, climbs to its slot by adjacent swaps.
    #[must_use]
    pub fn expand(&self, n: usize, slots: &[usize]) -> Self {
        debug_assert!(n <= MAX_TT_INPUTS && slots.len() == self.inputs);
        debug_assert!(slots.windows(2).all(|w| w[0] < w[1]) && slots.iter().all(|&s| s < n));
        let mut bits = self.bits;
        for i in self.inputs..MAX_TT_INPUTS {
            bits |= bits << (1u32 << i);
        }
        for (i, &slot) in slots.iter().enumerate().rev() {
            for j in i..slot {
                bits = swap_bits(bits, j);
            }
        }
        Self { inputs: n, bits: bits & Self::mask(n) }
    }

    /// Restricts this function to the variables in `support` (strictly
    /// increasing): variable `i` of the result is variable `support[i]`
    /// here, and every other variable is fixed to 0 — the exact function
    /// when the table does not depend on them.
    ///
    /// Bit-parallel: each kept variable, lowest first, sinks to its new
    /// index by adjacent swaps, and the low rows are kept.
    #[must_use]
    pub fn shrink(&self, support: &[usize]) -> Self {
        debug_assert!(support.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(support.iter().all(|&v| v < self.inputs));
        let mut bits = self.bits;
        for (i, &var) in support.iter().enumerate() {
            for j in (i..var).rev() {
                bits = swap_bits(bits, j);
            }
        }
        let n = support.len();
        Self { inputs: n, bits: bits & Self::mask(n) }
    }

    /// Canonical constant-true table over `inputs` variables.
    pub fn constant(inputs: usize, value: bool) -> Result<Self, NetlistError> {
        let bits = if value { u64::MAX } else { 0 };
        Self::new(inputs, bits)
    }
}

impl fmt::Display for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tt{}:{:#x}", self.inputs, self.bits)
    }
}

/// One literal of a cube: the input is required true, required false, or
/// unused (don't care).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Literal {
    /// Input must be 1 for the cube to be active.
    Pos,
    /// Input must be 0 for the cube to be active.
    Neg,
    /// Input does not appear in the cube.
    DontCare,
}

/// A sum-of-products function over an arbitrary number of inputs, matching
/// the `.names` construct of BLIF. The function is the OR of its cubes;
/// each cube is the AND of its non-don't-care literals.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Sop {
    inputs: usize,
    cubes: Vec<Vec<Literal>>,
}

impl Sop {
    /// Creates an SOP from explicit cubes.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Invalid`] when a cube's length differs from
    /// `inputs`.
    pub fn new(inputs: usize, cubes: Vec<Vec<Literal>>) -> Result<Self, NetlistError> {
        for c in &cubes {
            if c.len() != inputs {
                return Err(NetlistError::Invalid {
                    message: format!("cube of width {} in sop over {} inputs", c.len(), inputs),
                });
            }
        }
        Ok(Self { inputs, cubes })
    }

    /// Number of inputs.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// The cube list.
    pub fn cubes(&self) -> &[Vec<Literal>] {
        &self.cubes
    }

    /// Total literal count (the cost metric technology-independent
    /// optimization minimizes).
    pub fn literal_count(&self) -> usize {
        self.cubes
            .iter()
            .map(|c| c.iter().filter(|l| !matches!(l, Literal::DontCare)).count())
            .sum()
    }

    /// Evaluates the SOP on a full input assignment.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.inputs()`.
    pub fn eval(&self, values: &[bool]) -> bool {
        assert_eq!(values.len(), self.inputs, "sop arity mismatch");
        self.cubes.iter().any(|cube| {
            cube.iter().zip(values).all(|(l, &v)| match l {
                Literal::Pos => v,
                Literal::Neg => !v,
                Literal::DontCare => true,
            })
        })
    }
}

/// The function computed by a [`crate::Node`] in terms of its fanins.
///
/// The variadic gates (`And`, `Or`, `Nand`, `Nor`, `Xor`, `Xnor`) accept
/// two or more fanins; `Inv` and `Buf` exactly one; `Const` zero; `Sop`
/// as many as its width.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NodeFunc {
    /// Conjunction of all fanins.
    And,
    /// Disjunction of all fanins.
    Or,
    /// Complement of the conjunction.
    Nand,
    /// Complement of the disjunction.
    Nor,
    /// Parity (odd number of true fanins).
    Xor,
    /// Complement of parity.
    Xnor,
    /// Complement of the single fanin.
    Inv,
    /// Identity of the single fanin.
    Buf,
    /// Constant value, no fanins.
    Const(bool),
    /// Arbitrary sum-of-products over the fanins.
    Sop(Sop),
}

impl NodeFunc {
    /// A short static name for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            NodeFunc::And => "And",
            NodeFunc::Or => "Or",
            NodeFunc::Nand => "Nand",
            NodeFunc::Nor => "Nor",
            NodeFunc::Xor => "Xor",
            NodeFunc::Xnor => "Xnor",
            NodeFunc::Inv => "Inv",
            NodeFunc::Buf => "Buf",
            NodeFunc::Const(_) => "Const",
            NodeFunc::Sop(_) => "Sop",
        }
    }

    /// Checks that `fanins` fanins are acceptable for this function.
    pub fn arity_ok(&self, fanins: usize) -> bool {
        match self {
            NodeFunc::And | NodeFunc::Or | NodeFunc::Nand | NodeFunc::Nor => fanins >= 2,
            NodeFunc::Xor | NodeFunc::Xnor => fanins >= 2,
            NodeFunc::Inv | NodeFunc::Buf => fanins == 1,
            NodeFunc::Const(_) => fanins == 0,
            NodeFunc::Sop(s) => fanins == s.inputs(),
        }
    }

    /// Evaluates the function on concrete fanin values.
    ///
    /// # Panics
    ///
    /// Panics when the arity does not match (see [`NodeFunc::arity_ok`]).
    pub fn eval(&self, values: &[bool]) -> bool {
        assert!(self.arity_ok(values.len()), "{} arity mismatch: {}", self.name(), values.len());
        match self {
            NodeFunc::And => values.iter().all(|&v| v),
            NodeFunc::Or => values.iter().any(|&v| v),
            NodeFunc::Nand => !values.iter().all(|&v| v),
            NodeFunc::Nor => !values.iter().any(|&v| v),
            NodeFunc::Xor => values.iter().filter(|&&v| v).count() % 2 == 1,
            NodeFunc::Xnor => values.iter().filter(|&&v| v).count() % 2 == 0,
            NodeFunc::Inv => !values[0],
            NodeFunc::Buf => values[0],
            NodeFunc::Const(v) => *v,
            NodeFunc::Sop(s) => s.eval(values),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_table_basic_gates() {
        let and2 = TruthTable::from_fn(2, |r| r == 3);
        let or2 = TruthTable::from_fn(2, |r| r != 0);
        let xor2 = TruthTable::from_fn(2, |r| (r.count_ones() % 2) == 1);
        assert_eq!(and2.bits(), 0b1000);
        assert_eq!(or2.bits(), 0b1110);
        assert_eq!(xor2.bits(), 0b0110);
        assert!(and2.eval(&[true, true]));
        assert!(!xor2.eval(&[true, true]));
    }

    #[test]
    fn truth_table_not_is_involution() {
        let t = TruthTable::from_fn(3, |r| r % 3 == 0);
        assert_eq!(t.not().not(), t);
    }

    #[test]
    fn truth_table_rejects_too_many_inputs() {
        assert!(matches!(
            TruthTable::new(7, 0),
            Err(NetlistError::TooManyInputs { got: 7, max: 6 })
        ));
    }

    #[test]
    fn truth_table_six_inputs_full_mask() {
        let t = TruthTable::constant(6, true).unwrap();
        assert_eq!(t.bits(), u64::MAX);
        let f = TruthTable::constant(6, false).unwrap();
        assert_eq!(f.bits(), 0);
    }

    #[test]
    fn depends_on_detects_support() {
        // f = a (ignores b)
        let t = TruthTable::from_fn(2, |r| r & 1 == 1);
        assert!(t.depends_on(0));
        assert!(!t.depends_on(1));
    }

    #[test]
    fn sop_eval_matches_cubes() {
        use Literal::*;
        // f = a·!b + c
        let s = Sop::new(3, vec![vec![Pos, Neg, DontCare], vec![DontCare, DontCare, Pos]]).unwrap();
        assert!(s.eval(&[true, false, false]));
        assert!(!s.eval(&[true, true, false]));
        assert!(s.eval(&[false, false, true]));
        assert_eq!(s.literal_count(), 3);
    }

    #[test]
    fn sop_rejects_ragged_cubes() {
        use Literal::*;
        assert!(Sop::new(2, vec![vec![Pos]]).is_err());
    }

    #[test]
    fn node_func_eval_all_variants() {
        let v = [true, false, true];
        assert!(!NodeFunc::And.eval(&v));
        assert!(NodeFunc::Or.eval(&v));
        assert!(NodeFunc::Nand.eval(&v));
        assert!(!NodeFunc::Nor.eval(&v));
        assert!(!NodeFunc::Xor.eval(&v)); // two ones -> even
        assert!(NodeFunc::Xnor.eval(&v));
        assert!(!NodeFunc::Inv.eval(&[true]));
        assert!(NodeFunc::Buf.eval(&[true]));
        assert!(NodeFunc::Const(true).eval(&[]));
    }

    #[test]
    fn node_func_arity_rules() {
        assert!(!NodeFunc::And.arity_ok(1));
        assert!(NodeFunc::And.arity_ok(2));
        assert!(NodeFunc::Inv.arity_ok(1));
        assert!(!NodeFunc::Inv.arity_ok(2));
        assert!(NodeFunc::Const(false).arity_ok(0));
    }
}
