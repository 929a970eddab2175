//! NPN canonicalization of gate functions and the cut-matching index.
//!
//! Cut-based matching (DESIGN.md §15) asks a different question than
//! structural matching: not "does this pattern tree overlay the subject
//! graph here" but "which library gates compute *this truth table*".
//! Two tables answer it:
//!
//! * [`npn_canon`] — the exact NPN-canonical representative of a truth
//!   table (minimum bit pattern over all input permutations, input
//!   negations, and output negation). Used to hash the library into
//!   NPN equivalence classes once at build time, to fingerprint the
//!   library for the serve cache, and as the invariant the property
//!   tests pin down. It is deliberately exhaustive (≤ 6 inputs: 720
//!   permutations × 64 negation masks × 2 phases) and never runs in
//!   the per-cut hot path.
//! * [`NpnIndex`] — the matcher the hot path probes: every gate's
//!   permutation-only (P) orbit, expanded once per library into an
//!   ordered map from raw `(inputs, bits)` to `(gate, pin permutation)`
//!   entries. Input/output negations are *not* expanded there because
//!   the subject graph cannot negate a cut leaf for free — an inverter
//!   would be needed, and that inverter is itself a subject node the
//!   enumerator already sees.
//!
//! Everything here is deterministic: ordered containers only, and all
//! enumeration orders are fixed by gate id and lexicographic
//! permutation order.

use std::collections::BTreeMap;

use crate::gate::GateId;
use crate::library::Library;
use lily_netlist::func::MAX_TT_INPUTS;
use lily_netlist::hash::Fnv1a;
use lily_netlist::TruthTable;

/// Row mask selecting the truth-table rows where input `i` is 0
/// (for the 64-row table of 6 inputs; narrower tables use the same
/// masks under their row mask).
const LOW_ROWS: [u64; MAX_TT_INPUTS] = [
    0x5555_5555_5555_5555,
    0x3333_3333_3333_3333,
    0x0f0f_0f0f_0f0f_0f0f,
    0x00ff_00ff_00ff_00ff,
    0x0000_ffff_0000_ffff,
    0x0000_0000_ffff_ffff,
];

/// The table with input `i` negated: rows with `x_i = 0` and `x_i = 1`
/// swap as bit blocks of length `2^i`.
fn negate_input(bits: u64, i: usize) -> u64 {
    let shift = 1usize << i;
    ((bits & LOW_ROWS[i]) << shift) | ((bits >> shift) & LOW_ROWS[i])
}

/// The table with inputs permuted: output row `r` reads source row `s`
/// where bit `i` of `r` lands at bit `perm[i]` of `s`.
fn permute_inputs(bits: u64, inputs: usize, perm: &[u8]) -> u64 {
    let mut out = 0u64;
    for r in 0..(1usize << inputs) {
        let mut s = 0usize;
        for (i, &p) in perm.iter().enumerate() {
            s |= ((r >> i) & 1) << p;
        }
        if (bits >> s) & 1 == 1 {
            out |= 1u64 << r;
        }
    }
    out
}

/// All permutations of `0..n`, in lexicographic order (deterministic;
/// at most 720 for `n = 6`).
fn permutations(n: usize) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut current: Vec<u8> = Vec::with_capacity(n);
    let mut used = vec![false; n];
    fn rec(n: usize, current: &mut Vec<u8>, used: &mut [bool], out: &mut Vec<Vec<u8>>) {
        if current.len() == n {
            out.push(current.clone());
            return;
        }
        for v in 0..n {
            if !used[v] {
                used[v] = true;
                current.push(v as u8);
                rec(n, current, used, out);
                current.pop();
                used[v] = false;
            }
        }
    }
    rec(n, &mut current, &mut used, &mut out);
    out
}

/// The NPN-canonical representative of `t`: the minimum table bits over
/// every input permutation, every input-negation mask, and both output
/// phases. Two tables are NPN-equivalent iff their canonical
/// representatives are equal.
///
/// Cost is `n! · 2^n · 2` table transforms (≈ 92k cheap word ops at
/// `n = 6`); callers cache the result per library — this never runs
/// per cut.
#[must_use]
pub fn npn_canon(t: TruthTable) -> TruthTable {
    let n = t.inputs();
    let mask = if n == MAX_TT_INPUTS { u64::MAX } else { (1u64 << (1usize << n)) - 1 };
    let mut best = u64::MAX;
    for perm in permutations(n) {
        let permuted = permute_inputs(t.bits(), n, &perm);
        for neg in 0..(1u64 << n) {
            let mut b = permuted;
            for i in 0..n {
                if (neg >> i) & 1 == 1 {
                    b = negate_input(b, i);
                }
            }
            best = best.min(b).min(!b & mask);
        }
    }
    TruthTable::from_fn(n, |row| (best >> row) & 1 == 1)
}

/// The canonical key of a table: input count plus NPN-canonical bits.
#[must_use]
pub fn npn_key(t: TruthTable) -> (u8, u64) {
    (t.inputs() as u8, npn_canon(t).bits())
}

/// One way a library gate realizes a function of `n` ordered variables:
/// gate pin `p` reads variable `perm[p]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PinAssignment {
    /// The implementing gate.
    pub gate: GateId,
    /// For each gate pin, the (0-based) variable it reads.
    pub perm: Vec<u8>,
}

/// The per-library function-matching index: NPN classes for hashing and
/// the permutation-orbit probe table for cut matching.
///
/// Built once per [`Library`] (lazily, cached on the library) and
/// shared by every mapping run.
#[derive(Debug, Clone, Default)]
pub struct NpnIndex {
    /// NPN class key → gates whose function lies in that class.
    classes: BTreeMap<(u8, u64), Vec<GateId>>,
    /// Raw `(inputs, bits)` → every gate/pin-permutation realizing
    /// exactly that function (P orbit of each gate function).
    matchers: BTreeMap<(u8, u64), Vec<PinAssignment>>,
    fingerprint: u64,
}

impl NpnIndex {
    /// Builds the index over every gate with at most
    /// [`MAX_TT_INPUTS`] pins (wider gates cannot be cut-matched and
    /// are skipped; the built-in libraries have none).
    #[must_use]
    pub fn build(lib: &Library) -> Self {
        let mut classes: BTreeMap<(u8, u64), Vec<GateId>> = BTreeMap::new();
        let mut matchers: BTreeMap<(u8, u64), Vec<PinAssignment>> = BTreeMap::new();
        for (id, gate) in lib.iter() {
            let n = gate.fanin();
            if n > MAX_TT_INPUTS {
                continue;
            }
            let f = gate.function();
            classes.entry(npn_key(f)).or_default().push(id);
            // Expand the permutation orbit, deduplicated by resulting
            // bits: symmetric gates (NANDs, NORs) collapse to one
            // entry, partially symmetric ones (AOIs) to a handful.
            // The first permutation in lexicographic order wins, so
            // the expansion is deterministic.
            let mut orbit: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
            for perm in permutations(n) {
                // Variable assignment: pin p reads variable perm[p],
                // so the realized table g'(v) = g(w), w_p = v[perm[p]].
                let mut bits = 0u64;
                for r in 0..(1usize << n) {
                    let mut s = 0usize;
                    for (p, &var) in perm.iter().enumerate() {
                        s |= ((r >> var) & 1) << p;
                    }
                    if (f.bits() >> s) & 1 == 1 {
                        bits |= 1u64 << r;
                    }
                }
                orbit.entry(bits).or_insert(perm);
            }
            for (bits, perm) in orbit {
                matchers.entry((n as u8, bits)).or_default().push(PinAssignment { gate: id, perm });
            }
        }
        let fingerprint = fingerprint_of(&classes, &matchers);
        Self { classes, matchers, fingerprint }
    }

    /// Gates whose function is NPN-equivalent to `t`.
    #[must_use]
    pub fn class_of(&self, t: TruthTable) -> &[GateId] {
        self.classes.get(&npn_key(t)).map_or(&[], Vec::as_slice)
    }

    /// Every gate/pin-permutation computing *exactly* the function
    /// `(inputs, bits)` — the hot-path probe: one ordered-map lookup,
    /// no canonicalization.
    #[must_use]
    pub fn matches(&self, inputs: usize, bits: u64) -> &[PinAssignment] {
        self.matchers.get(&(inputs as u8, bits)).map_or(&[], Vec::as_slice)
    }

    /// Number of NPN equivalence classes in the library.
    #[must_use]
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Total pin-assignment entries in the probe table (a matching-cost
    /// statistic).
    #[must_use]
    pub fn matcher_count(&self) -> usize {
        self.matchers.values().map(Vec::len).sum()
    }

    /// FNV-1a over the NPN classes and the probe table — stable across
    /// processes for identical libraries, different whenever any gate
    /// function, arity, or class membership changes. The serve cache
    /// folds this into its library fingerprint.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

fn fingerprint_of(
    classes: &BTreeMap<(u8, u64), Vec<GateId>>,
    matchers: &BTreeMap<(u8, u64), Vec<PinAssignment>>,
) -> u64 {
    let mut h = Fnv1a::default();
    for ((n, bits), gates) in classes {
        h.bytes(&[*n]);
        h.bytes(&bits.to_le_bytes());
        for g in gates {
            h.bytes(&(g.index() as u64).to_le_bytes());
        }
    }
    for ((n, bits), pins) in matchers {
        h.bytes(&[0xff, *n]);
        h.bytes(&bits.to_le_bytes());
        h.bytes(&(pins.len() as u64).to_le_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift64* for the property tests (no external
    /// RNG crates in this workspace).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
    }

    fn table(inputs: usize, bits: u64) -> TruthTable {
        TruthTable::from_fn(inputs, |row| (bits >> row) & 1 == 1)
    }

    #[test]
    fn canon_is_idempotent_and_in_orbit() {
        let mut rng = Rng(0x1001);
        for _ in 0..40 {
            let n = 1 + (rng.next() % 6) as usize;
            let t = table(n, rng.next());
            let c = npn_canon(t);
            assert_eq!(npn_canon(c), c, "canon(canon) must be canon");
            assert_eq!(c.inputs(), t.inputs());
        }
    }

    #[test]
    fn canon_invariant_under_random_npn_transforms() {
        // The satellite property: applying any input permutation, any
        // input negations, and an optional output negation must not
        // change the canonical form.
        let mut rng = Rng(0xfeed_beef);
        for _ in 0..60 {
            let n = 1 + (rng.next() % 6) as usize;
            let t = table(n, rng.next());
            let canon = npn_canon(t);
            // Random transform: permutation via Fisher–Yates on the
            // deterministic stream, negation mask, output phase.
            let mut perm: Vec<u8> = (0..n as u8).collect();
            for i in (1..n).rev() {
                let j = (rng.next() % (i as u64 + 1)) as usize;
                perm.swap(i, j);
            }
            let neg = rng.next() & ((1 << n) - 1);
            let flip_out = rng.next() & 1 == 1;
            let mut bits = permute_inputs(t.bits(), n, &perm);
            for i in 0..n {
                if (neg >> i) & 1 == 1 {
                    bits = negate_input(bits, i);
                }
            }
            let transformed = if flip_out { table(n, bits).not() } else { table(n, bits) };
            assert_eq!(
                npn_canon(transformed),
                canon,
                "canonical form changed under perm {perm:?} neg {neg:#x} flip {flip_out}"
            );
        }
    }

    #[test]
    fn canon_separates_inequivalent_functions() {
        // and2 and xor2 are in different NPN classes; and2/or2/nand2/
        // nor2 are all in one.
        let and2 = table(2, 0b1000);
        let or2 = table(2, 0b1110);
        let nand2 = table(2, 0b0111);
        let xor2 = table(2, 0b0110);
        assert_eq!(npn_canon(and2), npn_canon(or2));
        assert_eq!(npn_canon(and2), npn_canon(nand2));
        assert_ne!(npn_canon(and2), npn_canon(xor2));
    }

    #[test]
    fn negate_input_is_involution_and_reorders_rows() {
        let mut rng = Rng(7);
        for _ in 0..20 {
            let bits = rng.next();
            for i in 0..6 {
                assert_eq!(negate_input(negate_input(bits, i), i), bits);
            }
        }
        // x0 over 2 inputs (bits 1010) negated in input 0 is !x0 (0101).
        assert_eq!(negate_input(0b1010, 0) & 0xF, 0b0101);
    }

    #[test]
    fn index_matches_every_library_gate_exactly() {
        for lib in [Library::tiny(), Library::big()] {
            let idx = NpnIndex::build(&lib);
            assert!(idx.class_count() > 0 && idx.class_count() <= lib.len());
            for (id, gate) in lib.iter() {
                // The identity assignment must be in the probe table.
                let hits = idx.matches(gate.fanin(), gate.function().bits());
                let identity = hits.iter().find(|pa| {
                    pa.gate == id && pa.perm.iter().enumerate().all(|(p, &v)| p as u8 == v)
                });
                assert!(identity.is_some(), "gate {} missing identity entry", gate.name());
                // And the gate's own class contains it.
                assert!(idx.class_of(gate.function()).contains(&id));
            }
        }
    }

    #[test]
    fn probed_assignments_realize_the_probed_function() {
        // For every probe-table entry, re-evaluating the gate through
        // the pin assignment must reproduce the keyed table.
        let lib = Library::big();
        let idx = NpnIndex::build(&lib);
        for ((n, bits), pins) in &idx.matchers {
            let n = *n as usize;
            for pa in pins {
                let g = lib.gate(pa.gate).function();
                for r in 0..(1usize << n) {
                    let mut s = 0usize;
                    for (p, &var) in pa.perm.iter().enumerate() {
                        s |= ((r >> var) & 1) << p;
                    }
                    assert_eq!(
                        (bits >> r) & 1,
                        (g.bits() >> s) & 1,
                        "gate {} perm {:?} row {r}",
                        lib.gate(pa.gate).name(),
                        pa.perm
                    );
                }
            }
        }
    }

    #[test]
    fn fingerprint_tracks_functions_not_names() {
        let big = NpnIndex::build(&Library::big());
        let tiny = NpnIndex::build(&Library::tiny());
        assert_ne!(big.fingerprint(), tiny.fingerprint());
        assert_eq!(big.fingerprint(), NpnIndex::build(&Library::big()).fingerprint());
        // The 1µ scaling leaves functions alone: same index.
        assert_eq!(big.fingerprint(), NpnIndex::build(&Library::big_1u()).fingerprint());
    }

    #[test]
    fn symmetric_gates_collapse_their_orbits() {
        let lib = Library::big();
        let idx = NpnIndex::build(&lib);
        // nand6 is totally symmetric: 720 permutations, one entry.
        let nand6 = lib.find("nand6").map(|id| lib.gate(id).function());
        let f = nand6.expect("big library has nand6");
        assert_eq!(idx.matches(6, f.bits()).len(), 1);
        // The probe table stays far below the raw orbit expansion.
        assert!(idx.matcher_count() < 2000, "orbit expansion blew up: {}", idx.matcher_count());
    }
}
