//! Seeded input generation. The program under test only ever sees the
//! generated networks; the seed is the benchmark's own argument.
//!
//! Seed 0 reproduces the repository's fixed inputs: the generator seeds
//! of `circuits::SPECS` and the `bench_scale` seed. Any other seed
//! re-derives every generator seed while keeping each input's shape
//! (inputs, outputs, size), so runs on different seeds do the same
//! amount of work on different logic.

use lily_netlist::decompose::{decompose, DecomposeOrder};
use lily_netlist::Network;
use lily_workloads::circuits::SPECS;
use lily_workloads::gen::{generate, generate_sized, GenOptions};
use lily_workloads::structured::symml9;
use lily_workloads::{scale_circuit, ScaleFamily};

/// The seed `bench_scale` generates its random DAGs from.
pub const SCALE_SEED: u64 = 0x5CA1_E001;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The generator seed for an input whose seed-0 generator seed is
/// `base`.
pub fn derive(seed: u64, base: u64) -> u64 {
    if seed == 0 {
        base
    } else {
        splitmix(base ^ splitmix(seed))
    }
}

/// How far a re-seeded network's subject graph may miss its base-gate
/// target (`generate_sized` alone allows ±15%).
pub const SIZE_TOLERANCE: f64 = 0.02;

fn base_gates(net: &Network) -> usize {
    decompose(net, DecomposeOrder::Balanced).map_or(0, |g| g.base_gate_count())
}

/// A random network whose subject graph lands within
/// [`SIZE_TOLERANCE`] of `target` base gates: the internal-node budget
/// is refined by the measured expansion, and the generator seed moves
/// on when refinement stalls. The closest candidate wins if none lands.
pub fn sized_network(inputs: usize, outputs: usize, target: usize, seed: u64) -> Network {
    let mut budget = target.div_ceil(2).max(outputs).max(4);
    let mut gen_seed = seed;
    let mut best: Option<(f64, Network)> = None;
    for _ in 0..24 {
        let net = generate(GenOptions {
            inputs,
            outputs,
            internal_nodes: budget,
            seed: gen_seed,
            ..GenOptions::default()
        })
        .network;
        let ratio = base_gates(&net).max(1) as f64 / target as f64;
        let miss = (ratio - 1.0).abs();
        if best.as_ref().is_none_or(|(m, _)| miss < *m) {
            best = Some((miss, net));
        }
        if miss <= SIZE_TOLERANCE {
            break;
        }
        let next = ((budget as f64 / ratio).round() as usize).max(outputs).max(4);
        if next == budget {
            gen_seed = splitmix(gen_seed);
        }
        budget = next;
    }
    best.expect("at least one candidate").1
}

/// One named circuit of the paper's tables.
#[derive(Debug, Clone)]
pub struct PaperCircuit {
    /// Benchmark name as printed in the paper.
    pub name: &'static str,
    /// The generated network.
    pub net: Network,
    /// Whether Table 2 (delay mode) also runs it.
    pub in_table2: bool,
}

/// The fifteen Table 1 circuits (the Table 2 subset is flagged).
/// `9symml` is the actual symmetric function and does not depend on
/// the seed. Other seeds match each seed-0 circuit's subject size.
pub fn paper_circuits(seed: u64) -> Vec<PaperCircuit> {
    SPECS
        .iter()
        .map(|s| {
            let spec_net = || generate_sized(s.inputs, s.outputs, s.base_gates, s.seed).network;
            let net = if s.name == "9symml" {
                symml9()
            } else if seed == 0 {
                spec_net()
            } else {
                let target = base_gates(&spec_net());
                sized_network(s.inputs, s.outputs, target, derive(seed, s.seed))
            };
            PaperCircuit { name: s.name, net, in_table2: s.in_table2 }
        })
        .collect()
}

/// A random DAG of exactly `nodes` network nodes (the `bench_scale`
/// family).
pub fn random_dag(nodes: usize, seed: u64) -> Network {
    scale_circuit(ScaleFamily::RandomDag, nodes, derive(seed, SCALE_SEED))
}

/// Base-gate targets of the serving mix: a fixed ladder (64 to 432 in
/// steps of 16), so every seed offers the same spread of job sizes, and
/// enough networks that a batch's work varies little from seed to seed.
pub const SERVE_SIZES: [usize; 24] = {
    let mut sizes = [0; 24];
    let mut i = 0;
    while i < sizes.len() {
        sizes[i] = 64 + 16 * i;
        i += 1;
    }
    sizes
};

/// The flows the serving mix requests, by wire name.
pub const SERVE_FLOWS: [&str; 3] = ["lily-area", "cut-area", "mis-delay"];

/// The small networks of the serving mix, one per [`SERVE_SIZES`]
/// entry. Interface widths follow the size, so only the logic depends
/// on the seed.
pub fn serve_networks(seed: u64) -> Vec<Network> {
    SERVE_SIZES
        .iter()
        .enumerate()
        .map(|(i, &gates)| {
            let inputs = 8 + gates / 24;
            let outputs = 4 + gates / 64;
            sized_network(inputs, outputs, gates, derive(seed, 0x5E7E_0000 + i as u64))
        })
        .collect()
}

/// The small network every set-up maps once to pay lazy
/// initialisation; fixed, so set-up does the same work on every seed.
pub fn warm_network() -> Network {
    generate_sized(10, 4, 96, 0x5E7E_FFFF).network
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_reproduces_the_named_circuits() {
        for c in paper_circuits(0).iter().take(4) {
            let want = lily_workloads::circuits::circuit(c.name);
            assert_eq!(lily_netlist::blif::write(&c.net), lily_netlist::blif::write(&want));
        }
    }

    #[test]
    fn re_seeded_networks_land_near_their_size() {
        for (i, n) in serve_networks(7).iter().enumerate() {
            let want = SERVE_SIZES[i] as f64;
            assert!((base_gates(n) as f64 / want - 1.0).abs() <= 0.1, "mix{i}");
        }
    }

    #[test]
    fn other_seeds_keep_the_shape_and_change_the_logic() {
        let (a, b) = (paper_circuits(1), paper_circuits(2));
        for (x, y) in a.iter().zip(&b).skip(1) {
            assert_eq!(x.net.input_count(), y.net.input_count());
            assert_eq!(x.net.output_count(), y.net.output_count());
            assert_ne!(lily_netlist::blif::write(&x.net), lily_netlist::blif::write(&y.net));
        }
        assert_eq!(random_dag(2000, 3).node_count(), random_dag(2000, 4).node_count());
    }
}
