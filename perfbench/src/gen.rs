//! Seeded workload generator and the sequential reference (oracle).
//!
//! Everything a workload submits is drawn here from the run's seed; the
//! program under test receives only these values. Shapes (task counts,
//! DAG layers, poison count) are fixed so that runs with different seeds
//! do the same amount of work, and every value is drawn from a range of
//! fixed varint width so that encoded sizes do not depend on the seed.

/// Children released by the gate in `fanout_tcp`.
pub const FANOUT_TASKS: usize = 60_000;
/// Calls per round in `chain_tcp`.
pub const CHAIN_CALLS: usize = 2_000;
/// Items per `App::map` call in `map_tcp`.
pub const MAP_ITEMS: usize = 500_000;
/// DAG shape for `dag_checkpoint` / `dag_resume`.
pub const DAG_LAYERS: usize = 4;
/// Nodes per DAG layer.
pub const DAG_WIDTH: usize = 10_000;
/// Poisoned DAG nodes: exactly 1% of the DAG.
pub const DAG_POISONED: usize = DAG_LAYERS * DAG_WIDTH / 100;

/// Values live in `[2^40, 2^41)`: a fixed six-byte varint.
const VALUE_BASE: u64 = 1 << 40;
const VALUE_MASK: u64 = VALUE_BASE - 1;

/// SplitMix64: small, seedable, and good enough for input generation.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5851_F42D_4C95_7F2D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A value of fixed encoded width.
    pub fn value(&mut self) -> u64 {
        VALUE_BASE | (self.next_u64() & VALUE_MASK)
    }
}

/// `count` seeded values of fixed encoded width.
pub fn values(seed: u64, count: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    (0..count).map(|_| rng.value()).collect()
}

/// Where a DAG node's argument comes from.
#[derive(Debug, Clone, Copy)]
pub enum Parent {
    /// The gate task's output.
    Gate,
    /// A literal value.
    Value(u64),
    /// The output of an earlier node (index into [`Dag::nodes`]).
    Node(usize),
}

/// One DAG task: `dag_node(id, fail, a, b)`.
#[derive(Debug, Clone)]
pub struct Node {
    /// Unique per node, so memo keys never collide by accident.
    pub id: u64,
    /// Poisoned: the body fails.
    pub fail: bool,
    pub a: Parent,
    pub b: Parent,
}

/// The outcome the oracle predicts for a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Value(u64),
    /// The body itself fails (poisoned node).
    Failed,
    /// A dependency failed, so the task never ran.
    DepFail,
}

/// A seeded, layered DAG of two-parent tasks behind one gate. Layer 0
/// reads the gate and a literal; every later node reads two distinct
/// nodes of the layer before it.
pub struct Dag {
    pub gate: u64,
    pub nodes: Vec<Node>,
}

/// The DAG node body, shared by the registered app and the oracle.
pub fn node_value(id: u64, a: u64, b: u64) -> u64 {
    let h = (a ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .rotate_left(23)
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    VALUE_BASE | ((h ^ (h >> 29)) & VALUE_MASK)
}

impl Dag {
    pub fn generate(seed: u64) -> Dag {
        let mut rng = Rng::new(seed ^ 0xDA6);
        let gate = rng.value();
        let total = DAG_LAYERS * DAG_WIDTH;
        let mut nodes = Vec::with_capacity(total);
        for layer in 0..DAG_LAYERS {
            for _ in 0..DAG_WIDTH {
                let (a, b) = if layer == 0 {
                    (Parent::Gate, Parent::Value(rng.value()))
                } else {
                    let base = (layer - 1) * DAG_WIDTH;
                    let p = rng.below(DAG_WIDTH);
                    let q = (p + 1 + rng.below(DAG_WIDTH - 1)) % DAG_WIDTH;
                    (Parent::Node(base + p), Parent::Node(base + q))
                };
                nodes.push(Node {
                    // Ids are distinct and drawn from the seed.
                    id: VALUE_BASE | ((nodes.len() as u64) << 20) | (rng.next_u64() & 0xF_FFFF),
                    fail: false,
                    a,
                    b,
                });
            }
        }
        // Exactly DAG_POISONED distinct poisoned nodes (partial shuffle).
        let mut order: Vec<usize> = (0..total).collect();
        for i in 0..DAG_POISONED {
            let j = i + rng.below(total - i);
            order.swap(i, j);
            nodes[order[i]].fail = true;
        }
        Dag { gate, nodes }
    }

    /// Sequential reference: the outcome of every node, in order.
    pub fn expected(&self) -> Vec<Expect> {
        let mut out: Vec<Expect> = Vec::with_capacity(self.nodes.len());
        for n in &self.nodes {
            let arg = |p: Parent, out: &[Expect]| match p {
                Parent::Gate => Some(self.gate),
                Parent::Value(v) => Some(v),
                Parent::Node(i) => match out[i] {
                    Expect::Value(v) => Some(v),
                    _ => None,
                },
            };
            let e = match (arg(n.a, &out), arg(n.b, &out)) {
                (Some(a), Some(b)) if !n.fail => Expect::Value(node_value(n.id, a, b)),
                (Some(_), Some(_)) => Expect::Failed,
                _ => Expect::DepFail,
            };
            out.push(e);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dag_is_deterministic_and_shaped() {
        let a = Dag::generate(7);
        let b = Dag::generate(7);
        assert_eq!(a.gate, b.gate);
        assert_eq!(a.expected(), b.expected());
        let poisoned = a.nodes.iter().filter(|n| n.fail).count();
        assert_eq!(poisoned, DAG_POISONED);
        // A poisoned node fails itself unless a parent failed first.
        let exp = a.expected();
        let failed = exp.iter().filter(|e| **e == Expect::Failed).count();
        assert!(failed > 0 && failed <= poisoned);
        let mut ids: Vec<u64> = a.nodes.iter().map(|n| n.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), a.nodes.len());
        assert_ne!(Dag::generate(8).gate, a.gate);
    }
}
