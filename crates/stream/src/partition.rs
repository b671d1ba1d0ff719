//! Stream partitioning: which node a tuple arrives at.
//!
//! The paper's headline result — sub-linear message complexity — holds "in
//! domains that exhibit a geographic skew in the joining attributes"
//! (Abstract). [`Partitioner::geographic`] models exactly that: each node
//! "owns" a contiguous key range and receives mostly (but not only) tuples
//! from its range, so different nodes' windows have correlated-but-distinct
//! attribute distributions. The uniform partitioner reproduces the paper's
//! worst case, where every node looks alike.

use rand::Rng;

/// Assignment policy of arriving tuples to nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum Partitioner {
    /// Every tuple lands on a uniformly random node.
    Uniform {
        /// Number of nodes.
        nodes: u16,
    },
    /// Tuples cycle through nodes in order.
    RoundRobin {
        /// Number of nodes.
        nodes: u16,
        /// Next node to receive a tuple.
        next: u16,
    },
    /// Each node owns the key range `[i·D/N, (i+1)·D/N)`. A tuple lands on
    /// its range owner with probability `locality`, else on a random node.
    Geographic {
        /// Number of nodes.
        nodes: u16,
        /// Probability that a tuple lands on its key-range owner.
        locality: f64,
    },
}

impl Partitioner {
    /// Uniformly random assignment over `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`.
    pub fn uniform(nodes: u16) -> Self {
        assert!(nodes > 0, "need at least one node");
        Partitioner::Uniform { nodes }
    }

    /// Cyclic assignment over `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`.
    pub fn round_robin(nodes: u16) -> Self {
        assert!(nodes > 0, "need at least one node");
        Partitioner::RoundRobin { nodes, next: 0 }
    }

    /// Geographically skewed assignment: key-range owner with probability
    /// `locality`, random node otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0` or `locality` is outside `[0, 1]`.
    pub fn geographic(nodes: u16, locality: f64) -> Self {
        assert!(nodes > 0, "need at least one node");
        assert!(
            (0.0..=1.0).contains(&locality),
            "locality must be a probability"
        );
        Partitioner::Geographic { nodes, locality }
    }

    /// The node owning `key`'s range under the geographic layout.
    pub fn range_owner(key: u32, domain: u32, nodes: u16) -> u16 {
        debug_assert!(key < domain);
        ((key as u64 * nodes as u64) / domain as u64) as u16
    }

    /// Assigns the node for a tuple with join attribute `key` drawn from
    /// `[0, domain)`.
    ///
    /// # Panics
    ///
    /// Panics if `key >= domain`.
    pub fn assign<R: Rng>(&mut self, key: u32, domain: u32, rng: &mut R) -> u16 {
        assert!(key < domain, "key outside attribute domain");
        match self {
            Partitioner::Uniform { nodes } => rng.gen_range(0..*nodes),
            Partitioner::RoundRobin { nodes, next } => {
                let n = *next;
                *next = (*next + 1) % *nodes;
                n
            }
            Partitioner::Geographic { nodes, locality } => {
                if rng.gen_bool(*locality) {
                    Self::range_owner(key, domain, *nodes)
                } else {
                    rng.gen_range(0..*nodes)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn round_robin_cycles() {
        let mut p = Partitioner::round_robin(3);
        let mut rng = StdRng::seed_from_u64(0);
        let seq: Vec<u16> = (0..7).map(|_| p.assign(0, 10, &mut rng)).collect();
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn uniform_covers_all_nodes() {
        let mut p = Partitioner::uniform(4);
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[p.assign(5, 10, &mut rng) as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn range_owner_partitions_domain_evenly() {
        assert_eq!(Partitioner::range_owner(0, 100, 4), 0);
        assert_eq!(Partitioner::range_owner(24, 100, 4), 0);
        assert_eq!(Partitioner::range_owner(25, 100, 4), 1);
        assert_eq!(Partitioner::range_owner(99, 100, 4), 3);
    }

    #[test]
    fn full_locality_is_deterministic_ownership() {
        let mut p = Partitioner::geographic(4, 1.0);
        let mut rng = StdRng::seed_from_u64(2);
        for key in 0..100u32 {
            assert_eq!(
                p.assign(key, 100, &mut rng),
                Partitioner::range_owner(key, 100, 4)
            );
        }
    }

    #[test]
    fn partial_locality_mostly_owner() {
        let mut p = Partitioner::geographic(4, 0.8);
        let mut rng = StdRng::seed_from_u64(3);
        let key = 10u32; // owner 0 in domain 100 / 4 nodes
        let owned = (0..1000)
            .filter(|_| p.assign(key, 100, &mut rng) == 0)
            .count();
        // 0.8 direct + 0.2·0.25 random back to owner = 0.85 expected.
        assert!(
            (780..920).contains(&owned),
            "locality off: {owned}/1000 on owner"
        );
    }

    #[test]
    fn zero_locality_equals_uniform() {
        let mut p = Partitioner::geographic(4, 0.0);
        let mut rng = StdRng::seed_from_u64(4);
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[p.assign(10, 100, &mut rng) as usize] += 1;
        }
        for c in counts {
            assert!((800..1200).contains(&c), "not uniform: {counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "key outside attribute domain")]
    fn out_of_domain_key_rejected() {
        let mut p = Partitioner::uniform(2);
        let mut rng = StdRng::seed_from_u64(0);
        p.assign(10, 10, &mut rng);
    }

    #[test]
    #[should_panic(expected = "need at least one node")]
    fn zero_nodes_rejected() {
        Partitioner::uniform(0);
    }
}
