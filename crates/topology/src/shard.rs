//! Grouping a [`PartitionPlan`]'s partitions into simulation shards.
//!
//! The sharded runner (`parsched-core`'s `sharded` module) gives each
//! shard its own machine and engine on its own thread, so the cut must
//! leave the shards no network state to share. Partitions are that cut:
//! the paper's machine wires each partition as its own closed
//! interconnect (the C004 crossbar links partitions only through the
//! host), so a partition never exchanges network traffic with another,
//! and shards built from whole partitions couple only through the
//! scheduler's global decisions. A [`ShardPlan`] records the partition →
//! shard assignment.
//!
//! Shards are contiguous runs of partitions with near-equal partition
//! counts, so the assignment is a pure function of `(partitions, shards)` —
//! reproducibility never depends on a hash order.

/// An assignment of a plan's partitions to `K` simulation shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// `of_partition[p]` is the shard owning partition `p`.
    pub of_partition: Vec<usize>,
    /// Number of shards (`1 + max(of_partition)`).
    pub shards: usize,
}

impl ShardPlan {
    /// Group `partitions` contiguous partitions into at most `shards`
    /// near-equal shards. More shards than partitions clamps to one
    /// partition per shard (a shard cannot cut below partition granularity
    /// — a partition's nodes share one interconnect and one job state).
    ///
    /// # Panics
    /// Panics when either count is zero.
    pub fn contiguous(partitions: usize, shards: usize) -> ShardPlan {
        assert!(partitions > 0, "need at least one partition");
        assert!(shards > 0, "need at least one shard");
        let k = shards.min(partitions);
        // First `rem` shards get `base + 1` partitions, the rest `base`.
        let base = partitions / k;
        let rem = partitions % k;
        let mut of_partition = Vec::with_capacity(partitions);
        for s in 0..k {
            let size = base + usize::from(s < rem);
            of_partition.extend(std::iter::repeat_n(s, size));
        }
        ShardPlan {
            of_partition,
            shards: k,
        }
    }

    /// Number of partitions covered by the plan.
    pub fn partitions(&self) -> usize {
        self.of_partition.len()
    }

    /// The shard owning partition `p`.
    pub fn shard_of(&self, p: usize) -> usize {
        self.of_partition[p]
    }

    /// The partitions owned by shard `s`, in ascending order.
    pub fn partitions_of(&self, s: usize) -> Vec<usize> {
        (0..self.of_partition.len())
            .filter(|&p| self.of_partition[p] == s)
            .collect()
    }

    /// Whether shard `s` owns the node at `node`, under an equal-split plan
    /// where partition `p` covers nodes `[p*partition_size, (p+1)*partition_size)`.
    ///
    /// This is the ownership test the fault-plan slicer uses: a declared
    /// fault is shipped with exactly the shard that owns the node(s) it
    /// names. Nodes past the last partition belong to no shard.
    pub fn owns_node(&self, s: usize, node: u32, partition_size: usize) -> bool {
        assert!(partition_size > 0, "partition size must be nonzero");
        let p = node as usize / partition_size;
        p < self.of_partition.len() && self.of_partition[p] == s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split_is_blocked_and_balanced() {
        let plan = ShardPlan::contiguous(8, 4);
        assert_eq!(plan.shards, 4);
        assert_eq!(plan.of_partition, vec![0, 0, 1, 1, 2, 2, 3, 3]);
        for s in 0..4 {
            assert_eq!(plan.partitions_of(s).len(), 2);
        }
    }

    #[test]
    fn uneven_split_front_loads_the_remainder() {
        let plan = ShardPlan::contiguous(7, 3);
        assert_eq!(plan.of_partition, vec![0, 0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn oversubscription_clamps_to_partition_count() {
        let plan = ShardPlan::contiguous(4, 8);
        assert_eq!(plan.shards, 4);
        assert_eq!(plan.of_partition, vec![0, 1, 2, 3]);
    }

    #[test]
    fn single_shard_owns_everything() {
        let plan = ShardPlan::contiguous(5, 1);
        assert_eq!(plan.of_partition, vec![0; 5]);
        assert_eq!(plan.partitions_of(0), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn node_ownership_follows_partition_boundaries() {
        // 4 partitions of 4 nodes on 2 shards: shard 0 owns nodes 0..8.
        let plan = ShardPlan::contiguous(4, 2);
        assert!(plan.owns_node(0, 0, 4));
        assert!(plan.owns_node(0, 7, 4));
        assert!(!plan.owns_node(0, 8, 4));
        assert!(plan.owns_node(1, 8, 4));
        assert!(plan.owns_node(1, 15, 4));
        // A node past the covered range belongs to no shard.
        assert!(!plan.owns_node(0, 16, 4));
        assert!(!plan.owns_node(1, 16, 4));
    }

    #[test]
    fn assignment_is_contiguous_and_monotone() {
        for parts in 1..20 {
            for k in 1..10 {
                let plan = ShardPlan::contiguous(parts, k);
                assert_eq!(plan.partitions(), parts);
                let mut prev = 0;
                for &s in &plan.of_partition {
                    assert!(s == prev || s == prev + 1, "non-contiguous assignment");
                    prev = s;
                }
                assert_eq!(prev + 1, plan.shards);
            }
        }
    }
}
