//! Incremental partition refinement for delta re-profiling.
//!
//! A later re-solve of a relation needs very little of the previous solve:
//! an LP warm start only asks which regions held tuples.  A basic LP
//! solution has at most one nonzero region per constraint, so that
//! *support* stays small however many regions the partition has.  The
//! [`WarmSeed`] retains exactly that: the dimensionality of the attribute
//! space and the representative point of every supported region — not the
//! partition itself, which can run to tens of thousands of regions.
//!
//! [`RegionPartitioner::refine`] sweeps the new constraint set once (the
//! result is bit-identical to [`RegionPartitioner::partition`]) and locates
//! every seed point in the new partition; the regions hit are the warm
//! columns of the next LP.  The mapping is advisory — it feeds warm-start
//! hints, never correctness.  When the constraint boxes are unchanged, each
//! seed point lands back in the region it came from, so the warm columns are
//! exactly the previous support.

use crate::region::{RegionPartition, RegionPartitioner};
use crate::PartitionResult;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// What a solved partition leaves behind for a later warm start.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WarmSeed {
    /// Dimensionality of the attribute space the seed was taken from.
    pub dims: usize,
    /// The representative point of every region with a nonzero solved
    /// count, in region order.
    pub points: Vec<Vec<i64>>,
}

impl WarmSeed {
    /// The seed of a solved partition: `counts` are the per-region tuple
    /// counts, in the order of `partition.regions()`.
    pub fn from_solution(partition: &RegionPartition, counts: &[u64]) -> WarmSeed {
        WarmSeed {
            dims: partition.space().dims(),
            points: partition
                .regions()
                .iter()
                .zip(counts)
                .filter(|(_, &count)| count > 0)
                .map(|(region, _)| region.representative_point())
                .collect(),
        }
    }
}

/// A partition of the new constraint set plus the warm columns a seed maps to.
#[derive(Debug, Clone)]
pub struct PartitionRefinement {
    /// The partition of the *new* constraint set.
    pub partition: RegionPartition,
    /// The new regions holding a seed point, ascending and deduplicated —
    /// the columns to prioritize in a warm-started LP.
    pub warm_columns: Vec<usize>,
}

impl RegionPartitioner {
    /// Partitions the added constraints and maps a previous solve's
    /// [`WarmSeed`] into the result.  The partition is bit-identical to what
    /// [`RegionPartitioner::partition`] produces; seed points outside the
    /// new space (or of another dimensionality) map nowhere.
    pub fn refine(self, seed: &WarmSeed) -> PartitionResult<PartitionRefinement> {
        let partition = self.partition()?;
        let warm_columns: BTreeSet<usize> = seed
            .points
            .iter()
            .filter_map(|point| partition.region_containing(point))
            .collect();
        Ok(PartitionRefinement {
            partition,
            warm_columns: warm_columns.into_iter().collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;
    use crate::nbox::NBox;
    use crate::space::AttributeSpace;
    use crate::PartitionError;

    fn space_1d() -> AttributeSpace {
        AttributeSpace::new(vec![("a".to_string(), Interval::new(0, 100))])
    }

    fn space_2d() -> AttributeSpace {
        AttributeSpace::new(vec![
            ("a".to_string(), Interval::new(0, 100)),
            ("b".to_string(), Interval::new(0, 100)),
        ])
    }

    /// A seed supporting the regions at `support` (count 1 each).
    fn seed_of(partition: &RegionPartition, support: &[usize]) -> WarmSeed {
        let mut counts = vec![0u64; partition.num_variables()];
        for &r in support {
            counts[r] = 1;
        }
        WarmSeed::from_solution(partition, &counts)
    }

    #[test]
    fn seed_holds_only_the_supported_points() {
        let prev = RegionPartitioner::new(space_2d())
            .add_constraint_box(space_2d().box_from_intervals(vec![("a", Interval::new(20, 60))]))
            .partition()
            .unwrap();
        let inside = prev
            .regions()
            .iter()
            .position(|r| r.signature.contains(0))
            .unwrap();
        let seed = seed_of(&prev, &[inside]);
        assert_eq!(seed.dims, 2);
        assert_eq!(
            seed.points,
            vec![prev.regions()[inside].representative_point()]
        );
        let json = serde_json::to_string(&seed).unwrap();
        assert_eq!(serde_json::from_str::<WarmSeed>(&json).unwrap(), seed);
    }

    #[test]
    fn unchanged_boxes_warm_exactly_the_previous_support() {
        let c_a = |lo, hi| space_2d().box_from_intervals(vec![("a", Interval::new(lo, hi))]);
        let c_b = |lo, hi| space_2d().box_from_intervals(vec![("b", Interval::new(lo, hi))]);
        let partitioner = || {
            RegionPartitioner::new(space_2d())
                .add_constraint_box(c_a(20, 60))
                .add_constraint_box(c_a(40, 80))
                .add_constraint_box(c_b(10, 30))
        };
        let prev = partitioner().partition().unwrap();
        let all: Vec<usize> = (0..prev.num_variables()).collect();
        for support in [
            all.clone(),
            vec![0, 2],
            vec![prev.num_variables() - 1],
            vec![],
        ] {
            let refinement = partitioner().refine(&seed_of(&prev, &support)).unwrap();
            assert_eq!(refinement.partition, prev);
            assert_eq!(refinement.warm_columns, support);
        }
    }

    #[test]
    fn refined_partition_equals_from_scratch() {
        let c_a = |lo, hi| space_2d().box_from_intervals(vec![("a", Interval::new(lo, hi))]);
        let c_b = |lo, hi| space_2d().box_from_intervals(vec![("b", Interval::new(lo, hi))]);
        let prev = RegionPartitioner::new(space_2d())
            .add_constraint_box(c_a(20, 60))
            .add_constraint_box(c_b(10, 30))
            .partition()
            .unwrap();
        let support: Vec<usize> = (0..prev.num_variables()).collect();
        // A new predicate boundary on axis b.
        let grown = || {
            RegionPartitioner::new(space_2d())
                .add_constraint_box(c_a(20, 60))
                .add_constraint_box(c_b(10, 30))
                .add_constraint_box(c_b(50, 90))
        };
        let refinement = grown().refine(&seed_of(&prev, &support)).unwrap();
        assert_eq!(refinement.partition, grown().partition().unwrap());
        // Every old region's point lands somewhere (the space did not
        // shrink), and the warm columns are exactly where they land.
        let expected: BTreeSet<usize> = prev
            .regions()
            .iter()
            .map(|r| {
                refinement
                    .partition
                    .region_containing(&r.representative_point())
                    .expect("the point lies in the unchanged space")
            })
            .collect();
        assert_eq!(
            refinement.warm_columns,
            expected.into_iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn seed_points_land_in_the_matching_new_regions() {
        let prev = RegionPartitioner::new(space_1d())
            .add_constraint_box(NBox::new(vec![Interval::new(20, 60)]))
            .partition()
            .unwrap();
        // prev has 2 regions: outside {}, inside {0}.  Support only the
        // inside and refine with an extra disjoint constraint.
        let inside = prev
            .regions()
            .iter()
            .position(|r| r.signature.contains(0))
            .unwrap();
        let refinement = RegionPartitioner::new(space_1d())
            .add_constraint_box(NBox::new(vec![Interval::new(20, 60)]))
            .add_constraint_box(NBox::new(vec![Interval::new(80, 90)]))
            .refine(&seed_of(&prev, &[inside]))
            .unwrap();
        let new_inside = refinement
            .partition
            .regions()
            .iter()
            .position(|r| r.signature.contains(0))
            .unwrap();
        assert_eq!(refinement.warm_columns, vec![new_inside]);
    }

    #[test]
    fn points_outside_the_new_space_map_nowhere() {
        let prev = RegionPartitioner::new(space_1d())
            .add_constraint_box(NBox::new(vec![Interval::new(20, 60)]))
            .partition()
            .unwrap();
        let support: Vec<usize> = (0..prev.num_variables()).collect();
        // A *narrower* new space: the outside region's representative
        // (a = 0) no longer exists, the inside one (a = 20) still does.
        let narrow = AttributeSpace::new(vec![("a".to_string(), Interval::new(15, 70))]);
        let refinement = RegionPartitioner::new(narrow)
            .add_constraint_box(NBox::new(vec![Interval::new(20, 60)]))
            .refine(&seed_of(&prev, &support))
            .unwrap();
        let new_inside = refinement
            .partition
            .regions()
            .iter()
            .position(|r| r.signature.contains(0))
            .unwrap();
        assert_eq!(refinement.warm_columns, vec![new_inside]);
        // A seed of another dimensionality maps nothing.
        let refinement = RegionPartitioner::new(space_2d())
            .refine(&seed_of(&prev, &support))
            .unwrap();
        assert!(refinement.warm_columns.is_empty());
    }

    #[test]
    fn refine_honors_the_region_budget() {
        let prev = RegionPartitioner::new(space_1d())
            .add_constraint_box(NBox::new(vec![Interval::new(20, 60)]))
            .partition()
            .unwrap();
        // The refined sweep must enforce the caller's budget exactly like a
        // from-scratch partition would (10 disjoint ranges > 4 regions).
        let mut partitioner = RegionPartitioner::new(space_1d()).with_max_regions(4);
        for i in 0..10 {
            partitioner =
                partitioner.add_constraint_box(NBox::new(vec![Interval::new(i * 10, i * 10 + 5)]));
        }
        assert!(matches!(
            partitioner.refine(&seed_of(&prev, &[0])),
            Err(PartitionError::TooManyRegions { .. })
        ));
    }
}
