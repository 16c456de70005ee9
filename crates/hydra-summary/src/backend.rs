//! Pluggable LP solve backends — the first of the vendor pipeline's swappable
//! stages.
//!
//! The paper formulates one LP per relation over a *region* partition of the
//! attribute space and hands it to a solver (Z3 there, a two-phase simplex
//! here). The baseline it improves on — DataSynth — uses a *grid* partition
//! whose variable count is the product of per-axis boundary counts. Both now
//! live behind the [`LpBackend`] trait so a session can select either at
//! runtime ([`SimplexBackend`] is HYDRA, [`GridBackend`] is the baseline) and
//! future backends (ILP, sampling, external solvers) can slot in without
//! touching the builder.

use crate::axes::RelationAxes;
use crate::error::{SummaryError, SummaryResult};
use crate::solve::{boxed_constraints, formulate_lp, solve_formulated, SolvedRelation};
use crate::summary::RelationSummary;
use hydra_catalog::schema::Table;
use hydra_lp::solver::LpSolver;
use hydra_partition::grid::GridPartition;
use hydra_partition::refine::WarmSeed;
use hydra_partition::region::{RegionPartition, RegionPartitioner};
use hydra_query::aqp::VolumetricConstraint;
use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

/// Everything a backend needs to solve one relation's tuple placement.
pub struct SolveRequest<'a> {
    /// The relation being solved.
    pub table: &'a Table,
    /// Its partitioning axes (workload-referenced columns).
    pub axes: &'a RelationAxes,
    /// The volumetric constraints on this relation.
    pub constraints: &'a [VolumetricConstraint],
    /// Target row count.
    pub row_target: u64,
    /// Already-built summaries of every referenced dimension.
    pub summaries: &'a BTreeMap<String, RelationSummary>,
    /// Budget on LP variables (regions or grid cells).
    pub max_regions: usize,
    /// Whether other relations reference this one (request an interior
    /// solution so FK projections keep distinguishing blocks).
    pub referenced: bool,
    /// The warm seed of the relation's previous solve, when this is a delta
    /// re-profile: a warm-start hint for the LP.  Backends are free to
    /// ignore it; honoring it must not change which problems are solvable.
    pub warm: Option<&'a WarmSeed>,
}

/// A strategy for turning one relation's constraints into an integral tuple
/// placement across partition regions.
pub trait LpBackend: fmt::Debug + Send + Sync {
    /// Stable backend name (used in reports and summary-cache keys).
    fn name(&self) -> &'static str;

    /// A fingerprint of the backend's parameters, mixed into summary-cache
    /// keys so differently-configured backends (e.g. strict vs. recovering
    /// solvers) never share cache entries.
    fn fingerprint(&self) -> u64 {
        0
    }

    /// Solves one relation.
    fn solve_relation(&self, request: &SolveRequest<'_>) -> SummaryResult<SolvedRelation>;
}

/// Fingerprint of an [`LpSolver`]'s behaviour-relevant settings.
fn solver_fingerprint(solver: &LpSolver) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    solver.recover_least_violation.hash(&mut hasher);
    solver.tolerance.to_bits().hash(&mut hasher);
    solver.simplex.max_pivots.hash(&mut hasher);
    hasher.finish()
}

/// HYDRA's pipeline: region partitioning (one LP variable per constraint
/// signature class) + two-phase simplex.
#[derive(Debug, Clone, Default)]
pub struct SimplexBackend {
    /// Solver settings (recovering by default; strict for feasibility probes).
    pub solver: LpSolver,
}

impl SimplexBackend {
    /// Backend with explicit solver settings.
    pub fn new(solver: LpSolver) -> Self {
        SimplexBackend { solver }
    }

    /// Backend that fails on infeasible systems instead of recovering with a
    /// least-violation solution (scenario feasibility probes).
    pub fn strict() -> Self {
        SimplexBackend {
            solver: LpSolver::strict(),
        }
    }
}

impl LpBackend for SimplexBackend {
    fn name(&self) -> &'static str {
        "simplex-region"
    }

    fn fingerprint(&self) -> u64 {
        solver_fingerprint(&self.solver)
    }

    fn solve_relation(&self, request: &SolveRequest<'_>) -> SummaryResult<SolvedRelation> {
        crate::solve::formulate_and_solve_delta(
            request.table,
            request.axes,
            request.constraints,
            request.row_target,
            request.summaries,
            &self.solver,
            request.max_regions,
            request.referenced,
            request.warm,
        )
    }
}

/// The DataSynth-style grid baseline: every axis is cut at every predicate
/// boundary and every grid cell becomes one LP variable.
///
/// Variable counts grow with the *product* of per-axis boundary counts, so
/// this backend refuses workloads whose grid exceeds `max_regions` cells
/// (reproducing the paper's E3 blow-up argument) — use [`SimplexBackend`]
/// there.
#[derive(Debug, Clone, Default)]
pub struct GridBackend {
    /// Solver settings.
    pub solver: LpSolver,
}

impl GridBackend {
    /// Backend with explicit solver settings.
    pub fn new(solver: LpSolver) -> Self {
        GridBackend { solver }
    }
}

impl LpBackend for GridBackend {
    fn name(&self) -> &'static str {
        "grid-baseline"
    }

    fn fingerprint(&self) -> u64 {
        solver_fingerprint(&self.solver)
    }

    fn solve_relation(&self, request: &SolveRequest<'_>) -> SummaryResult<SolvedRelation> {
        let partition_start = Instant::now();
        let pre = boxed_constraints(
            request.table,
            request.axes,
            request.constraints,
            request.summaries,
        )?;
        let unions: Vec<Vec<hydra_partition::nbox::NBox>> =
            pre.boxed.iter().map(|(_, boxes)| boxes.clone()).collect();

        let partition = if unions.is_empty() && request.axes.space.dims() == 0 {
            // Degenerate: no referenced columns at all. Fall back to the
            // region partitioner, which handles the empty space.
            RegionPartitioner::new(request.axes.space.clone()).partition()?
        } else {
            let grid = GridPartition::build(request.axes.space.clone(), &unions)?;
            let cells = grid.cells(request.max_regions).ok_or_else(|| {
                SummaryError::Invalid(format!(
                    "grid partition of `{}` needs {} cells (budget {}); \
                     the grid baseline cannot encode this workload — use the simplex backend",
                    request.table.name,
                    grid.num_cells(),
                    request.max_regions
                ))
            })?;
            RegionPartition::from_elementary_cells(request.axes.space.clone(), unions, cells)?
        };
        let partition_time = partition_start.elapsed();

        let lp = formulate_lp(request.table, &partition, &pre.boxed, request.row_target);
        solve_formulated(
            partition,
            &lp,
            request.row_target,
            &self.solver,
            request.referenced,
            partition_time,
            &pre,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_catalog::domain::Domain;
    use hydra_catalog::schema::{ColumnBuilder, Schema, SchemaBuilder};
    use hydra_catalog::types::DataType;
    use hydra_query::predicate::{ColumnPredicate, CompareOp, TablePredicate};

    fn schema() -> Schema {
        SchemaBuilder::new("toy")
            .table("S", |t| {
                t.column(ColumnBuilder::new("S_pk", DataType::BigInt).primary_key())
                    .column(
                        ColumnBuilder::new("A", DataType::BigInt).domain(Domain::integer(0, 100)),
                    )
                    .column(
                        ColumnBuilder::new("B", DataType::BigInt).domain(Domain::integer(0, 100)),
                    )
            })
            .build()
            .unwrap()
    }

    fn constraint(column: &str, lo: i64, hi: i64, card: u64, label: &str) -> VolumetricConstraint {
        VolumetricConstraint {
            table: "S".into(),
            predicate: TablePredicate::always_true()
                .with(ColumnPredicate::new(column, CompareOp::Ge, lo))
                .with(ColumnPredicate::new(column, CompareOp::Lt, hi)),
            fk_conditions: vec![],
            cardinality: card,
            label: label.into(),
        }
    }

    fn solve_with(backend: &dyn LpBackend, cs: &[VolumetricConstraint]) -> SolvedRelation {
        let schema = schema();
        let table = schema.table("S").unwrap();
        let axes = RelationAxes::build(table, cs, &BTreeMap::new()).unwrap();
        backend
            .solve_relation(&SolveRequest {
                table,
                axes: &axes,
                constraints: cs,
                row_target: 1000,
                summaries: &BTreeMap::new(),
                max_regions: 100_000,
                referenced: false,
                warm: None,
            })
            .unwrap()
    }

    #[test]
    fn both_backends_satisfy_the_same_constraints() {
        let cs = vec![
            constraint("A", 20, 60, 400, "q1#1"),
            constraint("B", 0, 50, 300, "q2#1"),
        ];
        for backend in [
            &SimplexBackend::default() as &dyn LpBackend,
            &GridBackend::default() as &dyn LpBackend,
        ] {
            let solved = solve_with(backend, &cs);
            assert_eq!(
                solved.region_counts.iter().sum::<u64>(),
                1000,
                "{} total",
                backend.name()
            );
            for (ci, c) in cs.iter().enumerate() {
                let achieved: u64 = solved
                    .partition
                    .regions_in_constraint(ci)
                    .iter()
                    .map(|&r| solved.region_counts[r])
                    .sum();
                assert_eq!(achieved, c.cardinality, "{} {}", backend.name(), c.label);
            }
        }
    }

    #[test]
    fn grid_uses_at_least_as_many_variables_as_regions() {
        // Two independent axes, each with two disjoint ranges: regions stay
        // linear in the predicate count, the grid is the cross product.
        let cs = vec![
            constraint("A", 10, 20, 50, "a1"),
            constraint("A", 40, 60, 100, "a2"),
            constraint("B", 5, 15, 80, "b1"),
            constraint("B", 50, 90, 200, "b2"),
        ];
        let simplex = solve_with(&SimplexBackend::default(), &cs);
        let grid = solve_with(&GridBackend::default(), &cs);
        assert!(
            grid.stats.variables >= simplex.stats.variables,
            "grid {} < regions {}",
            grid.stats.variables,
            simplex.stats.variables
        );
        assert_eq!(grid.region_counts.iter().sum::<u64>(), 1000);
    }

    #[test]
    fn grid_refuses_oversized_grids() {
        let schema = schema();
        let table = schema.table("S").unwrap();
        let cs: Vec<VolumetricConstraint> = (0..12)
            .map(|i| constraint("A", i * 8, i * 8 + 4, 10, &format!("q{i}")))
            .chain((0..12).map(|i| constraint("B", i * 8, i * 8 + 4, 10, &format!("p{i}"))))
            .collect();
        let axes = RelationAxes::build(table, &cs, &BTreeMap::new()).unwrap();
        let err = GridBackend::default()
            .solve_relation(&SolveRequest {
                table,
                axes: &axes,
                constraints: &cs,
                row_target: 1000,
                summaries: &BTreeMap::new(),
                max_regions: 16,
                referenced: false,
                warm: None,
            })
            .unwrap_err();
        assert!(matches!(err, SummaryError::Invalid(_)), "got {err:?}");
    }
}
