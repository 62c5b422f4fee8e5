//! Shared harness utilities for the experiment binaries: table formatting,
//! repeated timing, deep-topology construction, and calibration of the
//! simulator's mean-shift cost model against the real implementation.

use std::time::{Duration, Instant};

use tbon_meanshift::{density_seeds, mean_shift, MeanShiftParams, Point2, SpatialGrid, SynthSpec};
use tbon_sim::MsCostModel;
use tbon_topology::Topology;

/// Render an aligned text table: header row + data rows.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:>width$}", cell, width = widths[i]));
        }
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Format seconds with sensible precision.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Run `f` `reps` times and return the mean duration (the paper ran each
/// experiment "two to four times" and plotted the average).
pub fn mean_time(reps: usize, mut f: impl FnMut()) -> Duration {
    assert!(reps > 0);
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed() / reps as u32
}

/// The "deep" (2-level) tree the paper pairs against a flat tree of the
/// same leaf count: per-level fan-outs as close to `sqrt(leaves)` as
/// divisibility allows.
pub fn deep_tree_for(leaves: usize) -> Topology {
    assert!(leaves >= 4, "a 2-deep tree needs at least 4 leaves");
    let ideal = (leaves as f64).sqrt().round() as i64;
    // The divisor of `leaves` nearest to sqrt(leaves), excluding the
    // degenerate 1 and `leaves` split.
    let mut best: Option<usize> = None;
    for f in 2..leaves {
        if leaves.is_multiple_of(f) {
            let better = match best {
                None => true,
                Some(b) => (f as i64 - ideal).abs() < (b as i64 - ideal).abs(),
            };
            if better {
                best = Some(f);
            }
        }
    }
    let f1 = best.unwrap_or(leaves); // prime leaf counts degrade to flat+1
    let f2 = leaves / f1;
    if f2 <= 1 {
        return Topology::flat(leaves);
    }
    Topology::balanced_levels(&[f1, f2])
}

/// Measured characteristics of the real mean-shift implementation, used to
/// set the simulator's cost constants.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    pub model: MsCostModel,
    pub leaf_seconds_measured: f64,
}

/// Calibrate [`MsCostModel`] by running the real single-leaf pipeline and
/// timing its phases. `era_scale` rescales to the paper's hardware
/// (1.0 = this machine).
pub fn calibrate(spec: &SynthSpec, params: &MeanShiftParams, era_scale: f64) -> Calibration {
    let data = spec.generate(0);
    let n = data.len() as f64;

    // Grid build cost.
    let t0 = Instant::now();
    let grid = SpatialGrid::build(data.clone(), params.bandwidth);
    let build_total = t0.elapsed().as_secs_f64();

    // Window occupancy: average fraction of the dataset inside one window,
    // sampled at the cluster centers (where searches actually iterate).
    let occ: f64 = spec
        .centers
        .iter()
        .map(|c| grid.count_in_radius(*c, params.bandwidth) as f64 / n)
        .sum::<f64>()
        / spec.centers.len() as f64;

    // Density scan cost and seed count.
    let t1 = Instant::now();
    let seeds = density_seeds(&grid, params);
    let scan_total = t1.elapsed().as_secs_f64();
    let step = params.scan_step();
    let (min, max) = grid.bounds().expect("non-empty data");
    let cells = (((max.x - min.x) / step) + 1.0) * (((max.y - min.y) / step) + 1.0);

    // Search cost per window visit and mean iterations.
    let t2 = Instant::now();
    let mut total_iters = 0usize;
    for &s in &seeds {
        let out = mean_shift(
            &grid,
            s,
            params.bandwidth,
            params.kernel,
            params.max_iterations,
            params.convergence_eps,
        );
        total_iters += out.iterations.max(1);
    }
    let search_total = t2.elapsed().as_secs_f64();
    let visits = total_iters as f64 * occ * n;

    // Warm-start iteration count: restart from converged points.
    let restarts: Vec<Point2> = seeds.iter().take(8).copied().collect();
    let mut warm_iters = 0usize;
    for s in &restarts {
        let first = mean_shift(
            &grid,
            *s,
            params.bandwidth,
            params.kernel,
            params.max_iterations,
            params.convergence_eps,
        );
        let again = mean_shift(
            &grid,
            first.peak,
            params.bandwidth,
            params.kernel,
            params.max_iterations,
            params.convergence_eps,
        );
        warm_iters += again.iterations.max(1);
    }
    let iters_merge = if restarts.is_empty() {
        2.0
    } else {
        (warm_iters as f64 / restarts.len() as f64).max(1.0)
    };

    let model = MsCostModel {
        build_per_point: (build_total / n).max(1e-12),
        visit_cost: (search_total / visits.max(1.0)).max(1e-12),
        scan_visit_cost: (scan_total / (cells * occ * n).max(1.0)).max(1e-13),
        scan_cells: cells,
        window_occupancy: occ,
        seeds_per_leaf: seeds.len().max(1) as f64,
        peaks: spec.centers.len() as f64,
        iters_leaf: total_iters as f64 / seeds.len().max(1) as f64,
        iters_merge,
        points_per_leaf: n,
        era_scale,
    };
    Calibration {
        model,
        leaf_seconds_measured: build_total + scan_total + search_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["scale", "time"],
            &[
                vec!["16".into(), "1.5".into()],
                vec!["324".into(), "12.25".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("scale"));
        assert!(lines[3].trim_start().starts_with("324"));
    }

    #[test]
    fn deep_tree_for_perfect_squares() {
        let t = deep_tree_for(256);
        assert_eq!(t.leaf_count(), 256);
        assert_eq!(t.depth(), 2);
        assert_eq!(t.children(t.root()).len(), 16);
    }

    #[test]
    fn deep_tree_for_awkward_counts() {
        for n in [4usize, 12, 48, 100, 324] {
            let t = deep_tree_for(n);
            assert_eq!(t.leaf_count(), n, "n={n}");
            assert_eq!(t.depth(), 2, "n={n}");
        }
    }

    #[test]
    fn mean_time_averages() {
        let d = mean_time(4, || std::thread::sleep(Duration::from_millis(2)));
        assert!(d >= Duration::from_millis(2));
        assert!(d < Duration::from_millis(50));
    }

    #[test]
    fn calibration_produces_positive_constants() {
        let spec = SynthSpec {
            points_per_cluster: 100,
            ..SynthSpec::paper_default()
        };
        let cal = calibrate(&spec, &MeanShiftParams::default(), 1.0);
        let m = cal.model;
        assert!(m.build_per_point > 0.0);
        assert!(m.visit_cost > 0.0);
        assert!(m.window_occupancy > 0.0 && m.window_occupancy < 1.0);
        assert!(m.seeds_per_leaf >= 1.0);
        assert!(m.iters_leaf >= 1.0);
        assert!(m.iters_merge >= 1.0);
        assert!(cal.leaf_seconds_measured > 0.0);
    }
}
