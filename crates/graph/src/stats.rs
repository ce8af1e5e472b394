//! Graph statistics: degree distributions and skew measures.
//!
//! Observation two of the paper (§2.4) rests on power-law access skew;
//! these helpers quantify how skewed a (generated or loaded) graph actually
//! is, so the dataset stand-ins can be validated against the phenomenon
//! rather than taken on faith. Used by the Table 2 runner and the Fig 4
//! analysis.

use crate::csr::Csr;
use crate::types::VertexId;

/// Summary statistics of a graph's out-degree distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Number of vertices.
    pub vertices: usize,
    /// Number of edges.
    pub edges: usize,
    /// Maximum out-degree.
    pub max_degree: usize,
    /// Mean out-degree.
    pub mean_degree: f64,
    /// Fraction of edges owned by the top 1 % of vertices by degree.
    pub top1pct_edge_share: f64,
    /// Fraction of edges owned by the top 0.5 % (the paper's α default).
    pub top_half_pct_edge_share: f64,
    /// Gini coefficient of the degree distribution (0 = uniform,
    /// → 1 = maximally concentrated).
    pub gini: f64,
}

/// Computes [`DegreeStats`] for a snapshot.
#[must_use]
pub fn degree_stats(graph: &Csr) -> DegreeStats {
    let n = graph.vertex_count();
    let mut degrees: Vec<usize> = (0..n as VertexId).map(|v| graph.degree(v)).collect();
    degrees.sort_unstable();
    let edges: usize = degrees.iter().sum();
    let max_degree = degrees.last().copied().unwrap_or(0);
    let mean_degree = if n == 0 { 0.0 } else { edges as f64 / n as f64 };

    let share_of_top = |fraction: f64| -> f64 {
        if edges == 0 || n == 0 {
            return 0.0;
        }
        let k = ((n as f64 * fraction).ceil() as usize).clamp(1, n);
        let top: usize = degrees.iter().rev().take(k).sum();
        top as f64 / edges as f64
    };

    // Gini over the sorted (ascending) degree sequence.
    let gini = if edges == 0 || n == 0 {
        0.0
    } else {
        let weighted: f64 =
            degrees.iter().enumerate().map(|(i, &d)| (i as f64 + 1.0) * d as f64).sum();
        (2.0 * weighted) / (n as f64 * edges as f64) - (n as f64 + 1.0) / n as f64
    };

    DegreeStats {
        vertices: n,
        edges,
        max_degree,
        mean_degree,
        top1pct_edge_share: share_of_top(0.01),
        top_half_pct_edge_share: share_of_top(0.005),
        gini,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{Rmat, RmatConfig, Uniform};
    use crate::types::Edge;

    #[test]
    fn uniform_degrees_have_low_gini() {
        let edges = Uniform::new(1024, 8192, 7).edges();
        let g = Csr::from_edges(1024, &edges);
        let s = degree_stats(&g);
        assert!(s.gini < 0.35, "uniform gini {}", s.gini);
        assert!(s.top1pct_edge_share < 0.05);
    }

    #[test]
    fn rmat_degrees_are_concentrated() {
        let cfg = RmatConfig::new(11, 16).with_seed(5);
        let g = Csr::from_edges(cfg.vertex_count(), &Rmat::new(cfg).edges());
        let s = degree_stats(&g);
        assert!(s.gini > 0.5, "rmat gini {}", s.gini);
        assert!(s.top1pct_edge_share > 0.15, "top-1% share {}", s.top1pct_edge_share);
        assert!(s.top_half_pct_edge_share < s.top1pct_edge_share);
    }

    #[test]
    fn stats_on_star_graph() {
        let edges: Vec<Edge> = (1..100).map(|i| Edge::new(0, i, 1.0)).collect();
        let g = Csr::from_edges(100, &edges);
        let s = degree_stats(&g);
        assert_eq!(s.max_degree, 99);
        assert_eq!(s.edges, 99);
        assert!((s.top1pct_edge_share - 1.0).abs() < 1e-12, "hub owns everything");
        assert!(s.gini > 0.95);
    }

    #[test]
    fn empty_graph_stats_are_zeroed() {
        let g = Csr::from_edges(0, &[]);
        let s = degree_stats(&g);
        assert_eq!(s.edges, 0);
        assert_eq!(s.gini, 0.0);
    }
}
