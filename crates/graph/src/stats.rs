//! Summary statistics over a graph, used by the benchmark harness when
//! reporting workload shapes (|G|, type counts, degree distribution).

use crate::graph::Graph;

/// Aggregate shape of a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of entity nodes.
    pub entities: usize,
    /// Number of value nodes.
    pub values: usize,
    /// Number of nodes (entities + values).
    pub nodes: usize,
    /// Number of triples, the paper's `|G|`.
    pub triples: usize,
    /// Number of distinct entity types.
    pub types: usize,
    /// Number of distinct predicates.
    pub preds: usize,
    /// Maximum total (in+out) entity degree.
    pub max_degree: usize,
    /// Mean total entity degree.
    pub mean_degree: f64,
}

impl GraphStats {
    /// Computes the statistics for `g`.
    pub fn of(g: &Graph) -> Self {
        let mut max_degree = 0usize;
        let mut total = 0usize;
        for e in g.entities() {
            let d = g.degree(e);
            max_degree = max_degree.max(d);
            total += d;
        }
        let n = g.num_entities();
        GraphStats {
            entities: n,
            values: g.num_values(),
            nodes: g.num_nodes(),
            triples: g.num_triples(),
            types: g.num_types(),
            preds: g.num_preds(),
            max_degree,
            mean_degree: if n == 0 { 0.0 } else { total as f64 / n as f64 },
        }
    }
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} entities, {} values, {} triples, {} types, {} preds, degree max={} mean={:.1}",
            self.entities,
            self.values,
            self.triples,
            self.types,
            self.preds,
            self.max_degree,
            self.mean_degree
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    #[test]
    fn stats_of_small_graph() {
        let mut b = GraphBuilder::new();
        let x = b.entity("x", "t");
        let y = b.entity("y", "u");
        b.link(x, "p", y);
        b.attr(x, "q", "v");
        let g = b.freeze();
        let s = GraphStats::of(&g);
        assert_eq!(s.entities, 2);
        assert_eq!(s.values, 1);
        assert_eq!(s.triples, 2);
        assert_eq!(s.types, 2);
        assert_eq!(s.preds, 2);
        assert_eq!(s.max_degree, 2); // x: out-degree 2
        assert!((s.mean_degree - 1.5).abs() < 1e-9); // degrees 2 and 1
    }

    #[test]
    fn stats_of_empty_graph() {
        let g = GraphBuilder::new().freeze();
        let s = GraphStats::of(&g);
        assert_eq!(s.entities, 0);
        assert_eq!(s.mean_degree, 0.0);
    }

    #[test]
    fn display_is_humane() {
        let g = GraphBuilder::new().freeze();
        let text = GraphStats::of(&g).to_string();
        assert!(text.contains("0 entities"));
    }
}
