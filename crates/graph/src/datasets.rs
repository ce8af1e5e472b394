//! Synthetic stand-ins for the paper's six SNAP datasets (Table 2).
//!
//! The SNAP graphs cannot be shipped, so each dataset is replaced by a
//! seeded R-MAT graph whose vertex count, average degree, and skew are
//! scaled-down matches of the original (substitution documented in
//! DESIGN.md §3). Every profile carries the paper's published statistics so
//! the Table 2 runner can print paper-vs-generated side by side.

use crate::csr::Csr;
use crate::error::GraphError;
use crate::generate::{ClusteredRmat, RmatConfig};
use crate::prng::Xoshiro256StarStar;
use crate::streaming::StreamingGraph;
use crate::types::Edge;

/// The six evaluation datasets of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// com-Amazon (AZ).
    Amazon,
    /// com-DBLP (DL).
    Dblp,
    /// ego-Gplus (GL).
    Gplus,
    /// LiveJournal (LJ).
    LiveJournal,
    /// Orkut (OR).
    Orkut,
    /// Friendster (FR).
    Friendster,
}

impl Dataset {
    /// All six datasets in Table 2 order.
    pub const ALL: [Dataset; 6] = [
        Dataset::Amazon,
        Dataset::Dblp,
        Dataset::Gplus,
        Dataset::LiveJournal,
        Dataset::Orkut,
        Dataset::Friendster,
    ];

    /// The paper's two-letter abbreviation.
    #[must_use]
    pub fn abbrev(self) -> &'static str {
        match self {
            Dataset::Amazon => "AZ",
            Dataset::Dblp => "DL",
            Dataset::Gplus => "GL",
            Dataset::LiveJournal => "LJ",
            Dataset::Orkut => "OR",
            Dataset::Friendster => "FR",
        }
    }

    /// Parses a dataset name: the paper's abbreviation (`"AZ"`) or the
    /// variant name (`"Amazon"`), in any case.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Dataset> {
        Dataset::ALL.into_iter().find(|d| {
            d.abbrev().eq_ignore_ascii_case(name) || format!("{d:?}").eq_ignore_ascii_case(name)
        })
    }

    /// Statistics the paper reports in Table 2.
    #[must_use]
    pub fn paper_stats(self) -> PaperStats {
        match self {
            Dataset::Amazon => PaperStats::new("com-Amazon", 334_863, 925_872, 44, 6),
            Dataset::Dblp => PaperStats::new("com-DBLP", 317_080, 1_049_866, 21, 7),
            Dataset::Gplus => PaperStats::new("ego-Gplus", 2_394_385, 5_021_410, 9, 2),
            Dataset::LiveJournal => PaperStats::new("LiveJournal", 4_847_571, 68_993_773, 17, 17),
            Dataset::Orkut => PaperStats::new("Orkut", 3_072_441, 117_185_083, 9, 76),
            Dataset::Friendster => PaperStats::new("Friendster", 65_608_366, 1_806_067_135, 32, 29),
        }
    }

    /// The scaled clustered-R-MAT profile used for simulation at the given
    /// sizing: per-community scale and edge factor track the dataset's
    /// relative size and density; the community count tracks its Table 2
    /// diameter (clusters ≈ d/2), which pure R-MAT cannot reproduce.
    #[must_use]
    pub fn profile(self, sizing: Sizing) -> ClusteredRmat {
        let (scale, ef, clusters, seed) = match self {
            Dataset::Amazon => (9, 3, 16, 0xA2),
            Dataset::Dblp => (9, 4, 10, 0xD1),
            Dataset::Gplus => (12, 2, 4, 0x61),
            Dataset::LiveJournal => (11, 14, 8, 0x17),
            Dataset::Orkut => (11, 38, 4, 0x0F),
            Dataset::Friendster => (11, 27, 12, 0xF2),
        };
        let shift = match sizing {
            Sizing::Reference => 0,
            Sizing::Small => 2,
            Sizing::Tiny => 4,
        };
        let scale = (scale - shift).max(4);
        let community = RmatConfig::new(scale, ef).with_seed(seed);
        ClusteredRmat::new(community, clusters, (community.vertex_count() / 8).max(4))
    }
}

/// Sizing presets for the scaled datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sizing {
    /// Default simulation size (used by the experiments binary).
    Reference,
    /// 8× fewer vertices (criterion benches).
    Small,
    /// 64× fewer vertices (unit/integration tests).
    Tiny,
}

impl Sizing {
    /// All three sizings, largest first.
    pub const ALL: [Sizing; 3] = [Sizing::Reference, Sizing::Small, Sizing::Tiny];

    /// The lower-case name (`"tiny"`), as the daemon's WAL head spells it.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Sizing::Reference => "reference",
            Sizing::Small => "small",
            Sizing::Tiny => "tiny",
        }
    }

    /// Parses a sizing name in any case.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Sizing> {
        Sizing::ALL.into_iter().find(|s| s.name().eq_ignore_ascii_case(name))
    }
}

/// Statistics of the original SNAP graph, as printed in Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaperStats {
    /// Full SNAP name.
    pub name: &'static str,
    /// Vertex count in the paper.
    pub vertices: u64,
    /// Edge count in the paper.
    pub edges: u64,
    /// Reported diameter `d`.
    pub diameter: u32,
    /// Reported average degree `D̄`.
    pub avg_degree: u32,
}

impl PaperStats {
    const fn new(
        name: &'static str,
        vertices: u64,
        edges: u64,
        diameter: u32,
        avg_degree: u32,
    ) -> Self {
        Self { name, vertices, edges, diameter, avg_degree }
    }
}

/// A fully prepared streaming workload: the initial 50 %-loaded graph plus
/// the edge pool that streams in afterwards (§4.1 methodology).
///
/// `Clone` lets one generated workload drive several timed runs (the
/// parallel bench replays the same cell under every exec mode).
#[derive(Debug, Clone)]
pub struct StreamingWorkload {
    /// Graph pre-loaded with 50 % of the edges.
    pub graph: StreamingGraph,
    /// Remaining edges, streamed in as additions.
    pub pending: Vec<Edge>,
    /// The dataset this came from.
    pub dataset: Dataset,
}

impl StreamingWorkload {
    /// Builds the workload for `dataset` at `sizing`: generate the
    /// clustered-R-MAT edge list, shuffle the edges with the dataset seed,
    /// and load the first half. Vertex ids keep their community locality
    /// (SNAP crawl ids are similarly community-local), which the paper's
    /// contiguous-range chunking relies on.
    #[must_use]
    pub fn prepare(dataset: Dataset, sizing: Sizing) -> Self {
        match Self::try_prepare(dataset, sizing) {
            Ok(w) => w,
            Err(e) => panic!("generated workload for {dataset:?} is invalid: {e}"),
        }
    }

    /// Like [`StreamingWorkload::prepare`] but returns construction errors
    /// as data instead of panicking. Generated profiles are in bounds by
    /// construction, so this only fails if a generator invariant is broken —
    /// sweep cells use it so even that failure stays contained to one cell.
    ///
    /// # Errors
    ///
    /// [`GraphError::Apply`] if an edge endpoint falls outside the profile's
    /// vertex range.
    pub fn try_prepare(dataset: Dataset, sizing: Sizing) -> Result<Self, GraphError> {
        let cfg = dataset.profile(sizing);
        let mut edges = cfg.edges();
        let mut rng = Xoshiro256StarStar::new(cfg.community.seed ^ 0x5EED);
        rng.shuffle(&mut edges);
        let half = edges.len() / 2;
        let pending = edges.split_off(half);
        let mut graph = StreamingGraph::with_capacity(cfg.vertex_count());
        graph.insert_edges(edges)?;
        Ok(Self { graph, pending, dataset })
    }

    /// Default batch size: the paper uses 100 K updates on full-size graphs;
    /// we scale it to 1/16 of the loaded edge count, floored at 64.
    #[must_use]
    pub fn default_batch_size(&self) -> usize {
        (self.graph.edge_count() / 16).max(64)
    }

    /// Snapshot of the initial (50 %-loaded) graph.
    #[must_use]
    pub fn initial_snapshot(&self) -> Csr {
        self.graph.snapshot()
    }

    /// Builds a workload from caller-provided edges (e.g. a real SNAP file
    /// loaded through [`crate::io::LoadConfig::load`]): shuffles with `seed`
    /// and loads the first half, exactly like [`StreamingWorkload::prepare`].
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is `>= vertex_count`. Caller-provided
    /// data should prefer [`StreamingWorkload::try_from_edges`], which
    /// reports the offending vertex instead.
    #[must_use]
    pub fn from_edges(edges: Vec<Edge>, vertex_count: usize, seed: u64) -> Self {
        match Self::try_from_edges(edges, vertex_count, seed) {
            Ok(w) => w,
            Err(e) => panic!("caller-provided edges are out of bounds: {e}"),
        }
    }

    /// Fallible form of [`StreamingWorkload::from_edges`] for untrusted
    /// input: an endpoint outside `0..vertex_count` becomes a typed error
    /// instead of a panic, so a bad dataset fails one sweep cell rather
    /// than the whole process.
    ///
    /// # Errors
    ///
    /// [`GraphError::Apply`] naming the out-of-range vertex.
    pub fn try_from_edges(
        mut edges: Vec<Edge>,
        vertex_count: usize,
        seed: u64,
    ) -> Result<Self, GraphError> {
        let mut rng = Xoshiro256StarStar::new(seed ^ 0x5EED);
        rng.shuffle(&mut edges);
        let half = edges.len() / 2;
        let pending = edges.split_off(half);
        let mut graph = StreamingGraph::with_capacity(vertex_count);
        graph.insert_edges(edges)?;
        // Pending edges stream in later; validate them now so the failure
        // surfaces at construction, not mid-run.
        for e in &pending {
            if e.src as usize >= vertex_count || e.dst as usize >= vertex_count {
                let vertex = if e.src as usize >= vertex_count { e.src } else { e.dst };
                return Err(crate::streaming::ApplyError::VertexOutOfBounds {
                    vertex,
                    vertex_count,
                }
                .into());
            }
        }
        // Dataset tag is nominal for external data.
        Ok(Self { graph, pending, dataset: Dataset::Friendster })
    }

    /// The highest-out-degree vertex of the loaded graph — the natural
    /// SSSP source (reaches the most of the graph, like the hub sources
    /// the streaming-graph evaluations use).
    #[must_use]
    pub fn hub_vertex(&self) -> u32 {
        let snap = self.graph.snapshot();
        (0..snap.vertex_count() as u32).max_by_key(|&v| snap.degree(v)).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_generate() {
        for d in Dataset::ALL {
            let cfg = d.profile(Sizing::Tiny);
            let edges = cfg.edges();
            assert!(!edges.is_empty(), "{d:?} generated no edges");
        }
    }

    #[test]
    fn dataset_and_sizing_names_parse_in_any_case() {
        for d in Dataset::ALL {
            let full = format!("{d:?}");
            for name in [d.abbrev(), &d.abbrev().to_ascii_lowercase(), &full, &full.to_uppercase()]
            {
                assert_eq!(Dataset::from_name(name), Some(d), "{name}");
            }
        }
        assert_eq!(Dataset::from_name("LiveJournal"), Some(Dataset::LiveJournal));
        assert_eq!(Dataset::from_name("snapville"), None);
        assert_eq!(Sizing::ALL.map(Sizing::name), ["reference", "small", "tiny"]);
        for s in Sizing::ALL {
            for name in [s.name(), &s.name().to_uppercase(), &format!("{s:?}")] {
                assert_eq!(Sizing::from_name(name), Some(s), "{name}");
            }
        }
        assert_eq!(Sizing::from_name("huge"), None);
    }

    #[test]
    fn paper_stats_match_table2() {
        let fr = Dataset::Friendster.paper_stats();
        assert_eq!(fr.vertices, 65_608_366);
        assert_eq!(fr.edges, 1_806_067_135);
        assert_eq!(fr.diameter, 32);
        let az = Dataset::Amazon.paper_stats();
        assert_eq!(az.name, "com-Amazon");
        assert_eq!(az.avg_degree, 6);
    }

    #[test]
    fn relative_density_ordering_follows_paper() {
        // Orkut is the densest dataset in the paper; Gplus the sparsest.
        let d_or = Dataset::Orkut.profile(Sizing::Tiny);
        let d_gl = Dataset::Gplus.profile(Sizing::Tiny);
        assert!(d_or.community.edge_factor > d_gl.community.edge_factor);
    }

    #[test]
    fn workload_loads_half_the_edges() {
        let w = StreamingWorkload::prepare(Dataset::Amazon, Sizing::Tiny);
        let loaded = w.graph.edge_count();
        let pending = w.pending.len();
        // Duplicates collapse in the graph, so loaded <= pending + slack.
        assert!(loaded > 0 && pending > 0);
        let ratio = loaded as f64 / (loaded + pending) as f64;
        assert!((0.30..=0.60).contains(&ratio), "load ratio {ratio} far from half");
    }

    #[test]
    fn workload_is_deterministic() {
        let a = StreamingWorkload::prepare(Dataset::Dblp, Sizing::Tiny);
        let b = StreamingWorkload::prepare(Dataset::Dblp, Sizing::Tiny);
        assert_eq!(a.pending, b.pending);
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
    }

    #[test]
    fn default_batch_size_has_floor() {
        let w = StreamingWorkload::prepare(Dataset::Amazon, Sizing::Tiny);
        assert!(w.default_batch_size() >= 64);
    }

    #[test]
    fn try_from_edges_rejects_out_of_range_endpoints() {
        let edges: Vec<Edge> = (0..8).map(|i| Edge::new(i, i + 1, 1.0)).collect();
        // vertex_count 4 leaves ids 4..=8 out of range; half land in the
        // loaded graph, half in the pending pool — both must be caught.
        let err = StreamingWorkload::try_from_edges(edges, 4, 7).unwrap_err();
        assert!(matches!(err, GraphError::Apply(_)), "got {err}");
        assert!(err.to_string().contains("out of bounds"));
    }

    #[test]
    fn try_from_edges_accepts_in_range_edges() {
        let edges: Vec<Edge> = (0..8).map(|i| Edge::new(i, i + 1, 1.0)).collect();
        let w = StreamingWorkload::try_from_edges(edges, 16, 7).unwrap();
        assert_eq!(w.graph.edge_count() + w.pending.len(), 8);
    }

    #[test]
    fn try_prepare_matches_prepare() {
        let a = StreamingWorkload::prepare(Dataset::Amazon, Sizing::Tiny);
        let b = StreamingWorkload::try_prepare(Dataset::Amazon, Sizing::Tiny).unwrap();
        assert_eq!(a.pending, b.pending);
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
    }

    #[test]
    fn abbrevs_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for d in Dataset::ALL {
            assert!(seen.insert(d.abbrev()));
        }
    }
}
