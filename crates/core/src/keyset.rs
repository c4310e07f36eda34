//! Key sets `Σ` and their dependency structure.
//!
//! Recursively defined keys impose dependencies between *types*: key Q1
//! (album) refers to an identified artist, while Q3 (artist) refers to an
//! identified album — mutual recursion (Example 7). The paper measures key
//! complexity by `|Σ|` (total size), `||Σ||` (cardinality), the maximum
//! radius `d`, and the length `c` of the longest dependency chain; the
//! generators of §6 control `c` and `d` directly. This module computes all
//! of them, plus the compiled, per-graph form the algorithms execute.

use crate::pattern::{Key, KeyError};
use gk_graph::{GraphView, TypeId};
use gk_isomorph::PairPattern;
use rustc_hash::FxHashMap;

/// The key-level dependency graph of a [`KeySet`]: node `i` is the
/// set's `i`-th key, and `succ[i]` lists (sorted, without repeats) the
/// keys `i` depends on.
#[derive(Clone, Debug)]
pub struct DependencyGraph {
    succ: Vec<Vec<usize>>,
}

impl DependencyGraph {
    /// Number of keys.
    pub fn node_count(&self) -> usize {
        self.succ.len()
    }

    /// Number of distinct dependency edges (self-loops included).
    pub fn edge_count(&self) -> usize {
        self.succ.iter().map(Vec::len).sum()
    }

    /// Strongly connected components (Tarjan): each key's component id,
    /// and each component's keys. Components are numbered in the order
    /// Tarjan completes them, so every edge between two components points
    /// from a higher id to a lower one.
    fn sccs(&self) -> (Vec<usize>, Vec<Vec<usize>>) {
        struct Tarjan<'a> {
            succ: &'a [Vec<usize>],
            index: Vec<usize>,
            low: Vec<usize>,
            on_stack: Vec<bool>,
            stack: Vec<usize>,
            next: usize,
            comp: Vec<usize>,
            members: Vec<Vec<usize>>,
        }
        impl Tarjan<'_> {
            fn visit(&mut self, v: usize) {
                self.index[v] = self.next;
                self.low[v] = self.next;
                self.next += 1;
                self.stack.push(v);
                self.on_stack[v] = true;
                for &w in &self.succ[v] {
                    if self.index[w] == usize::MAX {
                        self.visit(w);
                        self.low[v] = self.low[v].min(self.low[w]);
                    } else if self.on_stack[w] {
                        self.low[v] = self.low[v].min(self.index[w]);
                    }
                }
                if self.low[v] == self.index[v] {
                    let id = self.members.len();
                    let mut keys = Vec::new();
                    while let Some(w) = self.stack.pop() {
                        self.on_stack[w] = false;
                        self.comp[w] = id;
                        keys.push(w);
                        if w == v {
                            break;
                        }
                    }
                    self.members.push(keys);
                }
            }
        }
        let n = self.succ.len();
        let mut t = Tarjan {
            succ: &self.succ,
            index: vec![usize::MAX; n],
            low: vec![0; n],
            on_stack: vec![false; n],
            stack: Vec::new(),
            next: 0,
            comp: vec![usize::MAX; n],
            members: Vec::new(),
        };
        for v in 0..n {
            if t.index[v] == usize::MAX {
                t.visit(v);
            }
        }
        (t.comp, t.members)
    }
}

/// A validated set of keys `Σ`.
#[derive(Clone, Debug)]
pub struct KeySet {
    keys: Vec<Key>,
}

impl KeySet {
    /// Validates every key and the set (names must be unique).
    pub fn new(keys: Vec<Key>) -> Result<Self, KeyError> {
        let mut seen = rustc_hash::FxHashSet::default();
        for k in &keys {
            k.validate()?;
            assert!(
                seen.insert(k.name.clone()),
                "duplicate key name {:?}",
                k.name
            );
        }
        Ok(KeySet { keys })
    }

    /// Parses a key set from the DSL (see [`crate::parse_keys`]).
    pub fn parse(dsl: &str) -> Result<Self, crate::dsl::DslError> {
        Ok(KeySet {
            keys: crate::dsl::parse_keys(dsl)?,
        })
    }

    /// The keys, in declaration order.
    pub fn keys(&self) -> &[Key] {
        &self.keys
    }

    /// `||Σ||` — the number of keys.
    pub fn cardinality(&self) -> usize {
        self.keys.len()
    }

    /// `|Σ| = Σ_{Q ∈ Σ} |Q|` — total number of pattern triples.
    pub fn total_size(&self) -> usize {
        self.keys.iter().map(Key::size).sum()
    }

    /// The maximum radius `d` over all keys.
    pub fn max_radius(&self) -> usize {
        self.keys.iter().map(Key::radius).max().unwrap_or(0)
    }

    /// Number of recursively defined keys.
    pub fn recursive_count(&self) -> usize {
        self.keys.iter().filter(|k| k.is_recursive()).count()
    }

    /// The key-level dependency graph: an edge `i → j` when key `i` has an
    /// entity variable whose type is key `j`'s target type (identifying
    /// `i`'s pair may require a pair already identified by `j`).
    pub fn dependency_graph(&self) -> DependencyGraph {
        let mut by_target: FxHashMap<&str, Vec<usize>> = FxHashMap::default();
        for (j, k) in self.keys.iter().enumerate() {
            by_target.entry(k.target_type.as_str()).or_default().push(j);
        }
        let succ = self
            .keys
            .iter()
            .map(|k| {
                let mut out: Vec<usize> = k
                    .dependency_types()
                    .iter()
                    .flat_map(|ty| by_target.get(ty).map(Vec::as_slice).unwrap_or(&[]))
                    .copied()
                    .collect();
                out.sort_unstable();
                out.dedup();
                out
            })
            .collect();
        DependencyGraph { succ }
    }

    /// The dependency-chain length `c`: the longest path (in edges) through
    /// the dependency graph, where a strongly connected component of `k`
    /// mutually recursive keys contributes `k` edges (mutual recursion, as
    /// in Q1/Q3, forms a cycle; the paper's generator parameterizes chains
    /// of dependent keys).
    pub fn longest_chain(&self) -> usize {
        let g = self.dependency_graph();
        let (comp, members) = g.sccs();
        // Tarjan numbers components sinks-first, so every successor
        // component's chain is final before its predecessors read it.
        let mut best = vec![0usize; members.len()];
        for (c, keys) in members.iter().enumerate() {
            // A component of k > 1 mutually recursive keys is k hops; a
            // singleton counts one only when the key refers to its own
            // target type (a self-loop).
            let own = if keys.len() > 1 {
                keys.len()
            } else {
                usize::from(g.succ[keys[0]].contains(&keys[0]))
            };
            let succ_best = keys
                .iter()
                .flat_map(|&k| &g.succ[k])
                .filter(|&&t| comp[t] != c)
                .map(|&t| 1 + best[comp[t]])
                .max()
                .unwrap_or(0);
            best[c] = own + succ_best;
        }
        best.into_iter().max().unwrap_or(0)
    }

    /// Compiles the whole set against a graph.
    pub fn compile<V: GraphView>(&self, g: &V) -> CompiledKeySet {
        let mut keys = Vec::new();
        let mut skipped = Vec::new();
        for (i, k) in self.keys.iter().enumerate() {
            match k.compile(g) {
                Some(pattern) => keys.push(CompiledKey {
                    idx: keys.len(),
                    source: i,
                    name: k.name.clone(),
                    target_type: pattern.anchor_type(),
                    radius: pattern.radius(),
                    recursive: pattern.is_recursive(),
                    pattern,
                }),
                None => skipped.push(k.name.clone()),
            }
        }
        let mut by_type: FxHashMap<TypeId, Vec<usize>> = FxHashMap::default();
        let mut radius_by_type: FxHashMap<TypeId, usize> = FxHashMap::default();
        for ck in &keys {
            by_type.entry(ck.target_type).or_default().push(ck.idx);
            let r = radius_by_type.entry(ck.target_type).or_insert(0);
            *r = (*r).max(ck.radius);
        }
        CompiledKeySet {
            keys,
            skipped,
            by_type,
            radius_by_type,
        }
    }
}

/// One key compiled against a specific graph.
#[derive(Clone, Debug)]
pub struct CompiledKey {
    /// Dense index within the [`CompiledKeySet`].
    pub idx: usize,
    /// Index of the originating [`Key`] in the source [`KeySet`].
    pub source: usize,
    /// Display name.
    pub name: String,
    /// Resolved target type τ.
    pub target_type: TypeId,
    /// The executable paired pattern.
    pub pattern: PairPattern,
    /// Radius `d(Q, x)`.
    pub radius: usize,
    /// Whether the key is recursively defined.
    pub recursive: bool,
}

/// A key set compiled against a graph: only *active* keys (those whose
/// vocabulary exists in the graph) plus per-type indexes.
#[derive(Clone, Debug, Default)]
pub struct CompiledKeySet {
    /// Active keys.
    pub keys: Vec<CompiledKey>,
    /// Names of keys skipped because their vocabulary is absent.
    pub skipped: Vec<String>,
    by_type: FxHashMap<TypeId, Vec<usize>>,
    radius_by_type: FxHashMap<TypeId, usize>,
}

impl CompiledKeySet {
    /// Indices of the keys *defined on* entities of type `t` (§4.1: a key
    /// `Q(x)` is defined on `e` when `x` and `e` share a type).
    pub fn keys_on(&self, t: TypeId) -> &[usize] {
        self.by_type.get(&t).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The maximum radius `d` of the keys on type `t` — the d-neighborhood
    /// bound for entities of that type (§4.1).
    pub fn radius_of_type(&self, t: TypeId) -> usize {
        self.radius_by_type.get(&t).copied().unwrap_or(0)
    }

    /// Types that have at least one key defined on them.
    pub fn keyed_types(&self) -> impl Iterator<Item = TypeId> + '_ {
        let mut ts: Vec<TypeId> = self.by_type.keys().copied().collect();
        ts.sort_unstable();
        ts.into_iter()
    }

    /// Number of active keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True iff no key is active.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Term;
    use gk_graph::parse_graph;

    fn paper_keys() -> KeySet {
        KeySet::parse(
            r#"
            key "Q1" album(x) { x -name_of-> n*; x -recorded_by-> a:artist; }
            key "Q2" album(x) { x -name_of-> n*; x -release_year-> y*; }
            key "Q3" artist(x) { x -name_of-> n*; a:album -recorded_by-> x; }
            "#,
        )
        .unwrap()
    }

    #[test]
    fn sizes() {
        let ks = paper_keys();
        assert_eq!(ks.cardinality(), 3);
        assert_eq!(ks.total_size(), 6);
        assert_eq!(ks.max_radius(), 1);
        assert_eq!(ks.recursive_count(), 2);
    }

    #[test]
    fn dependency_graph_captures_mutual_recursion() {
        let ks = paper_keys();
        let g = ks.dependency_graph();
        // Q1 -> Q3 (album key needs artist), Q3 -> Q1 and Q3 -> Q2
        // (artist key needs album, which Q1 and Q2 both identify).
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn chain_length_of_mutual_recursion() {
        let ks = paper_keys();
        // SCC {Q1, Q3} has size 2 → contributes 2; plus edge to Q2 → 3.
        assert_eq!(ks.longest_chain(), 3);
    }

    #[test]
    fn chain_length_zero_for_value_based_sets() {
        let ks = KeySet::parse("key t(x) { x -p-> v*; }").unwrap();
        assert_eq!(ks.longest_chain(), 0);
    }

    #[test]
    fn chain_length_of_linear_chain() {
        // t1 depends on t2 depends on t3: c = 2.
        let ks = KeySet::parse(
            r#"
            key t1(x) { x -p-> a:t2; }
            key t2(x) { x -p-> a:t3; }
            key t3(x) { x -p-> v*; }
            "#,
        )
        .unwrap();
        assert_eq!(ks.longest_chain(), 2);
    }

    #[test]
    fn self_recursive_key_counts_one() {
        let ks = KeySet::parse("key t(x) { x -p-> a:t; }").unwrap();
        assert_eq!(ks.longest_chain(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate key name")]
    fn duplicate_names_rejected() {
        let k = Key::builder("K", "t").value("p", "v").build().unwrap();
        let _ = KeySet::new(vec![k.clone(), k]);
    }

    #[test]
    fn compile_splits_active_and_skipped() {
        let g = parse_graph(
            r#"
            a1:album name_of "X"
            a1:album release_year "1999"
            "#,
        )
        .unwrap();
        let cks = paper_keys().compile(&g);
        // Q2 resolves; Q1/Q3 need recorded_by and artist, absent here.
        assert_eq!(cks.len(), 1);
        assert_eq!(cks.keys[0].name, "Q2");
        assert_eq!(cks.skipped, vec!["Q1".to_string(), "Q3".to_string()]);
        let album = g.etype("album").unwrap();
        assert_eq!(cks.keys_on(album), &[0]);
        assert_eq!(cks.radius_of_type(album), 1);
        assert_eq!(cks.keyed_types().collect::<Vec<_>>(), vec![album]);
    }

    #[test]
    fn radius_of_type_takes_max() {
        let g = parse_graph(
            r#"
            a1:album name_of "X"
            a1:album recorded_by r1:artist
            r1:artist based_in c1:city
            c1:city name_of "L"
            "#,
        )
        .unwrap();
        let ks = KeySet::new(vec![
            Key::builder("K1", "album")
                .value("name_of", "n")
                .build()
                .unwrap(),
            Key::builder("K2", "album")
                .triple(Term::x(), "recorded_by", Term::wildcard("a", "artist"))
                .triple(
                    Term::wildcard("a", "artist"),
                    "based_in",
                    Term::wildcard("c", "city"),
                )
                .triple(Term::wildcard("c", "city"), "name_of", Term::val("cn"))
                .build()
                .unwrap(),
        ])
        .unwrap();
        let cks = ks.compile(&g);
        assert_eq!(cks.radius_of_type(g.etype("album").unwrap()), 3);
    }
}
