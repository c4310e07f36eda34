//! Inputs made from the seed, and the correctness oracle.
//!
//! Everything the server sees comes from `gk_datagen::generate` (google
//! flavour): the triples, the keys and request lines naming entities. The
//! generator's planted `truth` pairs are computed apart from the chase, so
//! they are what every answer is checked against.

use crate::stats::{Rng, Zipf};
use gk_datagen::{generate, GenConfig};
use gk_graph::write_graph;
use gk_server::Response;
use std::collections::HashMap;

/// Triples per `INSERT` in a streamed workload.
pub const BATCH: usize = 64;

/// The identity classes the chase must produce, by entity name.
pub struct Truth {
    class_of: HashMap<String, usize>,
    members: Vec<Vec<String>>,
}

impl Truth {
    fn from_pairs(pairs: &[(String, String)]) -> Truth {
        let mut truth = Truth {
            class_of: HashMap::new(),
            members: Vec::new(),
        };
        for (a, b) in pairs {
            match (
                truth.class_of.get(a).copied(),
                truth.class_of.get(b).copied(),
            ) {
                (None, None) => {
                    let c = truth.members.len();
                    truth.members.push(vec![a.clone(), b.clone()]);
                    truth.class_of.insert(a.clone(), c);
                    truth.class_of.insert(b.clone(), c);
                }
                (Some(c), None) => {
                    truth.members[c].push(b.clone());
                    truth.class_of.insert(b.clone(), c);
                }
                (None, Some(c)) => {
                    truth.members[c].push(a.clone());
                    truth.class_of.insert(a.clone(), c);
                }
                (Some(x), Some(y)) if x != y => {
                    let moved = std::mem::take(&mut truth.members[y]);
                    for m in &moved {
                        truth.class_of.insert(m.clone(), x);
                    }
                    truth.members[x].extend(moved);
                }
                _ => {}
            }
        }
        truth
    }

    pub fn same(&self, a: &str, b: &str) -> bool {
        a == b
            || matches!((self.class_of.get(a), self.class_of.get(b)), (Some(x), Some(y)) if x == y)
    }

    /// The other members of `e`'s class, sorted.
    pub fn others(&self, e: &str) -> Vec<String> {
        let mut v: Vec<String> = match self.class_of.get(e) {
            Some(&c) => self.members[c]
                .iter()
                .filter(|m| *m != e)
                .cloned()
                .collect(),
            None => Vec::new(),
        };
        v.sort();
        v
    }

    /// Identified (unordered) pairs the closure holds.
    pub fn pairs(&self) -> usize {
        self.members
            .iter()
            .map(|m| m.len() * m.len().saturating_sub(1) / 2)
            .sum()
    }

    /// Non-singleton classes.
    pub fn classes(&self) -> usize {
        self.members.iter().filter(|m| m.len() > 1).count()
    }

    /// Forgets one planted pair: the smoke test's deliberately wrong
    /// expectation, which the checks must catch.
    pub fn sabotage(&mut self, a: &str) {
        if let Some(c) = self.class_of.remove(a) {
            self.members[c].retain(|m| m != a);
        }
    }
}

/// One generated graph, its keys and its planted truth.
pub struct Data {
    /// `write_graph` lines (`subj:type<TAB>pred<TAB>obj`), in generator order.
    pub lines: Vec<String>,
    pub keys_text: String,
    pub truth: Truth,
    /// Planted pairs by name, in a seed-shuffled order.
    pub planted: Vec<(String, String)>,
    /// Entities outside every planted pair, in a seed-shuffled order.
    pub others: Vec<String>,
}

impl Data {
    pub fn generate(scale: f64, seed: u64) -> Data {
        let w = generate(&GenConfig::google().with_scale(scale).with_seed(seed));
        let label = |e| w.graph.entity_label(e);
        let mut planted: Vec<(String, String)> =
            w.truth.iter().map(|&(a, b)| (label(a), label(b))).collect();
        let truth = Truth::from_pairs(&planted);
        let mut others: Vec<String> = w
            .graph
            .entities()
            .map(label)
            .filter(|n| !truth.class_of.contains_key(n))
            .collect();
        let mut rng = Rng::new(seed ^ 0xDA7A);
        rng.shuffle(&mut planted);
        rng.shuffle(&mut others);
        Data {
            lines: write_graph(&w.graph).lines().map(str::to_string).collect(),
            keys_text: gk_core::write_keys(w.keys.keys()),
            truth,
            planted,
            others,
        }
    }

    /// The first `share` of the triples as a graph file, and the rest as
    /// `INSERT` batches of [`BATCH`] triples.
    pub fn split(&self, share: f64) -> (String, Vec<String>) {
        let cut = (self.lines.len() as f64 * share).round() as usize;
        let base: String = self.lines[..cut].iter().map(|l| format!("{l}\n")).collect();
        let batches = self.lines[cut..]
            .chunks(BATCH)
            .map(|c| {
                let triples: Vec<String> = c.iter().map(|l| l.replace('\t', " ")).collect();
                format!("INSERT {}", triples.join(" ; "))
            })
            .collect();
        (base, batches)
    }

    /// The one-triple `DELETE` that breaks planted pair `(a, b)` — `b`'s
    /// `name_of_*` triple, which every generated key compares — and the
    /// `INSERT` that restores it.
    pub fn break_pair(&self, b: &str) -> (String, String) {
        let prefix = format!("{b}:");
        let line = self
            .lines
            .iter()
            .find(|l| {
                l.starts_with(&prefix)
                    && l.split('\t')
                        .nth(1)
                        .is_some_and(|p| p.starts_with("name_of_"))
            })
            .expect("every planted entity carries a name_of triple");
        let t = line.replace('\t', " ");
        (format!("DELETE {t}"), format!("INSERT {t}"))
    }

    /// `n` read requests: a Zipf-skewed mix of `SAME` over planted pairs,
    /// `SAME` over arbitrary pairs, `REP` and `DUPS`.
    pub fn reads(&self, n: usize, rng: &mut Rng) -> Vec<String> {
        let mut pool: Vec<&str> = Vec::new();
        for (a, b) in &self.planted {
            pool.push(a);
            pool.push(b);
        }
        pool.extend(self.others.iter().take(pool.len()).map(String::as_str));
        rng.shuffle(&mut pool);
        let by_entity = Zipf::new(pool.len(), ZIPF_S);
        let by_pair = Zipf::new(self.planted.len(), ZIPF_S);
        (0..n)
            .map(|_| {
                let u = rng.unit();
                if u < 0.25 {
                    let (a, b) = &self.planted[by_pair.sample(rng)];
                    format!("SAME {a} {b}")
                } else if u < 0.5 {
                    let a = pool[by_entity.sample(rng)];
                    let b = pool[by_entity.sample(rng)];
                    format!("SAME {a} {b}")
                } else if u < 0.75 {
                    format!("REP {}", pool[by_entity.sample(rng)])
                } else {
                    format!("DUPS {}", pool[by_entity.sample(rng)])
                }
            })
            .collect()
    }
}

/// Skew of the read mix over entities and planted pairs.
pub const ZIPF_S: f64 = 1.0;

/// Checks one read answer against the truth classes.
pub fn check_read(truth: &Truth, line: &str, answer: &str) -> Result<(), String> {
    let parsed = Response::parse(answer).map_err(|e| format!("{line}: unparsable answer: {e}"))?;
    let toks: Vec<&str> = line.split_whitespace().collect();
    let ok = match (toks.as_slice(), &parsed) {
        (["SAME", a, b], Response::Same { rep, .. }) => truth.same(a, b) && truth.same(a, rep),
        (["SAME", a, b], Response::NotSame { .. }) => !truth.same(a, b),
        (["REP", e], Response::Rep { rep }) => truth.same(e, rep),
        (["DUPS", e], Response::Dups { others, .. }) => {
            let mut got = others.clone();
            got.sort();
            got == truth.others(e)
        }
        (["DUPS", e], Response::NoDups { .. }) => truth.others(e).is_empty(),
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{line}: answer disagrees with the planted truth: {answer}"
        ))
    }
}

/// Checks an `EXPLAIN a b` answer: a verified proof of a planted pair.
pub fn check_explain(truth: &Truth, a: &str, b: &str, answer: &str) -> Result<(), String> {
    let header = answer.lines().next().unwrap_or("");
    match Response::parse(answer) {
        Ok(Response::Proof {
            a: pa,
            b: pb,
            steps,
        }) if pa == a
            && pb == b
            && !steps.is_empty()
            && header.ends_with(" verified")
            && truth.same(a, b) =>
        {
            Ok(())
        }
        _ => Err(format!(
            "EXPLAIN {a} {b}: not a verified proof of a planted pair: {header}"
        )),
    }
}

/// A `STATS` value by key.
pub fn stat(stats: &[(String, String)], key: &str) -> Result<u64, String> {
    stats
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.parse().ok())
        .ok_or_else(|| format!("STATS has no numeric {key}"))
}

/// Checks the closure counters in `STATS` against the truth.
pub fn check_closure(truth: &Truth, stats: &[(String, String)], when: &str) -> Result<(), String> {
    let pairs = stat(stats, "identified_pairs")?;
    let clusters = stat(stats, "clusters")?;
    if pairs == truth.pairs() as u64 && clusters == truth.classes() as u64 {
        Ok(())
    } else {
        Err(format!(
            "{when}: identified_pairs={pairs} clusters={clusters}, truth has {} pairs in {} classes",
            truth.pairs(),
            truth.classes()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_classes_and_checks() {
        let t = Truth::from_pairs(&[("a".into(), "b".into()), ("b".into(), "c".into())]);
        assert!(t.same("a", "c") && !t.same("a", "z"));
        assert_eq!(t.others("b"), vec!["a".to_string(), "c".to_string()]);
        assert_eq!((t.pairs(), t.classes()), (3, 1));
        assert!(check_read(&t, "SAME a c", "YES a <=> c rep=b").is_ok());
        assert!(check_read(&t, "SAME a z", "YES a <=> z rep=a").is_err());
        assert!(check_read(&t, "DUPS z", "NONE z has no duplicates").is_ok());
    }

    #[test]
    fn split_covers_every_triple() {
        let d = Data::generate(0.05, 3);
        let (base, batches) = d.split(0.5);
        let streamed: usize = batches.iter().map(|b| b.matches(" ; ").count() + 1).sum();
        assert_eq!(base.lines().count() + streamed, d.lines.len());
        let mut rng = Rng::new(1);
        assert_eq!(d.reads(50, &mut rng).len(), 50);
    }
}
