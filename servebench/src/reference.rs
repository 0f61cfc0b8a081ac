//! The in-process answer reference: top-k computed by `ic_core` on the
//! same generated graphs the server registered, kept as prefix hashes of
//! the canonical reply lines so any k up to the computed one can be
//! checked with one lookup.
//!
//! Top-k is a prefix of top-k′ for k ≤ k′ (the paper's enumeration
//! order), so one search per (graph, generation, γ) lane at the largest
//! k any request asked for checks every request of that lane.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::Arc;

use ic_core::query::Selection;
use ic_core::{naive, AlgorithmId, Community, TopKQuery};
use ic_graph::WeightedGraph;

/// The `C …` line the protocol prints for one community: influence, then
/// the external member ids ascending.
pub fn community_line(c: &Community, g: &WeightedGraph) -> String {
    let mut ids = c.external_members(g);
    ids.sort_unstable();
    let mut line = format!("C influence={} members=", c.influence);
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&id.to_string());
    }
    line
}

/// Incremental hash over reply `C` lines; the client and the reference
/// feed it identically.
#[derive(Clone, Default)]
pub struct LineHash {
    hasher: DefaultHasher,
    lines: u32,
}

impl LineHash {
    pub fn push(&mut self, line: &str) {
        self.hasher.write(line.as_bytes());
        self.hasher.write_u8(b'\n');
        self.lines += 1;
    }

    pub fn lines(&self) -> u32 {
        self.lines
    }

    pub fn finish(&self) -> u64 {
        self.hasher.finish()
    }
}

/// One checked answer: how many communities came back and the hash of
/// their lines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Answer {
    pub count: u32,
    pub hash: u64,
}

/// The reference answer of one lane: `prefix[i]` is the hash of the
/// first `i` community lines; `complete` is true when the search
/// returned fewer communities than asked (the lane holds no more).
#[derive(Clone, Debug)]
pub struct Lane {
    prefix: Vec<u64>,
    complete: bool,
}

impl Lane {
    fn new(lines: impl Iterator<Item = String>, asked: usize) -> Lane {
        let mut h = LineHash::default();
        let mut prefix = vec![h.finish()];
        for line in lines {
            h.push(&line);
            prefix.push(h.finish());
        }
        let complete = prefix.len() - 1 < asked;
        Lane { prefix, complete }
    }

    /// Communities this lane holds (all of them when `complete`).
    pub fn held(&self) -> usize {
        self.prefix.len() - 1
    }

    fn covers(&self, k: usize) -> bool {
        self.complete || k <= self.held()
    }

    /// The answer a correct top-`k` reply must carry.
    pub fn expect(&self, k: usize) -> Answer {
        let count = k.min(self.held());
        Answer {
            count: count as u32,
            hash: self.prefix[count],
        }
    }
}

/// Reference graphs by name and generation index (0 = as registered,
/// `i` = after the `i`-th acknowledged commit), with lazily computed lanes.
#[derive(Default)]
pub struct Reference {
    graphs: HashMap<String, Vec<Arc<WeightedGraph>>>,
    lanes: HashMap<(String, usize, u32), Lane>,
    /// Lanes whose `ic_core` answer disagreed with the naive oracle.
    pub oracle_mismatches: u64,
    /// Lanes checked against the naive oracle.
    pub oracle_checks: u64,
}

impl Reference {
    /// Registers the graph of `name` at generation index `gen`; indices
    /// must arrive in order.
    pub fn add_generation(&mut self, name: &str, gen: usize, g: Arc<WeightedGraph>) {
        let gens = self.graphs.entry(name.to_string()).or_default();
        assert_eq!(
            gens.len(),
            gen,
            "generations of {name} must arrive in order"
        );
        gens.push(g);
    }

    pub fn generations(&self, name: &str) -> usize {
        self.graphs.get(name).map_or(0, Vec::len)
    }

    pub fn graph(&self, name: &str, gen: usize) -> Option<&Arc<WeightedGraph>> {
        self.graphs.get(name).and_then(|g| g.get(gen))
    }

    /// The lane of (`name`, `gen`, `gamma`), computed with LocalSearch to
    /// at least `k` communities.
    pub fn lane(&mut self, name: &str, gen: usize, gamma: u32, k: usize) -> &Lane {
        let key = (name.to_string(), gen, gamma);
        let fresh = match self.lanes.get(&key) {
            Some(lane) => !lane.covers(k),
            None => true,
        };
        if fresh {
            let g = Arc::clone(&self.graphs[name][gen]);
            let result = TopKQuery::new(gamma)
                .k(k)
                .algorithm(Selection::Forced(AlgorithmId::LocalSearch))
                .run(&g)
                .expect("reference queries use valid parameters");
            let lines = result.communities.iter().map(|c| community_line(c, &g));
            self.lanes.insert(key.clone(), Lane::new(lines, k));
        }
        &self.lanes[&key]
    }

    /// Checks the LocalSearch lane against the definition-level oracle
    /// (small graphs only: the oracle is quadratic).
    pub fn check_oracle(&mut self, name: &str, gen: usize, gamma: u32, k: usize) -> bool {
        let g = Arc::clone(&self.graphs[name][gen]);
        let all = naive::all_communities(&g, gamma);
        let oracle = Lane::new(all.iter().map(|c| community_line(c, &g)), usize::MAX);
        let lane = self.lane(name, gen, gamma, k);
        let k = k.min(oracle.held());
        let ok = lane.expect(k) == oracle.expect(k);
        self.oracle_checks += 1;
        if !ok {
            self.oracle_mismatches += 1;
        }
        ok
    }
}
