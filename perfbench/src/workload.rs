//! What a workload provides to the runner: its transport, its sessions'
//! set-up, and per connection a closed-loop stream of ops with a
//! known-answer check for every reply.

use rand::rngs::SmallRng;
use rand::Rng;
use regtree_core::api::Json;

use crate::wire::Transport;

/// Whether an op changes a document held by the daemon.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpClass {
    /// Changes no document (`fd/check`, `document/validate`, analyses).
    Read,
    /// Changes a document (`document/update`, `document/load`).
    Write,
}

/// One request of the measured phase.
pub struct Op {
    /// JSON-RPC method.
    pub method: &'static str,
    /// Compact JSON object of the params other than `sessionId`.
    pub params: String,
    /// Read or write.
    pub class: OpClass,
    /// The op's kind in the workload's mix, for the run's summary.
    pub label: &'static str,
}

/// A session as set-up leaves it: opened (with a schema or without) and
/// holding the named documents.
pub struct SessionSetup {
    /// Schema source text for `session/open`.
    pub schema: Option<String>,
    /// `document/load` params other than `sessionId`, as compact JSON,
    /// built before the daemon starts so set-up time excludes them.
    pub loads: Vec<String>,
}

/// One connection's op stream and its reference answers.
pub trait OpStream: Send {
    /// How many of the first ops are warm-up: sent, checked and replayed
    /// like the rest, but before timing starts, so caches are full.
    fn warmup_ops(&self) -> usize;

    /// Ops per block of the workload's mix (see [`Deck`]).
    fn block_len(&self) -> usize;

    /// The next op (drawn from the workload's seeded generator).
    fn next_op(&mut self) -> Op;

    /// Checks the reply to `op` (its `result`, or the error text) against
    /// the reference; `Err` says why it is wrong. Runs off the op's clock.
    fn verify(&mut self, op: &Op, reply: Result<&Json, &str>) -> Result<(), String>;

    /// Runs checks deferred until after the measured phase; returns why
    /// each failed one is wrong.
    fn finish(&mut self) -> Vec<String> {
        Vec::new()
    }
}

/// A benchmark workload.
pub trait Workload: Sync {
    /// How the client reaches the daemon.
    fn transport(&self) -> Transport;

    /// The session set-up of each connection (their number is the length).
    fn sessions(&self) -> &[SessionSetup];

    /// A fresh op stream for connection `conn` of a freshly set-up daemon.
    fn stream(&self, conn: usize) -> Box<dyn OpStream>;

    /// Timed ops of a 20-second run at the commit that defined the
    /// benchmark; fixes the tail percentile once for every run of the
    /// workload.
    fn nominal_ops(&self) -> usize;

    /// One line on the op mix, for the run's provenance.
    fn describe(&self) -> String;
}

/// `{k: v, ...}` in compact form.
pub fn obj(members: Vec<(&str, Json)>) -> String {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
    .to_compact()
}

/// `[[name, text], ...]`.
pub fn named(pairs: &[(String, String)]) -> Json {
    Json::Arr(
        pairs
            .iter()
            .map(|(n, t)| Json::Arr(vec![Json::str(n), Json::str(t)]))
            .collect(),
    )
}

/// Reads `key` of a reply as a string.
pub fn str_field<'a>(value: &'a Json, key: &str) -> Result<&'a str, String> {
    value
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("reply lacks string '{key}'"))
}

/// The reply's `result`, or why the op failed.
pub fn expect_ok<'a>(reply: Result<&'a Json, &str>) -> Result<&'a Json, String> {
    reply.map_err(|e| format!("RPC error: {e}"))
}

/// Deals op kinds in blocks with exact counts, each block in a seeded
/// order, so every whole block has the workload's exact mix. The runner
/// ends a phase only at a block boundary.
pub struct Deck<K> {
    counts: Vec<(K, usize)>,
    rng: SmallRng,
    cards: Vec<K>,
}

impl<K: Copy> Deck<K> {
    /// A deck whose blocks hold `count` ops of each kind.
    pub fn new(counts: Vec<(K, usize)>, rng: SmallRng) -> Deck<K> {
        Deck {
            counts,
            rng,
            cards: Vec::new(),
        }
    }

    /// Ops per block.
    pub fn block_len(&self) -> usize {
        self.counts.iter().map(|(_, n)| n).sum()
    }

    /// The next op kind.
    pub fn draw(&mut self) -> K {
        if self.cards.is_empty() {
            for &(kind, n) in &self.counts {
                self.cards.extend(std::iter::repeat_n(kind, n));
            }
            for i in (1..self.cards.len()).rev() {
                let j = self.rng.gen_range(0..=i);
                self.cards.swap(i, j);
            }
        }
        self.cards.pop().expect("a block holds at least one op")
    }

    /// The generator, for the streams' other seeded choices.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }
}
