//! `check-tcp`: independence checks from two loopback TCP connections.
//!
//! Each connection owns a warm session (the exam schema plus a small exam
//! document). Ops are `independence/check` requests whose FD text and
//! update-class path come from a seeded corpus: most reuse a hot set of
//! pairs, so their compiled patterns are cache hits; a seeded minority use
//! FD texts that session has never seen, so they miss. Analysis costs tens
//! of microseconds per op, so transport, framing, JSON, text parsing and
//! the compile cache carry almost all of an op's time.
//!
//! A small seeded share of ops re-loads the session's small document:
//! the runner reports a write-op median on every workload.

use std::collections::HashSet;
use std::io;
use std::path::Path;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use regtree_alphabet::Alphabet;
use regtree_core::api::Json;
use regtree_core::{check_independence_eager, parse_fd, UpdateClass};
use regtree_gen::random_fd_expr;
use regtree_hedge::Schema;
use regtree_pattern::parse_corexpath;
use regtree_xml::to_xml;

use crate::wire::Transport;
use crate::workload::{expect_ok, obj, Deck, Op, OpClass, OpStream, SessionSetup, Workload};

const CONNECTIONS: usize = 2;
/// FD texts of the hot set; every one is paired with every update path,
/// and enough of them that the mean cost of an op varies little from seed
/// to seed.
const HOT_FDS: usize = 24;
/// One block of the op mix: hot-pair checks, checks of FD texts the
/// session has never seen, and re-loads of the session's document.
const BLOCK: [(Kind, usize); 3] = [(Kind::Hot, 34), (Kind::Cold, 5), (Kind::Load, 1)];
/// Cold pairs whose reference is computed before the daemon starts; more
/// are made off the clock if a run uses them up.
const COLD_POOL: usize = 160;
/// Candidates in each session's document.
const DOC_CANDIDATES: usize = 4;

/// The paper's FDs fd1 and fd2 in the textual language.
const PAPER_FDS: [&str; 2] = [
    "/session : candidate/exam/discipline, candidate/exam/mark -> candidate/exam/rank",
    "/session/candidate : exam/@date, exam/discipline -> exam[N]",
];

/// Element and attribute names of the exam schema, for random FD texts.
const NAMES: [&str; 11] = [
    "session",
    "candidate",
    "exam",
    "discipline",
    "mark",
    "rank",
    "level",
    "toBePassed",
    "firstJob-Year",
    "IDN",
    "date",
];

/// Update-class paths over the exam schema (positive CoreXPath).
const UPDATES: [&str; 9] = [
    "/session/candidate/level",
    "/session/candidate/exam/mark",
    "/session/candidate/exam/rank",
    "/session/candidate/exam/discipline",
    "/session/candidate/exam/@date",
    "/session/candidate/firstJob-Year",
    "/session/candidate/toBePassed/discipline",
    "/session/candidate[toBePassed]/level",
    "//rank",
];

#[derive(Clone)]
struct Pair {
    params: String,
    independent: bool,
}

/// Makes FD × update pairs and their reference verdicts from the eager
/// product oracle, which shares no code with the lazy engine the daemon
/// runs.
struct Oracle {
    alphabet: Alphabet,
    schema: Schema,
}

impl Oracle {
    fn pair(&self, fd: &str, update: &str) -> Option<Pair> {
        let parsed = parse_fd(&self.alphabet, fd).ok()?;
        let class = UpdateClass::new(parse_corexpath(&self.alphabet, update).ok()?).ok()?;
        let analysis = check_independence_eager(&parsed, &class, Some(&self.schema));
        Some(Pair {
            params: obj(vec![("fd", Json::str(fd)), ("update", Json::str(update))]),
            independent: analysis.verdict.is_independent(),
        })
    }
}

/// Fresh FD texts for one session, never repeating a text it has seen.
#[derive(Clone)]
struct ColdSource {
    rng: SmallRng,
    seen: HashSet<String>,
}

impl ColdSource {
    fn next(&mut self, oracle: &Oracle) -> Pair {
        loop {
            let text = random_fd_expr(&NAMES, 1, &mut self.rng).to_text();
            let update = UPDATES[self.rng.gen_range(0..UPDATES.len())];
            if !self.seen.insert(text.clone()) {
                continue;
            }
            if let Some(pair) = oracle.pair(&text, update) {
                return pair;
            }
        }
    }
}

/// The `check-tcp` workload.
pub struct CheckTcp {
    seed: u64,
    oracle: Arc<Oracle>,
    sessions: Vec<SessionSetup>,
    doc_nodes: Vec<usize>,
    hot: Arc<Vec<Pair>>,
    /// Per connection: the pre-computed cold pool and the source that
    /// continues it.
    cold: Vec<(Vec<Pair>, ColdSource)>,
}

impl CheckTcp {
    /// Builds the corpus and its references for `seed`.
    pub fn new(root: &Path, seed: u64) -> io::Result<CheckTcp> {
        let schema_text = std::fs::read_to_string(root.join("fixtures/exam.rts"))?;
        let alphabet = Alphabet::new();
        let schema = Schema::parse(&alphabet, &schema_text)
            .map_err(|e| io::Error::other(format!("fixtures/exam.rts: {e}")))?;
        let oracle = Oracle { alphabet, schema };
        let mut rng = SmallRng::seed_from_u64(seed);

        let mut fd_texts: Vec<String> = PAPER_FDS.iter().map(|s| s.to_string()).collect();
        let mut seen: HashSet<String> = fd_texts.iter().cloned().collect();
        while fd_texts.len() < HOT_FDS {
            let text = random_fd_expr(&NAMES, 1, &mut rng).to_text();
            if parse_fd(&oracle.alphabet, &text).is_ok() && seen.insert(text.clone()) {
                fd_texts.push(text);
            }
        }
        let hot: Vec<Pair> = fd_texts
            .iter()
            .flat_map(|fd| UPDATES.iter().map(move |update| (fd, update)))
            .map(|(fd, update)| oracle.pair(fd, update).expect("hot FDs and paths parse"))
            .collect();

        let mut sessions = Vec::new();
        let mut doc_nodes = Vec::new();
        let mut cold = Vec::new();
        for conn in 0..CONNECTIONS {
            let doc = regtree_gen::generate_session(&oracle.alphabet, DOC_CANDIDATES, 3, &mut rng);
            doc_nodes.push(doc.len());
            sessions.push(SessionSetup {
                schema: Some(schema_text.clone()),
                loads: vec![obj(vec![
                    ("name", Json::str("exam")),
                    ("xml", Json::str(to_xml(&doc))),
                    ("validate", Json::Bool(true)),
                ])],
            });
            let mut source = ColdSource {
                rng: SmallRng::seed_from_u64(seed ^ (0xC01D_0000 + conn as u64)),
                seen: seen.clone(),
            };
            let pool = (0..COLD_POOL).map(|_| source.next(&oracle)).collect();
            cold.push((pool, source));
        }
        Ok(CheckTcp {
            seed,
            oracle: Arc::new(oracle),
            sessions,
            doc_nodes,
            hot: Arc::new(hot),
            cold,
        })
    }
}

#[derive(Clone, Copy, Debug)]
enum Kind {
    Hot,
    Cold,
    Load,
}

enum Expect {
    Verdict(bool),
    Loaded(usize),
}

struct CheckStream {
    deck: Deck<Kind>,
    oracle: Arc<Oracle>,
    hot: Arc<Vec<Pair>>,
    cold: std::vec::IntoIter<Pair>,
    more_cold: ColdSource,
    warmup_left: usize,
    load: String,
    doc_nodes: usize,
    expect: Option<Expect>,
}

impl OpStream for CheckStream {
    fn warmup_ops(&self) -> usize {
        HOT_FDS
    }

    fn block_len(&self) -> usize {
        self.deck.block_len()
    }

    fn next_op(&mut self) -> Op {
        if self.warmup_left > 0 {
            // Warm-up: each hot FD once, with the update paths in turn, so
            // every hot pattern is compiled and hot ops are cache hits.
            self.warmup_left -= 1;
            let fd = self.warmup_left;
            let pair = self.hot[fd * UPDATES.len() + fd % UPDATES.len()].clone();
            return self.check(pair, "hot");
        }
        let (pair, label) = match self.deck.draw() {
            Kind::Load => {
                self.expect = Some(Expect::Loaded(self.doc_nodes));
                return Op {
                    method: "document/load",
                    params: self.load.clone(),
                    class: OpClass::Write,
                    label: "load",
                };
            }
            Kind::Cold => match self.cold.next() {
                Some(pair) => (pair, "cold"),
                None => (self.more_cold.next(&self.oracle), "cold"),
            },
            Kind::Hot => {
                let i = self.deck.rng().gen_range(0..self.hot.len());
                (self.hot[i].clone(), "hot")
            }
        };
        self.check(pair, label)
    }

    fn verify(&mut self, _op: &Op, reply: Result<&Json, &str>) -> Result<(), String> {
        let result = expect_ok(reply)?;
        match self.expect.take().expect("verify follows next_op") {
            Expect::Verdict(independent) => {
                if !result.get("exhausted").is_some_and(Json::is_null) {
                    return Err("UNKNOWN verdict (budget exhausted)".into());
                }
                match result.get("independent").and_then(Json::as_bool) {
                    Some(got) if got == independent => Ok(()),
                    got => Err(format!(
                        "independent = {got:?}, eager oracle says {independent}"
                    )),
                }
            }
            Expect::Loaded(nodes) => match result.get("nodes").and_then(Json::as_u64) {
                Some(n)
                    if n as usize == nodes && result.get("valid") == Some(&Json::Bool(true)) =>
                {
                    Ok(())
                }
                _ => Err(format!(
                    "load reply {} (want {nodes} valid nodes)",
                    result.to_compact()
                )),
            },
        }
    }
}

impl CheckStream {
    fn check(&mut self, pair: Pair, label: &'static str) -> Op {
        self.expect = Some(Expect::Verdict(pair.independent));
        Op {
            method: "independence/check",
            params: pair.params,
            class: OpClass::Read,
            label,
        }
    }
}

impl Workload for CheckTcp {
    fn transport(&self) -> Transport {
        Transport::Tcp
    }

    fn sessions(&self) -> &[SessionSetup] {
        &self.sessions
    }

    fn stream(&self, conn: usize) -> Box<dyn OpStream> {
        let (pool, resume) = &self.cold[conn];
        Box::new(CheckStream {
            deck: Deck::new(
                BLOCK.to_vec(),
                SmallRng::seed_from_u64(self.seed.wrapping_mul(31).wrapping_add(conn as u64)),
            ),
            oracle: Arc::clone(&self.oracle),
            hot: Arc::clone(&self.hot),
            cold: pool.clone().into_iter(),
            more_cold: resume.clone(),
            warmup_left: HOT_FDS,
            load: self.sessions[conn].loads[0].clone(),
            doc_nodes: self.doc_nodes[conn],
            expect: None,
        })
    }

    fn nominal_ops(&self) -> usize {
        // Two connections at ~44 ms per op.
        900
    }

    fn describe(&self) -> String {
        format!(
            "{CONNECTIONS} TCP connections, closed loop; blocks of {BLOCK:?}; \
             hot set {HOT_FDS} FDs x {} update paths",
            UPDATES.len()
        )
    }
}
