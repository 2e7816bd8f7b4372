//! `edit-stdio`: an editor session over large exam documents.
//!
//! One client drives one session (the exam schema plus a document of 800
//! candidates × 3 exams, about 25k nodes and 330 KB of XML, and a second
//! document of the same size beside it) over stdio. Writes are
//! `document/update` point edits of the first document, rechecked
//! incrementally against candidate-context FDs, plus a small seeded share
//! of `document/load` calls that re-ingest a fresh second document. Reads
//! are `fd/check` of the same FDs from scratch, `document/validate`, and a
//! few audits: `fd/check` of those FDs and session-wide ones over both
//! documents. The other workloads never touch XML ingest,
//! versioned deltas, incremental recheck, full FD satisfaction or schema
//! validation; this one does, with writes beside reads of the same
//! satisfaction code.

use std::io;
use std::path::Path;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use regtree_alphabet::Alphabet;
use regtree_core::api::{parse_update_json, Json};
use regtree_core::{check_fd, parse_fd, Fd};
use regtree_gen::generate_session;
use regtree_xml::{parse_document, to_xml, Document};

use crate::wire::Transport;
use crate::workload::{
    expect_ok, named, obj, str_field, Deck, Op, OpClass, OpStream, SessionSetup, Workload,
};

/// Candidates per document (three exams each).
const CANDIDATES: usize = 800;
/// Documents loaded as the second one: `document/load` ops, the first of
/// them a warm-up op, cycle through them.
const ALTERNATES: usize = 2;
/// One block of the op mix: writes (point edits, re-loads) and reads
/// (from-scratch FD checks, schema validation, audits). Updates (~3 ms) <
/// checks (~10 ms) < validations (~17 ms) < audits (~40 ms) < loads
/// (~2.5 s): the counts put the median op, the median read and the median
/// write inside one mode each, and the tail percentile, after the few
/// loads, in the middle of the audit mode (see `nominal_ops`), well clear
/// of the validations' upper tail, which the host's noise sets more than
/// the program does.
const BLOCK: [(Kind, usize); 5] = [
    (Kind::Update, 80),
    (Kind::Load, 1),
    (Kind::Check, 89),
    (Kind::Validate, 28),
    (Kind::Audit, 2),
];

#[derive(Clone, Copy, Debug)]
enum Kind {
    Update,
    Load,
    Check,
    Validate,
    /// `fd/check` of every workload FD over both loaded documents.
    Audit,
}

/// FDs anchored at each candidate, so a point edit rechecks one candidate.
const FDS: [(&str, &str); 3] = [
    (
        "disc-rank",
        "/session/candidate : exam/discipline -> exam/rank",
    ),
    ("level-year", "/session/candidate : level -> firstJob-Year"),
    (
        "date-disc",
        "/session/candidate : exam/@date -> exam/discipline",
    ),
];

/// FDs an audit checks besides [`FDS`]: the paper's fd1 and fd2 and
/// session-wide ones, whose mappings span the whole document.
const AUDIT_FDS: [(&str, &str); 5] = [
    (
        "paper-fd1",
        "/session : candidate/exam/discipline, candidate/exam/mark -> candidate/exam/rank",
    ),
    (
        "paper-fd2",
        "/session/candidate : exam/@date, exam/discipline -> exam[N]",
    ),
    (
        "rank-mark",
        "/session : candidate/exam/discipline, candidate/exam/rank -> candidate/exam/mark",
    ),
    (
        "date-disc-all",
        "/session : candidate/exam/@date -> candidate/exam/discipline",
    ),
    (
        "level-year-all",
        "/session : candidate/level -> candidate/firstJob-Year",
    ),
];

/// One loadable document: its `document/load` params and the document.
struct Source {
    load: String,
    doc: Document,
}

/// The `edit-stdio` workload.
pub struct EditStdio {
    seed: u64,
    alphabet: Alphabet,
    /// [`FDS`], then [`AUDIT_FDS`].
    fds: Arc<Vec<Fd>>,
    fds_json: String,
    audit_json: String,
    sessions: Vec<SessionSetup>,
    sources: Arc<Vec<Source>>,
}

/// Per-FD outcome on `doc`, computed from scratch on a re-parse of its
/// serialization: shares no state with the daemon's incremental checker.
fn reference_outcomes(alphabet: &Alphabet, fds: &[Fd], doc: &Document) -> Vec<bool> {
    let reparsed = parse_document(alphabet, &to_xml(doc)).expect("serialized XML re-parses");
    fds.iter()
        .map(|fd| check_fd(fd, &reparsed).is_ok())
        .collect()
}

impl EditStdio {
    /// Generates the documents for `seed`.
    pub fn new(root: &Path, seed: u64) -> io::Result<EditStdio> {
        let schema = std::fs::read_to_string(root.join("fixtures/exam.rts"))?;
        let alphabet = Alphabet::new();
        let fds: Vec<Fd> = FDS
            .iter()
            .chain(&AUDIT_FDS)
            .map(|(_, t)| parse_fd(&alphabet, t).expect("workload FD parses"))
            .collect();
        let pairs: Vec<(String, String)> = FDS
            .iter()
            .chain(&AUDIT_FDS)
            .map(|(n, t)| (n.to_string(), t.to_string()))
            .collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        let sources: Vec<Source> = (0..=ALTERNATES)
            .map(|i| {
                let doc = generate_session(&alphabet, CANDIDATES, 3, &mut rng);
                // The edited document, then the ones loads re-ingest beside it.
                let name = if i == 0 { "session" } else { "incoming" };
                let load = obj(vec![
                    ("name", Json::str(name)),
                    ("xml", Json::str(to_xml(&doc))),
                ]);
                Source { load, doc }
            })
            .collect();
        Ok(EditStdio {
            seed,
            alphabet,
            fds: Arc::new(fds),
            fds_json: named(&pairs[..FDS.len()]).to_compact(),
            audit_json: named(&pairs).to_compact(),
            sessions: vec![SessionSetup {
                schema: Some(schema),
                loads: vec![sources[0].load.clone()],
            }],
            sources: Arc::new(sources),
        })
    }
}

enum Pending {
    Update(Json),
    Check,
    /// With the alternate document loaded as `incoming`.
    Audit(usize),
    Validate,
    Load(usize),
}

/// An op whose check waits for the reference document.
enum Deferred {
    /// An update and the per-FD outcomes the daemon reported for it
    /// (`None` when the reply already failed).
    Update(Json, Option<Vec<bool>>),
    /// The outcomes an `fd/check` of [`FDS`] reported.
    Check(Vec<bool>),
    /// The outcomes an audit reported (`incoming`, then `session`; per
    /// document [`FDS`], then [`AUDIT_FDS`]) and the alternate document
    /// loaded as `incoming`.
    Audit(Vec<bool>, usize),
}

struct EditStream {
    deck: Deck<Kind>,
    alphabet: Alphabet,
    fds: Arc<Vec<Fd>>,
    fds_json: String,
    audit_json: String,
    sources: Arc<Vec<Source>>,
    /// The alternate document the last load re-ingested.
    current: usize,
    deferred: Vec<Deferred>,
    warmup_left: usize,
    pending: Option<Pending>,
}

impl EditStream {
    /// One `first_only` point edit of a leaf value.
    fn point_edit(&mut self) -> Json {
        let r = self.deck.rng();
        let (select, value) = match r.gen_range(0..5u32) {
            0 => (
                "/session/candidate/exam/rank",
                r.gen_range(1..50u32).to_string(),
            ),
            1 => (
                "/session/candidate/exam/mark",
                r.gen_range(0..=20u32).to_string(),
            ),
            2 => (
                "/session/candidate/exam/discipline",
                ["math", "physics", "biology"][r.gen_range(0..3usize)].to_string(),
            ),
            3 => (
                "/session/candidate/level",
                ["A", "B", "C", "D", "E"][r.gen_range(0..5usize)].to_string(),
            ),
            _ => (
                "/session/candidate/firstJob-Year",
                (2009 + r.gen_range(0..5u32)).to_string(),
            ),
        };
        Json::Obj(vec![
            ("select".into(), Json::str(select)),
            ("op".into(), Json::str("set_text")),
            ("value".into(), Json::str(value)),
            ("first_only".into(), Json::Bool(true)),
        ])
    }

    fn outcomes_of<'a>(checks: impl Iterator<Item = &'a Json>) -> Result<Vec<bool>, String> {
        checks
            .map(|c| match str_field(c, "outcome")? {
                "satisfied" => Ok(true),
                "violated" => Ok(false),
                other => Err(format!("FD outcome '{other}'")),
            })
            .collect()
    }
}

impl OpStream for EditStream {
    fn warmup_ops(&self) -> usize {
        2
    }

    fn block_len(&self) -> usize {
        self.deck.block_len()
    }

    fn next_op(&mut self) -> Op {
        let kind = if self.warmup_left > 0 {
            // Warm-up: a load puts the second document beside the first,
            // then an update seeds the daemon's incremental checker.
            self.warmup_left -= 1;
            if self.warmup_left == 1 {
                Kind::Load
            } else {
                Kind::Update
            }
        } else {
            self.deck.draw()
        };
        match kind {
            Kind::Update => {
                let update = self.point_edit();
                let params = format!(
                    r#"{{"name":"session","fds":{},"update":{}}}"#,
                    self.fds_json,
                    update.to_compact()
                );
                self.pending = Some(Pending::Update(update));
                Op {
                    method: "document/update",
                    params,
                    class: OpClass::Write,
                    label: "update",
                }
            }
            Kind::Load => {
                // Another document than last time, so each load is fresh.
                let next = 1 + self.current % ALTERNATES;
                self.current = next;
                self.pending = Some(Pending::Load(next));
                Op {
                    method: "document/load",
                    params: self.sources[next].load.clone(),
                    class: OpClass::Write,
                    label: "load",
                }
            }
            Kind::Check => {
                self.pending = Some(Pending::Check);
                Op {
                    method: "fd/check",
                    params: format!(r#"{{"fds":{},"docs":["session"]}}"#, self.fds_json),
                    class: OpClass::Read,
                    label: "check",
                }
            }
            Kind::Audit => {
                self.pending = Some(Pending::Audit(self.current));
                Op {
                    method: "fd/check",
                    // Without `docs`: every loaded document, in name order.
                    params: format!(r#"{{"fds":{}}}"#, self.audit_json),
                    class: OpClass::Read,
                    label: "audit",
                }
            }
            Kind::Validate => {
                self.pending = Some(Pending::Validate);
                Op {
                    method: "document/validate",
                    params: obj(vec![("name", Json::str("session"))]),
                    class: OpClass::Read,
                    label: "validate",
                }
            }
        }
    }

    fn verify(&mut self, _op: &Op, reply: Result<&Json, &str>) -> Result<(), String> {
        let pending = self.pending.take().expect("verify follows next_op");
        let audit = match pending {
            Pending::Audit(alternate) => Some(alternate),
            _ => None,
        };
        // Outcomes are compared in `finish`, after the measured phase: the
        // reference re-parses a 25k-node document per update, work that
        // would otherwise sit between two timed ops and evict the daemon's
        // data from the caches they share.
        let result = match pending {
            Pending::Update(update) => {
                let got = expect_ok(reply).and_then(|r| {
                    let checks = r
                        .get("checks")
                        .and_then(Json::as_array)
                        .ok_or("no 'checks'")?;
                    Self::outcomes_of(checks.iter().filter_map(|c| c.get("check")))
                });
                // The reference advances whether or not the reply is right.
                self.deferred
                    .push(Deferred::Update(update, got.as_ref().ok().cloned()));
                return got.map(drop);
            }
            Pending::Load(next) => {
                let result = expect_ok(reply)?;
                let want = self.sources[next].doc.len();
                return match result.get("nodes").and_then(Json::as_u64) {
                    Some(n) if n as usize == want => Ok(()),
                    got => Err(format!("loaded {got:?} nodes, want {want}")),
                };
            }
            Pending::Check | Pending::Audit(_) | Pending::Validate => expect_ok(reply)?,
        };
        if let Some(valid) = result.get("valid") {
            // Point edits of leaf values keep the document schema-valid.
            return match valid {
                Json::Bool(true) => Ok(()),
                other => Err(format!("valid = {other:?}, want true")),
            };
        }
        let docs = result
            .get("documents")
            .and_then(Json::as_array)
            .ok_or("no 'documents'")?;
        let want: &[&str] = match audit {
            Some(_) => &["incoming", "session"],
            None => &["session"],
        };
        let names: Vec<&str> = docs
            .iter()
            .map(|d| d.get("path").and_then(Json::as_str).unwrap_or(""))
            .collect();
        if names != want {
            return Err(format!("documents {names:?}, want {want:?}"));
        }
        let mut got = Vec::new();
        for doc in docs {
            let checks = doc
                .get("checks")
                .and_then(Json::as_array)
                .ok_or("no 'checks'")?;
            got.extend(Self::outcomes_of(checks.iter())?);
        }
        self.deferred.push(match audit {
            Some(alternate) => Deferred::Audit(got, alternate),
            None => Deferred::Check(got),
        });
        Ok(())
    }

    fn finish(&mut self) -> Vec<String> {
        let candidate_fds = &self.fds[..FDS.len()];
        let mut doc = self.sources[0].doc.clone();
        let mut want = reference_outcomes(&self.alphabet, candidate_fds, &doc);
        // The alternates never change: one reference each.
        let mut alternates: Vec<Option<Vec<bool>>> = vec![None; self.sources.len()];
        let mut failures = Vec::new();
        for event in std::mem::take(&mut self.deferred) {
            let got = match event {
                Deferred::Update(update, got) => {
                    let update =
                        parse_update_json(&self.alphabet, &update).expect("own update parses");
                    update.apply(&mut doc).expect("point edits apply");
                    want = reference_outcomes(&self.alphabet, candidate_fds, &doc);
                    got
                }
                Deferred::Audit(got, alternate) => {
                    // Audits are few: their reference is made when needed.
                    let mut want = alternates[alternate]
                        .get_or_insert_with(|| {
                            let incoming = &self.sources[alternate].doc;
                            reference_outcomes(&self.alphabet, &self.fds, incoming)
                        })
                        .clone();
                    want.extend(reference_outcomes(&self.alphabet, &self.fds, &doc));
                    if got != want {
                        failures.push(format!("audit outcomes {got:?}, reference {want:?}"));
                    }
                    continue;
                }
                Deferred::Check(got) => Some(got),
            };
            if let Some(got) = got.filter(|got| *got != want) {
                failures.push(format!("FD outcomes {got:?}, reference {want:?}"));
            }
        }
        failures
    }
}

impl Workload for EditStdio {
    fn transport(&self) -> Transport {
        Transport::Stdio
    }

    fn sessions(&self) -> &[SessionSetup] {
        &self.sessions
    }

    fn stream(&self, _conn: usize) -> Box<dyn OpStream> {
        Box::new(EditStream {
            deck: Deck::new(
                BLOCK.to_vec(),
                SmallRng::seed_from_u64(self.seed.wrapping_mul(31).wrapping_add(11)),
            ),
            alphabet: self.alphabet.clone(),
            fds: Arc::clone(&self.fds),
            fds_json: self.fds_json.clone(),
            audit_json: self.audit_json.clone(),
            sources: Arc::clone(&self.sources),
            current: 0,
            deferred: Vec::new(),
            warmup_left: 2,
            pending: None,
        })
    }

    fn nominal_ops(&self) -> usize {
        // Five blocks: the tail percentile (p99.0) leaves the five loads and
        // half the ten audits beyond it (and four of eight in four blocks).
        1000
    }

    fn describe(&self) -> String {
        format!(
            "1 stdio client, closed loop; {CANDIDATES} candidates x 3 exams ({} bytes of XML); \
             blocks of {BLOCK:?}",
            self.sources[0].load.len()
        )
    }
}
