//! `matrix-stdio`: FD × update-class matrices over the stdio transport.
//!
//! One client drives one schema-less session through `rtpserved --stdio`,
//! the editor transport, which has no TCP. Ops are `independence/matrix`
//! requests over seeded FD sets of 102–198 rows built like the FD-set
//! pruning study (`/db : g{i}/...` groups of six, two of them implied)
//! against four update-class columns. Most ops are unpruned; a seeded
//! minority asks for `prune: true` or calls `fd/minimize` on the same set,
//! and those are slower, so the median sits in the unpruned mode and the
//! tail in the pruned one. Each op spends milliseconds in the IC search,
//! the matrix engine and its worker fan-out; the wire is a small share.
//!
//! A small seeded share of ops loads a small `/db` document: the runner
//! reports a write-op median on every workload.

use std::collections::BTreeSet;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use regtree_alphabet::Alphabet;
use regtree_core::api::{Json, MatrixResponse};
use regtree_core::{parse_fd, Analyzer, Fd, UpdateClass};
use regtree_pattern::parse_corexpath;
use regtree_xml::{document_from_specs, to_xml, TreeSpec};

use crate::wire::Transport;
use crate::workload::{
    expect_ok, named, obj, str_field, Deck, Op, OpClass, OpStream, SessionSetup, Workload,
};

/// Groups of six FDs in each FD set the ops draw from (102–198 rows).
/// Sizes are fixed and every group has the same structure, so seeds vary
/// names and column positions but not the work an op does.
const SET_GROUPS: [usize; 6] = [17, 20, 23, 27, 30, 33];
/// One block of the op mix: unpruned matrices, pruned matrices,
/// `fd/minimize` calls and loads of the small document. Pruned matrices
/// are the slowest ops; one per block puts about ten of a run's ~25 beyond
/// the tail percentile, so it falls inside their mode, not at its edge.
const BLOCK: [(Kind, usize); 4] = [
    (Kind::Unpruned, 42),
    (Kind::Pruned, 1),
    (Kind::Minimize, 3),
    (Kind::Load, 4),
];

struct Case {
    unpruned: String,
    pruned: String,
    minimize: String,
    /// Per cell (row-major): the verdict a pruned reference matrix
    /// computed, `None` on rows it dropped as implied.
    pruned_verdicts: Vec<Option<String>>,
    /// Per cell: the verdict of the unpruned reference matrix.
    unpruned_verdicts: Vec<String>,
    /// Rows implied by construction (each group's `aug` and `goal`).
    implied: BTreeSet<String>,
    rows: usize,
}

/// The `matrix-stdio` workload.
pub struct MatrixStdio {
    seed: u64,
    sessions: Vec<SessionSetup>,
    cases: std::sync::Arc<Vec<Case>>,
    load: String,
    load_nodes: usize,
}

/// The six FDs of group `g`, as (name, text).
fn group(g: usize) -> [(String, String); 6] {
    [
        ("wide", format!("/db : g{g}/d -> g{g}[N]")),
        ("narrow", format!("/db : g{g}/d -> g{g}/r")),
        ("aug", format!("/db : g{g}/d, g{g}/x -> g{g}/r")),
        ("chain1", format!("/db : g{g}/c/e -> g{g}/c[N]")),
        ("chain2", format!("/db : g{g}/c[N] -> g{g}/c/f")),
        ("goal", format!("/db : g{g}/c/e -> g{g}/c/f")),
    ]
    .map(|(tag, text)| (format!("g{g}-{tag}"), text))
}

fn verdicts(response: &MatrixResponse) -> impl Iterator<Item = &str> {
    response.cells.iter().map(|c| c.verdict.as_str())
}

impl MatrixStdio {
    /// Builds the FD sets and their reference matrices for `seed`.
    pub fn new(seed: u64) -> MatrixStdio {
        let mut rng = SmallRng::seed_from_u64(seed);
        let alphabet = Alphabet::new();
        let mut cases = Vec::with_capacity(SET_GROUPS.len());
        for groups in SET_GROUPS {
            let base = rng.gen_range(0..16usize);
            let fds: Vec<(String, String)> = (base..base + groups).flat_map(group).collect();
            let b = base + rng.gen_range(0..groups - 2);
            let classes: Vec<(String, String)> = [
                format!("/db/g{b}/d"),
                format!("/db/g{b}/r"),
                format!("/db/g{}/c/e", b + 1),
                format!("/db/g{}/x", b + 2),
            ]
            .into_iter()
            .map(|p| (p[4..].replace('/', "-"), p))
            .collect();
            let implied: BTreeSet<String> = fds
                .iter()
                .map(|(n, _)| n.clone())
                .filter(|n| n.ends_with("-aug") || n.ends_with("-goal"))
                .collect();

            let parsed: Vec<(&str, Fd)> = fds
                .iter()
                .map(|(n, t)| {
                    (
                        n.as_str(),
                        parse_fd(&alphabet, t).expect("corpus FD parses"),
                    )
                })
                .collect();
            let parsed_classes: Vec<(&str, UpdateClass)> = classes
                .iter()
                .map(|(n, p)| {
                    let pattern = parse_corexpath(&alphabet, p).expect("corpus path parses");
                    (n.as_str(), UpdateClass::new(pattern).expect("leaf path"))
                })
                .collect();
            let fd_refs: Vec<(&str, &Fd)> = parsed.iter().map(|(n, f)| (*n, f)).collect();
            let class_refs: Vec<(&str, &UpdateClass)> =
                parsed_classes.iter().map(|(n, c)| (*n, c)).collect();
            let unpruned = Analyzer::builder().build().matrix(&fd_refs, &class_refs);
            let pruned = Analyzer::builder()
                .build()
                .matrix_pruned(&fd_refs, &class_refs);
            let unpruned = MatrixResponse::from_matrix(&unpruned);
            let pruned = MatrixResponse::from_matrix(&pruned);

            let fds_json = named(&fds);
            let updates_json = named(&classes);
            cases.push(Case {
                unpruned: obj(vec![
                    ("fds", fds_json.clone()),
                    ("updates", updates_json.clone()),
                ]),
                pruned: obj(vec![
                    ("fds", fds_json.clone()),
                    ("updates", updates_json),
                    ("prune", Json::Bool(true)),
                ]),
                minimize: obj(vec![("fds", fds_json)]),
                pruned_verdicts: verdicts(&pruned)
                    .map(|v| (v != "implied").then(|| v.to_string()))
                    .collect(),
                unpruned_verdicts: verdicts(&unpruned).map(str::to_string).collect(),
                implied,
                rows: fds.len(),
            });
        }

        // A small `/db` document with three groups.
        let leaf = |name: &str, value: String| {
            TreeSpec::elem_named(&alphabet, name, vec![TreeSpec::text(&value)])
        };
        let groups: Vec<TreeSpec> = (0..3)
            .map(|g| {
                let c = TreeSpec::elem_named(
                    &alphabet,
                    "c",
                    vec![leaf("e", format!("e{g}")), leaf("f", format!("f{g}"))],
                );
                let children = vec![
                    leaf("d", format!("{}", rng.gen_range(0..100u32))),
                    leaf("r", format!("{}", rng.gen_range(0..100u32))),
                    c,
                    leaf("x", format!("x{g}")),
                ];
                TreeSpec::elem_named(&alphabet, &format!("g{g}"), children)
            })
            .collect();
        let doc = document_from_specs(
            alphabet.clone(),
            &[TreeSpec::elem_named(&alphabet, "db", groups)],
        );
        let load = obj(vec![
            ("name", Json::str("sample")),
            ("xml", Json::str(to_xml(&doc))),
        ]);
        MatrixStdio {
            seed,
            sessions: vec![SessionSetup {
                schema: None,
                loads: Vec::new(),
            }],
            cases: std::sync::Arc::new(cases),
            load,
            load_nodes: doc.len(),
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Kind {
    Unpruned,
    Pruned,
    Minimize,
    Load,
}

struct MatrixStream {
    deck: Deck<Kind>,
    cases: std::sync::Arc<Vec<Case>>,
    /// Per kind, the next FD set: each kind takes the sets in turn, from a
    /// seeded start, so a run's ops of a kind cover every set size evenly.
    turns: [usize; 4],
    warmup_left: usize,
    load: String,
    load_nodes: usize,
    pending: Option<(Kind, usize)>,
}

fn cell_verdicts(result: &Json) -> Result<Vec<(&str, &str)>, String> {
    let cells = result
        .get("cells")
        .and_then(Json::as_array)
        .ok_or("reply lacks 'cells'")?;
    cells
        .iter()
        .map(|c| Ok((str_field(c, "fd")?, str_field(c, "verdict")?)))
        .collect()
}

impl MatrixStream {
    fn verify_matrix(&self, case: &Case, result: &Json, pruned: bool) -> Result<(), String> {
        let cells = cell_verdicts(result)?;
        if cells.len() != case.unpruned_verdicts.len() {
            return Err(format!(
                "{} cells, want {}",
                cells.len(),
                case.unpruned_verdicts.len()
            ));
        }
        let mut implied_rows = BTreeSet::new();
        for (i, &(fd, verdict)) in cells.iter().enumerate() {
            if verdict == "unknown" {
                return Err(format!("UNKNOWN cell {i}"));
            }
            if verdict == "implied" {
                implied_rows.insert(fd.to_string());
                continue;
            }
            // Agreement on every cell both modes compute: a pruned reply is
            // checked against the unpruned reference and vice versa.
            let reference = if pruned {
                Some(&case.unpruned_verdicts[i])
            } else {
                case.pruned_verdicts[i].as_ref()
            };
            if let Some(want) = reference {
                if verdict != want {
                    return Err(format!("cell {i} ({fd}) says {verdict}, reference {want}"));
                }
            }
        }
        let want_implied = if pruned {
            case.implied.clone()
        } else {
            BTreeSet::new()
        };
        if implied_rows != want_implied {
            return Err(format!(
                "{} implied rows, {} by construction",
                implied_rows.len(),
                want_implied.len()
            ));
        }
        Ok(())
    }

    fn verify_minimize(case: &Case, result: &Json) -> Result<(), String> {
        let dropped: BTreeSet<String> = result
            .get("dropped")
            .and_then(Json::as_array)
            .ok_or("reply lacks 'dropped'")?
            .iter()
            .map(|d| str_field(d, "fd").map(str::to_string))
            .collect::<Result<_, _>>()?;
        let kept = result
            .get("kept")
            .and_then(Json::as_array)
            .map_or(0, <[Json]>::len);
        if dropped != case.implied || kept + dropped.len() != case.rows {
            return Err(format!(
                "minimize dropped {} and kept {kept} of {}; {} are implied by construction",
                dropped.len(),
                case.rows,
                case.implied.len()
            ));
        }
        Ok(())
    }
}

impl OpStream for MatrixStream {
    fn warmup_ops(&self) -> usize {
        self.cases.len()
    }

    fn block_len(&self) -> usize {
        self.deck.block_len()
    }

    fn next_op(&mut self) -> Op {
        let (kind, case) = if self.warmup_left > 0 {
            // Warm-up: every set once, so the compile cache is full.
            self.warmup_left -= 1;
            (Kind::Unpruned, self.warmup_left)
        } else {
            let kind = self.deck.draw();
            let turn = &mut self.turns[kind as usize];
            *turn += 1;
            (kind, *turn % self.cases.len())
        };
        self.pending = Some((kind, case));
        let c = &self.cases[case];
        let (method, params, class, label) = match kind {
            Kind::Unpruned => (
                "independence/matrix",
                c.unpruned.clone(),
                OpClass::Read,
                "unpruned",
            ),
            Kind::Pruned => (
                "independence/matrix",
                c.pruned.clone(),
                OpClass::Read,
                "pruned",
            ),
            Kind::Minimize => ("fd/minimize", c.minimize.clone(), OpClass::Read, "minimize"),
            Kind::Load => ("document/load", self.load.clone(), OpClass::Write, "load"),
        };
        Op {
            method,
            params,
            class,
            label,
        }
    }

    fn verify(&mut self, _op: &Op, reply: Result<&Json, &str>) -> Result<(), String> {
        let result = expect_ok(reply)?;
        let (kind, case) = self.pending.take().expect("verify follows next_op");
        let case = &self.cases[case];
        match kind {
            Kind::Unpruned => self.verify_matrix(case, result, false),
            Kind::Pruned => self.verify_matrix(case, result, true),
            Kind::Minimize => Self::verify_minimize(case, result),
            Kind::Load => match result.get("nodes").and_then(Json::as_u64) {
                Some(n) if n as usize == self.load_nodes => Ok(()),
                got => Err(format!("loaded {got:?} nodes, want {}", self.load_nodes)),
            },
        }
    }
}

impl Workload for MatrixStdio {
    fn transport(&self) -> Transport {
        Transport::Stdio
    }

    fn sessions(&self) -> &[SessionSetup] {
        &self.sessions
    }

    fn stream(&self, _conn: usize) -> Box<dyn OpStream> {
        let mut rng = SmallRng::seed_from_u64(self.seed.wrapping_mul(31).wrapping_add(7));
        let turns = [(); 4].map(|()| rng.gen_range(0..self.cases.len()));
        Box::new(MatrixStream {
            deck: Deck::new(BLOCK.to_vec(), rng),
            cases: std::sync::Arc::clone(&self.cases),
            turns,
            warmup_left: self.cases.len(),
            load: self.load.clone(),
            load_nodes: self.load_nodes,
            pending: None,
        })
    }

    fn nominal_ops(&self) -> usize {
        1200
    }

    fn describe(&self) -> String {
        format!(
            "1 stdio client, closed loop; FD sets of {:?} rows x 4 columns; \
             blocks of {BLOCK:?}",
            SET_GROUPS.map(|g| 6 * g)
        )
    }
}
