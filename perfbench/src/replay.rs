//! The traced run's in-process replay of each op.
//!
//! After an op's response has arrived, and off that op's clock, the op is
//! replayed twice on mirrors that have received every earlier op of the
//! same connection, so they hold the same session state as the daemon.
//! The request is decoded once (frame read, `Json::parse`, envelope) and
//! both passes start from it:
//!
//! 1. once through `Service::dispatch` on a mirror service — the
//!    `serve.service.dispatch` span;
//! 2. once through the public functions of each layer, in the order
//!    dispatch calls them, one span per call (a loop over many FD texts
//!    is one span with a call count).
//!
//! The layer pass mirrors `regtree_serve::service`, the one place this
//! benchmark repeats program logic; if the service changes what it calls,
//! this file follows.

use std::collections::{BTreeMap, HashMap};
use std::io::BufReader;
use std::time::Instant;

use regtree_alphabet::Alphabet;
use regtree_core::api::{
    parse_update_json, scope_name, DocumentChecks, FdCheckOutcome, FdCheckResponse,
    IndependenceResponse, Json, MatrixResponse, MinimizeResponse, UpdateCheckEntry, UpdateResponse,
};
use regtree_core::{
    parse_fd, Analyzer, CancelToken, CellProvenance, Fd, FdOutcome, FdSet, IncrementalChecker,
    RunLimits, RunMetrics, RunOverrides, TraceHandle, UpdateClass, Verdict,
};
use regtree_hedge::Schema;
use regtree_pattern::parse_corexpath;
use regtree_serve::rpc::{self, Incoming};
use regtree_serve::{ServerConfig, Service};
use regtree_xml::{parse_document, to_xml_with, SerializeOptions, VersionedDocument};

use crate::trace::Tracer;

/// Per-op values of the per-layer metrics, keyed by metric name.
#[derive(Default)]
pub struct Samples(pub BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, metric: &'static str, value: f64) {
        self.0.entry(metric).or_default().push(value);
    }
}

/// Time metrics taken straight from span durations: per op, the summed
/// duration of the named spans.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("serve.rpc.frame_read", "serve.rpc.frame_read_us"),
    ("serve.rpc.frame_write", "serve.rpc.frame_write_us"),
    ("core.api.json_parse", "core.api.json_parse_us"),
    ("core.api.to_json", "core.api.json_emit_us"),
    ("core.api.to_compact", "core.api.json_emit_us"),
    ("core.textfd.parse_fd", "core.textfd.parse_fd_us"),
    ("pattern.corexpath.parse", "pattern.corexpath.parse_us"),
    ("hedge.schema.compile", "hedge.schema.compile_us"),
    ("hedge.schema.validate", "hedge.schema.validate_us"),
    ("xml.parse.parse", "xml.parse.parse_us"),
    ("xml.versioned.index_build", "xml.versioned.index_build_us"),
    ("core.incremental.recheck", "core.incremental.recheck_us"),
    ("core.fdset.minimize", "core.fdset.minimize_us"),
];

/// What one replay measured, for the op-level accounting.
pub struct Replayed {
    /// `Service::dispatch` on the mirror service.
    pub dispatch_ns: u64,
    /// Every call of the layer pass (inside and around dispatch).
    pub layers_ns: u64,
    /// The calls of the layer pass that dispatch makes.
    pub inside_ns: u64,
    /// The matrix engine's call, IC searches included (matrix ops only).
    pub matrix_ns: u64,
    /// The dispatch pass ran second (its time is a warm measurement).
    pub dispatch_warm: bool,
    /// The layer pass ran second.
    pub layers_warm: bool,
}

/// Which replay pass runs first; see [`Replayer::replay`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Order {
    /// Dispatch first; only the layer pass is measured warm.
    DispatchFirst,
    /// Layers first; only the dispatch pass is measured warm.
    LayersFirst,
    /// Dispatch first, and both feed the metrics (set-up ops).
    Both,
}

/// Spans a loop of calls of one function as a single span.
struct Batch {
    name: &'static str,
    start: Instant,
    calls: u32,
}

impl Batch {
    fn start(name: &'static str) -> Batch {
        Batch {
            name,
            start: Instant::now(),
            calls: 0,
        }
    }
}

struct LayerDoc {
    vdoc: VersionedDocument,
    checker: Option<(String, IncrementalChecker)>,
}

struct LayerSession {
    alphabet: Alphabet,
    analyzer: Analyzer,
    docs: HashMap<String, LayerDoc>,
}

/// The mirrors of one connection.
pub struct Replayer {
    service: Service,
    service_sid: Option<u64>,
    session: Option<LayerSession>,
    cancel: CancelToken,
}

/// One op's layer spans, as it is being replayed.
struct Pass<'t> {
    tracer: &'t mut Tracer,
    op: u64,
    parent: u64,
    inside_ns: u64,
    outside_ns: u64,
    matrix_ns: u64,
    samples: &'t mut Samples,
}

impl Pass<'_> {
    /// Times `f` as one span; `inside` says whether dispatch makes the call.
    fn time<R>(&mut self, name: &'static str, inside: bool, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.finish(name, inside, start, 1);
        out
    }

    fn finish(&mut self, name: &'static str, inside: bool, start: Instant, calls: u32) {
        let end = Instant::now();
        self.tracer
            .record(name, self.parent, self.op, start, end, calls);
        let ns = (end - start).as_nanos() as u64;
        if inside {
            self.inside_ns += ns;
        } else {
            self.outside_ns += ns;
        }
    }

    /// Duration of the span recorded last.
    fn last_ns(&self) -> u64 {
        self.tracer.spans.last().map_or(0, |s| s.dur_ns)
    }

    fn end_batch(&mut self, batch: Batch) {
        if batch.calls > 0 {
            self.finish(batch.name, true, batch.start, batch.calls);
        }
    }

    fn sample(&mut self, metric: &'static str, value: f64) {
        self.samples.push(metric, value);
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn named_pairs(value: Option<&Json>) -> Vec<(String, String)> {
    value
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|pair| {
            let pair = pair.as_array()?;
            Some((
                pair.first()?.as_str()?.to_string(),
                pair.get(1)?.as_str()?.to_string(),
            ))
        })
        .collect()
}

fn parse_fds(pass: &mut Pass, alphabet: &Alphabet, value: Option<&Json>) -> Vec<(String, Fd)> {
    let mut batch = Batch::start("core.textfd.parse_fd");
    let mut out = Vec::new();
    for (name, expr) in named_pairs(value) {
        batch.calls += 1;
        out.push((
            name,
            parse_fd(alphabet, &expr).expect("the daemon accepted this FD"),
        ));
    }
    pass.end_batch(batch);
    out
}

fn parse_class(alphabet: &Alphabet, expr: &str) -> UpdateClass {
    let pattern = parse_corexpath(alphabet, expr).expect("the daemon accepted this path");
    UpdateClass::new(pattern).expect("the daemon accepted this update class")
}

fn unlimited() -> RunOverrides {
    RunOverrides::new()
        .limits(RunLimits::UNLIMITED)
        .cancel_token(CancelToken::new())
}

/// Per-cell counters of the lazy IC engine.
fn lazy_ic_samples(pass: &mut Pass, m: &RunMetrics, cells: usize) {
    let per = |v: u64| v as f64 / cells.max(1) as f64;
    pass.sample("core.lazy_ic.search_us", per(m.search_nanos) / 1e3);
    pass.sample("core.lazy_ic.states_interned", per(m.states_interned));
    pass.sample("core.lazy_ic.transitions_fired", per(m.transitions_fired));
    pass.sample(
        "core.lazy_ic.guard_intersections",
        per(m.guard_intersections),
    );
    pass.sample("core.lazy_ic.frontier_pushes", per(m.frontier_pushes));
    let lookups = m.memo_hits + m.memo_entries;
    if lookups > 0 {
        pass.sample(
            "core.lazy_ic.memo_hit_ratio",
            m.memo_hits as f64 / lookups as f64,
        );
    }
}

/// The layer pass's front end, run once per op as children of `parent`:
/// frame read, JSON parse and envelope. Returns the request, its framed
/// size and the time of the three calls.
fn decode(tracer: &mut Tracer, op: u64, parent: u64, body: &[u8]) -> (Incoming, usize, u64) {
    let mut discard = Samples::default();
    let mut pass = Pass {
        tracer,
        op,
        parent,
        inside_ns: 0,
        outside_ns: 0,
        matrix_ns: 0,
        samples: &mut discard,
    };
    let framed = crate::wire::frame(body);
    // The first call after the client waited on the wire pays for refilling
    // caches (tens of microseconds); an untimed read of the frame takes that
    // cost, so the timed calls below run warm.
    let _ = rpc::read_frame(&mut BufReader::new(&framed[..]), usize::MAX);
    let read = pass.time("serve.rpc.frame_read", false, || {
        rpc::read_frame(&mut BufReader::new(&framed[..]), usize::MAX)
    });
    let read = read.expect("the frame is well formed");
    let value = pass.time("core.api.json_parse", false, || {
        Json::parse(std::str::from_utf8(&read).expect("UTF-8"))
    });
    let value = value.expect("the body is JSON");
    let incoming = pass.time("serve.rpc.parse_envelope", false, || {
        rpc::parse_envelope(value)
    });
    let incoming = incoming.unwrap_or_else(|_| panic!("the envelope is valid"));
    (incoming, framed.len(), pass.outside_ns)
}

/// Checks that the layer pass did what the daemon did, where the reply
/// shows it: `fd/check` must report the same documents and outcomes (the
/// pass picks documents the way the service does).
fn agree(method: &str, mirror: &Json, reply: &Json) -> Result<(), String> {
    if method != "fd/check" {
        return Ok(());
    }
    let (got, want) = (mirror.get("documents"), reply.get("documents"));
    if got == want {
        return Ok(());
    }
    let count = |d: Option<&Json>| d.and_then(Json::as_array).map_or(0, <[Json]>::len);
    Err(format!(
        "the layer replay of fd/check reports {} document(s), the daemon {}, or their checks differ",
        count(got),
        count(want)
    ))
}

impl Replayer {
    /// Fresh mirrors; they must see the connection's set-up ops first.
    pub fn new() -> Replayer {
        Replayer {
            service: Service::new(ServerConfig::default()),
            service_sid: None,
            session: None,
            cancel: CancelToken::new(),
        }
    }

    /// Replays the op whose request body is `body` (as sent on the wire),
    /// as children of span `parent`. `reply` is the daemon's `result` for
    /// it, when there is one; the layer pass must agree with it.
    ///
    /// The request is decoded once, by the layer pass's front end (frame
    /// read, JSON parse, envelope), and both passes start from it. After
    /// that, whichever pass runs first after the client waited on the wire
    /// pays for refilling caches (about 0.2 ms on a 2-core box, as much as
    /// a whole small op), so the caller alternates `order` between ops and
    /// only the pass that ran second feeds the metrics. [`Order::Both`]
    /// (set-up ops) runs dispatch first and keeps both.
    #[allow(clippy::too_many_arguments)]
    pub fn replay(
        &mut self,
        tracer: &mut Tracer,
        samples: &mut Samples,
        op: u64,
        parent: u64,
        body: &[u8],
        reply: Option<&Json>,
        order: Order,
    ) -> Result<Replayed, String> {
        let (dispatch_warm, layers_warm) = match order {
            Order::DispatchFirst => (false, true),
            Order::LayersFirst => (true, false),
            Order::Both => (true, true),
        };
        let first = tracer.spans.len();
        let (incoming, bytes_in, decode_ns) = decode(tracer, op, parent, body);
        let (dispatch_ns, (inside_ns, outside_ns, matrix_ns, result)) =
            if order == Order::LayersFirst {
                let layers = self.layers(tracer, samples, op, parent, &incoming, layers_warm);
                (
                    self.dispatch(tracer, samples, op, parent, &incoming, dispatch_warm),
                    layers,
                )
            } else {
                let dispatch = self.dispatch(tracer, samples, op, parent, &incoming, dispatch_warm);
                (
                    dispatch,
                    self.layers(tracer, samples, op, parent, &incoming, layers_warm),
                )
            };
        if layers_warm {
            let mut per_metric: BTreeMap<&'static str, u64> = BTreeMap::new();
            for span in &tracer.spans[first..] {
                if let Some(&(_, metric)) = SPAN_METRICS.iter().find(|(name, _)| *name == span.name)
                {
                    *per_metric.entry(metric).or_default() += span.dur_ns;
                }
            }
            for (metric, ns) in per_metric {
                samples.push(metric, us(ns));
            }
            samples.push("serve.rpc.bytes_in_per_op", bytes_in as f64);
        }
        if let Some(reply) = reply {
            agree(&incoming.method, &result, reply)?;
        }
        Ok(Replayed {
            dispatch_ns,
            layers_ns: decode_ns + inside_ns + outside_ns,
            inside_ns,
            matrix_ns,
            dispatch_warm,
            layers_warm,
        })
    }

    /// The `Service::dispatch` pass; returns its duration.
    fn dispatch(
        &mut self,
        tracer: &mut Tracer,
        samples: &mut Samples,
        op: u64,
        parent: u64,
        incoming: &Incoming,
        record: bool,
    ) -> u64 {
        let mut params = incoming.params.clone();
        if let (Json::Obj(members), Some(sid)) = (&mut params, self.service_sid) {
            for (k, v) in members.iter_mut() {
                if k == "sessionId" {
                    *v = Json::u64(sid);
                }
            }
        }
        let start = Instant::now();
        let result = self
            .service
            .dispatch(&incoming.method, &params, &self.cancel);
        let end = Instant::now();
        tracer.record("serve.service.dispatch", parent, op, start, end, 1);
        let dispatch_ns = (end - start).as_nanos() as u64;
        if record {
            samples.push("serve.service.dispatch_us", us(dispatch_ns));
        }
        if incoming.method == "session/open" {
            self.service_sid = result
                .as_ref()
                .ok()
                .and_then(|r| r.get("sessionId"))
                .and_then(Json::as_u64);
        }
        dispatch_ns
    }

    /// The layer-by-layer pass after the decode; returns the time of the
    /// calls dispatch makes, of those around them, of the matrix engine,
    /// and the result it built.
    fn layers(
        &mut self,
        tracer: &mut Tracer,
        samples: &mut Samples,
        op: u64,
        parent: u64,
        incoming: &Incoming,
        record: bool,
    ) -> (u64, u64, u64, Json) {
        let layers = tracer.open("replay.layers", parent, op);
        let mut discard = Samples::default();
        let mut pass = Pass {
            tracer,
            op,
            parent: layers,
            inside_ns: 0,
            outside_ns: 0,
            matrix_ns: 0,
            samples: if record { &mut *samples } else { &mut discard },
        };
        let result = self.method(&mut pass, &incoming.method, &incoming.params);
        let id = incoming.id.clone().unwrap_or(Json::Null);
        let response = rpc::response_ok(&id, result.clone());
        let bytes = pass.time("core.api.to_compact", false, || response.to_compact());
        let mut sink = Vec::with_capacity(bytes.len() + 32);
        pass.time("serve.rpc.frame_write", false, || {
            rpc::write_frame(&mut sink, bytes.as_bytes())
        })
        .expect("writing to memory cannot fail");
        pass.sample("serve.rpc.bytes_out_per_op", sink.len() as f64);
        let (inside_ns, outside_ns, matrix_ns) = (pass.inside_ns, pass.outside_ns, pass.matrix_ns);
        tracer.close(layers);
        (inside_ns, outside_ns, matrix_ns, result)
    }

    fn method(&mut self, pass: &mut Pass, method: &str, params: &Json) -> Json {
        match method {
            "session/open" => self.session_open(pass, params),
            "document/load" => self.document_load(pass, params),
            "document/validate" => self.document_validate(pass, params),
            "document/update" => self.document_update(pass, params),
            "independence/check" => self.independence_check(pass, params),
            "independence/matrix" => self.independence_matrix(pass, params),
            "fd/check" => self.fd_check(pass, params),
            "fd/minimize" => self.fd_minimize(pass, params),
            _ => Json::Null,
        }
    }

    fn session(&mut self) -> &mut LayerSession {
        self.session
            .as_mut()
            .expect("session/open is replayed before any session method")
    }

    fn session_open(&mut self, pass: &mut Pass, params: &Json) -> Json {
        let alphabet = Alphabet::new();
        let schema_text = params.get("schema").and_then(Json::as_str);
        let analyzer = pass.time("hedge.schema.compile", true, || {
            let mut builder = Analyzer::builder().limits(RunLimits::UNLIMITED);
            if let Some(text) = schema_text {
                let schema = Schema::parse(&alphabet, text).expect("the daemon accepted it");
                builder = builder.schema(schema);
            }
            builder.build()
        });
        self.session = Some(LayerSession {
            alphabet,
            analyzer,
            docs: HashMap::new(),
        });
        pass.time("core.api.to_json", true, || {
            Json::Obj(vec![
                ("sessionId".into(), Json::u64(1)),
                ("hasSchema".into(), Json::Bool(schema_text.is_some())),
            ])
        })
    }

    fn document_load(&mut self, pass: &mut Pass, params: &Json) -> Json {
        let name = params.get("name").and_then(Json::as_str).unwrap_or("");
        let xml = params.get("xml").and_then(Json::as_str).unwrap_or("");
        let session = self.session();
        let doc = pass.time("xml.parse.parse", true, || {
            parse_document(&session.alphabet, xml)
        });
        let doc = doc.expect("the daemon accepted this document");
        let nodes = doc.len();
        let parse_s = pass.last_ns() as f64 / 1e9;
        pass.sample("xml.parse.nodes_per_s", nodes as f64 / parse_s);
        let mut valid = Json::Null;
        if params.get("validate").and_then(Json::as_bool) == Some(true) {
            let ok = pass.time("hedge.schema.validate", true, || {
                session.analyzer.validate(&doc).is_ok()
            });
            valid = Json::Bool(ok);
        }
        let vdoc = pass.time("xml.versioned.index_build", true, || {
            VersionedDocument::new(doc)
        });
        session.docs.insert(
            name.to_string(),
            LayerDoc {
                vdoc,
                checker: None,
            },
        );
        pass.time("core.api.to_json", true, || {
            Json::Obj(vec![
                ("name".into(), Json::str(name)),
                ("nodes".into(), Json::usize(nodes)),
                ("valid".into(), valid),
            ])
        })
    }

    fn document_validate(&mut self, pass: &mut Pass, params: &Json) -> Json {
        let name = params.get("name").and_then(Json::as_str).unwrap_or("");
        let session = self.session();
        let entry = session.docs.get(name).expect("the document was loaded");
        let verdict = pass.time("hedge.schema.validate", true, || {
            session.analyzer.validate(entry.vdoc.doc())
        });
        pass.time("core.api.to_json", true, || {
            Json::Obj(vec![
                ("name".into(), Json::str(name)),
                ("valid".into(), Json::Bool(verdict.is_ok())),
                (
                    "reason".into(),
                    Json::opt_str(verdict.err().map(|e| e.to_string())),
                ),
            ])
        })
    }

    fn document_update(&mut self, pass: &mut Pass, params: &Json) -> Json {
        let name = params.get("name").and_then(Json::as_str).unwrap_or("");
        let fds_json = params.get("fds").unwrap_or(&Json::Null);
        let session = self.session.as_mut().expect("session is open");
        let named = parse_fds(pass, &session.alphabet, Some(fds_json));
        let update_json = params.get("update").unwrap_or(&Json::Null);
        let update = pass.time("pattern.corexpath.parse", true, || {
            parse_update_json(&session.alphabet, update_json)
        });
        let update = update.expect("the daemon accepted this update");
        let entry = session.docs.get_mut(name).expect("the document was loaded");
        let key = fds_json.to_compact();
        if !matches!(&entry.checker, Some((k, _)) if *k == key) {
            let fds: Vec<Fd> = named.iter().map(|(_, f)| f.clone()).collect();
            let checker = pass.time("core.incremental.seed", true, || {
                IncrementalChecker::with_governance(
                    fds,
                    &entry.vdoc,
                    RunLimits::UNLIMITED,
                    TraceHandle::default(),
                    None,
                )
            });
            entry.checker = Some((key, checker));
        }
        let LayerDoc { vdoc, checker } = entry;
        let (_, checker) = checker.as_mut().expect("the checker was built above");
        let start = Instant::now();
        let report = checker
            .apply_and_recheck(vdoc, &update)
            .expect("the daemon applied this update");
        pass.finish("core.incremental.recheck", true, start, 1);
        let m = &report.metrics;
        let rechecks = m.rechecks_localized + m.rechecks_full;
        if rechecks > 0 {
            pass.sample(
                "core.incremental.localized_ratio",
                m.rechecks_localized as f64 / rechecks as f64,
            );
        }
        pass.sample("core.incremental.deltas_applied", m.deltas_applied as f64);
        pass.time("core.api.to_json", true, || {
            let checks = named
                .iter()
                .zip(report.scopes.iter().zip(&report.outcomes))
                .map(|((fd_name, _), (scope, outcome))| {
                    let violation = match outcome {
                        FdOutcome::Violated(v) => Some(v.describe(vdoc.doc())),
                        _ => None,
                    };
                    UpdateCheckEntry {
                        fd: fd_name.clone(),
                        scope: scope_name(*scope).to_string(),
                        check: FdCheckOutcome::from_outcome(fd_name, outcome, violation),
                    }
                })
                .collect();
            UpdateResponse {
                path: name.to_string(),
                version: vdoc.version(),
                touched: report.touched.len(),
                checks,
                all_satisfied: report.all_satisfied(),
                metrics: Some(report.metrics),
                phases: None,
            }
            .to_json()
        })
    }

    fn independence_check(&mut self, pass: &mut Pass, params: &Json) -> Json {
        let fd_text = params.get("fd").and_then(Json::as_str).unwrap_or("");
        let update_text = params.get("update").and_then(Json::as_str).unwrap_or("");
        let session = self.session.as_ref().expect("session is open");
        let fd = pass.time("core.textfd.parse_fd", true, || {
            parse_fd(&session.alphabet, fd_text)
        });
        let fd = fd.expect("the daemon accepted this FD");
        let class = pass.time("pattern.corexpath.parse", true, || {
            parse_class(&session.alphabet, update_text)
        });
        let cached = session.analyzer.cached_patterns();
        let run = unlimited();
        let analysis = pass.time("core.analyzer.independence", true, || {
            session.analyzer.independence_with(&fd, &class, &run)
        });
        // Two pattern lookups per check: the FD's and the update class's.
        let misses = session.analyzer.cached_patterns() - cached;
        pass.sample("core.analyzer.cache_miss_ratio", misses as f64 / 2.0);
        pass.sample(
            "core.analyzer.compile_us",
            us(analysis.metrics.compile_nanos),
        );
        lazy_ic_samples(pass, &analysis.metrics, 1);
        pass.time("core.api.to_json", true, || {
            let witness_xml = match &analysis.verdict {
                Verdict::Unknown {
                    witness: Some(doc), ..
                } => Some(to_xml_with(doc, SerializeOptions { indent: true })),
                _ => None,
            };
            let mut resp = IndependenceResponse::from_analysis(&analysis, witness_xml);
            resp.metrics = Some(analysis.metrics);
            resp.to_json()
        })
    }

    fn independence_matrix(&mut self, pass: &mut Pass, params: &Json) -> Json {
        let session = self.session.as_ref().expect("session is open");
        let fds = parse_fds(pass, &session.alphabet, params.get("fds"));
        let mut batch = Batch::start("pattern.corexpath.parse");
        let classes: Vec<(String, UpdateClass)> = named_pairs(params.get("updates"))
            .into_iter()
            .map(|(name, expr)| {
                batch.calls += 1;
                (name, parse_class(&session.alphabet, &expr))
            })
            .collect();
        pass.end_batch(batch);
        let prune = params.get("prune").and_then(Json::as_bool).unwrap_or(false);
        let fd_refs: Vec<(&str, &Fd)> = fds.iter().map(|(n, f)| (n.as_str(), f)).collect();
        let class_refs: Vec<(&str, &UpdateClass)> =
            classes.iter().map(|(n, c)| (n.as_str(), c)).collect();
        let cached = session.analyzer.cached_patterns();
        let run = unlimited();
        let start = Instant::now();
        let matrix = if prune {
            session
                .analyzer
                .matrix_pruned_with(&fd_refs, &class_refs, &run)
        } else {
            session.analyzer.matrix_with(&fd_refs, &class_refs, &run)
        };
        pass.finish("core.matrix.matrix", true, start, 1);
        let matrix_ns = pass.last_ns();
        pass.matrix_ns = matrix_ns;
        let cells = matrix.cells.len();
        let lookups = fds.len() + classes.len();
        let misses = session.analyzer.cached_patterns() - cached;
        pass.sample(
            "core.analyzer.cache_miss_ratio",
            misses as f64 / lookups as f64,
        );
        pass.sample("core.matrix.us_per_cell", us(matrix_ns) / cells as f64);
        pass.sample(
            "core.matrix.computed_ratio",
            matrix.computed_count() as f64 / cells as f64,
        );
        pass.sample("core.matrix.verdicts_reused", matrix.reused_count() as f64);
        let implied = matrix
            .cells
            .iter()
            .filter(|c| matches!(c.provenance, CellProvenance::ImpliedRow { .. }))
            .count()
            / classes.len().max(1);
        pass.sample("core.fdset.rows_implied", implied as f64);
        let mut merged = RunMetrics::default();
        for cell in &matrix.cells {
            merged.merge(&cell.metrics);
        }
        pass.sample("core.analyzer.compile_us", us(merged.compile_nanos));
        lazy_ic_samples(pass, &merged, cells);
        pass.time("core.api.to_json", true, || {
            MatrixResponse::from_matrix(&matrix).to_json()
        })
    }

    fn fd_check(&mut self, pass: &mut Pass, params: &Json) -> Json {
        let session = self.session.as_ref().expect("session is open");
        let named = parse_fds(pass, &session.alphabet, params.get("fds"));
        let fds: Vec<Fd> = named.iter().map(|(_, f)| f.clone()).collect();
        // Explicit doc list, or every loaded document in name order, as
        // `Service::fd_check` picks them.
        let doc_names: Vec<String> = match params.get("docs").and_then(Json::as_array) {
            Some(names) => names
                .iter()
                .map(|n| {
                    n.as_str()
                        .expect("the daemon accepted these names")
                        .to_string()
                })
                .collect(),
            None => {
                let mut all: Vec<String> = session.docs.keys().cloned().collect();
                all.sort();
                all
            }
        };
        let run = unlimited();
        let mut documents = Vec::new();
        let mut check_ns = 0;
        let mut dfa_steps = 0;
        for name in doc_names {
            let doc = session.docs[&name].vdoc.doc();
            let start = Instant::now();
            let report = session.analyzer.check_fds_with(&fds, doc, &run);
            pass.finish("core.satisfy.check", true, start, 1);
            check_ns += pass.last_ns();
            dfa_steps += report.metrics.dfa_steps;
            let checks = pass.time("core.api.to_json", true, || {
                named
                    .iter()
                    .zip(&report.outcomes)
                    .map(|((fd_name, _), outcome)| {
                        let violation = match outcome {
                            FdOutcome::Violated(v) => Some(v.describe(doc)),
                            _ => None,
                        };
                        FdCheckOutcome::from_outcome(fd_name, outcome, violation)
                    })
                    .collect()
            });
            documents.push(DocumentChecks { path: name, checks });
        }
        pass.sample("core.satisfy.check_us", us(check_ns));
        pass.sample("core.satisfy.dfa_steps", dfa_steps as f64);
        pass.time("core.api.to_json", true, || {
            FdCheckResponse::from_documents(documents).to_json()
        })
    }

    fn fd_minimize(&mut self, pass: &mut Pass, params: &Json) -> Json {
        let session = self.session.as_ref().expect("session is open");
        let named = parse_fds(pass, &session.alphabet, params.get("fds"));
        let mut set = FdSet::new();
        for (name, fd) in named {
            set.push(name, fd);
        }
        let min = pass.time("core.fdset.minimize", true, || {
            set.minimize(&RunLimits::UNLIMITED)
        });
        pass.sample("core.fdset.rows_implied", min.dropped.len() as f64);
        pass.time("core.api.to_json", true, || {
            MinimizeResponse::from_minimization(&min, &set).to_json()
        })
    }
}
