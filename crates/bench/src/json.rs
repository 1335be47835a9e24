//! Minimal JSON emission for the experiment binaries.
//!
//! The workspace builds fully offline with no serialization dependency, so
//! the bench harness carries its own tiny JSON value type. The runtime
//! binaries (`fig15a_processing_time`, `fig15b_throughput`,
//! `overhead_runtime`, `scenario`) write a `BENCH_<name>.json` file next to
//! their text table so the perf trajectory can be tracked across PRs by
//! machines, not just eyeballs.

use rld_core::prelude::*;
use std::fmt;
use std::path::PathBuf;

/// A JSON value. Construction is by hand; emission is deterministic (object
/// keys keep insertion order).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number. Non-finite values emit as `null` (JSON has no NaN).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An unsigned integer value (JSON numbers are f64; exact below 2^53).
    pub fn uint(v: u64) -> Json {
        Json::Num(v as f64)
    }

    /// Parse a JSON document. The inverse of `Display`: whatever
    /// [`write_bench_json`] emitted parses back to the same value, which is
    /// what the `--check` gates need to read a committed baseline.
    pub fn parse(text: &str) -> ParseResult<Json> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(value)
    }

    /// The value under `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parse errors are plain strings; the rld `Result` alias is for engine
/// errors, not for this tiny reader.
type ParseResult<T> = std::result::Result<T, String>;

/// Recursive-descent JSON parser over the input bytes.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> ParseResult<()> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> ParseResult<Json> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> ParseResult<Json> {
        match self.bytes.get(self.pos) {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn number(&mut self) -> ParseResult<Json> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }

    fn string(&mut self) -> ParseResult<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("invalid \\u escape at {}", self.pos))?;
                            // Surrogate pairs are not emitted by `Display`;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through verbatim.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| "invalid UTF-8".to_string())?;
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> ParseResult<Json> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> ParseResult<Json> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(v) if v.is_finite() => write!(f, "{v}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => {
                let mut buf = String::with_capacity(s.len() + 2);
                escape_into(&mut buf, s);
                f.write_str(&buf)
            }
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    let mut key = String::with_capacity(k.len() + 2);
                    escape_into(&mut key, k);
                    write!(f, "{key}:{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// The machine-readable projection of one run's metrics.
fn metrics_json(m: &RunMetrics) -> Json {
    Json::obj([
        ("system", Json::str(&m.system)),
        ("duration_secs", Json::Num(m.duration_secs)),
        ("tuples_arrived", Json::uint(m.tuples_arrived)),
        ("tuples_processed", Json::uint(m.tuples_processed)),
        ("tuples_produced", Json::uint(m.tuples_produced)),
        (
            "avg_tuple_processing_ms",
            Json::Num(m.avg_tuple_processing_ms),
        ),
        (
            "p95_tuple_processing_ms",
            Json::Num(m.p95_tuple_processing_ms),
        ),
        ("migrations", Json::uint(m.migrations)),
        ("plan_switches", Json::uint(m.plan_switches)),
        ("overhead_fraction", Json::Num(m.overhead_fraction())),
        ("throughput_per_sec", Json::Num(m.throughput_per_sec())),
        ("mean_utilization", Json::Num(m.mean_utilization)),
        ("max_backlog", Json::Num(m.max_backlog)),
        ("batches", Json::uint(m.batches)),
        (
            "work_vector_recomputes",
            Json::uint(m.work_vector_recomputes),
        ),
        ("fault_events", Json::uint(m.fault_events)),
        ("downtime_node_secs", Json::Num(m.downtime_node_secs)),
        ("tuples_lost", Json::uint(m.tuples_lost)),
        ("reroutes", Json::uint(m.reroutes)),
        ("mean_recovery_secs", Json::Num(m.mean_recovery_secs)),
        (
            "capacity_available_fraction",
            Json::Num(m.capacity_available_fraction),
        ),
        (
            "produced_timeline",
            Json::Arr(
                m.produced_timeline
                    .iter()
                    .map(|(minute, count)| Json::Arr(vec![Json::uint(*minute), Json::uint(*count)]))
                    .collect(),
            ),
        ),
    ])
}

/// The machine-readable projection of a fault plan: the recovery semantic
/// plus the full event schedule, so a fault experiment's JSON carries the
/// exact disturbance sequence it was produced under.
pub fn fault_plan_json(plan: &FaultPlan) -> Json {
    let kind = |k: &FaultKind| match k {
        FaultKind::Crash => Json::str("crash"),
        FaultKind::Recover => Json::str("recover"),
        FaultKind::Degrade { factor } => Json::obj([("degrade", Json::Num(*factor))]),
        FaultKind::Restore => Json::str("restore"),
    };
    Json::obj([
        (
            "recovery",
            Json::str(match plan.recovery {
                RecoverySemantic::Lost => "lost",
                RecoverySemantic::Replay => "replay",
            }),
        ),
        (
            "events",
            Json::Arr(
                plan.events()
                    .iter()
                    .map(|e| {
                        Json::obj([
                            ("at_secs", Json::Num(e.at_secs)),
                            ("node", Json::uint(e.node.index() as u64)),
                            ("kind", kind(&e.kind)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The machine-readable projection of compile-time solver statistics: the
/// logical/physical wall time, the optimizer-call and DFS counters, and the
/// logical solution's stable fingerprint.
pub fn solver_stats_json(s: &SolverStats) -> Json {
    Json::obj([
        ("logical_wall_ms", Json::Num(s.logical_wall_ms)),
        ("optimizer_calls", Json::uint(s.optimizer_calls as u64)),
        ("physical_wall_ms", Json::Num(s.physical_wall_ms)),
        ("dfs_expanded", Json::uint(s.dfs_expanded as u64)),
        ("dfs_pruned", Json::uint(s.dfs_pruned as u64)),
        ("incumbent_updates", Json::uint(s.incumbent_updates as u64)),
        (
            "solution_fingerprint",
            Json::str(format!("{:016x}", s.solution_fingerprint)),
        ),
    ])
}

/// The measured part of one executor run, which the simulator has no
/// counterpart of: tuples per wall second, wall-latency percentiles, the
/// migration pause charged, and the stage and per-node breakdown. The run's
/// [`RunMetrics`] are emitted beside it, not inside it.
fn exec_json(r: &ExecReport) -> Json {
    let p = |i: usize| {
        r.latency_percentiles_ms
            .get(i)
            .map_or(Json::Null, |&(_, ms)| Json::Num(ms))
    };
    let per = |v: &[f64]| Json::Arr(v.iter().map(|&ms| Json::Num(ms)).collect());
    let stages = r.stage_timings.as_ref().map_or(Json::Null, |s| {
        Json::obj([
            ("generate_ms", Json::Num(s.generate_ms)),
            ("route_ms", Json::Num(s.route_ms)),
            ("dispatch_ms", Json::Num(s.dispatch_ms)),
            ("evaluate_ms", Json::Num(s.evaluate_ms)),
            ("fold_ms", Json::Num(s.fold_ms)),
            ("window_ms", Json::Num(s.window_ms)),
            ("shard_busy_ms", per(&s.shard_busy_ms)),
            ("shard_idle_ms", per(&s.shard_idle_ms)),
            ("max_shard_skew_ms", Json::Num(s.max_shard_skew_ms)),
            ("node_busy_ms", per(&s.node_busy_ms)),
        ])
    });
    Json::obj([
        ("tuples_per_sec", Json::Num(r.tuples_per_sec)),
        ("wall_secs", Json::Num(r.wall_secs)),
        ("p50_latency_ms", p(0)),
        ("p95_latency_ms", p(1)),
        ("p99_latency_ms", p(2)),
        ("migration_pause_ms", Json::Num(r.migration_pause_ms)),
        ("stage_timings", stages),
    ])
}

/// The machine-readable projection of a whole scenario report. An outcome
/// the executor ran also carries its measured part under `columnar`.
pub fn report_json(report: &ScenarioReport) -> Json {
    let outcome_json = |o: &StrategyOutcome| {
        let mut pairs = vec![
            ("strategy", Json::str(&o.strategy)),
            (
                "metrics",
                o.metrics.as_ref().map_or(Json::Null, metrics_json),
            ),
            (
                "skipped",
                o.skipped
                    .as_ref()
                    .map_or(Json::Null, |s| Json::str(s.as_str())),
            ),
            (
                "solver_stats",
                o.solver_stats
                    .as_ref()
                    .map_or(Json::Null, solver_stats_json),
            ),
        ];
        if let Some(exec) = &o.exec {
            pairs.push(("columnar", exec_json(exec)));
        }
        Json::obj(pairs)
    };
    Json::obj([
        ("scenario", Json::str(&report.scenario)),
        ("backend", Json::str(&report.backend)),
        (
            "outcomes",
            Json::Arr(report.outcomes.iter().map(outcome_json).collect()),
        ),
    ])
}

/// Provenance shared by every `BENCH_*.json` artifact, so CI artifacts are
/// attributable and diffable across PRs: which seed produced the numbers, on
/// which scenario and backend, comparing which strategies, at which
/// workspace version.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchMeta {
    /// The experiment seed the run derived its randomness from.
    pub seed: Option<u64>,
    /// The scenario (or sweep) the artifact belongs to.
    pub scenario: Option<String>,
    /// The execution backend (`"simulate"` / `"execute"`).
    pub backend: Option<String>,
    /// Short names of the strategies compared, in run order.
    pub strategies: Vec<String>,
    /// Compile-time solver statistics per strategy that went through the
    /// [`RobustCompiler`], in run order.
    pub solver_stats: Vec<(String, SolverStats)>,
}

impl BenchMeta {
    /// An empty meta (version is always emitted).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the experiment seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Set the scenario / sweep name.
    pub fn scenario(mut self, scenario: impl Into<String>) -> Self {
        self.scenario = Some(scenario.into());
        self
    }

    /// Set the execution backend.
    pub fn backend(mut self, backend: impl Into<String>) -> Self {
        self.backend = Some(backend.into());
        self
    }

    /// Set the compared strategies.
    pub fn strategies<I: IntoIterator<Item = S>, S: Into<String>>(mut self, names: I) -> Self {
        self.strategies = names.into_iter().map(Into::into).collect();
        self
    }

    /// The meta for one scenario report: seed from the scenario's sim
    /// config, name/backend/strategy list from the report, and compile-time
    /// solver statistics for every strategy that carried them.
    pub fn for_report(scenario: &Scenario, report: &ScenarioReport) -> Self {
        let mut meta = Self::new()
            .seed(scenario.sim_config().seed)
            .scenario(report.scenario.clone())
            .backend(report.backend.clone())
            .strategies(report.outcomes.iter().map(|o| o.strategy.clone()));
        for o in &report.outcomes {
            if let Some(stats) = o.solver_stats {
                meta.solver_stats.push((o.strategy.clone(), stats));
            }
        }
        meta
    }

    /// The JSON projection (always carries the workspace version).
    pub fn to_json(&self) -> Json {
        let opt_str = |v: &Option<String>| v.as_deref().map(Json::str).unwrap_or(Json::Null);
        Json::obj([
            ("version", Json::str(env!("CARGO_PKG_VERSION"))),
            ("seed", self.seed.map(Json::uint).unwrap_or(Json::Null)),
            ("scenario", opt_str(&self.scenario)),
            ("backend", opt_str(&self.backend)),
            (
                "strategies",
                Json::Arr(self.strategies.iter().map(Json::str).collect()),
            ),
            (
                "solver_stats",
                Json::Arr(
                    self.solver_stats
                        .iter()
                        .map(|(name, stats)| {
                            let mut obj = vec![("strategy".to_string(), Json::str(name.as_str()))];
                            if let Json::Obj(pairs) = solver_stats_json(stats) {
                                obj.extend(pairs);
                            }
                            Json::Obj(obj)
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Write `BENCH_<name>.json` in the current directory and return its path.
/// The emitted object is `{"bench": <name>, "meta": <meta>, "data": <json>}`
/// — every artifact carries its provenance.
pub fn write_bench_json(name: &str, meta: &BenchMeta, data: Json) -> std::io::Result<PathBuf> {
    let path = PathBuf::from(format!("BENCH_{name}.json"));
    let doc = Json::obj([
        ("bench", Json::str(name)),
        ("meta", meta.to_json()),
        ("data", data),
    ]);
    std::fs::write(&path, format!("{doc}\n"))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_render_as_valid_json() {
        let j = Json::obj([
            ("a", Json::Num(1.5)),
            ("b", Json::str("x\"y\n")),
            ("c", Json::Arr(vec![Json::Null, Json::Bool(true)])),
            ("nan", Json::Num(f64::NAN)),
        ]);
        assert_eq!(
            j.to_string(),
            r#"{"a":1.5,"b":"x\"y\n","c":[null,true],"nan":null}"#
        );
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::uint(42).to_string(), "42");
        assert_eq!(Json::Num(3.0).to_string(), "3");
    }

    #[test]
    fn metrics_round_trip_the_headline_numbers() {
        let m = RunMetrics {
            system: "RLD".into(),
            duration_secs: 60.0,
            tuples_produced: 123,
            avg_tuple_processing_ms: 4.5,
            batches: 10,
            work_vector_recomputes: 2,
            tuples_lost: 7,
            reroutes: 3,
            downtime_node_secs: 30.0,
            mean_recovery_secs: 12.5,
            fault_events: 2,
            ..RunMetrics::default()
        };
        let text = metrics_json(&m).to_string();
        assert!(text.contains(r#""system":"RLD""#));
        assert!(text.contains(r#""tuples_produced":123"#));
        assert!(text.contains(r#""work_vector_recomputes":2"#));
        assert!(text.contains(r#""tuples_lost":7"#));
        assert!(text.contains(r#""reroutes":3"#));
        assert!(text.contains(r#""downtime_node_secs":30"#));
        assert!(text.contains(r#""mean_recovery_secs":12.5"#));
    }

    #[test]
    fn bench_meta_carries_provenance() {
        let meta = BenchMeta::new()
            .seed(7)
            .scenario("q1-stock")
            .backend("execute")
            .strategies(["ROD", "RLD"]);
        let text = meta.to_json().to_string();
        assert!(text.contains(&format!(r#""version":"{}""#, env!("CARGO_PKG_VERSION"))));
        assert!(text.contains(r#""seed":7"#));
        assert!(text.contains(r#""scenario":"q1-stock""#));
        assert!(text.contains(r#""backend":"execute""#));
        assert!(text.contains(r#""strategies":["ROD","RLD"]"#));
        // Unset fields emit as null, never silently dropped.
        let empty = BenchMeta::new().to_json().to_string();
        assert!(empty.contains(r#""seed":null"#));
        assert!(empty.contains(r#""scenario":null"#));
    }

    #[test]
    fn bench_meta_embeds_solver_stats() {
        let stats = SolverStats {
            logical_wall_ms: 1.5,
            optimizer_calls: 42,
            physical_wall_ms: 0.25,
            dfs_expanded: 7,
            dfs_pruned: 3,
            incumbent_updates: 2,
            solution_fingerprint: 0xdead_beef,
        };
        let text = BenchMeta {
            solver_stats: vec![("RLD".into(), stats)],
            ..BenchMeta::new()
        }
        .to_json()
        .to_string();
        assert!(text.contains(r#""solver_stats":[{"strategy":"RLD""#));
        assert!(text.contains(r#""optimizer_calls":42"#));
        assert!(text.contains(r#""dfs_expanded":7"#));
        assert!(text.contains(r#""dfs_pruned":3"#));
        assert!(text.contains(r#""incumbent_updates":2"#));
        assert!(text.contains(r#""solution_fingerprint":"00000000deadbeef""#));
        // Metas without stats still emit the (empty) array, never drop the key.
        assert!(BenchMeta::new()
            .to_json()
            .to_string()
            .contains(r#""solver_stats":[]"#));
    }

    #[test]
    fn bench_json_documents_embed_the_meta() {
        let meta = BenchMeta::new().seed(1).scenario("unit-test");
        let path = write_bench_json("meta_unit_test_artifact", &meta, Json::Bool(true)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(text.contains(r#""bench":"meta_unit_test_artifact""#));
        assert!(text.contains(r#""meta":{"version":"#));
        assert!(text.contains(r#""data":true"#));
    }

    #[test]
    fn parse_round_trips_display() {
        let doc = Json::obj([
            ("a", Json::Num(1.5)),
            ("b", Json::str("x\"y\n\\z")),
            (
                "c",
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::uint(7)]),
            ),
            ("d", Json::obj([("nested", Json::Arr(vec![]))])),
            ("e", Json::Num(-2.25e-3)),
        ]);
        let parsed = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(parsed, doc);
        // Whitespace-tolerant, like any JSON reader.
        let spaced = Json::parse(" { \"k\" : [ 1 , 2 ] ,\n\t\"s\": \"v\" } ").unwrap();
        assert_eq!(spaced.get("k").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(spaced.get("s").unwrap().as_str(), Some("v"));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\"}", "tru", "1..2", "{\"a\":1} x"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn accessors_navigate_bench_documents() {
        let meta = BenchMeta::new().seed(9).scenario("acc");
        let path = write_bench_json("accessor_unit_test", &meta, Json::Num(4.0)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(
            doc.get("bench").unwrap().as_str(),
            Some("accessor_unit_test")
        );
        assert_eq!(
            doc.get("meta").unwrap().get("seed").unwrap().as_f64(),
            Some(9.0)
        );
        assert_eq!(doc.get("data").unwrap().as_f64(), Some(4.0));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn fault_plans_serialize_their_full_schedule() {
        let plan =
            FaultPlan::node_crash(NodeId::new(1), 60.0, 180.0, RecoverySemantic::Lost).unwrap();
        let text = fault_plan_json(&plan).to_string();
        assert!(text.contains(r#""recovery":"lost""#));
        assert!(text.contains(r#""kind":"crash""#));
        assert!(text.contains(r#""kind":"recover""#));
        assert!(text.contains(r#""at_secs":60"#));
        let ramp = FaultPlan::straggler_ramp(NodeId::new(0), 10.0, 20.0, 5.0, 0.5, 2).unwrap();
        let text = fault_plan_json(&ramp).to_string();
        assert!(text.contains(r#"{"degrade":0.5}"#));
        assert!(text.contains(r#""kind":"restore""#));
    }

    #[test]
    fn executed_outcomes_carry_their_measured_part_once() {
        let metrics = RunMetrics {
            system: "RLD".into(),
            ..RunMetrics::default()
        };
        let exec = ExecReport {
            metrics: metrics.clone(),
            trace: None,
            wall_secs: 0.5,
            tuples_per_sec: 1000.0,
            latency_percentiles_ms: vec![(50.0, 0.1), (95.0, 0.2), (99.0, 0.3)],
            migration_pause_ms: 0.0,
            observed_stats: StatsSnapshot::new(),
            stage_timings: Some(StageTimings {
                evaluate_ms: 2.0,
                node_busy_ms: vec![0.5, 1.5],
                ..StageTimings::default()
            }),
        };
        let outcome = |exec| StrategyOutcome {
            strategy: "RLD".into(),
            metrics: Some(metrics.clone()),
            skipped: None,
            solver_stats: None,
            exec,
        };
        let report = ScenarioReport {
            scenario: "s".into(),
            backend: "execute".into(),
            outcomes: vec![outcome(Some(exec)), outcome(None)],
        };
        let json = report_json(&report);
        let outcomes = json.get("outcomes").and_then(Json::as_arr).unwrap();
        let columnar = outcomes[0].get("columnar").expect("executed outcome");
        assert_eq!(
            columnar.get("tuples_per_sec").unwrap().as_f64(),
            Some(1000.0)
        );
        assert_eq!(columnar.get("p99_latency_ms").unwrap().as_f64(), Some(0.3));
        assert_eq!(columnar.get("metrics"), None, "metrics are emitted once");
        let stages = columnar.get("stage_timings").unwrap();
        assert_eq!(
            stages.get("node_busy_ms").unwrap().as_arr().unwrap().len(),
            2
        );
        assert!(outcomes[0].get("metrics").is_some());
        assert_eq!(outcomes[1].get("columnar"), None, "simulated outcome");
    }
}
