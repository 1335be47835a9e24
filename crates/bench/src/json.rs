//! Minimal JSON emission and parsing for the experiment binaries.
//!
//! The workspace builds fully offline with no serialization dependency, so
//! the bench harness carries its own tiny JSON value type. Every binary
//! writes its artifact through [`write_artifact`] next to its text table —
//! `reproduce` the committed `REPRODUCTION.json`, the others a
//! `BENCH_<name>.json` ([`write_bench_json`]) — and the `--check` gates read
//! the committed copies back with [`Json::parse`].

use rld_core::prelude::*;
use std::fmt;
use std::path::{Path, PathBuf};

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
    /// Parse a JSON document. The inverse of `Display`: whatever
    /// [`write_bench_json`] emitted parses back to the same value, which is
    /// what the `--check` gates need to read a committed baseline.
    pub fn parse(text: &str) -> ParseResult<Json> {
        let mut p = Parser {
            text,
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

/// A [`Json::Obj`] from `key => value` pairs, in order, each value
/// converted with [`Json::from`] — `None` becomes `null`.
#[macro_export]
macro_rules! obj {
    ($($key:expr => $value:expr),* $(,)?) => {
        $crate::json::Json::Obj(vec![$(($key.to_string(), $crate::json::Json::from($value))),*])
    };
}

/// Numbers convert to [`Json::Num`] (exact below 2^53).
macro_rules! from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Num(v as f64)
            }
        }
    )*};
}
from_number!(f64, u64, u32, usize);

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<&String> for Json {
    fn from(s: &String) -> Json {
        Json::Str(s.clone())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Parse errors are plain strings; the rld `Result` alias is for engine
/// errors, not for this tiny reader.
type ParseResult<T> = std::result::Result<T, String>;

/// Recursive-descent JSON parser over the input text. `pos` is a byte
/// offset that only ever advances by whole characters, so it always sits on
/// a char boundary of `text`.
struct Parser<'a> {
    text: &'a str,
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
                    // Decode the one character at `pos`; multi-byte UTF-8
                    // sequences pass through verbatim.
                    let c = self.text[self.pos..]
                        .chars()
                        .next()
                        .expect("inside the text");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// The comma-separated items between `open` and `close`, each read by
    /// `item` with the whitespace around it skipped.
    fn list<T>(
        &mut self,
        open: u8,
        close: u8,
        item: fn(&mut Self) -> ParseResult<T>,
    ) -> ParseResult<Vec<T>> {
        self.expect(open)?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            self.skip_ws();
            items.push(item(self)?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(&b) if b == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                _ => {
                    return Err(format!(
                        "expected ',' or '{}' at byte {}",
                        close as char, self.pos
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> ParseResult<Json> {
        self.list(b'[', b']', Self::value).map(Json::Arr)
    }

    fn object(&mut self) -> ParseResult<Json> {
        let pair = |p: &mut Self| {
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            Ok((key, p.value()?))
        };
        self.list(b'{', b'}', pair).map(Json::Obj)
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
    let timeline = m
        .produced_timeline
        .iter()
        .map(|&(minute, count)| Json::Arr(vec![minute.into(), count.into()]));
    obj! {
        "system" => &m.system, "duration_secs" => m.duration_secs,
        "tuples_arrived" => m.tuples_arrived, "tuples_processed" => m.tuples_processed,
        "tuples_produced" => m.tuples_produced, "avg_tuple_processing_ms" => m.avg_tuple_processing_ms,
        "p95_tuple_processing_ms" => m.p95_tuple_processing_ms, "migrations" => m.migrations,
        "plan_switches" => m.plan_switches, "overhead_fraction" => m.overhead_fraction(),
        "throughput_per_sec" => m.throughput_per_sec(), "mean_utilization" => m.mean_utilization,
        "max_backlog" => m.max_backlog, "batches" => m.batches,
        "work_vector_recomputes" => m.work_vector_recomputes, "fault_events" => m.fault_events,
        "downtime_node_secs" => m.downtime_node_secs, "tuples_lost" => m.tuples_lost,
        "reroutes" => m.reroutes, "mean_recovery_secs" => m.mean_recovery_secs,
        "capacity_available_fraction" => m.capacity_available_fraction,
        "produced_timeline" => timeline.collect::<Vec<_>>(),
    }
}

/// The machine-readable projection of a fault plan: the recovery semantic
/// plus the full event schedule, so a fault experiment's JSON carries the
/// exact disturbance sequence it was produced under.
pub fn fault_plan_json(plan: &FaultPlan) -> Json {
    let kind = |k: &FaultKind| match k {
        FaultKind::Crash => Json::from("crash"),
        FaultKind::Recover => Json::from("recover"),
        FaultKind::Degrade { factor } => obj! { "degrade" => *factor },
        FaultKind::Restore => Json::from("restore"),
    };
    let recovery = match plan.recovery {
        RecoverySemantic::Lost => "lost",
        RecoverySemantic::Replay => "replay",
    };
    let event = |e: &FaultEvent| obj! { "at_secs" => e.at_secs, "node" => e.node.index(), "kind" => kind(&e.kind) };
    obj! { "recovery" => recovery, "events" => plan.events().iter().map(event).collect::<Vec<_>>() }
}

/// The machine-readable projection of compile-time solver statistics: the
/// logical/physical wall time, the optimizer-call and DFS counters, and the
/// logical solution's stable fingerprint.
pub fn solver_stats_json(s: &SolverStats) -> Json {
    obj! {
        "logical_wall_ms" => s.logical_wall_ms, "optimizer_calls" => s.optimizer_calls,
        "physical_wall_ms" => s.physical_wall_ms, "dfs_expanded" => s.dfs_expanded,
        "dfs_pruned" => s.dfs_pruned, "incumbent_updates" => s.incumbent_updates,
        "solution_fingerprint" => format!("{:016x}", s.solution_fingerprint),
    }
}

/// The measured part of one executor run, which the simulator has no
/// counterpart of: tuples per wall second, wall-latency percentiles, the
/// migration pause charged, and the stage and per-node breakdown. The run's
/// [`RunMetrics`] are emitted beside it, not inside it.
fn exec_json(r: &ExecReport) -> Json {
    let p = |i: usize| r.latency_percentiles_ms.get(i).map(|&(_, ms)| ms);
    let per = |v: &[f64]| Json::Arr(v.iter().map(|&ms| Json::Num(ms)).collect());
    let stages = r.stage_timings.as_ref().map(|s| obj! {
        "generate_ms" => s.generate_ms, "route_ms" => s.route_ms, "dispatch_ms" => s.dispatch_ms,
        "evaluate_ms" => s.evaluate_ms, "fold_ms" => s.fold_ms, "window_ms" => s.window_ms,
        "shard_busy_ms" => per(&s.shard_busy_ms), "shard_idle_ms" => per(&s.shard_idle_ms),
        "max_shard_skew_ms" => s.max_shard_skew_ms, "node_busy_ms" => per(&s.node_busy_ms),
    });
    obj! {
        "tuples_per_sec" => r.tuples_per_sec, "wall_secs" => r.wall_secs,
        "p50_latency_ms" => p(0), "p95_latency_ms" => p(1), "p99_latency_ms" => p(2),
        "migration_pause_ms" => r.migration_pause_ms, "stage_timings" => stages,
    }
}

/// The machine-readable projection of a whole scenario report. An outcome
/// the executor ran also carries its measured part under `columnar`.
pub fn report_json(report: &ScenarioReport) -> Json {
    let outcome_json = |o: &StrategyOutcome| {
        let mut outcome = obj! {
            "strategy" => &o.strategy, "metrics" => o.metrics.as_ref().map(metrics_json),
            "skipped" => o.skipped.as_ref(), "solver_stats" => o.solver_stats.as_ref().map(solver_stats_json),
        };
        if let (Json::Obj(pairs), Some(exec)) = (&mut outcome, &o.exec) {
            pairs.push(("columnar".into(), exec_json(exec)));
        }
        outcome
    };
    let outcomes: Vec<Json> = report.outcomes.iter().map(outcome_json).collect();
    obj! { "scenario" => &report.scenario, "backend" => &report.backend, "outcomes" => outcomes }
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
        let stats = self
            .solver_stats
            .iter()
            .map(|(name, stats)| match solver_stats_json(stats) {
                Json::Obj(pairs) => Json::Obj(
                    [("strategy".into(), name.into())]
                        .into_iter()
                        .chain(pairs)
                        .collect(),
                ),
                other => other,
            });
        obj! {
            "version" => env!("CARGO_PKG_VERSION"), "seed" => self.seed, "scenario" => self.scenario.as_ref(),
            "backend" => self.backend.as_ref(), "strategies" => self.strategies.iter().map(Json::from).collect::<Vec<_>>(),
            "solver_stats" => stats.collect::<Vec<_>>(),
        }
    }
}

/// Write the artifact `name` to `path`. The emitted object is
/// `{"bench": <name>, "meta": <meta>, "data": <json>}` — every artifact
/// carries its provenance.
pub fn write_artifact(
    path: &Path,
    name: &str,
    meta: &BenchMeta,
    data: Json,
) -> std::io::Result<()> {
    let doc = obj! { "bench" => name, "meta" => meta.to_json(), "data" => data };
    std::fs::write(path, format!("{doc}\n"))
}

/// Write `BENCH_<name>.json` in the current directory and return its path.
pub fn write_bench_json(name: &str, meta: &BenchMeta, data: Json) -> std::io::Result<PathBuf> {
    let path = PathBuf::from(format!("BENCH_{name}.json"));
    write_artifact(&path, name, meta, data)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_render_as_valid_json() {
        let j = obj! {
            "a" => 1.5, "b" => "x\"y\n", "c" => vec![Json::Null, Json::Bool(true)], "nan" => f64::NAN,
        };
        assert_eq!(
            j.to_string(),
            r#"{"a":1.5,"b":"x\"y\n","c":[null,true],"nan":null}"#
        );
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::from(42u64).to_string(), "42");
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
        let doc = obj! {
            "a" => 1.5, "b" => "x\"y\n\\z", "c" => vec![Json::Null, Json::Bool(true), Json::from(7u64)],
            "d" => obj! { "nested" => Vec::new() }, "e" => -2.25e-3,
        };
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
    fn parse_round_trips_non_ascii_and_rejects_every_truncation() {
        let doc = obj! {
            "claim" => "ES − ERP is non-decreasing in U; ε = 0.1", "emoji" => "🦀 ≥ 1.000 × ∑",
            "rows" => vec![Json::from("naïve"), Json::Num(0.5), Json::Null],
        };
        let text = doc.to_string();
        assert_eq!(Json::parse(&text), Ok(doc));
        for (end, _) in text.char_indices() {
            assert!(Json::parse(&text[..end]).is_err(), "prefix of {end} bytes");
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
