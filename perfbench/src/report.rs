//! Metric names, the result line, and the files a run leaves in the
//! benchmark's own directories.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::stats::{median, Tally};
use crate::trace::{summarize, SpanLog};
use crate::Workload;

/// `(name, unit)` of every end-to-end metric. Every workload reports each
/// one (see README.md for what `main` and `side` are in each workload, and
/// for the `ref` unit: the CPU time of the host-speed reference loop in the
/// same run).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("main_cpu_ref", "ref"),
    ("side_cpu_ref", "ref"),
];

/// The workloads that run a layer. A per-layer metric must be measured in
/// these; every other workload reports it as 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunsIn {
    All,
    Static,
    Serving,
    Bulk,
    Durable,
}

impl RunsIn {
    pub fn includes(self, w: Workload) -> bool {
        match self {
            RunsIn::All => true,
            RunsIn::Static => w == Workload::StaticGreedy,
            RunsIn::Serving => w != Workload::StaticGreedy,
            RunsIn::Bulk => w == Workload::ServeBulk,
            RunsIn::Durable => w == Workload::ServeDurable,
        }
    }
}

/// `(name, unit, workloads that measure it)` of every per-layer metric,
/// reported by traced runs.
pub const PER_LAYER: &[(&str, &str, RunsIn)] = &[
    ("graph.edge_list_s", "s", RunsIn::All),
    ("graph.csr_build_s", "s", RunsIn::All),
    ("prims.vertex_order_s", "s", RunsIn::Static),
    ("prims.edge_order_s", "s", RunsIn::Static),
    ("core.mis_rounds", "count", RunsIn::Static),
    ("core.mis_steps", "count", RunsIn::Static),
    ("core.mis_vertex_work", "count", RunsIn::Static),
    ("core.mis_edge_work", "count", RunsIn::Static),
    ("core.mm_rounds", "count", RunsIn::Static),
    ("core.mm_steps", "count", RunsIn::Static),
    ("core.mm_vertex_work", "count", RunsIn::Static),
    ("core.mm_edge_work", "count", RunsIn::Static),
    ("core.seq_mis_s", "s", RunsIn::Static),
    ("core.seq_mm_s", "s", RunsIn::Static),
    ("rayon.mis_1t_s", "s", RunsIn::Static),
    ("rayon.mm_1t_s", "s", RunsIn::Static),
    ("proc.cpu_user_s", "s", RunsIn::All),
    ("proc.cpu_sys_s", "s", RunsIn::All),
    ("engine.from_graph_s", "s", RunsIn::Serving),
    ("engine.arena_us.p50", "us", RunsIn::Serving),
    ("engine.arena_us.p99", "us", RunsIn::Serving),
    ("engine.rebuilds", "count", RunsIn::Serving),
    ("engine.relocations", "count", RunsIn::Serving),
    ("engine.matching_repair_us.p50", "us", RunsIn::Serving),
    ("engine.matching_repair_us.p99", "us", RunsIn::Serving),
    ("engine.mis_repair_us.p50", "us", RunsIn::Serving),
    ("engine.mis_repair_us.p99", "us", RunsIn::Serving),
    ("engine.mis_rounds.max", "count", RunsIn::Serving),
    ("engine.matching_rounds.max", "count", RunsIn::Serving),
    ("engine.decided", "count", RunsIn::Serving),
    ("engine.flips", "count", RunsIn::Serving),
    ("engine.flip_ratio", "ratio", RunsIn::Serving),
    ("engine.max_frontier", "count", RunsIn::Serving),
    ("engine.repack_us.p50", "us", RunsIn::Serving),
    ("engine.pages", "count", RunsIn::Serving),
    ("serve.publish_us.p50", "us", RunsIn::Serving),
    ("rounds.stage_wait_us.p50", "us", RunsIn::Serving),
    ("rounds.stage_wait_us.p99", "us", RunsIn::Serving),
    ("rounds.commit_us.p50", "us", RunsIn::Serving),
    ("rounds.commit_us.p99", "us", RunsIn::Serving),
    ("rounds.updates_per_round", "count", RunsIn::Serving),
    ("wal.create_s", "s", RunsIn::Durable),
    ("wal.write_us.p50", "us", RunsIn::Durable),
    ("wal.write_us.p99", "us", RunsIn::Durable),
    ("wal.fsync_us.p50", "us", RunsIn::Durable),
    ("wal.fsync_us.p99", "us", RunsIn::Durable),
    ("wal.checkpoint_ms.p50", "ms", RunsIn::Durable),
    ("wal.checkpoint_ms.max", "ms", RunsIn::Durable),
    ("wal.checkpoints", "count", RunsIn::Durable),
    ("wal.bytes_per_update", "B", RunsIn::Durable),
    ("serve.query_us.p50", "us", RunsIn::Bulk),
    ("serve.query_us.p999", "us", RunsIn::Bulk),
    ("feed.publish_us.p50", "us", RunsIn::Serving),
    ("feed.fold_us.p50", "us", RunsIn::Serving),
    ("feed.after_ack_us.p50", "us", RunsIn::Durable),
    ("feed.after_ack_us.p99", "us", RunsIn::Durable),
    ("feed.resyncs", "count", RunsIn::Durable),
    ("host.steal_frac", "fraction", RunsIn::All),
    ("client.main_wall_us.p50", "us", RunsIn::All),
    ("client.side_wall_us.p50", "us", RunsIn::All),
    ("client.main_cpu_us.p50", "us", RunsIn::All),
    ("client.side_cpu_us.p50", "us", RunsIn::All),
    ("host.ref_cpu_us.p50", "us", RunsIn::All),
];

/// A JSON value, enough for the result line and the metadata file.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Int(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Self {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Self {
        Json::Str(s.into())
    }
}

fn escape(s: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            // Rust prints the shortest string that reads back as the same
            // f64: every measured digit, nothing invented.
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => f.write_str("null"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Str(s) => escape(s, f),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    escape(k, f)?;
                    write!(f, ": {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    pub tally: Tally,
    /// End-to-end metrics, measured in every run (traced runs too, for the
    /// tracing overhead).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics, filled by traced runs.
    pub layers: BTreeMap<&'static str, f64>,
    /// Run metadata: sample counts, window, host facts.
    pub meta: Vec<(String, Json)>,
    pub spans: Option<SpanLog>,
}

impl RunResult {
    pub fn meta(&mut self, key: impl Into<String>, value: Json) {
        self.meta.push((key.into(), value));
    }
}

/// The end-to-end table as [`result_line`] takes it: every workload
/// measures every end-to-end metric.
pub fn end_to_end_table() -> impl Iterator<Item = (&'static str, &'static str, bool)> {
    END_TO_END.iter().map(|&(name, unit)| (name, unit, true))
}

/// The per-layer table as [`result_line`] takes it, for workload `w`.
pub fn per_layer_table(w: Workload) -> impl Iterator<Item = (&'static str, &'static str, bool)> {
    PER_LAYER
        .iter()
        .map(move |&(name, unit, runs)| (name, unit, runs.includes(w)))
}

/// The last line of standard output: one entry per `(name, unit, measured)`
/// of `table`. A metric the run must measure but did not is an error, and so
/// is one it measured for a layer the workload does not run; such a layer
/// reads 0.
pub fn result_line(
    tally: &Tally,
    values: &BTreeMap<&'static str, f64>,
    table: impl IntoIterator<Item = (&'static str, &'static str, bool)>,
) -> Result<Json, String> {
    let mut metrics = Vec::new();
    for (name, unit, measured) in table {
        let value = match (values.get(name), measured) {
            (Some(v), true) if v.is_finite() => *v,
            (Some(v), true) => return Err(format!("metric {name} is not finite ({v})")),
            (None, true) => return Err(format!("metric {name} was not measured")),
            (Some(_), false) => {
                return Err(format!(
                    "metric {name} was measured by a workload that does not run its layer"
                ))
            }
            (None, false) => 0.0,
        };
        metrics.push((
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        ));
    }
    Ok(Json::obj([
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::Int(tally.attempted)),
        ("failed", Json::Int(tally.failed)),
        ("metrics", Json::obj(metrics)),
    ]))
}

/// The benchmark's directory in the checkout it was built from; everything
/// a run writes goes under it.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// A directory of this run's own under `parent` (created along with
/// `parent`), removed when dropped. Creation fails rather than reusing a
/// directory that already exists.
#[derive(Debug)]
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    pub fn create_in(parent: &Path) -> io::Result<Self> {
        fs::create_dir_all(parent)?;
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let path = parent.join(format!("run-{}-{nanos}", std::process::id()));
        fs::create_dir(&path)?;
        Ok(Self { path })
    }

    /// A fresh subdirectory; fails if it already exists.
    pub fn subdir(&self, name: &str) -> io::Result<PathBuf> {
        let p = self.path.join(name);
        fs::create_dir(&p)?;
        Ok(p)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// What a saved run is filed under.
#[derive(Debug, Clone, Copy)]
pub struct RunId<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub traced: bool,
    /// The code the run measured (see [`build_id`]).
    pub build: &'a str,
}

impl RunId<'_> {
    pub fn stem(&self) -> String {
        format!(
            "{}-seed{}-trace{}",
            self.workload,
            self.seed,
            u8::from(self.traced)
        )
    }
}

/// Identifies the code a run measured: an FNV-1a hash of the running
/// executable, which changes with any change to the benchmark or to the
/// crates it links.
pub fn build_id() -> io::Result<String> {
    let bytes = fs::read(std::env::current_exe()?)?;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    Ok(format!("{h:016x}"))
}

/// Writes the run's metadata, metrics and (traced runs) spans under `dir`,
/// and appends an untraced run's end-to-end values to the workload's ledger
/// so a later traced run of the same seed and build can report its overhead.
pub fn save(dir: &Path, id: &RunId<'_>, result: &RunResult, line: &Json) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let stem = id.stem();
    let meta = Json::Obj(result.meta.clone());
    fs::write(
        dir.join(format!("{stem}.json")),
        format!("{{\"meta\": {meta}, \"result\": {line}}}\n"),
    )?;
    if let Some(spans) = &result.spans {
        // One span file per workload, the latest traced run's: a bulk run's
        // reader alone makes about a million spans.
        let path = dir.join(format!("{}.spans.csv", id.workload));
        let mut f = io::BufWriter::new(fs::File::create(path)?);
        spans.write_csv(&mut f)?;
        f.flush()?;
        let mut s = io::BufWriter::new(fs::File::create(dir.join(format!("{stem}.selftime.csv")))?);
        writeln!(s, "name,count,total_ns,self_ns")?;
        for (name, (count, total, own)) in summarize(spans.spans()) {
            writeln!(s, "{name},{count},{total},{own}")?;
        }
        s.flush()?;
    }
    if !id.traced {
        let mut ledger = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(format!("{}.untraced.tsv", id.workload)))?;
        let values: Vec<String> = result.e2e.iter().map(|(k, v)| format!("{k}={v}")).collect();
        writeln!(ledger, "{}\t{}\t{}", id.seed, id.build, values.join("\t"))?;
    }
    Ok(())
}

/// Medians of the end-to-end values that earlier untraced runs of the same
/// workload, seed and build recorded, and how many runs they come from.
pub fn untraced_medians(dir: &Path, id: &RunId<'_>) -> (BTreeMap<String, f64>, usize) {
    let path = dir.join(format!("{}.untraced.tsv", id.workload));
    let text = fs::read_to_string(path).unwrap_or_default();
    let seed = id.seed.to_string();
    let mut runs = 0;
    let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for line in text.lines() {
        let mut fields = line.split('\t');
        if fields.next() != Some(seed.as_str()) || fields.next() != Some(id.build) {
            continue;
        }
        runs += 1;
        for field in fields {
            if let Some((k, v)) = field.split_once('=') {
                if let Ok(v) = v.parse::<f64>() {
                    by_name.entry(k.to_string()).or_default().push(v);
                }
            }
        }
    }
    let medians = by_name.into_iter().map(|(k, v)| (k, median(v))).collect();
    (medians, runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut tally = Tally::default();
        tally.ok();
        let values: BTreeMap<&'static str, f64> =
            END_TO_END.iter().map(|&(n, _)| (n, 1.25)).collect();
        let line = result_line(&tally, &values, end_to_end_table()).unwrap();
        let text = line.to_string();
        assert!(
            text.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        assert!(text.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        let mut missing = values.clone();
        missing.remove("setup_s");
        assert!(result_line(&tally, &missing, end_to_end_table()).is_err());
        let mut nan = values;
        nan.insert("setup_s", f64::NAN);
        assert!(result_line(&tally, &nan, end_to_end_table()).is_err());
    }

    #[test]
    fn traced_runs_must_measure_every_layer_their_workload_runs() {
        let tally = Tally::default();
        for w in Workload::ALL {
            let runs: BTreeMap<&'static str, f64> = per_layer_table(w)
                .filter(|&(_, _, measured)| measured)
                .map(|(name, _, _)| (name, 2.5))
                .collect();
            assert!(!runs.is_empty());
            let line = result_line(&tally, &runs, per_layer_table(w)).unwrap();
            // Layers the workload does not run read 0.
            for (name, _, measured) in per_layer_table(w) {
                let want = if measured { 2.5 } else { 0.0 };
                let entry = format!("\"{name}\": {{\"value\": {want}, ");
                assert!(line.to_string().contains(&entry), "{}: {entry}", w.name());
            }
            // A layer it runs but did not report fails the run.
            for &gone in runs.keys() {
                let mut missing = runs.clone();
                missing.remove(gone);
                let err = result_line(&tally, &missing, per_layer_table(w)).unwrap_err();
                assert!(err.contains(gone), "{err}");
            }
            // So does a value for a layer it does not run.
            if let Some((stray, _, _)) = per_layer_table(w).find(|&(_, _, m)| !m) {
                let mut extra = runs.clone();
                extra.insert(stray, 1.0);
                assert!(result_line(&tally, &extra, per_layer_table(w)).is_err());
            }
        }
        // Each layer is run by at least one workload.
        for &(name, _, runs) in PER_LAYER {
            assert!(Workload::ALL.iter().any(|&w| runs.includes(w)), "{name}");
        }
    }

    #[test]
    fn failed_run_is_reported_incorrect() {
        let mut tally = Tally::default();
        tally.fail("solve differs");
        let line = result_line(
            &tally,
            &BTreeMap::new(),
            per_layer_table(Workload::ServeBulk),
        );
        assert!(line.is_err(), "a bulk run with no layers measured");
        let values = BTreeMap::from([("setup_s", 1.0), ("peak_rss_mb", 1.0)]);
        let table = END_TO_END[..2].iter().map(|&(n, u)| (n, u, true));
        let line = result_line(&tally, &values, table).unwrap();
        assert!(line
            .to_string()
            .starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1"));
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let spec = fs::read_to_string(bench_dir().join("../BENCHMARK.json")).unwrap();
        let per_layer = PER_LAYER.iter().map(|&(name, unit, _)| (name, unit));
        for (name, unit) in END_TO_END.iter().copied().chain(per_layer) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            spec.matches("\"name\":").count(),
            END_TO_END.len() + PER_LAYER.len() + crate::Workload::ALL.len()
        );
    }

    #[test]
    fn run_dir_is_unique_removed_on_drop_and_never_reused() {
        let parent = bench_dir().join("scratch").join("test-run-dir");
        let a = RunDir::create_in(&parent).unwrap();
        let b = RunDir::create_in(&parent).unwrap();
        assert_ne!(a.path, b.path);
        assert!(a.path.starts_with(bench_dir()));
        let wal = a.subdir("wal").unwrap();
        fs::write(wal.join("x"), b"x").unwrap();
        assert!(
            a.subdir("wal").is_err(),
            "an existing directory must not be reused"
        );
        let kept = a.path.clone();
        drop(a);
        assert!(!kept.exists());
        drop(b);
        // A parent that is a file cannot hold a run directory: creation
        // fails instead of falling back to anything else.
        let blocker = parent.join("blocker");
        fs::write(&blocker, b"").unwrap();
        assert!(RunDir::create_in(&blocker).is_err());
        fs::remove_dir_all(&parent).unwrap();
    }

    #[test]
    fn untraced_ledger_keeps_runs_of_the_same_seed_and_build_apart() {
        let dir = bench_dir().join("scratch").join("test-ledger");
        let _ = fs::remove_dir_all(&dir);
        let id = |seed, build| RunId {
            workload: "w",
            seed,
            traced: false,
            build,
        };
        let run = |a: f64| {
            let mut r = RunResult::default();
            r.e2e.insert("setup_s", a);
            r.e2e.insert("main_p50_us", 10.0 * a);
            r
        };
        let line = Json::Null;
        for (seed, build, a) in [
            (1, "b1", 1.0),
            (1, "b1", 3.0),
            (1, "b1", 2.0),
            (2, "b1", 50.0),
            (1, "b2", 70.0),
        ] {
            save(&dir, &id(seed, build), &run(a), &line).unwrap();
        }
        let (m, runs) = untraced_medians(&dir, &id(1, "b1"));
        assert_eq!(runs, 3, "other seeds and other builds are left out");
        assert_eq!(m["setup_s"], 2.0);
        assert_eq!(m["main_p50_us"], 20.0);
        assert_eq!(untraced_medians(&dir, &id(2, "b1")).0["setup_s"], 50.0);
        let (none, zero) = untraced_medians(&dir, &id(3, "b1"));
        assert!(none.is_empty() && zero == 0);
        let other = RunId {
            workload: "v",
            ..id(1, "b1")
        };
        assert!(untraced_medians(&dir, &other).0.is_empty());
        // A traced run adds nothing to the ledger.
        save(
            &dir,
            &RunId {
                traced: true,
                ..id(1, "b1")
            },
            &run(9.0),
            &line,
        )
        .unwrap();
        assert_eq!(untraced_medians(&dir, &id(1, "b1")).1, 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn build_id_is_stable_within_a_build() {
        let a = build_id().unwrap();
        assert_eq!(a.len(), 16);
        assert_eq!(a, build_id().unwrap());
    }
}
