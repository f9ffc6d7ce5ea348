//! The on-disk knowledge store: completed tuning results keyed by
//! program feature vectors, in the spirit of the Collective Tuning
//! Initiative's shared repository (Fursin, PAPERS.md).
//!
//! ## Format
//!
//! `N_SHARDS` segment files (`shard-K.seg`) under the store directory;
//! a record lives in the shard of its `(benchmark, machine)` hash. Each
//! record is one line:
//!
//! ```text
//! PEAKKS1 <crc32-hex8> <compact-json>
//! ```
//!
//! where the CRC (CRC-32/ISO-HDLC, [`peak_util::crc32`]) covers exactly
//! the JSON bytes. Segments are rewritten whole through
//! [`peak_util::write_durable`] (temp + fsync + rename + dir fsync), the
//! same helper the tuner checkpoint uses — so a crashed writer leaves
//! either the old segment or the new one, never a mix.
//!
//! ## Corruption doctrine
//!
//! Startup *never* aborts on bad state, and damage is accounted **per
//! line**, not per segment. A segment that cannot be read at all —
//! zero-length file (torn create), not UTF-8 — is **quarantined**
//! whole: renamed to `shard-K.quarantined-N` next to the live segment
//! (preserved for forensics, never re-read) and skipped. A readable
//! segment with *some* bad lines — bad magic, CRC mismatch (bit flip or
//! truncated tail), unparseable or schema-invalid JSON (concurrent-
//! writer tear) — is **salvaged**: the raw file is quarantined for
//! forensics, every line that passes its CRC is kept, and the salvaged
//! records are durably rewritten as a fresh segment so the next open is
//! clean. The per-shard salvaged/rejected line counts are exposed via
//! [`KnowledgeStore::health`] (previously quarantine was all-or-nothing
//! in the numbers and `store.quarantine` events under-reported partial
//! damage). Warm-start queries against missing knowledge simply fall
//! back to the full O3 sweep.

use crate::features::FeatureVec;
use peak_obs::metrics::{Counter, MetricsRegistry};
use peak_obs::{event, Tracer};
use peak_util::{crc32, Json, ToJson};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// Number of segment files.
pub const N_SHARDS: usize = 8;

/// Record magic: bump on any line-format change.
pub const MAGIC: &str = "PEAKKS1";

/// One completed tuning result.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreRecord {
    /// Benchmark name.
    pub benchmark: String,
    /// Machine name (must match for warm-start reuse).
    pub machine: String,
    /// Rating method that produced the result.
    pub method: String,
    /// Feature vector of the tuning section.
    pub features: FeatureVec,
    /// Best configuration found (flag bits).
    pub best_bits: u64,
    /// Production improvement over -O3, percent.
    pub improvement_pct: f64,
}

impl ToJson for StoreRecord {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("benchmark", self.benchmark.to_json()),
            ("machine", self.machine.to_json()),
            ("method", self.method.to_json()),
            ("features", self.features.to_json()),
            ("best_bits", self.best_bits.to_json()),
            ("improvement_pct", self.improvement_pct.to_json()),
        ])
    }
}

impl StoreRecord {
    /// Parse the JSON written by [`ToJson`].
    pub fn from_json(j: &Json) -> Option<StoreRecord> {
        Some(StoreRecord {
            benchmark: j.get("benchmark")?.as_str()?.to_owned(),
            machine: j.get("machine")?.as_str()?.to_owned(),
            method: j.get("method")?.as_str()?.to_owned(),
            features: FeatureVec::from_json(j.get("features")?)?,
            best_bits: j.get("best_bits")?.as_u64()?,
            improvement_pct: j.get("improvement_pct")?.as_f64()?,
        })
    }

    /// The record's CRC-framed segment line (no trailing newline).
    pub fn to_line(&self) -> String {
        let json = self.to_json().compact();
        format!("{MAGIC} {:08x} {json}", crc32(json.as_bytes()))
    }

    /// Parse one segment line, checking magic and CRC.
    pub fn parse_line(line: &str) -> Result<StoreRecord, String> {
        let rest = line.strip_prefix(MAGIC).ok_or("bad magic")?;
        let rest = rest.strip_prefix(' ').ok_or("bad magic separator")?;
        let (crc_hex, json_str) = rest.split_once(' ').ok_or("missing CRC separator")?;
        let want =
            u32::from_str_radix(crc_hex, 16).map_err(|_| format!("bad CRC field {crc_hex:?}"))?;
        let got = crc32(json_str.as_bytes());
        if got != want {
            return Err(format!("CRC mismatch: line says {want:08x}, bytes hash to {got:08x}"));
        }
        let j = peak_util::from_str(json_str).map_err(|e| format!("invalid JSON: {e}"))?;
        StoreRecord::from_json(&j).ok_or_else(|| "not a store record".to_owned())
    }
}

/// FNV-1a over the (lowercased) benchmark+machine key → shard index.
fn shard_of(benchmark: &str, machine: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in benchmark.bytes().chain([0u8]).chain(machine.bytes()) {
        h ^= b.to_ascii_lowercase() as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    (h % N_SHARDS as u64) as usize
}

fn shard_path(dir: &Path, k: usize) -> PathBuf {
    dir.join(format!("shard-{k}.seg"))
}

/// Global store counters (registered once, shared by every store in the
/// process — the daemon owns one store, tests may open several).
struct StoreMetrics {
    quarantined: Arc<Counter>,
    salvaged: Arc<Counter>,
    rejected: Arc<Counter>,
    written: Arc<Counter>,
    nearest_hits: Arc<Counter>,
    nearest_misses: Arc<Counter>,
}

fn store_metrics() -> &'static StoreMetrics {
    static M: OnceLock<StoreMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = MetricsRegistry::global();
        StoreMetrics {
            quarantined: r
                .counter("serve.store.quarantined_segments", "Segments quarantined at open"),
            salvaged: r
                .counter("serve.store.salvaged_lines", "Healthy lines salvaged from damaged segments"),
            rejected: r
                .counter("serve.store.rejected_lines", "Corrupt lines dropped from damaged segments"),
            written: r.counter("serve.store.records_written", "Records persisted"),
            nearest_hits: r
                .counter("serve.store.nearest_hits", "Warm-start lookups that found a neighbour"),
            nearest_misses: r
                .counter("serve.store.nearest_misses", "Warm-start lookups with no neighbour"),
        }
    })
}

/// Per-line load outcome of one readable segment.
struct SegmentLoad {
    records: Vec<StoreRecord>,
    /// Lines that failed magic/CRC/JSON/schema checks and were dropped.
    rejected: usize,
    /// Reason of the first rejected line (for the trace event).
    first_error: Option<String>,
}

/// Load one segment file; `Err` means the segment could not be examined
/// line by line at all (unreadable, zero-length, not UTF-8) — the
/// whole-file quarantine path. `Ok` carries every line that passed its
/// CRC plus the count of lines that did not.
fn load_segment(path: &Path) -> Result<SegmentLoad, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("unreadable: {e}"))?;
    if bytes.is_empty() {
        return Err("zero-length segment (torn create)".to_owned());
    }
    let text = String::from_utf8(bytes).map_err(|_| "not UTF-8".to_owned())?;
    let mut load = SegmentLoad { records: Vec::new(), rejected: 0, first_error: None };
    for (n, line) in text.lines().enumerate() {
        match StoreRecord::parse_line(line) {
            Ok(rec) => load.records.push(rec),
            Err(e) => {
                load.rejected += 1;
                if load.first_error.is_none() {
                    load.first_error = Some(format!("line {}: {e}", n + 1));
                }
            }
        }
    }
    Ok(load)
}

/// Per-shard line-accounting from the last open.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardHealth {
    /// Records currently loaded in this shard.
    pub records: usize,
    /// Healthy lines recovered from a damaged segment at open.
    pub salvaged: usize,
    /// Corrupt lines dropped from a damaged segment at open.
    pub rejected: usize,
}

/// Store-wide health snapshot ([`KnowledgeStore::health`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreHealth {
    /// Records loaded across all shards.
    pub records: usize,
    /// Segments quarantined at open (whole-file or salvage forensics).
    pub quarantined_segments: usize,
    /// Total lines salvaged from damaged segments.
    pub salvaged_lines: usize,
    /// Total corrupt lines dropped.
    pub rejected_lines: usize,
    /// Per-shard breakdown.
    pub shards: Vec<ShardHealth>,
}

impl ToJson for StoreHealth {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("records", self.records.to_json()),
            ("quarantined_segments", self.quarantined_segments.to_json()),
            ("salvaged_lines", self.salvaged_lines.to_json()),
            ("rejected_lines", self.rejected_lines.to_json()),
            (
                "shards",
                Json::Arr(
                    self.shards
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| s.records + s.salvaged + s.rejected > 0)
                        .map(|(k, s)| {
                            Json::obj(vec![
                                ("shard", k.to_json()),
                                ("records", s.records.to_json()),
                                ("salvaged", s.salvaged.to_json()),
                                ("rejected", s.rejected.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// The sharded, CRC-framed, quarantine-on-corruption knowledge store.
pub struct KnowledgeStore {
    dir: PathBuf,
    shards: Vec<Vec<StoreRecord>>,
    shard_health: Vec<ShardHealth>,
    quarantined: usize,
    tracer: Tracer,
}

impl KnowledgeStore {
    /// Open (creating the directory if needed) and load every healthy
    /// segment. An unreadable segment is quarantined whole; a readable
    /// segment with corrupt lines is quarantined for forensics, its
    /// healthy lines salvaged and durably rewritten as a fresh segment
    /// (so the *next* open is clean), each logged with a
    /// `store.quarantine` event. Never fails on bad *contents* — only
    /// on I/O errors creating the directory itself.
    pub fn open(dir: &Path, tracer: Tracer) -> std::io::Result<KnowledgeStore> {
        std::fs::create_dir_all(dir)?;
        let mut store = KnowledgeStore {
            dir: dir.to_path_buf(),
            shards: vec![Vec::new(); N_SHARDS],
            shard_health: vec![ShardHealth::default(); N_SHARDS],
            quarantined: 0,
            tracer,
        };
        for k in 0..N_SHARDS {
            let path = shard_path(dir, k);
            if !path.exists() {
                continue;
            }
            match load_segment(&path) {
                Ok(load) if load.rejected == 0 && !load.records.is_empty() => {
                    store.shards[k] = load.records;
                }
                Ok(load) => {
                    // Damaged (or record-free) segment: preserve the raw
                    // bytes, keep what passed its CRC.
                    let reason = load
                        .first_error
                        .clone()
                        .unwrap_or_else(|| "no records".to_owned());
                    store.quarantine(&path, k, &reason);
                    store.salvage(k, load);
                }
                Err(reason) => store.quarantine(&path, k, &reason),
            }
            store.shard_health[k].records = store.shards[k].len();
        }
        Ok(store)
    }

    /// Adopt the healthy lines of a damaged segment: account them,
    /// rewrite them durably as a fresh segment (the raw file has already
    /// been quarantined), and emit a `store.salvage` event.
    fn salvage(&mut self, shard: usize, load: SegmentLoad) {
        let salvaged = load.records.len();
        self.shard_health[shard].salvaged = salvaged;
        self.shard_health[shard].rejected = load.rejected;
        let m = store_metrics();
        m.salvaged.add(salvaged as u64);
        m.rejected.add(load.rejected as u64);
        self.shards[shard] = load.records;
        let rewritten = if salvaged > 0 {
            self.rewrite_shard(shard).is_ok()
        } else {
            false
        };
        let t = &self.tracer;
        event!(
            t,
            "store.salvage",
            shard = shard as u64,
            salvaged = salvaged as u64,
            rejected = load.rejected as u64,
            rewritten = rewritten,
        );
    }

    /// Move a corrupt segment aside (`shard-K.quarantined-N`, first free
    /// `N`) so it is preserved for forensics but never re-read.
    fn quarantine(&mut self, path: &Path, shard: usize, reason: &str) {
        let mut n = 0;
        let dest = loop {
            let cand = self.dir.join(format!("shard-{shard}.quarantined-{n}"));
            if !cand.exists() {
                break cand;
            }
            n += 1;
        };
        let renamed = std::fs::rename(path, &dest).is_ok();
        if !renamed {
            // Last resort: drop it so the next rewrite starts clean.
            let _ = std::fs::remove_file(path);
        }
        self.quarantined += 1;
        store_metrics().quarantined.inc();
        let t = &self.tracer;
        event!(
            t,
            "store.quarantine",
            shard = shard as u64,
            reason = reason,
            preserved = renamed,
            dest = dest.display().to_string(),
        );
    }

    /// Insert or update a record (keyed by benchmark+machine+method) and
    /// durably rewrite its segment.
    pub fn record(&mut self, rec: StoreRecord) -> std::io::Result<()> {
        let k = shard_of(&rec.benchmark, &rec.machine);
        let shard = &mut self.shards[k];
        match shard.iter_mut().find(|r| {
            r.benchmark == rec.benchmark && r.machine == rec.machine && r.method == rec.method
        }) {
            Some(slot) => *slot = rec,
            None => shard.push(rec),
        }
        self.shard_health[k].records = self.shards[k].len();
        store_metrics().written.inc();
        self.rewrite_shard(k)
    }

    /// Durably rewrite shard `k` from its in-memory records.
    fn rewrite_shard(&self, k: usize) -> std::io::Result<()> {
        let mut bytes = String::new();
        for r in self.shards[k].iter() {
            bytes.push_str(&r.to_line());
            bytes.push('\n');
        }
        peak_util::write_durable(&shard_path(&self.dir, k), bytes.as_bytes())
    }

    /// Nearest-neighbour lookup: the record on the same machine whose
    /// feature vector is closest to `features`. Deterministic
    /// tie-breaking (distance, then benchmark, then method). `None` when
    /// the store holds nothing for this machine — the caller falls back
    /// to the full O3 sweep.
    pub fn nearest(&self, features: &FeatureVec, machine: &str) -> Option<&StoreRecord> {
        let hit = self
            .shards
            .iter()
            .flatten()
            .filter(|r| r.machine.eq_ignore_ascii_case(machine))
            .min_by(|a, b| {
                features
                    .distance(&a.features)
                    .total_cmp(&features.distance(&b.features))
                    .then_with(|| a.benchmark.cmp(&b.benchmark))
                    .then_with(|| a.method.cmp(&b.method))
            });
        let m = store_metrics();
        if hit.is_some() { m.nearest_hits.inc() } else { m.nearest_misses.inc() }
        hit
    }

    /// Records currently loaded.
    pub fn len(&self) -> usize {
        self.shards.iter().map(Vec::len).sum()
    }

    /// True when no records are loaded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Segments quarantined at startup.
    pub fn quarantined(&self) -> usize {
        self.quarantined
    }

    /// Line-level health from the last open plus current record counts.
    pub fn health(&self) -> StoreHealth {
        StoreHealth {
            records: self.len(),
            quarantined_segments: self.quarantined,
            salvaged_lines: self.shard_health.iter().map(|s| s.salvaged).sum(),
            rejected_lines: self.shard_health.iter().map(|s| s.rejected).sum(),
            shards: self.shard_health.clone(),
        }
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peak_obs::Tracer;

    fn rec(benchmark: &str, machine: &str, method: &str, bits: u64) -> StoreRecord {
        StoreRecord {
            benchmark: benchmark.to_owned(),
            machine: machine.to_owned(),
            method: method.to_owned(),
            features: FeatureVec {
                blocks: 10,
                stmts: 80,
                loops: 3,
                max_loop_depth: 2,
                loads: 20,
                stores: 9,
                calls: 1,
                regions: 6,
                invocations: 120,
            },
            best_bits: bits,
            improvement_pct: 4.25,
        }
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("peak-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn line_roundtrip_and_crc_rejects_flips() {
        let r = rec("SWIM", "SPARC-II", "CBR", 0x3FF);
        let line = r.to_line();
        assert_eq!(StoreRecord::parse_line(&line).unwrap(), r);
        // Flip one payload character: CRC must catch it.
        let flipped = line.replace("SWIM", "SWIN");
        assert!(StoreRecord::parse_line(&flipped).unwrap_err().contains("CRC mismatch"));
        assert!(StoreRecord::parse_line("garbage").unwrap_err().contains("magic"));
    }

    #[test]
    fn record_persist_reload() {
        let dir = tmpdir("persist");
        let mut s = KnowledgeStore::open(&dir, Tracer::disabled()).unwrap();
        s.record(rec("SWIM", "SPARC-II", "CBR", 1)).unwrap();
        s.record(rec("ART", "Pentium-IV", "RBR", 2)).unwrap();
        // Same key overwrites, different method coexists.
        s.record(rec("SWIM", "SPARC-II", "CBR", 3)).unwrap();
        s.record(rec("SWIM", "SPARC-II", "MBR", 4)).unwrap();
        assert_eq!(s.len(), 3);
        let back = KnowledgeStore::open(&dir, Tracer::disabled()).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.quarantined(), 0);
        let hit = back.nearest(&rec("SWIM", "x", "y", 0).features, "SPARC-II").unwrap();
        assert_eq!((hit.best_bits, hit.method.as_str()), (3, "CBR"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn nearest_respects_machine_and_falls_back_to_none() {
        let dir = tmpdir("nearest");
        let mut s = KnowledgeStore::open(&dir, Tracer::disabled()).unwrap();
        s.record(rec("ART", "Pentium-IV", "RBR", 2)).unwrap();
        let f = rec("ART", "x", "y", 0).features;
        assert!(s.nearest(&f, "SPARC-II").is_none(), "wrong machine must not match");
        assert!(s.nearest(&f, "pentium-iv").is_some(), "machine match is case-insensitive");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damaged_segment_salvages_good_lines_and_accounts_per_shard() {
        let dir = tmpdir("salvage");
        // Two healthy records in one shard plus one corrupt line between
        // them.
        let a = rec("SWIM", "SPARC-II", "CBR", 1);
        let b = rec("SWIM", "SPARC-II", "MBR", 2);
        let k = shard_of("SWIM", "SPARC-II");
        let seg = format!("{}\nPEAKKS1 deadbeef {{\"torn\":\n{}\n", a.to_line(), b.to_line());
        std::fs::write(shard_path(&dir, k), seg).unwrap();
        let s = KnowledgeStore::open(&dir, Tracer::disabled()).unwrap();
        assert_eq!(s.quarantined(), 1, "raw file quarantined for forensics");
        assert_eq!(s.len(), 2, "healthy lines salvaged");
        let h = s.health();
        assert_eq!((h.salvaged_lines, h.rejected_lines), (2, 1));
        assert_eq!(h.shards[k], ShardHealth { records: 2, salvaged: 2, rejected: 1 });
        assert!(
            h.to_json().compact().contains("\"rejected\":1"),
            "health JSON carries the per-shard breakdown"
        );
        // The salvage rewrite makes the next open clean.
        let again = KnowledgeStore::open(&dir, Tracer::disabled()).unwrap();
        assert_eq!(again.quarantined(), 0);
        assert_eq!(again.len(), 2);
        assert_eq!(again.health().salvaged_lines, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_hash_is_stable_and_in_range() {
        for (b, m) in [("SWIM", "SPARC-II"), ("ART", "Pentium-IV"), ("MGRID", "SPARC-II")] {
            let k = shard_of(b, m);
            assert!(k < N_SHARDS);
            assert_eq!(k, shard_of(&b.to_lowercase(), &m.to_lowercase()));
        }
    }
}
