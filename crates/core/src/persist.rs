//! Engine-level snapshots: cross-restart durability for the catalog,
//! heap data, feedback store and plan-cache templates.
//!
//! A snapshot is a single file in the [`mq_storage::persist`] container
//! format (magic + per-section checksums, written atomically). The
//! sections are:
//!
//! * `meta` — the catalog epoch, so restored data versions keep
//!   monotonic meaning across the restart.
//! * `catalog` — every durable table: id, schema, index columns,
//!   ANALYZE statistics and the table's `data_version` stamp.
//! * `data:<table>` — the table's rows in heap scan order, stamped
//!   with the same `data_version` as the catalog section. Reload
//!   re-appends the rows and re-inserts index entries, which is
//!   byte-deterministic for a given page size.
//! * `feedback` — the cardinality feedback store. Each entry carries
//!   `(table, data_version)` dependencies; entries whose deps no
//!   longer match the restored catalog are dropped at load, degrading
//!   to a cache miss rather than a wrong estimate.
//! * `plancache` — one `(key, representative SQL)` pair per cached
//!   template. The physical plan is *not* serialized: restore re-runs
//!   the optimizer via [`Engine::prime_template`], off any job clock,
//!   so the format never has to version plan internals and the first
//!   warm probe after reopen is a hit with zero query-charged work.
//!
//! Ephemeral state — `tmp_reopt_*` spill tables, `cache_*`
//! materializations, the sub-plan cache, histogram error feedback —
//! is deliberately not captured: all of it regenerates and none of it
//! affects answers.

use std::collections::HashMap;
use std::path::Path;

use mq_cache::{FeedbackEntry, FeedbackExport};
use mq_catalog::stats::{ColumnStats, TableStats};
use mq_catalog::{is_query_local, TableEntry};
use mq_common::schema::{Field, Schema};
use mq_common::value::DataType;
use mq_common::{EngineConfig, MqError, Result, TableId};
use mq_stats::{Bucket, Histogram, HistogramKind};
use mq_storage::persist::{
    parse_snapshot, read_snapshot, write_snapshot, SectionReader, SectionWriter,
};

use crate::engine::Engine;

/// What a save or restore touched, for logs and assertions.
#[derive(Debug, Clone, Default)]
pub struct SnapshotReport {
    /// Durable tables captured or restored.
    pub tables: usize,
    /// Total heap rows captured or restored.
    pub rows: u64,
    /// Feedback entries captured, or surviving restore validation.
    pub feedback_entries: usize,
    /// Feedback entries dropped at restore because a dependency's
    /// data version no longer matches the restored catalog.
    pub feedback_dropped: usize,
    /// Plan-cache templates captured or offered for priming.
    pub plan_templates: usize,
    /// Templates actually re-admitted by the optimizer at restore.
    pub templates_primed: usize,
}

fn corrupt(msg: impl Into<String>) -> MqError {
    MqError::Storage(format!("snapshot corrupt: {}", msg.into()))
}

// ---------------------------------------------------------------------
// Scalar codecs shared by save and load.
// ---------------------------------------------------------------------

fn dtype_tag(d: DataType) -> u8 {
    match d {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Date => 3,
        DataType::Str => 4,
    }
}

fn dtype_from_tag(t: u8) -> Result<DataType> {
    Ok(match t {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Date,
        4 => DataType::Str,
        other => return Err(corrupt(format!("unknown dtype tag {other}"))),
    })
}

fn hist_kind_tag(k: HistogramKind) -> u8 {
    match k {
        HistogramKind::EquiWidth => 0,
        HistogramKind::EquiDepth => 1,
        HistogramKind::MaxDiff => 2,
        HistogramKind::EndBiased => 3,
        HistogramKind::VOptimal => 4,
    }
}

fn hist_kind_from_tag(t: u8) -> Result<HistogramKind> {
    Ok(match t {
        0 => HistogramKind::EquiWidth,
        1 => HistogramKind::EquiDepth,
        2 => HistogramKind::MaxDiff,
        3 => HistogramKind::EndBiased,
        4 => HistogramKind::VOptimal,
        other => return Err(corrupt(format!("unknown histogram kind tag {other}"))),
    })
}

fn write_histogram(w: &mut SectionWriter, h: &Histogram) {
    w.u8(hist_kind_tag(h.kind()));
    w.f64(h.min());
    w.f64(h.max());
    w.f64(h.null_frac());
    w.f64(h.distinct());
    w.f64(h.weight());
    w.u32(h.buckets().len() as u32);
    for b in h.buckets() {
        w.f64(b.lo);
        w.f64(b.hi);
        w.f64(b.frac);
        w.f64(b.distinct);
    }
}

fn read_histogram(r: &mut SectionReader) -> Result<Histogram> {
    let kind = hist_kind_from_tag(r.u8()?)?;
    let min = r.f64()?;
    let max = r.f64()?;
    let null_frac = r.f64()?;
    let distinct = r.f64()?;
    let weight = r.f64()?;
    let n = r.u32()? as usize;
    let mut buckets = Vec::with_capacity(n);
    for _ in 0..n {
        buckets.push(Bucket {
            lo: r.f64()?,
            hi: r.f64()?,
            frac: r.f64()?,
            distinct: r.f64()?,
        });
    }
    Ok(Histogram::from_parts(
        kind, buckets, min, max, null_frac, distinct, weight,
    ))
}

fn write_table_stats(w: &mut SectionWriter, s: &TableStats) {
    w.u64(s.rows);
    w.u64(s.pages);
    w.f64(s.avg_row_bytes);
    let mut cols: Vec<(&String, &ColumnStats)> = s.columns.iter().collect();
    cols.sort_by(|a, b| a.0.cmp(b.0));
    w.u32(cols.len() as u32);
    for (name, c) in cols {
        w.str(name);
        w.opt_value(&c.min);
        w.opt_value(&c.max);
        w.f64(c.distinct);
        w.f64(c.null_frac);
        w.f64(c.clustering);
        match c.histogram_kind {
            None => w.u8(0),
            Some(k) => {
                w.u8(1);
                w.u8(hist_kind_tag(k));
            }
        }
        match &c.histogram {
            None => w.u8(0),
            Some(h) => {
                w.u8(1);
                write_histogram(w, h);
            }
        }
    }
}

fn read_table_stats(r: &mut SectionReader) -> Result<TableStats> {
    let rows = r.u64()?;
    let pages = r.u64()?;
    let avg_row_bytes = r.f64()?;
    let ncols = r.u32()? as usize;
    let mut columns = HashMap::new();
    for _ in 0..ncols {
        let name = r.str()?;
        let min = r.opt_value()?;
        let max = r.opt_value()?;
        let distinct = r.f64()?;
        let null_frac = r.f64()?;
        let clustering = r.f64()?;
        let histogram_kind = match r.u8()? {
            0 => None,
            1 => Some(hist_kind_from_tag(r.u8()?)?),
            other => return Err(corrupt(format!("bad histogram-kind flag {other}"))),
        };
        let histogram = match r.u8()? {
            0 => None,
            1 => Some(read_histogram(r)?),
            other => return Err(corrupt(format!("bad histogram flag {other}"))),
        };
        columns.insert(
            name,
            ColumnStats {
                min,
                max,
                distinct,
                null_frac,
                histogram,
                histogram_kind,
                clustering,
            },
        );
    }
    Ok(TableStats {
        rows,
        pages,
        avg_row_bytes,
        columns,
    })
}

// ---------------------------------------------------------------------
// Save.
// ---------------------------------------------------------------------

/// Named snapshot sections in publish order.
type Sections = Vec<(String, Vec<u8>)>;

/// Assemble the engine's durable state into snapshot sections.
fn assemble(engine: &Engine) -> Result<(Sections, SnapshotReport)> {
    let catalog = engine.catalog();
    let storage = engine.storage();
    let mut report = SnapshotReport::default();

    let mut meta = SectionWriter::new();
    meta.u64(catalog.epoch());

    let mut names: Vec<String> = catalog
        .table_names()
        .into_iter()
        .filter(|n| !is_query_local(n))
        .collect();
    names.sort();

    let mut cat_w = SectionWriter::new();
    cat_w.u32(names.len() as u32);
    let mut data_sections: Vec<(String, Vec<u8>)> = Vec::with_capacity(names.len());
    for name in &names {
        let t = catalog.table(name)?;
        cat_w.str(&t.name);
        cat_w.u32(t.id.0);
        cat_w.u64(t.data_version);
        cat_w.u64(t.inserts_since_analyze);
        cat_w.u32(t.schema.len() as u32);
        for f in t.schema.fields() {
            match &f.qualifier {
                None => cat_w.u8(0),
                Some(q) => {
                    cat_w.u8(1);
                    cat_w.str(q);
                }
            }
            cat_w.str(&f.name);
            cat_w.u8(dtype_tag(f.dtype));
        }
        let mut index_cols: Vec<&String> = t.indexes.keys().collect();
        index_cols.sort();
        cat_w.u32(index_cols.len() as u32);
        for c in index_cols {
            cat_w.str(c);
        }
        match &t.stats {
            None => cat_w.u8(0),
            Some(s) => {
                cat_w.u8(1);
                write_table_stats(&mut cat_w, s);
            }
        }

        let mut data_w = SectionWriter::new();
        data_w.u64(t.data_version);
        let mut rows = Vec::new();
        for item in storage.scan_file(t.file)? {
            let (_, row) = item?;
            rows.push(row);
        }
        data_w.u64(rows.len() as u64);
        for row in &rows {
            data_w.row(row);
        }
        report.rows += rows.len() as u64;
        data_sections.push((format!("data:{name}"), data_w.into_bytes()));
    }
    report.tables = names.len();

    let fb = engine.feedback().export();
    let mut fb_w = SectionWriter::new();
    fb_w.u64(fb.applied);
    fb_w.u32(fb.entries.len() as u32);
    for (fp, e) in &fb.entries {
        fb_w.u64(*fp);
        fb_w.f64(e.rows);
        fb_w.u32(e.deps.len() as u32);
        for (table, ver) in &e.deps {
            fb_w.str(table);
            fb_w.u64(*ver);
        }
    }
    fb_w.u32(fb.applied_by_fp.len() as u32);
    for (fp, n) in &fb.applied_by_fp {
        fb_w.u64(*fp);
        fb_w.u64(*n);
    }
    report.feedback_entries = fb.entries.len();

    let templates = engine.plan_cache().export_sql();
    let mut pc_w = SectionWriter::new();
    pc_w.u32(templates.len() as u32);
    for (key, sql) in &templates {
        pc_w.str(key);
        pc_w.str(sql);
    }
    report.plan_templates = templates.len();

    let mut sections = vec![
        ("meta".to_string(), meta.into_bytes()),
        ("catalog".to_string(), cat_w.into_bytes()),
    ];
    sections.extend(data_sections);
    sections.push(("feedback".to_string(), fb_w.into_bytes()));
    sections.push(("plancache".to_string(), pc_w.into_bytes()));
    Ok((sections, report))
}

/// Snapshot the engine's durable state to `path`, atomically: the
/// image is staged to `<path>.tmp` and renamed over the target only
/// once fully written, so a crash mid-save (exercised through the
/// fault injector's segment-boundary save points) leaves any previous
/// snapshot at `path` loadable.
///
/// Refuses to run while queries are in flight — a snapshot taken
/// mid-query would capture spill temps and half-applied feedback.
pub fn save(engine: &Engine, path: &Path) -> Result<SnapshotReport> {
    let open = engine.manifests().open_queries();
    if !open.is_empty() {
        return Err(MqError::InvalidConfig(format!(
            "cannot snapshot while {} quer{} in flight",
            open.len(),
            if open.len() == 1 { "y is" } else { "ies are" }
        )));
    }
    let (sections, report) = assemble(engine)?;
    write_snapshot(path, &sections)?;
    Ok(report)
}

// ---------------------------------------------------------------------
// Restore.
// ---------------------------------------------------------------------

/// Restore an engine from the snapshot at `path`, using `cfg` for the
/// runtime knobs (buffer pool size, fault spec, cache policy — none of
/// those are part of the image). See [`restore_from_bytes`].
pub fn restore(cfg: EngineConfig, path: &Path) -> Result<(Engine, SnapshotReport)> {
    let sections = read_snapshot(path)?;
    restore_sections(cfg, sections)
}

/// Restore from an already-read snapshot image.
pub fn restore_from_bytes(cfg: EngineConfig, bytes: &[u8]) -> Result<(Engine, SnapshotReport)> {
    restore_sections(cfg, parse_snapshot(bytes)?)
}

fn restore_sections(
    cfg: EngineConfig,
    sections: Vec<(String, Vec<u8>)>,
) -> Result<(Engine, SnapshotReport)> {
    let mut by_name: HashMap<String, Vec<u8>> = HashMap::new();
    for (name, payload) in sections {
        if by_name.insert(name.clone(), payload).is_some() {
            return Err(corrupt(format!("duplicate section {name}")));
        }
    }
    let take = |by_name: &mut HashMap<String, Vec<u8>>, name: &str| -> Result<Vec<u8>> {
        by_name
            .remove(name)
            .ok_or_else(|| corrupt(format!("missing section {name}")))
    };

    let engine = Engine::new(cfg)?;
    let catalog = engine.catalog();
    let storage = engine.storage();
    let mut report = SnapshotReport::default();

    let meta_bytes = take(&mut by_name, "meta")?;
    let mut meta = SectionReader::new(&meta_bytes);
    let epoch = meta.u64()?;

    let cat_bytes = take(&mut by_name, "catalog")?;
    let mut cat_r = SectionReader::new(&cat_bytes);
    let ntables = cat_r.u32()? as usize;
    for _ in 0..ntables {
        let name = cat_r.str()?;
        let id = cat_r.u32()?;
        let data_version = cat_r.u64()?;
        let inserts_since_analyze = cat_r.u64()?;
        let nfields = cat_r.u32()? as usize;
        let mut fields = Vec::with_capacity(nfields);
        for _ in 0..nfields {
            let qualifier = match cat_r.u8()? {
                0 => None,
                1 => Some(cat_r.str()?),
                other => return Err(corrupt(format!("bad qualifier flag {other}"))),
            };
            let fname = cat_r.str()?;
            let dtype = dtype_from_tag(cat_r.u8()?)?;
            fields.push(match qualifier {
                Some(q) => Field::qualified(q, fname, dtype),
                None => Field::new(fname, dtype),
            });
        }
        let nindexes = cat_r.u32()? as usize;
        let mut index_cols = Vec::with_capacity(nindexes);
        for _ in 0..nindexes {
            index_cols.push(cat_r.str()?);
        }
        let stats = match cat_r.u8()? {
            0 => None,
            1 => Some(read_table_stats(&mut cat_r)?),
            other => return Err(corrupt(format!("bad stats flag {other}"))),
        };
        if is_query_local(&name) {
            return Err(corrupt(format!("query-local table {name} in snapshot")));
        }
        let schema = Schema::new_unchecked(fields);

        let data_bytes = take(&mut by_name, &format!("data:{name}"))?;
        let mut data_r = SectionReader::new(&data_bytes);
        let stamp = data_r.u64()?;
        if stamp != data_version {
            return Err(corrupt(format!(
                "data section for {name} stamped v{stamp}, catalog says v{data_version}"
            )));
        }
        let nrows = data_r.u64()?;
        let file = storage.create_file();
        let mut col_indexes = Vec::with_capacity(index_cols.len());
        for c in &index_cols {
            col_indexes.push((c.clone(), schema.index_of(c)?, storage.create_index()?));
        }
        for _ in 0..nrows {
            let row = data_r.row()?;
            if row.len() != schema.len() {
                return Err(corrupt(format!(
                    "row arity {} in {name}, schema has {}",
                    row.len(),
                    schema.len()
                )));
            }
            let rid = storage.append_row(file, &row)?;
            for (_, ci, idx) in &col_indexes {
                storage.index_insert(*idx, row.get(*ci), rid)?;
            }
        }
        if !data_r.is_exhausted() {
            return Err(corrupt(format!(
                "trailing bytes in data section for {name}"
            )));
        }
        report.rows += nrows;
        catalog.restore_table(TableEntry {
            id: TableId(id),
            name,
            schema,
            file,
            indexes: col_indexes
                .into_iter()
                .map(|(c, _, idx)| (c, idx))
                .collect(),
            stats,
            inserts_since_analyze,
            data_version,
        })?;
    }
    report.tables = ntables;
    if !cat_r.is_exhausted() {
        return Err(corrupt("trailing bytes in catalog section"));
    }
    catalog.raise_epoch(epoch);

    let fb_bytes = take(&mut by_name, "feedback")?;
    let mut fb_r = SectionReader::new(&fb_bytes);
    let applied = fb_r.u64()?;
    let nentries = fb_r.u32()? as usize;
    let mut entries = Vec::with_capacity(nentries);
    for _ in 0..nentries {
        let fp = fb_r.u64()?;
        let rows = fb_r.f64()?;
        let ndeps = fb_r.u32()? as usize;
        let mut deps = Vec::with_capacity(ndeps);
        for _ in 0..ndeps {
            deps.push((fb_r.str()?, fb_r.u64()?));
        }
        // A dependency whose data version no longer matches the
        // restored catalog means this observation describes data we do
        // not have: drop it, degrading to a feedback miss.
        if catalog.deps_current(&deps) {
            entries.push((fp, FeedbackEntry { rows, deps }));
        } else {
            report.feedback_dropped += 1;
        }
    }
    let nby = fb_r.u32()? as usize;
    let mut applied_by_fp = Vec::with_capacity(nby);
    for _ in 0..nby {
        applied_by_fp.push((fb_r.u64()?, fb_r.u64()?));
    }
    if !fb_r.is_exhausted() {
        return Err(corrupt("trailing bytes in feedback section"));
    }
    report.feedback_entries = entries.len();
    engine.feedback().restore(FeedbackExport {
        entries,
        applied,
        applied_by_fp,
    });

    let pc_bytes = take(&mut by_name, "plancache")?;
    let mut pc_r = SectionReader::new(&pc_bytes);
    let ntemplates = pc_r.u32()? as usize;
    for _ in 0..ntemplates {
        let _key = pc_r.str()?;
        let sql = pc_r.str()?;
        // Re-admitting runs the optimizer against the restored catalog;
        // any failure (schema drift, optimizer refusal) degrades this
        // template to a future cache miss rather than an error.
        if engine.prime_template(&sql).unwrap_or(false) {
            report.templates_primed += 1;
        }
    }
    if !pc_r.is_exhausted() {
        return Err(corrupt("trailing bytes in plancache section"));
    }
    report.plan_templates = ntemplates;

    if !by_name.is_empty() {
        let mut extras: Vec<&String> = by_name.keys().collect();
        extras.sort();
        return Err(corrupt(format!("unexpected sections: {extras:?}")));
    }
    Ok((engine, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_common::{Row, Value};

    fn seeded_engine() -> Engine {
        let engine = Engine::new(EngineConfig::default()).unwrap();
        let catalog = engine.catalog();
        let storage = engine.storage();
        catalog
            .create_table(
                storage,
                "t",
                vec![("k", DataType::Int), ("v", DataType::Str)],
            )
            .unwrap();
        let rows: Vec<Row> = (0..50)
            .map(|i| Row::new(vec![Value::Int(i), Value::Str(format!("r{i}").into())]))
            .collect();
        catalog.insert_rows(storage, "t", rows).unwrap();
        catalog.create_index(storage, "t", "k").unwrap();
        catalog
            .analyze(storage, "t", HistogramKind::MaxDiff, 8, 128, 1)
            .unwrap();
        engine
    }

    #[test]
    fn save_restore_round_trips_catalog_and_rows() {
        let dir = std::env::temp_dir().join(format!("mq_persist_core_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round.mqsnap");
        let engine = seeded_engine();
        let before = engine.catalog().table("t").unwrap();
        let report = save(&engine, &path).unwrap();
        assert_eq!(report.tables, 1);
        assert_eq!(report.rows, 50);

        let (engine2, r2) = restore(EngineConfig::default(), &path).unwrap();
        assert_eq!(r2.tables, 1);
        assert_eq!(r2.rows, 50);
        let after = engine2.catalog().table("t").unwrap();
        assert_eq!(after.data_version, before.data_version);
        assert_eq!(after.inserts_since_analyze, before.inserts_since_analyze);
        assert_eq!(after.schema.fields().len(), before.schema.fields().len());
        assert!(after.indexes.contains_key("k"));
        let s_before = before.stats.as_ref().unwrap();
        let s_after = after.stats.as_ref().unwrap();
        assert_eq!(s_after.rows, s_before.rows);
        assert_eq!(
            s_after.columns["k"].histogram_kind,
            s_before.columns["k"].histogram_kind
        );
        assert_eq!(engine2.catalog().epoch(), engine.catalog().epoch());
        // The rows themselves, in scan order.
        let f = after.file;
        let rows: Vec<Row> = engine2
            .storage()
            .scan_file(f)
            .unwrap()
            .map(|r| r.unwrap().1)
            .collect();
        assert_eq!(rows.len(), 50);
        assert_eq!(rows[7].get(1), &Value::str("r7"));
        // Index answers point at real rows.
        let idx = after.indexes["k"];
        let hits = engine2
            .storage()
            .index_lookup(idx, &Value::Int(33))
            .unwrap();
        assert_eq!(hits.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn feedback_with_stale_deps_degrades_to_miss() {
        let dir = std::env::temp_dir().join(format!("mq_persist_fb_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fb.mqsnap");
        let engine = seeded_engine();
        let v = engine.catalog().data_version("t").unwrap();
        engine
            .feedback()
            .record(1, 123.0, vec![("t".to_string(), v)]);
        engine
            .feedback()
            .record(2, 456.0, vec![("t".to_string(), v + 99)]);
        save(&engine, &path).unwrap();
        let (engine2, report) = restore(EngineConfig::default(), &path).unwrap();
        assert_eq!(report.feedback_dropped, 1);
        assert_eq!(report.feedback_entries, 1);
        assert_eq!(engine2.feedback().get(1).map(|e| e.rows), Some(123.0));
        assert!(engine2.feedback().get(2).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_refuses_while_query_open() {
        let dir = std::env::temp_dir().join(format!("mq_persist_busy_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("busy.mqsnap");
        let engine = seeded_engine();
        let logical = mq_sql::plan_sql("select k from t where k >= 0", engine.catalog()).unwrap();
        engine
            .manifests()
            .begin(777, logical, crate::ReoptMode::Full);
        let err = save(&engine, &path).unwrap_err();
        assert!(matches!(err, MqError::InvalidConfig(_)), "{err}");
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
