//! Hybrid hash join with grant-bounded memory and partition spilling.
//!
//! The build side is consumed during `open()`. If it fits the memory
//! grant, probing streams against an in-memory table (one pass, no
//! extra I/O). If not, both inputs are partitioned to temp files and
//! joined partition-by-partition — the "two passes" of Figure 3.
//! Oversized partitions fall back to chunked block processing: the
//! build partition is loaded a memory-sized chunk at a time and the
//! probe partition re-scanned per chunk (still correct, honestly
//! costed).
//!
//! The finished build is externalized as an [`Artifact::HashBuild`]
//! keyed by the plan-node id *before* the phase hook fires, so a
//! controller-initiated plan switch (unwinding with `PlanSwitch`)
//! never loses completed build work (§2.4, Figure 5: "the filter and
//! the build phase of the hash-join are left as they are").

use mq_common::{Columns, FileId, MqError, RawValue, RecordWalk, Result, Row, Value};
use mq_memory::HASH_OVERHEAD;
use mq_plan::NodeId;

use crate::context::{hash_key, Artifact, DetHashMap, ExecContext, HashBuild};
use crate::Operator;

/// Maximum spill partitions per level.
const MAX_PARTS: usize = 16;

/// Hybrid hash join operator.
pub struct HashJoinExec {
    node: NodeId,
    build: Box<dyn Operator>,
    probe: Box<dyn Operator>,
    build_keys: Vec<usize>,
    probe_keys: Vec<usize>,
    grant_fallback: usize,
    phase: Phase,
    pending: Vec<Row>,
    /// Walks spilled probe records into borrowed columns.
    walk: RecordWalk,
    /// Reused buffer for composite join keys (see [`join_key`]) and
    /// for the keys of spilled probe records (see [`walked_key`]).
    key_scratch: Vec<Value>,
}

enum Phase {
    Unopened,
    /// Probing an in-memory table.
    InMem {
        table: DetHashMap<Vec<Value>, Vec<Row>>,
    },
    /// Spilled: probe side not yet partitioned.
    NeedProbePartition {
        build_parts: Vec<FileId>,
    },
    /// Joining partitions pairwise.
    Parts {
        build_parts: Vec<FileId>,
        probe_parts: Vec<FileId>,
        current: usize,
        /// Byte offset (row index) into the current build partition for
        /// chunked processing.
        chunk_start: u64,
    },
    Done,
}

impl HashJoinExec {
    /// Create a hash join; `children[0]` of the plan is the build side.
    pub fn new(
        node: NodeId,
        build: Box<dyn Operator>,
        probe: Box<dyn Operator>,
        build_keys: Vec<usize>,
        probe_keys: Vec<usize>,
        grant_fallback: usize,
    ) -> HashJoinExec {
        HashJoinExec {
            node,
            build,
            probe,
            build_keys,
            probe_keys,
            grant_fallback,
            phase: Phase::Unopened,
            pending: Vec::new(),
            walk: RecordWalk::default(),
            key_scratch: Vec::new(),
        }
    }

    /// Run the build phase (unless an artifact already exists).
    fn run_build(&mut self, ctx: &ExecContext) -> Result<()> {
        if let Some(Artifact::HashBuild(hb)) = ctx.take_artifact(self.node) {
            // Resuming after a plan switch: the build is already done.
            return self.install_build(hb);
        }
        // Open the build child FIRST: lower segments run to completion
        // inside this call, and the controller may re-allocate memory
        // at their phase boundaries. Reading the grant only afterwards
        // mirrors Paradise, where a segment's memory is committed when
        // the segment starts — this is what makes §2.3's mid-query
        // re-allocation able to reach this operator.
        self.build.open(ctx)?;
        let mut grant = ctx.grant_for(self.node, self.grant_fallback);
        let mut usable = (grant as f64 / HASH_OVERHEAD) as usize;
        let mut table: DetHashMap<Vec<Value>, Vec<Row>> = DetHashMap::default();
        let mut bytes = 0usize;
        let mut rows = 0u64;
        let mut parts: Option<Vec<FileId>> = None;
        while let Some(row) = self.build.next(ctx)? {
            ctx.clock.add_cpu(3);
            rows += 1;
            // §2.3 extension ("if the operators … can respond to
            // changes in memory allocation in mid-execution, our
            // algorithm can be extended"): until the first overflow,
            // periodically re-read the grant — a mid-build
            // re-allocation can avert the spill entirely.
            if parts.is_none() && rows.is_multiple_of(256) {
                let g = ctx.grant_for(self.node, self.grant_fallback);
                if g > grant {
                    grant = g;
                    usable = (grant as f64 / HASH_OVERHEAD) as usize;
                }
            }
            let Some(key) = join_key(&row, &self.build_keys, &mut self.key_scratch)? else {
                continue;
            };
            match &mut parts {
                None => {
                    bytes += row.encoded_len() + 16;
                    // Only a key new to the table is copied into an
                    // owned key.
                    match table.get_mut(key) {
                        Some(rows) => rows.push(row),
                        None => {
                            table.insert(key.to_vec(), vec![row]);
                        }
                    }
                    if bytes > usable {
                        mq_obs::emit(|| mq_obs::ObsEvent::Spill {
                            node: self.node.0 as u64,
                            operator: "HashJoin",
                            bytes: bytes as u64,
                        });
                        // Overflow: switch to spilling. Flush the table.
                        let nparts =
                            partition_count(grant, ctx.cfg.page_size, ctx.cfg.buffer_pool_pages);
                        let files: Vec<FileId> =
                            (0..nparts).map(|_| ctx.create_temp_file()).collect();
                        for (k, rows) in table.drain() {
                            let p = (hash_key(&k, 1) % nparts as u64) as usize;
                            for r in rows {
                                ctx.storage.append_row(files[p], &r)?;
                            }
                        }
                        parts = Some(files);
                    }
                }
                Some(files) => {
                    ctx.clock.add_cpu(1);
                    let p = (hash_key(key, 1) % files.len() as u64) as usize;
                    ctx.storage.append_row(files[p], &row)?;
                }
            }
        }
        self.build.close(ctx)?;
        let hb = HashBuild {
            in_mem: if parts.is_none() { Some(table) } else { None },
            parts,
            rows,
        };
        match ctx.notify_phase_with(self.node, Artifact::HashBuild(hb))? {
            Artifact::HashBuild(hb) => self.install_build(hb),
            _ => Err(MqError::Internal(
                "hash join artifact changed kind at its phase hook".into(),
            )),
        }
    }

    fn install_build(&mut self, hb: HashBuild) -> Result<()> {
        self.phase = match (hb.in_mem, hb.parts) {
            (Some(table), _) => Phase::InMem { table },
            (None, Some(build_parts)) => Phase::NeedProbePartition { build_parts },
            (None, None) => return Err(MqError::Internal("empty hash build".into())),
        };
        Ok(())
    }

    /// Drain the probe child into partition files (spill path).
    fn partition_probe(&mut self, ctx: &ExecContext, nparts: usize) -> Result<Vec<FileId>> {
        let files: Vec<FileId> = (0..nparts).map(|_| ctx.create_temp_file()).collect();
        self.probe.open(ctx)?;
        while let Some(row) = self.probe.next(ctx)? {
            ctx.clock.add_cpu(2);
            if let Some(key) = join_key(&row, &self.probe_keys, &mut self.key_scratch)? {
                let p = (hash_key(key, 1) % nparts as u64) as usize;
                ctx.storage.append_row(files[p], &row)?;
            }
        }
        self.probe.close(ctx)?;
        Ok(files)
    }

    /// Process partitions until output is pending or everything is done.
    fn advance_parts(&mut self, ctx: &ExecContext) -> Result<()> {
        loop {
            let (build_parts, probe_parts, current, chunk_start) = match &mut self.phase {
                Phase::Parts {
                    build_parts,
                    probe_parts,
                    current,
                    chunk_start,
                } => (
                    build_parts.clone(),
                    probe_parts.clone(),
                    current,
                    chunk_start,
                ),
                _ => return Ok(()),
            };
            if *current >= build_parts.len() {
                self.cleanup_parts(ctx, &build_parts, &probe_parts);
                self.phase = Phase::Done;
                return Ok(());
            }
            let bp = build_parts[*current];
            let pp = probe_parts[*current];
            let grant = ctx.grant_for(self.node, self.grant_fallback);
            let usable = (grant as f64 / HASH_OVERHEAD) as usize;

            // Load one memory-sized chunk of the build partition.
            let mut table: DetHashMap<Vec<Value>, Vec<Row>> = DetHashMap::default();
            let mut bytes = 0usize;
            let mut idx = 0u64;
            let start = *chunk_start;
            let mut more = false;
            let mut build_scan = ctx.storage.scan_file(bp)?;
            while let Some(item) = build_scan.next_record() {
                let (_, rec) = item?;
                // Earlier chunks already joined this prefix: check it,
                // but build nothing.
                if idx < start {
                    Row::validate(rec)?;
                    idx += 1;
                    continue;
                }
                if bytes > usable {
                    more = true;
                    break;
                }
                let row = Row::decode(rec)?.0;
                ctx.clock.add_cpu(2);
                bytes += row.encoded_len() + 16;
                if let Some(key) = join_key(&row, &self.build_keys, &mut self.key_scratch)? {
                    match table.get_mut(key) {
                        Some(rows) => rows.push(row),
                        None => {
                            table.insert(key.to_vec(), vec![row]);
                        }
                    }
                }
                idx += 1;
            }
            let consumed = idx;
            if table.is_empty() && !more {
                // Empty build partition: skip it.
                match &mut self.phase {
                    Phase::Parts {
                        current,
                        chunk_start,
                        ..
                    } => {
                        *chunk_start = 0;
                        *current += 1;
                    }
                    _ => {
                        return Err(MqError::Execution(
                            "hash join phase changed while skipping an empty partition".into(),
                        ))
                    }
                }
                continue;
            }

            // Scan the probe partition against this chunk. Each record
            // is walked once: the key is read from the walk, and a
            // probe row is built from it only when it has a match.
            let mut probe_scan = ctx.storage.scan_file(pp)?;
            while let Some(item) = probe_scan.next_record() {
                let (_, rec) = item?;
                self.walk.read(rec, |cols| {
                    ctx.clock.add_cpu(2);
                    let Some(key) = walked_key(cols, &self.probe_keys, &mut self.key_scratch)?
                    else {
                        return Ok(());
                    };
                    if let Some(matches) = table.get(key) {
                        let row = Row::from_raw(cols);
                        for b in matches {
                            ctx.clock.add_cpu(1);
                            self.pending.push(b.concat(&row));
                        }
                    }
                    Ok(())
                })?;
            }

            // Advance chunk/partition cursor.
            match &mut self.phase {
                Phase::Parts {
                    current,
                    chunk_start,
                    ..
                } => {
                    if more {
                        *chunk_start = consumed;
                    } else {
                        *chunk_start = 0;
                        *current += 1;
                    }
                }
                _ => {
                    return Err(MqError::Execution(
                        "hash join phase changed while advancing the partition cursor".into(),
                    ))
                }
            }
            if !self.pending.is_empty() {
                return Ok(());
            }
        }
    }

    fn cleanup_parts(&self, ctx: &ExecContext, a: &[FileId], b: &[FileId]) {
        for f in a.iter().chain(b) {
            ctx.free_temp_file(*f);
        }
    }
}

/// Spill fan-out. Each partition keeps an append tail page resident,
/// so the fan-out must stay well below both the grant and the buffer
/// pool or partitioned writes thrash the pool (evict-write + reload on
/// every append). Oversized partitions are handled downstream by
/// chunked block processing, so a modest fan-out is always safe.
fn partition_count(grant: usize, page_size: usize, pool_pages: usize) -> usize {
    let by_grant = (grant / page_size).saturating_sub(1);
    let by_pool = pool_pages / 4;
    by_grant.min(by_pool).clamp(2, MAX_PARTS)
}

/// The join key of `row`, or `None` when a key column is NULL (NULL
/// never joins). A single-column key borrows the row's value; a
/// composite key is cloned into `scratch`, whose allocation is reused
/// from row to row. A key column past the row's end is
/// [`Row::try_get`]'s error.
fn join_key<'a>(
    row: &'a Row,
    keys: &[usize],
    scratch: &'a mut Vec<Value>,
) -> Result<Option<&'a [Value]>> {
    if let [k] = keys {
        let v = row.try_get(*k)?;
        return Ok((!v.is_null()).then_some(std::slice::from_ref(v)));
    }
    scratch.clear();
    for &k in keys {
        let v = row.try_get(k)?;
        if v.is_null() {
            return Ok(None);
        }
        scratch.push(v.clone());
    }
    Ok(Some(scratch))
}

/// The join key of a walked record, built into `scratch`, or `None`
/// when a key column is NULL. A key column past the record's end is
/// [`Row::try_get`]'s error.
fn walked_key<'s>(
    cols: &[RawValue<'_>],
    keys: &[usize],
    scratch: &'s mut Vec<Value>,
) -> Result<Option<&'s [Value]>> {
    scratch.clear();
    for &k in keys {
        match cols.column(k)? {
            RawValue::Null => return Ok(None),
            v => scratch.push(v.into_value()),
        }
    }
    Ok(Some(scratch))
}

impl Operator for HashJoinExec {
    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        self.run_build(ctx)?;
        // Open the probe side for streaming (in-memory case).
        if matches!(self.phase, Phase::InMem { .. }) {
            self.probe.open(ctx)?;
        }
        Ok(())
    }

    fn next(&mut self, ctx: &ExecContext) -> Result<Option<Row>> {
        loop {
            if let Some(row) = self.pending.pop() {
                return Ok(Some(row));
            }
            match &mut self.phase {
                Phase::Unopened => return Err(MqError::Execution("hash join not opened".into())),
                Phase::InMem { table } => match self.probe.next(ctx)? {
                    Some(row) => {
                        ctx.clock.add_cpu(2);
                        if let Some(key) = join_key(&row, &self.probe_keys, &mut self.key_scratch)?
                        {
                            if let Some(matches) = table.get(key) {
                                for b in matches {
                                    ctx.clock.add_cpu(1);
                                    self.pending.push(b.concat(&row));
                                }
                            }
                        }
                    }
                    None => {
                        self.phase = Phase::Done;
                    }
                },
                Phase::NeedProbePartition { build_parts } => {
                    let build_parts = build_parts.clone();
                    let nparts = build_parts.len();
                    let probe_parts = self.partition_probe(ctx, nparts)?;
                    self.phase = Phase::Parts {
                        build_parts,
                        probe_parts,
                        current: 0,
                        chunk_start: 0,
                    };
                }
                Phase::Parts { .. } => {
                    self.advance_parts(ctx)?;
                    if self.pending.is_empty() {
                        return Ok(None);
                    }
                }
                Phase::Done => return Ok(None),
            }
        }
    }

    fn close(&mut self, ctx: &ExecContext) -> Result<()> {
        if let Phase::Parts {
            build_parts,
            probe_parts,
            ..
        } = &self.phase
        {
            self.cleanup_parts(ctx, &build_parts.clone(), &probe_parts.clone());
        }
        if let Phase::NeedProbePartition { build_parts } = &self.phase {
            for f in build_parts.clone() {
                ctx.free_temp_file(f);
            }
        }
        self.phase = Phase::Done;
        // The build child was closed at the end of the build; the probe
        // child may still be open.
        self.probe.close(ctx).ok();
        Ok(())
    }
}
