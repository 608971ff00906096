//! External merge sort with grant-bounded run generation.

use std::cmp::Ordering;

use mq_common::{FileId, MqError, Result, Row};
use mq_plan::NodeId;
use mq_storage::RowScan;

use crate::context::{Artifact, ExecContext};
use crate::Operator;

/// External merge-sort operator.
pub struct SortExec {
    node: NodeId,
    input: Box<dyn Operator>,
    keys: Vec<(usize, bool)>,
    grant_fallback: usize,
    state: State,
}

enum State {
    Unopened,
    InMem { rows: Vec<Row>, pos: usize },
    Merging(MergeState),
    Done,
}

struct MergeState {
    files: Vec<FileId>,
    scans: Vec<RowScan>,
    heads: Vec<Option<Row>>,
}

impl SortExec {
    /// Create a sort over `(column, ascending)` keys.
    pub fn new(
        node: NodeId,
        input: Box<dyn Operator>,
        keys: Vec<(usize, bool)>,
        grant_fallback: usize,
    ) -> SortExec {
        SortExec {
            node,
            input,
            keys,
            grant_fallback,
            state: State::Unopened,
        }
    }

    fn compare(keys: &[(usize, bool)], a: &Row, b: &Row) -> Ordering {
        for &(k, asc) in keys {
            let ord = a.get(k).cmp(b.get(k));
            let ord = if asc { ord } else { ord.reverse() };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }

    fn sort_rows(&self, rows: &mut [Row], ctx: &ExecContext) {
        let keys = self.keys.clone();
        ctx.clock
            .add_cpu(rows.len() as u64 * (rows.len().max(2) as f64).log2() as u64);
        rows.sort_by(|a, b| Self::compare(&keys, a, b));
    }

    fn write_run(&self, rows: &[Row], ctx: &ExecContext) -> Result<FileId> {
        let f = ctx.create_temp_file();
        for r in rows {
            ctx.storage.append_row(f, r)?;
        }
        Ok(f)
    }

    /// Merge groups of runs until at most `fanin` remain.
    fn reduce_runs(
        &self,
        mut files: Vec<FileId>,
        fanin: usize,
        ctx: &ExecContext,
    ) -> Result<Vec<FileId>> {
        while files.len() > fanin {
            let mut next = Vec::new();
            for chunk in files.chunks(fanin) {
                let merged = ctx.create_temp_file();
                let mut ms = MergeState::open(chunk.to_vec(), ctx)?;
                while let Some(row) = ms.next_min(&self.keys, ctx)? {
                    ctx.clock.add_cpu(1);
                    ctx.storage.append_row(merged, &row)?;
                }
                for f in chunk {
                    ctx.free_temp_file(*f);
                }
                next.push(merged);
            }
            files = next;
        }
        Ok(files)
    }
}

fn kind_changed() -> MqError {
    MqError::Internal("sort artifact changed kind at its phase hook".into())
}

impl MergeState {
    fn open(files: Vec<FileId>, ctx: &ExecContext) -> Result<MergeState> {
        let mut scans = Vec::with_capacity(files.len());
        let mut heads = Vec::with_capacity(files.len());
        for f in &files {
            let mut s = ctx.storage.scan_file(*f)?;
            heads.push(s.next().transpose()?.map(|(_, r)| r));
            scans.push(s);
        }
        Ok(MergeState {
            files,
            scans,
            heads,
        })
    }

    fn next_min(&mut self, keys: &[(usize, bool)], ctx: &ExecContext) -> Result<Option<Row>> {
        let mut best: Option<usize> = None;
        for (i, head) in self.heads.iter().enumerate() {
            if let Some(row) = head {
                match best {
                    None => best = Some(i),
                    Some(b) => {
                        ctx.clock.add_cpu(1);
                        // `best` only ever indexes a non-empty head, so a
                        // missing row means this run is exhausted — yield
                        // to the current candidate instead of panicking.
                        let better = match self.heads[b].as_ref() {
                            Some(best_row) => {
                                SortExec::compare(keys, row, best_row) == Ordering::Less
                            }
                            None => true,
                        };
                        if better {
                            best = Some(i);
                        }
                    }
                }
            }
        }
        match best {
            None => Ok(None),
            Some(i) => {
                let row = self.heads[i].take();
                self.heads[i] = self.scans[i].next().transpose()?.map(|(_, r)| r);
                Ok(row)
            }
        }
    }

    fn cleanup(&self, ctx: &ExecContext) {
        for f in &self.files {
            ctx.free_temp_file(*f);
        }
    }
}

impl Operator for SortExec {
    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        // Resume from an artifact if one survived a plan switch.
        match ctx.take_artifact(self.node) {
            Some(Artifact::SortedRows(rows)) => {
                self.state = State::InMem { rows, pos: 0 };
                return Ok(());
            }
            Some(Artifact::SortedRuns(files)) => {
                self.state = State::Merging(MergeState::open(files, ctx)?);
                return Ok(());
            }
            Some(other) => {
                // Foreign artifact type: put it back, proceed normally.
                ctx.put_artifact(self.node, other);
            }
            None => {}
        }
        // Grant read after opening the input (see hash_join.rs): lower
        // segments complete inside `open`, and their phase hooks may
        // re-allocate this operator's memory.
        self.input.open(ctx)?;
        let mut grant = ctx.grant_for(self.node, self.grant_fallback);
        let mut buffer: Vec<Row> = Vec::new();
        let mut bytes = 0usize;
        let mut runs: Vec<FileId> = Vec::new();
        let mut seen = 0u64;
        while let Some(row) = self.input.next(ctx)? {
            ctx.clock.add_cpu(1);
            seen += 1;
            // §2.3 extension: sorts can respond to mid-execution grant
            // raises between run flushes.
            if seen.is_multiple_of(256) {
                grant = grant.max(ctx.grant_for(self.node, self.grant_fallback));
            }
            bytes += row.encoded_len() + 8;
            buffer.push(row);
            if bytes > grant {
                mq_obs::emit(|| mq_obs::ObsEvent::Spill {
                    node: self.node.0 as u64,
                    operator: "Sort",
                    bytes: bytes as u64,
                });
                self.sort_rows(&mut buffer, ctx);
                runs.push(self.write_run(&buffer, ctx)?);
                buffer.clear();
                bytes = 0;
            }
        }
        self.input.close(ctx)?;

        if runs.is_empty() {
            self.sort_rows(&mut buffer, ctx);
            match ctx.notify_phase_with(self.node, Artifact::SortedRows(buffer))? {
                Artifact::SortedRows(rows) => self.state = State::InMem { rows, pos: 0 },
                _ => return Err(kind_changed()),
            }
        } else {
            if !buffer.is_empty() {
                self.sort_rows(&mut buffer, ctx);
                runs.push(self.write_run(&buffer, ctx)?);
            }
            // Merge fan-in capped by the pool: each open run holds a
            // resident page (see hash_join.rs on pool thrash).
            let fanin = (grant / ctx.cfg.page_size)
                .saturating_sub(1)
                .min(ctx.cfg.buffer_pool_pages / 2)
                .max(2);
            let runs = self.reduce_runs(runs, fanin, ctx)?;
            // The merge reads each run's first page before the hook; only
            // the run list is parked across it.
            let mut ms = MergeState::open(runs, ctx)?;
            let runs = std::mem::take(&mut ms.files);
            match ctx.notify_phase_with(self.node, Artifact::SortedRuns(runs))? {
                Artifact::SortedRuns(files) => ms.files = files,
                _ => return Err(kind_changed()),
            }
            self.state = State::Merging(ms);
        }
        Ok(())
    }

    fn next(&mut self, ctx: &ExecContext) -> Result<Option<Row>> {
        match &mut self.state {
            State::Unopened => Err(MqError::Execution("sort not opened".into())),
            State::InMem { rows, pos } => {
                if *pos < rows.len() {
                    let r = rows[*pos].clone();
                    *pos += 1;
                    Ok(Some(r))
                } else {
                    Ok(None)
                }
            }
            State::Merging(ms) => {
                let keys = self.keys.clone();
                ms.next_min(&keys, ctx)
            }
            State::Done => Ok(None),
        }
    }

    fn close(&mut self, ctx: &ExecContext) -> Result<()> {
        if let State::Merging(ms) = &self.state {
            ms.cleanup(ctx);
        }
        self.state = State::Done;
        Ok(())
    }
}
