//! Scan operators: sequential and B+-tree index scans.

use mq_common::{IndexId, MqError, RecordWalk, Result, Rid, Row, Value};
use mq_expr::Expr;
use mq_plan::ScanSpec;
use mq_storage::RowScan;

use crate::context::ExecContext;
use crate::Operator;

/// Sequential heap-file scan with an optional in-stream filter.
///
/// With a filter, each record is walked once into borrowed columns
/// ([`RecordWalk`]); the filter reads those, and a passing record's row
/// is built from the same walk. Every record is still checked in full,
/// and charged `1 + filter_ops` CPU ops whether it passes or not. The
/// charges of one `next` call are booked together, before it returns.
pub struct SeqScanExec {
    spec: ScanSpec,
    filter: Option<Expr>,
    /// Restrict the scan to positions `lo..hi` of the file's page list
    /// (partitioned driver chunks); `None` scans the whole file.
    page_range: Option<(usize, usize)>,
    iter: Option<RowScan>,
    filter_ops: u64,
    walk: RecordWalk,
}

impl SeqScanExec {
    /// Create a sequential scan.
    pub fn new(spec: ScanSpec, filter: Option<Expr>) -> SeqScanExec {
        let filter_ops = filter.as_ref().map(|f| f.eval_cost_ops()).unwrap_or(0);
        SeqScanExec {
            spec,
            filter,
            page_range: None,
            iter: None,
            filter_ops,
            walk: RecordWalk::default(),
        }
    }

    /// Create a scan over one contiguous page-chunk of the file.
    pub fn ranged(
        spec: ScanSpec,
        filter: Option<Expr>,
        page_lo: usize,
        page_hi: usize,
    ) -> SeqScanExec {
        let mut s = SeqScanExec::new(spec, filter);
        s.page_range = Some((page_lo, page_hi));
        s
    }

    /// The next row that passes the filter, adding each record's CPU
    /// ops to `ops`.
    fn advance(&mut self, ops: &mut u64) -> Result<Option<Row>> {
        let iter = self
            .iter
            .as_mut()
            .ok_or_else(|| MqError::Execution("scan not opened".into()))?;
        while let Some(item) = iter.next_record() {
            let (_, rec) = item?;
            let Some(f) = &self.filter else {
                let row = Row::decode(rec)?.0;
                *ops += 1;
                return Ok(Some(row));
            };
            let passed = self.walk.read(rec, |cols| {
                *ops += 1 + self.filter_ops;
                Ok(f.eval_predicate(cols)?.then(|| Row::from_raw(cols)))
            })?;
            if passed.is_some() {
                return Ok(passed);
            }
        }
        Ok(None)
    }
}

impl Operator for SeqScanExec {
    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        self.iter = Some(match self.page_range {
            Some((lo, hi)) => ctx.storage.scan_file_range(self.spec.file, lo, hi)?,
            None => ctx.storage.scan_file(self.spec.file)?,
        });
        Ok(())
    }

    fn next(&mut self, ctx: &ExecContext) -> Result<Option<Row>> {
        // Nothing the scan calls reads the clock, so one booking per
        // call leaves every reader outside it the same totals.
        let mut ops = 0;
        let out = self.advance(&mut ops);
        ctx.clock.add_cpu(ops);
        out
    }

    fn close(&mut self, _ctx: &ExecContext) -> Result<()> {
        self.iter = None;
        Ok(())
    }
}

/// B+-tree index range scan with unclustered heap fetches.
pub struct IndexScanExec {
    index: IndexId,
    lo: Option<Value>,
    hi: Option<Value>,
    residual: Option<Expr>,
    rids: Vec<Rid>,
    pos: usize,
    residual_ops: u64,
}

impl IndexScanExec {
    /// Create an index scan over `lo ≤ key ≤ hi`.
    pub fn new(
        index: IndexId,
        lo: Option<Value>,
        hi: Option<Value>,
        residual: Option<Expr>,
    ) -> IndexScanExec {
        let residual_ops = residual.as_ref().map(|f| f.eval_cost_ops()).unwrap_or(0);
        IndexScanExec {
            index,
            lo,
            hi,
            residual,
            rids: Vec::new(),
            pos: 0,
            residual_ops,
        }
    }
}

impl Operator for IndexScanExec {
    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        // The range probe pays index-node I/O through the buffer pool.
        self.rids = ctx
            .storage
            .index_range(self.index, self.lo.as_ref(), self.hi.as_ref())?;
        self.pos = 0;
        Ok(())
    }

    fn next(&mut self, ctx: &ExecContext) -> Result<Option<Row>> {
        while self.pos < self.rids.len() {
            let rid = self.rids[self.pos];
            self.pos += 1;
            let row = ctx.storage.fetch(rid)?;
            ctx.clock.add_cpu(2 + self.residual_ops);
            match &self.residual {
                Some(f) => {
                    if f.eval_predicate(&row)? {
                        return Ok(Some(row));
                    }
                }
                None => return Ok(Some(row)),
            }
        }
        Ok(None)
    }

    fn close(&mut self, _ctx: &ExecContext) -> Result<()> {
        self.rids.clear();
        Ok(())
    }
}
