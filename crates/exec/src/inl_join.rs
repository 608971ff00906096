//! Indexed nested-loops join: probe a B+-tree per outer row.

use mq_common::{IndexId, Result, Row};
use mq_expr::Expr;

use crate::context::ExecContext;
use crate::Operator;

/// Indexed nested-loops join operator. The outer side streams; each
/// outer row probes the inner table's index and fetches matches.
pub struct IndexNLJoinExec {
    outer: Box<dyn Operator>,
    outer_key: usize,
    index: IndexId,
    index_height: usize,
    residual: Option<Expr>,
    pending: Vec<Row>,
    residual_ops: u64,
}

impl IndexNLJoinExec {
    /// Create an indexed nested-loops join.
    pub fn new(
        outer: Box<dyn Operator>,
        outer_key: usize,
        index: IndexId,
        index_height: usize,
        residual: Option<Expr>,
    ) -> IndexNLJoinExec {
        let residual_ops = residual.as_ref().map(|f| f.eval_cost_ops()).unwrap_or(0);
        IndexNLJoinExec {
            outer,
            outer_key,
            index,
            index_height,
            residual,
            pending: Vec::new(),
            residual_ops,
        }
    }
}

impl Operator for IndexNLJoinExec {
    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        self.outer.open(ctx)
    }

    fn next(&mut self, ctx: &ExecContext) -> Result<Option<Row>> {
        loop {
            if let Some(row) = self.pending.pop() {
                return Ok(Some(row));
            }
            let outer_row = match self.outer.next(ctx)? {
                Some(r) => r,
                None => return Ok(None),
            };
            let key = outer_row.try_get(self.outer_key)?;
            if key.is_null() {
                continue;
            }
            // Descent cost: comparisons at each level.
            ctx.clock.add_cpu(self.index_height as u64 * 8 + 1);
            let rids = ctx.storage.index_lookup(self.index, key)?;
            for rid in rids {
                let inner_row = ctx.storage.fetch(rid)?;
                ctx.clock.add_cpu(1 + self.residual_ops);
                let joined = outer_row.concat(&inner_row);
                match &self.residual {
                    Some(f) => {
                        if f.eval_predicate(&joined)? {
                            self.pending.push(joined);
                        }
                    }
                    None => self.pending.push(joined),
                }
            }
        }
    }

    fn close(&mut self, ctx: &ExecContext) -> Result<()> {
        self.outer.close(ctx)
    }
}
