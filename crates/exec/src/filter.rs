//! Streaming row operators: filter, project, limit.

use mq_common::{Result, Row};
use mq_expr::Expr;

use crate::context::ExecContext;
use crate::Operator;

/// Filter: keeps rows whose predicate evaluates to TRUE.
pub struct FilterExec {
    input: Box<dyn Operator>,
    predicate: Expr,
    ops: u64,
}

impl FilterExec {
    /// Create a filter.
    pub fn new(input: Box<dyn Operator>, predicate: Expr) -> FilterExec {
        let ops = predicate.eval_cost_ops();
        FilterExec {
            input,
            predicate,
            ops,
        }
    }
}

impl Operator for FilterExec {
    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        self.input.open(ctx)
    }

    fn next(&mut self, ctx: &ExecContext) -> Result<Option<Row>> {
        while let Some(row) = self.input.next(ctx)? {
            ctx.clock.add_cpu(self.ops);
            if self.predicate.eval_predicate(&row)? {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }

    fn close(&mut self, ctx: &ExecContext) -> Result<()> {
        self.input.close(ctx)
    }
}

/// Projection: computes named output expressions.
pub struct ProjectExec {
    input: Box<dyn Operator>,
    exprs: Vec<(Expr, String)>,
}

impl ProjectExec {
    /// Create a projection.
    pub fn new(input: Box<dyn Operator>, exprs: Vec<(Expr, String)>) -> ProjectExec {
        ProjectExec { input, exprs }
    }
}

impl Operator for ProjectExec {
    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        self.input.open(ctx)
    }

    fn next(&mut self, ctx: &ExecContext) -> Result<Option<Row>> {
        match self.input.next(ctx)? {
            Some(row) => {
                ctx.clock.add_cpu(self.exprs.len() as u64);
                let mut out = Vec::with_capacity(self.exprs.len());
                for (e, _) in &self.exprs {
                    out.push(e.eval(&row)?.into_owned());
                }
                Ok(Some(Row::new(out)))
            }
            None => Ok(None),
        }
    }

    fn close(&mut self, ctx: &ExecContext) -> Result<()> {
        self.input.close(ctx)
    }
}

/// Limit: stops after `n` rows.
pub struct LimitExec {
    input: Box<dyn Operator>,
    n: u64,
    emitted: u64,
}

impl LimitExec {
    /// Create a limit.
    pub fn new(input: Box<dyn Operator>, n: u64) -> LimitExec {
        LimitExec {
            input,
            n,
            emitted: 0,
        }
    }
}

impl Operator for LimitExec {
    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        self.emitted = 0;
        self.input.open(ctx)
    }

    fn next(&mut self, ctx: &ExecContext) -> Result<Option<Row>> {
        if self.emitted >= self.n {
            return Ok(None);
        }
        match self.input.next(ctx)? {
            Some(row) => {
                self.emitted += 1;
                ctx.clock.add_cpu(1);
                Ok(Some(row))
            }
            None => Ok(None),
        }
    }

    fn close(&mut self, ctx: &ExecContext) -> Result<()> {
        self.input.close(ctx)
    }
}
