//! Hash aggregation with grant-bounded group tables.
//!
//! When the group table outgrows the memory grant, rows belonging to
//! *new* groups are spilled to hash partitions (existing groups keep
//! updating in place, so memory stays bounded); each spilled partition
//! is then aggregated separately. This is the classic hybrid
//! aggregation trade-off the cost model prices as one extra
//! write+read pass.

use mq_common::{FileId, MqError, Result, Row, Value};
use mq_memory::GROUP_OVERHEAD;
use mq_plan::{AggExpr, AggFunc, NodeId};

use crate::context::{hash_key, Artifact, DetHashMap, ExecContext};
use crate::Operator;

/// Running state of one aggregate function.
#[derive(Debug, Clone)]
pub enum AggState {
    /// COUNT (rows or non-null args).
    Count(i64),
    /// SUM with float promotion tracking.
    Sum {
        /// Accumulated total.
        total: f64,
        /// Whether any input was a float.
        any_float: bool,
        /// Whether any non-null input arrived.
        seen: bool,
    },
    /// AVG.
    Avg {
        /// Sum so far.
        sum: f64,
        /// Non-null count so far.
        n: i64,
    },
    /// MIN.
    Min(Option<Value>),
    /// MAX.
    Max(Option<Value>),
}

impl AggState {
    /// Fresh state for a function.
    pub fn new(func: AggFunc) -> AggState {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum {
                total: 0.0,
                any_float: false,
                seen: false,
            },
            AggFunc::Avg => AggState::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    /// Fold one value (`None` = COUNT(*) row marker).
    pub fn update(&mut self, v: Option<&Value>) {
        match self {
            AggState::Count(c) => {
                if v.is_none_or(|v| !v.is_null()) {
                    *c += 1;
                }
            }
            AggState::Sum {
                total,
                any_float,
                seen,
            } => {
                if let Some(v) = v {
                    match v {
                        Value::Int(i) => {
                            *total += *i as f64;
                            *seen = true;
                        }
                        Value::Float(f) => {
                            *total += f;
                            *any_float = true;
                            *seen = true;
                        }
                        Value::Date(d) => {
                            *total += *d as f64;
                            *seen = true;
                        }
                        _ => {}
                    }
                }
            }
            AggState::Avg { sum, n } => {
                if let Some(v) = v {
                    if let Some(x) = v.as_f64() {
                        if !v.is_null() {
                            *sum += x;
                            *n += 1;
                        }
                    }
                }
            }
            AggState::Min(cur) => {
                if let Some(v) = v {
                    if !v.is_null() && cur.as_ref().is_none_or(|c| v < c) {
                        *cur = Some(v.clone());
                    }
                }
            }
            AggState::Max(cur) => {
                if let Some(v) = v {
                    if !v.is_null() && cur.as_ref().is_none_or(|c| v > c) {
                        *cur = Some(v.clone());
                    }
                }
            }
        }
    }

    /// Produce the final value.
    pub fn finalize(&self) -> Value {
        match self {
            AggState::Count(c) => Value::Int(*c),
            AggState::Sum {
                total,
                any_float,
                seen,
            } => {
                if !seen {
                    Value::Null
                } else if *any_float {
                    Value::Float(*total)
                } else {
                    Value::Int(*total as i64)
                }
            }
            AggState::Avg { sum, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / *n as f64)
                }
            }
            AggState::Min(v) => v.clone().unwrap_or(Value::Null),
            AggState::Max(v) => v.clone().unwrap_or(Value::Null),
        }
    }
}

/// The group key of `row`: its `group` columns. A single-column key
/// borrows the row's value; a composite key is cloned into `scratch`,
/// whose allocation is reused from row to row.
fn group_key<'a>(
    group: &[usize],
    row: &'a Row,
    scratch: &'a mut Vec<Value>,
) -> Result<&'a [Value]> {
    if let [i] = group {
        return Ok(std::slice::from_ref(row.try_get(*i)?));
    }
    scratch.clear();
    for &i in group {
        scratch.push(row.try_get(i)?.clone());
    }
    Ok(scratch)
}

/// Hash-aggregate operator.
pub struct HashAggregateExec {
    node: NodeId,
    input: Box<dyn Operator>,
    group: Vec<usize>,
    aggs: Vec<AggExpr>,
    grant_fallback: usize,
    output: Vec<Row>,
    pos: usize,
    opened: bool,
}

impl HashAggregateExec {
    /// Create a hash aggregate.
    pub fn new(
        node: NodeId,
        input: Box<dyn Operator>,
        group: Vec<usize>,
        aggs: Vec<AggExpr>,
        grant_fallback: usize,
    ) -> HashAggregateExec {
        HashAggregateExec {
            node,
            input,
            group,
            aggs,
            grant_fallback,
            output: Vec::new(),
            pos: 0,
            opened: false,
        }
    }

    fn fold(&self, states: &mut [AggState], row: &Row) -> Result<()> {
        for (st, agg) in states.iter_mut().zip(&self.aggs) {
            match &agg.arg {
                Some(e) => {
                    let v = e.eval(row)?;
                    st.update(Some(&v));
                }
                None => st.update(None),
            }
        }
        Ok(())
    }

    fn new_states(&self) -> Vec<AggState> {
        self.aggs.iter().map(|a| AggState::new(a.func)).collect()
    }

    fn aggregate_stream(
        &mut self,
        ctx: &ExecContext,
        grant: usize,
        out: &mut DetHashMap<Vec<Value>, Vec<AggState>>,
    ) -> Result<Vec<FileId>> {
        // Fan-out capped by both the grant and the pool (see
        // hash_join.rs: partition tails must not thrash the pool).
        let nparts = ((grant / ctx.cfg.page_size).saturating_sub(1))
            .min(ctx.cfg.buffer_pool_pages / 4)
            .clamp(2, 16);
        let mut parts: Option<Vec<FileId>> = None;
        let mut bytes = 0usize;
        let mut scratch = Vec::new();
        while let Some(row) = self.input.next(ctx)? {
            ctx.clock.add_cpu(2 + self.aggs.len() as u64);
            let key = group_key(&self.group, &row, &mut scratch)?;
            if let Some(states) = out.get_mut(key) {
                // Existing group: in-place update, no growth.
                self.fold(states, &row)?;
                continue;
            }
            // The table stores only the group key and the aggregate
            // states — not the input row — so account exactly that
            // (matching the memory manager's demand model).
            let entry_bytes = key.iter().map(mq_common::Value::encoded_len).sum::<usize>()
                + GROUP_OVERHEAD as usize
                + 16 * self.aggs.len();
            if bytes + entry_bytes > grant && !self.group.is_empty() {
                if parts.is_none() {
                    mq_obs::emit(|| mq_obs::ObsEvent::Spill {
                        node: self.node.0 as u64,
                        operator: "HashAggregate",
                        bytes: bytes as u64,
                    });
                }
                // New group but no memory: spill the raw row.
                let files = parts
                    .get_or_insert_with(|| (0..nparts).map(|_| ctx.create_temp_file()).collect());
                let p = (hash_key(key, 3) % nparts as u64) as usize;
                ctx.storage.append_row(files[p], &row)?;
                ctx.clock.add_cpu(1);
                continue;
            }
            bytes += entry_bytes;
            let mut states = self.new_states();
            self.fold(&mut states, &row)?;
            out.insert(key.to_vec(), states);
        }
        Ok(parts.unwrap_or_default())
    }

    fn table_to_rows(&self, table: DetHashMap<Vec<Value>, Vec<AggState>>, out: &mut Vec<Row>) {
        for (key, states) in table {
            let mut vals = key;
            vals.extend(states.iter().map(AggState::finalize));
            out.push(Row::new(vals));
        }
    }
}

impl Operator for HashAggregateExec {
    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        self.opened = true;
        if let Some(Artifact::AggOutput(rows)) = ctx.take_artifact(self.node) {
            self.output = rows;
            self.pos = 0;
            return Ok(());
        }
        // Grant read after opening the input (see hash_join.rs): lower
        // segments complete inside `open`, and their phase hooks may
        // re-allocate this operator's memory.
        self.input.open(ctx)?;
        let grant = ctx.grant_for(self.node, self.grant_fallback);
        let mut table: DetHashMap<Vec<Value>, Vec<AggState>> = DetHashMap::default();

        // Scalar aggregate (no GROUP BY) must emit one row even on
        // empty input.
        if self.group.is_empty() {
            table.insert(Vec::new(), self.new_states());
        }

        let parts = self.aggregate_stream(ctx, grant, &mut table)?;
        self.input.close(ctx)?;

        let mut output = Vec::new();
        self.table_to_rows(table, &mut output);

        // Aggregate each spilled partition (reading it back = the
        // second pass the cost model charges).
        let mut scratch = Vec::new();
        for part in parts {
            let mut sub: DetHashMap<Vec<Value>, Vec<AggState>> = DetHashMap::default();
            for item in ctx.storage.scan_file(part)? {
                let (_, row) = item?;
                ctx.clock.add_cpu(2 + self.aggs.len() as u64);
                let key = group_key(&self.group, &row, &mut scratch)?;
                match sub.get_mut(key) {
                    Some(states) => self.fold(states, &row)?,
                    None => {
                        let mut states = self.new_states();
                        self.fold(&mut states, &row)?;
                        sub.insert(key.to_vec(), states);
                    }
                }
            }
            self.table_to_rows(sub, &mut output);
            ctx.free_temp_file(part);
        }

        // Deterministic output order (HashMap order is arbitrary): by
        // the group columns, which lead every output row.
        let n = self.group.len();
        output.sort_by(|a, b| a.values()[..n].cmp(&b.values()[..n]));

        match ctx.notify_phase_with(self.node, Artifact::AggOutput(output))? {
            Artifact::AggOutput(rows) => {
                self.output = rows;
                self.pos = 0;
                Ok(())
            }
            _ => Err(MqError::Internal(
                "aggregate artifact changed kind at its phase hook".into(),
            )),
        }
    }

    fn next(&mut self, ctx: &ExecContext) -> Result<Option<Row>> {
        if !self.opened {
            return Err(MqError::Execution("aggregate not opened".into()));
        }
        if self.pos < self.output.len() {
            let r = self.output[self.pos].clone();
            self.pos += 1;
            ctx.clock.add_cpu(1);
            Ok(Some(r))
        } else {
            Ok(None)
        }
    }

    fn close(&mut self, _ctx: &ExecContext) -> Result<()> {
        self.output.clear();
        Ok(())
    }
}
