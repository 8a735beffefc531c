//! The row-at-a-time `HashAggregate`, `HashJoin` and `Sort` the engine
//! ran before its blocking operators went column-at-a-time, kept as the
//! oracle they are checked against: a `BTreeMap<Vec<Datum>, _>` walked
//! per row, a `HashMap<Datum, Vec<Vec<Datum>>>` probed per row, a
//! `Vec<Vec<Datum>>` sorted by `sort_by`. Every `charge_cpu`,
//! `charge_read`/`charge_write`, `phase_break` and `begin_op` is where the
//! engine's operators must still make it, with the same argument.

#![expect(
    clippy::disallowed_types,
    reason = "the oracle keeps the old HashJoin's HashMap; it is probed per row, never iterated"
)]

use grail_power::units::Bytes;
use grail_query::batch::{Batch, BATCH_ROWS};
use grail_query::exec::{ExecContext, Operator, QueryError};
use grail_query::ops::sort::SortOrder;
use grail_query::ops::{AggFunc, AggSpec, SortSpec};
use grail_query::schema::{ColumnType, Schema};
use grail_query::value::Datum;
use grail_sim::perf::AccessPattern;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

fn rows_to_batch(schema: Arc<Schema>, rows: &[Vec<Datum>]) -> Batch {
    let mut cols = vec![Vec::with_capacity(rows.len()); schema.arity()];
    for row in rows {
        for (c, v) in row.iter().enumerate() {
            cols[c].push(*v);
        }
    }
    Batch::new(schema, cols)
}

#[derive(Debug, Clone, Copy)]
struct AggState {
    count: i64,
    sum: i64,
    min: i64,
    max: i64,
}

impl AggState {
    fn new() -> Self {
        AggState {
            count: 0,
            sum: 0,
            min: i64::MAX,
            max: i64::MIN,
        }
    }

    fn update(&mut self, v: Datum) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    fn finish(&self, f: AggFunc) -> Datum {
        match f {
            AggFunc::Count => self.count,
            AggFunc::Sum => self.sum,
            AggFunc::Min => self.min,
            AggFunc::Max => self.max,
            AggFunc::Avg => {
                if self.count == 0 {
                    0
                } else {
                    self.sum / self.count
                }
            }
        }
    }
}

/// Group-by aggregation over a `BTreeMap` keyed by the row's key tuple.
pub struct RowHashAggregate {
    input: Box<dyn Operator>,
    group_by: Vec<usize>,
    aggs: Vec<AggSpec>,
    schema: Arc<Schema>,
    result: Option<Batch>,
    emitted: bool,
}

impl RowHashAggregate {
    pub fn new(input: Box<dyn Operator>, group_by: Vec<usize>, aggs: Vec<AggSpec>) -> Self {
        let in_schema = input.schema();
        let mut fields: Vec<(String, ColumnType)> = group_by
            .iter()
            .filter_map(|i| in_schema.fields().get(*i))
            .map(|f| (f.name.clone(), f.ty))
            .collect();
        for a in &aggs {
            fields.push((a.name.clone(), ColumnType::Int));
        }
        let schema = Schema::new(fields.iter().map(|(n, t)| (n.as_str(), *t)).collect());
        RowHashAggregate {
            input,
            group_by,
            aggs,
            schema,
            result: None,
            emitted: false,
        }
    }

    fn ensure_aggregated(&mut self, ctx: &mut ExecContext) -> Result<(), QueryError> {
        if self.result.is_some() {
            return Ok(());
        }
        let in_arity = self.input.schema().arity();
        for g in &self.group_by {
            if *g >= in_arity {
                return Err(QueryError::UnknownColumn(*g));
            }
        }
        for a in &self.aggs {
            if a.func != AggFunc::Count && a.column >= in_arity {
                return Err(QueryError::UnknownColumn(a.column));
            }
        }
        let mut groups: BTreeMap<Vec<Datum>, Vec<AggState>> = BTreeMap::new();
        let mut rows = 0f64;
        while let Some(batch) = self.input.next(ctx)? {
            rows += batch.len() as f64;
            for r in 0..batch.len() {
                let key: Vec<Datum> = self.group_by.iter().map(|c| batch.value(*c, r)).collect();
                let states = groups
                    .entry(key)
                    .or_insert_with(|| vec![AggState::new(); self.aggs.len()]);
                for (s, a) in states.iter_mut().zip(&self.aggs) {
                    let v = if a.func == AggFunc::Count {
                        0
                    } else {
                        batch.value(a.column, r)
                    };
                    s.update(v);
                }
            }
        }
        ctx.charge_cpu(
            ctx.charge.agg_cycles_per_row * rows
                + ctx.charge.agg_cycles_per_group * groups.len() as f64,
        );
        ctx.phase_break();
        let arity = self.schema.arity();
        let mut cols: Vec<Vec<Datum>> = vec![Vec::with_capacity(groups.len()); arity];
        for (key, states) in groups {
            for (c, k) in key.iter().enumerate() {
                cols[c].push(*k);
            }
            for (i, (s, a)) in states.iter().zip(&self.aggs).enumerate() {
                cols[self.group_by.len() + i].push(s.finish(a.func));
            }
        }
        self.result = Some(Batch::new(self.schema.clone(), cols));
        Ok(())
    }
}

impl Operator for RowHashAggregate {
    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Batch>, QueryError> {
        let op = ctx.begin_op("agg");
        let out = (|| {
            if self.emitted {
                return Ok(None);
            }
            self.ensure_aggregated(ctx)?;
            self.emitted = true;
            Ok(self.result.take())
        })();
        ctx.end_op(op);
        out
    }
}

/// Inner hash equi-join materializing one `Vec<Datum>` per build row and
/// per match.
pub struct RowHashJoin {
    build: Box<dyn Operator>,
    probe: Box<dyn Operator>,
    build_key: usize,
    probe_key: usize,
    schema: Arc<Schema>,
    table: Option<HashMap<Datum, Vec<Vec<Datum>>>>,
    pending: Vec<Vec<Datum>>,
}

impl RowHashJoin {
    pub fn new(
        build: Box<dyn Operator>,
        probe: Box<dyn Operator>,
        build_key: usize,
        probe_key: usize,
    ) -> Self {
        let schema = build.schema().join(&probe.schema());
        RowHashJoin {
            build,
            probe,
            build_key,
            probe_key,
            schema,
            table: None,
            pending: Vec::new(),
        }
    }

    fn ensure_built(&mut self, ctx: &mut ExecContext) -> Result<(), QueryError> {
        if self.table.is_some() {
            return Ok(());
        }
        let key = self.build_key;
        let mut table: HashMap<Datum, Vec<Vec<Datum>>> = HashMap::new();
        let mut rows = 0f64;
        while let Some(batch) = self.build.next(ctx)? {
            if key >= batch.schema().arity() {
                return Err(QueryError::UnknownColumn(key));
            }
            for r in 0..batch.len() {
                let row = batch.row(r);
                table.entry(row[key]).or_default().push(row);
                rows += 1.0;
            }
        }
        ctx.charge_cpu(ctx.charge.hash_build_cycles_per_row * rows);
        ctx.phase_break();
        self.table = Some(table);
        Ok(())
    }

    fn emit_pending(&mut self) -> Option<Batch> {
        if self.pending.is_empty() {
            return None;
        }
        let take = self.pending.len().min(BATCH_ROWS);
        let rows: Vec<Vec<Datum>> = self.pending.drain(..take).collect();
        Some(rows_to_batch(self.schema.clone(), &rows))
    }

    fn next_inner(&mut self, ctx: &mut ExecContext) -> Result<Option<Batch>, QueryError> {
        self.ensure_built(ctx)?;
        loop {
            if let Some(b) = self.emit_pending() {
                return Ok(Some(b));
            }
            let Some(batch) = self.probe.next(ctx)? else {
                return Ok(self.emit_pending());
            };
            if self.probe_key >= batch.schema().arity() {
                return Err(QueryError::UnknownColumn(self.probe_key));
            }
            ctx.charge_cpu(ctx.charge.hash_probe_cycles_per_row * batch.len() as f64);
            let table = self.table.as_ref().expect("built above");
            for r in 0..batch.len() {
                let probe_row = batch.row(r);
                if let Some(matches) = table.get(&probe_row[self.probe_key]) {
                    for m in matches {
                        let mut out = m.clone();
                        out.extend_from_slice(&probe_row);
                        self.pending.push(out);
                    }
                }
            }
        }
    }
}

impl Operator for RowHashJoin {
    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Batch>, QueryError> {
        let op = ctx.begin_op("hash_join");
        let out = self.next_inner(ctx);
        ctx.end_op(op);
        out
    }
}

/// Sort of materialized rows by a stable `sort_by`.
pub struct RowSort {
    input: Box<dyn Operator>,
    spec: SortSpec,
    schema: Arc<Schema>,
    sorted: Option<Vec<Vec<Datum>>>,
    cursor: usize,
}

impl RowSort {
    pub fn new(input: Box<dyn Operator>, spec: SortSpec) -> Self {
        let schema = input.schema();
        RowSort {
            input,
            spec,
            schema,
            sorted: None,
            cursor: 0,
        }
    }

    fn compare(keys: &[(usize, SortOrder)], a: &[Datum], b: &[Datum]) -> Ordering {
        for (col, order) in keys {
            let o = a[*col].cmp(&b[*col]);
            let o = match order {
                SortOrder::Asc => o,
                SortOrder::Desc => o.reverse(),
            };
            if o != Ordering::Equal {
                return o;
            }
        }
        Ordering::Equal
    }

    fn ensure_sorted(&mut self, ctx: &mut ExecContext) -> Result<(), QueryError> {
        if self.sorted.is_some() {
            return Ok(());
        }
        for (col, _) in &self.spec.keys {
            if *col >= self.schema.arity() {
                return Err(QueryError::UnknownColumn(*col));
            }
        }
        let mut rows: Vec<Vec<Datum>> = Vec::new();
        while let Some(batch) = self.input.next(ctx)? {
            for r in 0..batch.len() {
                rows.push(batch.row(r));
            }
        }
        let n = rows.len() as f64;
        let keys = self.spec.keys.clone();
        rows.sort_by(|a, b| RowSort::compare(&keys, a, b));
        let cmps = if n > 1.0 { n * n.log2() } else { 0.0 };
        ctx.charge_cpu(ctx.charge.sort_cycles_per_cmp * cmps);

        let bytes = rows.len() as u64 * self.schema.arity() as u64 * 8;
        if bytes > self.spec.memory_grant && self.spec.memory_grant > 0 {
            let runs = bytes.div_ceil(self.spec.memory_grant);
            let mut passes = 1u64;
            let mut fan = runs;
            while fan > 64 {
                fan = fan.div_ceil(64);
                passes += 1;
            }
            for _ in 0..passes {
                ctx.charge_write(
                    self.spec.spill_target,
                    Bytes::new(bytes),
                    AccessPattern::Sequential,
                );
                ctx.charge_read(
                    self.spec.spill_target,
                    Bytes::new(bytes),
                    AccessPattern::Sequential,
                );
            }
            ctx.charge_cpu(ctx.charge.merge_cycles_per_row * n * passes as f64);
        }
        ctx.phase_break();
        self.sorted = Some(rows);
        Ok(())
    }

    fn next_inner(&mut self, ctx: &mut ExecContext) -> Result<Option<Batch>, QueryError> {
        self.ensure_sorted(ctx)?;
        let rows = self.sorted.as_ref().expect("sorted above");
        if self.cursor >= rows.len() {
            return Ok(None);
        }
        let end = (self.cursor + BATCH_ROWS).min(rows.len());
        let batch = rows_to_batch(self.schema.clone(), &rows[self.cursor..end]);
        self.cursor = end;
        Ok(Some(batch))
    }
}

impl Operator for RowSort {
    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Batch>, QueryError> {
        let op = ctx.begin_op("sort");
        let out = self.next_inner(ctx);
        ctx.end_op(op);
        out
    }
}
