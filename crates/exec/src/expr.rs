//! Predicates: atomic comparisons and conjunctions with short-circuiting.
//!
//! The paper (Section III) assumes predicates are conjunctions of atomic
//! predicates evaluated left-to-right with *short-circuiting*: once a
//! conjunct fails, the rest are skipped. That optimization is exactly
//! what makes non-prefix DPC expressions unobservable for free, and what
//! `DPSample` selectively disables. [`Conjunction::eval_short_circuit`]
//! evaluates one row and reports how many conjuncts it evaluated. A scan
//! evaluates whole pages through a [`PageKernel`], one truth stripe per
//! atom: over the short-circuit prefix of each atom, or over every slot
//! on pages where monitoring turns short-circuiting off, so the executor
//! can charge the difference to the monitoring overhead (Fig 9).

use pf_common::{Datum, DatumAccess, Error, Result, Schema, SlotId};
use pf_storage::{ColumnZone, Page, RowLayout};
use std::cmp::Ordering;
use std::fmt;

/// Comparison operator of an atomic predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompareOp {
    /// `=`
    Eq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<>`
    Ne,
}

impl CompareOp {
    fn matches(self, ord: Ordering) -> bool {
        match self {
            CompareOp::Eq => ord == Ordering::Equal,
            CompareOp::Lt => ord == Ordering::Less,
            CompareOp::Le => ord != Ordering::Greater,
            CompareOp::Gt => ord == Ordering::Greater,
            CompareOp::Ge => ord != Ordering::Less,
            CompareOp::Ne => ord != Ordering::Equal,
        }
    }
}

impl fmt::Display for CompareOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CompareOp::Eq => "=",
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
            CompareOp::Ne => "<>",
        };
        f.write_str(s)
    }
}

/// `column <op> literal`.
#[derive(Debug, Clone, PartialEq)]
pub struct AtomicPredicate {
    /// Column ordinal in the operator's input schema.
    pub column: usize,
    /// Comparison operator.
    pub op: CompareOp,
    /// Literal compared against.
    pub value: Datum,
    /// Column name, kept for canonical expression text.
    pub column_name: String,
}

impl AtomicPredicate {
    /// Builds and type-checks an atom against `schema`.
    pub fn new(schema: &Schema, column: &str, op: CompareOp, value: Datum) -> Result<Self> {
        let idx = schema.index_of(column)?;
        let ty = schema.column(idx).ty;
        if value.data_type() != ty {
            return Err(Error::TypeMismatch {
                expected: match ty {
                    pf_common::DataType::Int => "Int",
                    pf_common::DataType::Float => "Float",
                    pf_common::DataType::Str => "Str",
                    pf_common::DataType::Date => "Date",
                },
                found: value.type_name(),
            });
        }
        Ok(AtomicPredicate {
            column: idx,
            op,
            value,
            column_name: column.to_string(),
        })
    }

    /// Evaluates the atom on any row representation — an owned
    /// [`pf_common::Row`] or a borrowed page view — without
    /// materializing a [`Datum`].
    #[inline]
    pub fn eval<R: DatumAccess + ?Sized>(&self, row: &R) -> bool {
        let ord = row
            .datum_ref(self.column)
            .cmp_datum(&self.value)
            .expect("atom was type-checked at construction");
        self.op.matches(ord)
    }
}

impl fmt::Display for AtomicPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}{}", self.column_name, self.op, self.value)
    }
}

/// A left-to-right conjunction of atoms.
///
/// Canonical expression text (the monitor-registry key) is rendered once
/// at construction; `atoms` must not be mutated afterwards or the cached
/// text goes stale — every constructor in the workspace goes through
/// [`Conjunction::new`] / [`Conjunction::always_true`].
#[derive(Debug, Clone, PartialEq)]
pub struct Conjunction {
    /// The conjuncts, in evaluation order.
    pub atoms: Vec<AtomicPredicate>,
    /// Cached canonical text of the whole conjunction.
    key: String,
    /// Cached canonical text of each atom (for [`Conjunction::key_of`]).
    atom_texts: Vec<String>,
}

impl Default for Conjunction {
    fn default() -> Self {
        Conjunction::always_true()
    }
}

impl Conjunction {
    /// An always-true predicate.
    pub fn always_true() -> Self {
        Conjunction::new(Vec::new())
    }

    /// Builds a conjunction from atoms.
    pub fn new(atoms: Vec<AtomicPredicate>) -> Self {
        let atom_texts: Vec<String> = atoms.iter().map(|a| a.to_string()).collect();
        let key = if atom_texts.is_empty() {
            "TRUE".to_string()
        } else {
            atom_texts.join(" AND ")
        };
        Conjunction {
            atoms,
            key,
            atom_texts,
        }
    }

    /// Number of conjuncts.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Whether there are no conjuncts.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Evaluates with short-circuiting, on any row representation.
    ///
    /// Returns `(passed, evaluated)`: the overall result and how many
    /// conjuncts were evaluated (for CPU accounting). On failure at
    /// conjunct `j`, conjuncts `0..j` are known true, `j` known false,
    /// and the rest unknown.
    #[inline]
    pub fn eval_short_circuit<R: DatumAccess + ?Sized>(&self, row: &R) -> (bool, usize) {
        for (i, atom) in self.atoms.iter().enumerate() {
            if !atom.eval(row) {
                return (false, i + 1);
            }
        }
        (true, self.atoms.len())
    }

    /// Canonical text, e.g. `C2<5000 AND state='CA'`; `TRUE` if empty.
    /// Rendered once at construction — this is just a borrow.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Canonical text of the prefix/subset of atoms at `indices`,
    /// joined from per-atom text cached at construction.
    pub fn key_of(&self, indices: &[usize]) -> String {
        if indices.is_empty() {
            return "TRUE".to_string();
        }
        let mut out =
            String::with_capacity(indices.iter().map(|&i| self.atom_texts[i].len() + 5).sum());
        for (n, &i) in indices.iter().enumerate() {
            if n > 0 {
                out.push_str(" AND ");
            }
            out.push_str(&self.atom_texts[i]);
        }
        out
    }
}

impl fmt::Display for Conjunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// A comparison literal pre-decoded to the column's fixed-width wire
/// type.
#[derive(Debug, Clone, Copy)]
enum KernelValue {
    Int(i64),
    Float(f64),
    Date(i32),
}

/// One atom of a [`PageKernel`].
#[derive(Debug, Clone)]
enum KernelAtom {
    /// A column of the row layout's fixed-width prefix: compare the
    /// field at `offset` bytes into each row payload against `value`.
    Fixed {
        /// Column ordinal — also the atom's entry in a page zone.
        column: usize,
        offset: usize,
        op: CompareOp,
        value: KernelValue,
        /// `value`'s zone order key ([`pf_storage::order_key`]).
        key: i64,
    },
    /// Any other atom — a `Str` literal, or a column after the first
    /// `Str` column: evaluated on each active slot's `RowView`.
    Row(AtomicPredicate),
}

/// A conjunction compiled for page-at-a-time evaluation: one truth
/// stripe per atom, one bit per slot.
///
/// An atom over the row layout's fixed-width prefix reads its operand
/// straight out of the page buffer, at a schema-constant offset from
/// the row start — no `RowView` construction (and no per-row
/// validation walk) for rows that are only observed, never delivered.
/// Comparison semantics are exactly those of [`AtomicPredicate::eval`]:
/// `i64`/`i32` ordering for `Int`/`Date`, IEEE `total_cmp` for `Float`
/// (matching `DatumRef::cmp_datum`). Any other atom evaluates
/// [`AtomicPredicate::eval`] on the view of each slot it is asked
/// about.
///
/// Before reading rows, [`PageKernel::decide`] tries to settle each
/// fixed-prefix atom for the whole page from the page's zone (the
/// min/max of each fixed-prefix column): an atom whose verdict is the
/// same for every value in the zone's range passes all rows or none,
/// and [`PageKernel::eval_decided`] writes its stripe without reading a
/// row.
#[derive(Debug, Clone)]
pub struct PageKernel {
    atoms: Vec<KernelAtom>,
    span: usize,
}

impl Conjunction {
    /// Compiles this conjunction against `layout` for page-at-a-time
    /// evaluation.
    pub fn compile_page_kernel(&self, layout: &RowLayout) -> PageKernel {
        let mut span = 0;
        let atoms = self
            .atoms
            .iter()
            .map(|a| {
                let (value, width) = match a.value {
                    Datum::Int(v) => (KernelValue::Int(v), 8),
                    Datum::Float(v) => (KernelValue::Float(v), 8),
                    Datum::Date(v) => (KernelValue::Date(v), 4),
                    Datum::Str(_) => return KernelAtom::Row(a.clone()),
                };
                // `None` for a column after the first Str column.
                let fixed = layout
                    .fixed_col(a.column)
                    .zip(pf_storage::order_key(&a.value));
                let Some(((offset, _), key)) = fixed else {
                    return KernelAtom::Row(a.clone());
                };
                span = span.max(offset + width);
                KernelAtom::Fixed {
                    column: a.column,
                    offset,
                    op: a.op,
                    value,
                    key,
                }
            })
            .collect();
        PageKernel { atoms, span }
    }
}

impl PageKernel {
    /// Bytes the kernel's fixed-prefix atoms read from each row's
    /// payload start — the bound the page must guarantee per slot (see
    /// `Page::slot_offsets`).
    pub fn span(&self) -> usize {
        self.span
    }

    /// Whether atom `idx` reads the page bytes at the slot offsets
    /// (a fixed-prefix atom) rather than row views.
    pub fn reads_bytes(&self, idx: usize) -> bool {
        matches!(self.atoms[idx], KernelAtom::Fixed { .. })
    }

    /// Settles atom `idx` for every row of a page from the page's
    /// `zone`: `Some(true)` when all rows pass, `Some(false)` when none
    /// does, `None` when the rows' values straddle the verdict, or the
    /// atom reads row views, and the rows must be read. Zone keys order
    /// exactly as the kernel compares (integer order for `Int`/`Date`,
    /// `total_cmp` for `Float`), so a decision always equals what
    /// [`PageKernel::eval_atom`] finds row by row.
    pub fn decide(&self, idx: usize, zone: &[ColumnZone]) -> Option<bool> {
        let KernelAtom::Fixed {
            column, op, key, ..
        } = &self.atoms[idx]
        else {
            return None;
        };
        let z = zone.get(*column)?;
        let v = *key;
        let (all, none) = match op {
            CompareOp::Lt => (z.max < v, z.min >= v),
            CompareOp::Le => (z.max <= v, z.min > v),
            CompareOp::Gt => (z.min > v, z.max <= v),
            CompareOp::Ge => (z.min >= v, z.max < v),
            CompareOp::Eq => (z.min == v && z.max == v, v < z.min || v > z.max),
            CompareOp::Ne => (v < z.min || v > z.max, z.min == v && z.max == v),
        };
        if all {
            Some(true)
        } else if none {
            Some(false)
        } else {
            None
        }
    }

    /// Writes the stripe [`PageKernel::eval_atom`] produces for an atom
    /// [`PageKernel::decide`] settled as `pass` for every row, without
    /// reading a row: `page_mask` (the page's all-slots bitmap) in each
    /// word where `active` is nonzero, zero elsewhere.
    pub fn eval_decided(pass: bool, page_mask: &[u64], active: &[u64], out: &mut [u64]) {
        for ((o, &mask), &a) in out.iter_mut().zip(page_mask).zip(active) {
            *o = if pass && a != 0 { mask } else { 0 };
        }
    }

    /// Evaluates atom `idx` over `page`: `offs[s]` is each slot's
    /// payload offset (needed only when [`PageKernel::reads_bytes`]),
    /// `active` a bitmap of slots worth evaluating, `out` the result
    /// bitmap (one bit per slot, same word count as `active`).
    ///
    /// Whole words of `active` that are zero are skipped and their `out`
    /// words left zero — the word-granular analogue of short-circuiting.
    /// A fixed-prefix atom evaluates every slot of a nonzero word, so
    /// bits of `out` for inactive slots may be set, and callers must
    /// mask with the prefix bitmap (AND) before interpreting them; any
    /// other atom builds a view of the active slots only. Fails with the
    /// error of the first active slot whose view fails to decode.
    pub fn eval_atom(
        &self,
        idx: usize,
        page: &Page,
        layout: &RowLayout,
        offs: &[u32],
        active: &[u64],
        out: &mut [u64],
    ) -> Result<()> {
        let (offset, op, value) = match &self.atoms[idx] {
            KernelAtom::Fixed {
                offset, op, value, ..
            } => (*offset, *op, *value),
            KernelAtom::Row(atom) => return eval_views(atom, page, layout, active, out),
        };
        let bytes = page.bytes();
        match value {
            KernelValue::Int(lit) => eval_fixed::<8>(bytes, offs, offset, active, out, |raw| {
                op.matches(i64::from_le_bytes(raw).cmp(&lit))
            }),
            KernelValue::Float(lit) => eval_fixed::<8>(bytes, offs, offset, active, out, |raw| {
                op.matches(f64::from_bits(u64::from_le_bytes(raw)).total_cmp(&lit))
            }),
            KernelValue::Date(lit) => eval_fixed::<4>(bytes, offs, offset, active, out, |raw| {
                op.matches(i32::from_le_bytes(raw).cmp(&lit))
            }),
        }
        Ok(())
    }
}

/// Shared fixed-width comparison loop: reads `W` bytes at `col_off` into
/// each active slot's payload and ORs `pred`'s verdicts into `out`.
#[inline]
fn eval_fixed<const W: usize>(
    bytes: &[u8],
    offs: &[u32],
    col_off: usize,
    active: &[u64],
    out: &mut [u64],
    pred: impl Fn([u8; W]) -> bool,
) {
    for (w, out_word) in out.iter_mut().enumerate() {
        if active[w] == 0 {
            continue;
        }
        let base = w * 64;
        let end = (base + 64).min(offs.len());
        let mut word = 0u64;
        for (bit, &off) in offs[base..end].iter().enumerate() {
            let start = off as usize + col_off;
            let raw: [u8; W] = bytes[start..start + W]
                .try_into()
                .expect("slot_offsets bounds-checked the kernel span");
            word |= u64::from(pred(raw)) << bit;
        }
        *out_word = word;
    }
}

/// Evaluates `atom` on the view of each active slot of `page`: bit `s`
/// of `out` is set iff slot `s` is active and passes.
fn eval_views(
    atom: &AtomicPredicate,
    page: &Page,
    layout: &RowLayout,
    active: &[u64],
    out: &mut [u64],
) -> Result<()> {
    for (w, (out_word, &bits)) in out.iter_mut().zip(active).enumerate() {
        let mut word = 0u64;
        let mut rest = bits;
        while rest != 0 {
            let bit = rest.trailing_zeros();
            rest &= rest - 1;
            let view = page.view(layout, SlotId((w * 64) as u16 + bit as u16))?;
            word |= u64::from(atom.eval(&view)) << bit;
        }
        *out_word = word;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_common::{Column, DataType, Row};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("ship", DataType::Date),
            Column::new("state", DataType::Str),
        ])
    }

    fn row(id: i64, ship: i32, state: &str) -> Row {
        Row::new(vec![
            Datum::Int(id),
            Datum::Date(ship),
            Datum::Str(state.into()),
        ])
    }

    #[test]
    fn atom_type_checking() {
        let s = schema();
        assert!(AtomicPredicate::new(&s, "id", CompareOp::Lt, Datum::Int(5)).is_ok());
        assert!(AtomicPredicate::new(&s, "id", CompareOp::Lt, Datum::Str("x".into())).is_err());
        assert!(AtomicPredicate::new(&s, "missing", CompareOp::Eq, Datum::Int(1)).is_err());
    }

    #[test]
    fn all_comparison_ops() {
        let s = schema();
        let r = row(5, 0, "CA");
        let cases = [
            (CompareOp::Eq, 5, true),
            (CompareOp::Eq, 6, false),
            (CompareOp::Lt, 6, true),
            (CompareOp::Lt, 5, false),
            (CompareOp::Le, 5, true),
            (CompareOp::Gt, 4, true),
            (CompareOp::Gt, 5, false),
            (CompareOp::Ge, 5, true),
            (CompareOp::Ne, 4, true),
            (CompareOp::Ne, 5, false),
        ];
        for (op, v, expect) in cases {
            let a = AtomicPredicate::new(&s, "id", op, Datum::Int(v)).unwrap();
            assert_eq!(a.eval(&r), expect, "id {op} {v}");
        }
    }

    #[test]
    fn short_circuit_counts_evaluations() {
        let s = schema();
        let conj = Conjunction::new(vec![
            AtomicPredicate::new(&s, "ship", CompareOp::Eq, Datum::Date(100)).unwrap(),
            AtomicPredicate::new(&s, "state", CompareOp::Eq, Datum::Str("CA".into())).unwrap(),
        ]);
        // First conjunct fails: one evaluation.
        assert_eq!(conj.eval_short_circuit(&row(1, 99, "CA")), (false, 1));
        // First passes, second fails: two evaluations.
        assert_eq!(conj.eval_short_circuit(&row(1, 100, "WA")), (false, 2));
        // Both pass.
        assert_eq!(conj.eval_short_circuit(&row(1, 100, "CA")), (true, 2));
    }

    #[test]
    fn empty_conjunction_is_true() {
        let conj = Conjunction::always_true();
        assert_eq!(conj.eval_short_circuit(&row(1, 1, "x")), (true, 0));
        assert_eq!(conj.key(), "TRUE");
    }

    /// Values a zone test draws from: the type's extremes, values next
    /// to zero, and (for Float) both NaNs, both zeros and both
    /// infinities.
    fn special_values(ty: usize) -> Vec<Datum> {
        match ty {
            0 => [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX]
                .map(Datum::Int)
                .to_vec(),
            1 => [
                -f64::NAN,
                f64::NEG_INFINITY,
                f64::MIN,
                -1.0,
                -0.0,
                0.0,
                1.0,
                f64::MAX,
                f64::INFINITY,
                f64::NAN,
            ]
            .map(Datum::Float)
            .to_vec(),
            _ => [i32::MIN, i32::MIN + 1, -1, 0, 1, i32::MAX - 1, i32::MAX]
                .map(Datum::Date)
                .to_vec(),
        }
    }

    /// A random value of column `ty` (0 Int, 1 Float, 2 Date): a
    /// special value or a small one, so pages both straddle and miss
    /// literals.
    fn random_value(rng: &mut pf_common::rng::Rng, ty: usize) -> Datum {
        if rng.bernoulli(0.3) {
            let specials = special_values(ty);
            return specials[rng.gen_range(specials.len() as u64) as usize].clone();
        }
        let v = rng.gen_range(21) as i64 - 10;
        match ty {
            0 => Datum::Int(v),
            1 => Datum::Float(v as f64 * 0.5),
            _ => Datum::Date(v as i32),
        }
    }

    /// Zone decision soundness: over random pages of Int, Float and
    /// Date values (extremes, NaN of both signs, ±0.0, ±∞, single-valued
    /// pages) and every operator, whenever the zone settles an atom every
    /// row evaluates to that verdict, and the settled stripe equals the
    /// one the row-reading kernel writes.
    #[test]
    fn zone_decisions_agree_with_every_row() {
        let schema = Schema::new(vec![
            Column::new("i", DataType::Int),
            Column::new("f", DataType::Float),
            Column::new("d", DataType::Date),
            Column::new("pad", DataType::Str),
        ]);
        let layout = pf_storage::RowLayout::new(&schema);
        let ops = [
            CompareOp::Eq,
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Gt,
            CompareOp::Ge,
            CompareOp::Ne,
        ];
        let mut rng = pf_common::rng::Rng::new(24);
        let mut outcomes = [0u32; 3]; // none pass, all pass, undecided
        for _ in 0..400 {
            let n = 1 + rng.gen_range(150) as usize;
            let single = rng.bernoulli(0.2);
            let first: Vec<Datum> = (0..3).map(|ty| random_value(&mut rng, ty)).collect();
            let rows: Vec<Row> = (0..n)
                .map(|_| {
                    let mut values: Vec<Datum> = if single {
                        first.clone()
                    } else {
                        (0..3).map(|ty| random_value(&mut rng, ty)).collect()
                    };
                    values.push(Datum::Str(String::new()));
                    Row::new(values)
                })
                .collect();
            let mut page = pf_storage::Page::new(pf_storage::DEFAULT_PAGE_SIZE);
            for row in &rows {
                page.insert(&schema, row).expect("row fits");
            }
            page.seal();
            let zone = page.zone().expect("fresh page has a zone");
            let mut offs = Vec::new();
            let words = n.div_ceil(64);
            let mut mask = vec![0u64; words];
            pf_feedback::bitmap::fill_ones(&mut mask, n);
            for (col, name) in ["i", "f", "d"].into_iter().enumerate() {
                for op in ops {
                    // Literals: one of the page's values, a special value
                    // or a random one.
                    let value = match rng.gen_range(3) {
                        0 => rows[rng.gen_range(n as u64) as usize].get(col).clone(),
                        _ => random_value(&mut rng, col),
                    };
                    let atom = AtomicPredicate::new(&schema, name, op, value).unwrap();
                    let kernel = Conjunction::new(vec![atom.clone()]).compile_page_kernel(&layout);
                    assert!(kernel.reads_bytes(0), "{atom} reads the fixed prefix");
                    let Some(pass) = kernel.decide(0, zone) else {
                        outcomes[2] += 1;
                        continue;
                    };
                    outcomes[usize::from(pass)] += 1;
                    for row in &rows {
                        assert_eq!(atom.eval(row), pass, "{atom} on {row:?}, zone {zone:?}");
                    }
                    let active: Vec<u64> = (0..words)
                        .map(|w| if rng.bernoulli(0.3) { 0 } else { mask[w] })
                        .collect();
                    let (mut read, mut decided) = (vec![0; words], vec![0; words]);
                    assert!(page.slot_offsets(kernel.span(), &mut offs));
                    kernel
                        .eval_atom(0, &page, &layout, &offs, &active, &mut read)
                        .unwrap();
                    PageKernel::eval_decided(pass, &mask, &active, &mut decided);
                    assert_eq!(decided, read, "{atom}: settled stripe");
                }
            }
        }
        assert!(
            outcomes.iter().all(|&k| k > 100),
            "none/all/undecided outcomes {outcomes:?}"
        );
    }

    #[test]
    fn canonical_keys() {
        let s = schema();
        let conj = Conjunction::new(vec![
            AtomicPredicate::new(&s, "ship", CompareOp::Lt, Datum::Date(100)).unwrap(),
            AtomicPredicate::new(&s, "state", CompareOp::Eq, Datum::Str("CA".into())).unwrap(),
        ]);
        assert_eq!(conj.key(), "ship<date(100) AND state='CA'");
        assert_eq!(conj.key_of(&[1]), "state='CA'");
        assert_eq!(conj.key_of(&[]), "TRUE");
    }
}
