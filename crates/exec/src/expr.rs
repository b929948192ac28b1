//! Predicates: atomic comparisons and conjunctions with short-circuiting.
//!
//! The paper (Section III) assumes predicates are conjunctions of atomic
//! predicates evaluated left-to-right with *short-circuiting*: once a
//! conjunct fails, the rest are skipped. That optimization is exactly
//! what makes non-prefix DPC expressions unobservable for free, and what
//! `DPSample` selectively disables. [`Conjunction::eval_short_circuit`]
//! evaluates one row and reports how many conjuncts it evaluated. A scan
//! evaluates whole pages, one truth stripe per atom
//! ([`AtomicPredicate::eval_page`]): over the short-circuit prefix of each atom, or over every slot
//! on pages where monitoring turns short-circuiting off, so the executor
//! can charge the difference to the monitoring overhead (Fig 9).

use pf_common::{Datum, DatumAccess, Error, Result, Schema, SlotId};
use pf_storage::{ColumnZone, Page, PageKeys, RowLayout};
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

/// Page-at-a-time evaluation: one truth stripe per atom, one bit per
/// slot.
///
/// Every evaluator writes the same stripe: bit `s` is set iff slot `s`
/// is active and passes. An atom on an Int, Float or Date column
/// compares its literal's order key ([`pf_storage::order_key`]) against
/// the page's slice of the table's key array for that column
/// ([`PageKeys`]), one integer comparison per slot; order keys compare
/// exactly as [`AtomicPredicate::eval`] compares values (`Int`/`Date`
/// as integers, `Float` by `total_cmp`). A `Str` atom, and every atom
/// on a page without keys (a damaged image), evaluates
/// [`AtomicPredicate::eval`] on the view of each active slot.
///
/// Before reading keys, a scan tries to settle each atom for the whole
/// page from the page's zone ([`AtomicPredicate::decide`]): an atom
/// whose verdict is the same for every value in the zone's range passes
/// all rows or none, and [`AtomicPredicate::eval_settled`] writes its
/// stripe without reading a key.
impl AtomicPredicate {
    /// Settles the atom for every row whose column's order key lies in
    /// `zone`: `Some(true)` when all pass, `Some(false)` when none does,
    /// `None` when the range straddles the verdict or the literal is a
    /// `Str`. Zone keys order exactly as values compare, so a decision
    /// always equals what [`AtomicPredicate::eval`] finds row by row.
    pub fn decide(&self, z: ColumnZone) -> Option<bool> {
        let v = pf_storage::order_key(&self.value)?;
        let (all, none) = match self.op {
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

    /// Writes the stripe of an atom [`AtomicPredicate::decide`] settled
    /// as `pass` for every row, without reading a row: `active & mask`
    /// (`mask` is the page's all-slots bitmap), or nothing.
    pub fn eval_settled(pass: bool, mask: &[u64], active: &[u64], out: &mut [u64]) {
        for ((o, &m), &a) in out.iter_mut().zip(mask).zip(active) {
            *o = if pass { a & m } else { 0 };
        }
    }

    /// Evaluates the atom over `page` into `out`: bit `s` is set iff bit
    /// `s` of `active` is set and slot `s` passes (same word count as
    /// `active`). `keys` is the page's share of the key arrays, `None`
    /// for a damaged image. Whole words of `active` that are zero are
    /// skipped — the word-granular analogue of short-circuiting. Fails
    /// with the error of the first active slot whose view fails to
    /// decode.
    pub fn eval_page(
        &self,
        page: &Page,
        layout: &RowLayout,
        keys: Option<&PageKeys<'_>>,
        active: &[u64],
        out: &mut [u64],
    ) -> Result<()> {
        let lit = pf_storage::order_key(&self.value);
        let Some((lit, keys)) = lit.zip(keys.and_then(|k| k.keys(self.column))) else {
            return eval_views(self, page, layout, active, out);
        };
        match self.op {
            CompareOp::Eq => eval_keys(keys, active, out, |k| k == lit),
            CompareOp::Lt => eval_keys(keys, active, out, |k| k < lit),
            CompareOp::Le => eval_keys(keys, active, out, |k| k <= lit),
            CompareOp::Gt => eval_keys(keys, active, out, |k| k > lit),
            CompareOp::Ge => eval_keys(keys, active, out, |k| k >= lit),
            CompareOp::Ne => eval_keys(keys, active, out, |k| k != lit),
        }
        Ok(())
    }
}

/// Compares 64 keys at a time: bit `s` of `out` is set iff bit `s` of
/// `active` is set and `pass(keys[s])`. Each word is a branch-free
/// loop over a contiguous slice, which the compiler vectorises.
#[inline]
fn eval_keys(keys: &[i64], active: &[u64], out: &mut [u64], pass: impl Fn(i64) -> bool) {
    for ((o, &a), chunk) in out.iter_mut().zip(active).zip(keys.chunks(64)) {
        *o = if a == 0 {
            0
        } else {
            let word = chunk
                .iter()
                .enumerate()
                .fold(0u64, |w, (bit, &k)| w | (u64::from(pass(k)) << bit));
            a & word
        };
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

    /// The stripe contract: over random pages of Int, Float and Date
    /// values (extremes, NaN of both signs, ±0.0, ±∞, single-valued
    /// pages), every operator and random active masks, the key-array
    /// stripe, the row-view stripe and — where the zone settles the atom
    /// — the settled stripe are equal bit for bit, each setting exactly
    /// the active slots that pass; a settled verdict holds for every
    /// row. The page's last Int column follows a Str column.
    #[test]
    fn zone_decisions_agree_with_every_row() {
        let schema = Schema::new(vec![
            Column::new("i", DataType::Int),
            Column::new("f", DataType::Float),
            Column::new("d", DataType::Date),
            Column::new("pad", DataType::Str),
            Column::new("after", DataType::Int),
        ]);
        let names = ["i", "f", "d", "pad", "after"];
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
            let values = |rng: &mut pf_common::rng::Rng| {
                let mut v: Vec<Datum> = (0..3).map(|ty| random_value(rng, ty)).collect();
                v.push(Datum::Str(String::new()));
                v.push(random_value(rng, 0));
                v
            };
            let first = values(&mut rng);
            let rows: Vec<Row> = (0..n)
                .map(|_| {
                    Row::new(if single {
                        first.clone()
                    } else {
                        values(&mut rng)
                    })
                })
                .collect();
            let table = pf_storage::TableStorage::load_default(schema.clone(), &rows, None)
                .expect("rows fit");
            assert_eq!(table.page_count(), 1, "one page");
            let pid = pf_common::PageId(0);
            let page = table.page(pid).unwrap();
            let keys = table.page_keys(pid).unwrap();
            let words = n.div_ceil(64);
            let mut mask = vec![0u64; words];
            pf_feedback::bitmap::fill_ones(&mut mask, n);
            for col in [0, 1, 2, 4] {
                let zone = keys.zone(col).expect("fixed-width column");
                for op in ops {
                    // Literals: one of the page's values, a special value
                    // or a random one.
                    let value = match rng.gen_range(3) {
                        0 => rows[rng.gen_range(n as u64) as usize].get(col).clone(),
                        _ => random_value(&mut rng, col % 4),
                    };
                    let atom = AtomicPredicate::new(&schema, names[col], op, value).unwrap();
                    // Active words: every slot, none, or a random subset.
                    let active: Vec<u64> = (0..words)
                        .map(|w| match rng.gen_range(4) {
                            0 => mask[w],
                            1 => 0,
                            _ => mask[w] & rng.next_u64(),
                        })
                        .collect();
                    let want: Vec<u64> = (0..words)
                        .map(|w| {
                            (0..64.min(n - w * 64)).fold(0, |acc, b| {
                                let pass = atom.eval(&rows[w * 64 + b]);
                                acc | (u64::from(pass) << b)
                            }) & active[w]
                        })
                        .collect();
                    let (mut by_keys, mut by_views) = (vec![!0; words], vec![!0; words]);
                    let layout = table.layout();
                    atom.eval_page(page, layout, Some(&keys), &active, &mut by_keys)
                        .unwrap();
                    atom.eval_page(page, layout, None, &active, &mut by_views)
                        .unwrap();
                    assert_eq!(by_keys, want, "{atom}: key-array stripe");
                    assert_eq!(by_views, want, "{atom}: row-view stripe");
                    let Some(pass) = atom.decide(zone) else {
                        outcomes[2] += 1;
                        continue;
                    };
                    outcomes[usize::from(pass)] += 1;
                    for row in &rows {
                        assert_eq!(atom.eval(row), pass, "{atom} on {row:?}, zone {zone:?}");
                    }
                    let mut settled = vec![!0; words];
                    AtomicPredicate::eval_settled(pass, &mask, &active, &mut settled);
                    assert_eq!(settled, want, "{atom}: settled stripe");
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
