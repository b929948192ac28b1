//! Table I — databases used in experiments.

use crate::util::{section, ExperimentConfig};
use pagefeed::Database;
use pf_common::Result;
use pf_workloads::{realworld, synthetic, tpch};

/// One database's shape.
#[derive(Debug, Clone)]
pub struct DbShape {
    /// Database name (Table I row).
    pub name: &'static str,
    /// Rows loaded.
    pub rows: u64,
    /// Pages occupied.
    pub pages: u32,
    /// Average rows per page.
    pub rows_per_page: f64,
    /// The paper's rows-per-page figure, for comparison.
    pub paper_rows_per_page: f64,
}

/// Builds every Table I database and reports its shape.
pub fn run_table1(synthetic_rows: usize, cfg: &ExperimentConfig) -> Result<Vec<DbShape>> {
    section("Table I: Databases Used In Experiments (1:200 scale)");
    let mut shapes = Vec::new();
    let mut record =
        |name: &'static str, db: &Database, table: &str, paper_rpp: f64| -> Result<()> {
            let t = db.catalog().table_by_name(table)?;
            shapes.push(DbShape {
                name,
                rows: t.stats.rows,
                pages: t.stats.pages,
                rows_per_page: t.stats.rows_per_page,
                paper_rows_per_page: paper_rpp,
            });
            Ok(())
        };

    let br = cfg.with_faults(realworld::book_retailer(11)?)?;
    record("Book Retailer", &br, "book_retailer", 27.0)?;
    let yp = cfg.with_faults(realworld::yellow_pages(12)?)?;
    record("Yellow Pages", &yp, "yellow_pages", 39.0)?;
    let li = cfg.with_faults(tpch::build_lineitem(13)?)?;
    record("TPC-H (Z=1) lineitem", &li, "lineitem", 54.0)?;
    let vo = cfg.with_faults(realworld::voter(14)?)?;
    record("Voter data", &vo, "voter", 46.0)?;
    let pr = cfg.with_faults(realworld::products(15)?)?;
    record("Products", &pr, "products", 9.0)?;
    let sy = cfg.with_faults(synthetic::build(&synthetic::SyntheticConfig {
        rows: synthetic_rows,
        with_t1: false,
        seed: 16,
    })?)?;
    record("Synthetic", &sy, "T", 80.0)?;

    println!(
        "{:<22} {:>10} {:>8} {:>10} {:>12}",
        "Database", "Rows", "Pages", "Rows/Page", "Paper R/P"
    );
    for s in &shapes {
        println!(
            "{:<22} {:>10} {:>8} {:>10.1} {:>12.0}",
            s.name, s.rows, s.pages, s.rows_per_page, s.paper_rows_per_page
        );
    }
    Ok(shapes)
}
