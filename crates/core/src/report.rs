//! Plain-text table rendering for the experiment harnesses: the bench
//! binaries print paper-shaped rows through these helpers so every harness
//! formats identically.

use crate::traffic::{Fig7Row, Table1Row, Table1Totals};

/// Formats a byte count with thousands separators (Table I style).
pub fn thousands(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Formats bytes as decimal gigabytes with 2 decimals (Fig. 7 style).
pub(crate) fn gb(bytes: u64) -> String {
    format!("{:.2} GB", bytes as f64 / 1e9)
}

/// Renders Table I rows plus the totals row.
pub fn render_table1(rows: &[Table1Row], totals: &Table1Totals) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<28} {:>10} {:>6} {:>14} {:>14} {:>16} {:>16} {:>16}\n",
        "Type",
        "Sensors",
        "B/tx",
        "Wave cloud",
        "Wave fog2",
        "Daily fog1",
        "Daily fog2",
        "Daily cloud F2C"
    ));
    out.push_str(&"-".repeat(126));
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:<28} {:>10} {:>6} {:>14} {:>14} {:>16} {:>16} {:>16}\n",
            r.ty.to_string(),
            thousands(r.sensors),
            r.tx_bytes,
            thousands(r.wave_cloud_model),
            thousands(r.wave_fog2),
            thousands(r.daily_fog1),
            thousands(r.daily_fog2),
            thousands(r.daily_cloud_f2c),
        ));
    }
    out.push_str(&"-".repeat(126));
    out.push('\n');
    out.push_str(&format!(
        "{:<28} {:>10} {:>6} {:>14} {:>14} {:>16} {:>16} {:>16}\n",
        "TOTAL",
        thousands(totals.sensors),
        "",
        thousands(totals.wave_cloud_model),
        thousands(totals.wave_fog2),
        thousands(totals.daily_fog1),
        thousands(totals.daily_fog2),
        thousands(totals.daily_cloud_f2c),
    ));
    out
}

/// Renders the Fig. 7 bar groups.
pub fn render_fig7(rows: &[Fig7Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:>12} {:>14} {:>18} {:>18}\n",
        "Category", "Raw", "After dedup", "Dedup+compress", "Compress(raw)"
    ));
    out.push_str(&"-".repeat(88));
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:<22} {:>12} {:>14} {:>18} {:>18}\n",
            r.category.to_string(),
            gb(r.raw),
            gb(r.after_dedup),
            gb(r.after_dedup_and_compression),
            gb(r.compressed_raw),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::TrafficModel;

    #[test]
    fn thousands_separators() {
        assert_eq!(thousands(0), "0");
        assert_eq!(thousands(999), "999");
        assert_eq!(thousands(1_000), "1,000");
        assert_eq!(thousands(8_583_503_168), "8,583,503,168");
    }

    #[test]
    fn gb_formatting() {
        assert_eq!(gb(8_583_503_168), "8.58 GB");
        assert_eq!(gb(0), "0.00 GB");
    }

    #[test]
    fn table1_renders_all_rows_and_the_paper_totals() {
        let m = TrafficModel::paper();
        let text = render_table1(&m.table1_rows(), &m.table1_totals());
        assert_eq!(text.lines().count(), 21 + 4); // header, rule, 21 rows, rule, total
        assert!(text.contains("8,583,503,168"));
        assert!(text.contains("5,036,071,584"));
        assert!(text.contains("Network analyzer"));
    }

    #[test]
    fn fig7_renders_every_category() {
        let m = TrafficModel::paper();
        let text = render_fig7(&m.fig7_rows());
        for name in ["Energy", "Noise", "Garbage", "Parking", "Urban"] {
            assert!(text.contains(name), "missing {name}");
        }
        assert!(!text.contains("8.58")); // per-category, no total row
    }
}
