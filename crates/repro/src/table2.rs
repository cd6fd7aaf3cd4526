//! Regenerate the paper's Table 2: lines of code to express common
//! network functionality in the IVL, next to what existing monolithic
//! tools need for the same functionality.
//!
//! The counts are measured from the actual sources: each component's
//! semantic core is delimited by `ZEN-LOC-BEGIN(<name>)` /
//! `ZEN-LOC-END(<name>)` markers in `rzen-net`, and this module counts
//! the non-blank, non-comment, non-attribute lines in between.

struct Component {
    name: &'static str,
    marker: &'static str,
    files: &'static [&'static str],
    paper_zen: u32,
    existing: &'static str,
}

const COMPONENTS: &[Component] = &[
    Component {
        name: "Access Control Lists",
        marker: "acl",
        files: &["acl.rs"],
        paper_zen: 28,
        existing: ">500 (Batfish)",
    },
    Component {
        name: "LPM-based Forwarding",
        marker: "fwd",
        files: &["fwd.rs"],
        paper_zen: 18,
        existing: ">900 (HSA)",
    },
    Component {
        name: "Route Map Filters",
        marker: "route_map",
        files: &["routing/route_map.rs"],
        paper_zen: 75,
        existing: ">1000 (Minesweeper, Bonsai)",
    },
    Component {
        name: "IP GRE tunnels",
        marker: "gre",
        files: &["gre.rs", "ip.rs"],
        paper_zen: 21,
        existing: "-",
    },
];

/// Count code lines between the markers: skips blanks, comment-only
/// lines, and doc comments, so the number reflects executable model code
/// the way the paper counts it.
fn count_marked(src: &str, marker: &str) -> u32 {
    let begin = format!("ZEN-LOC-BEGIN({marker})");
    let end = format!("ZEN-LOC-END({marker})");
    let mut counting = false;
    let mut count = 0;
    for line in src.lines() {
        if line.contains(&begin) {
            counting = true;
            continue;
        }
        if line.contains(&end) {
            counting = false;
            continue;
        }
        if !counting {
            continue;
        }
        let t = line.trim();
        if t.is_empty() || t.starts_with("//") || t.starts_with("#[") {
            continue;
        }
        count += 1;
    }
    count
}

/// Print the table; `true` iff every component is within 2x of the paper.
pub(crate) fn run() -> bool {
    println!("Table 2: lines of code to express common network functionality");
    println!("(measured from this repository's sources; paper numbers for reference)\n");
    println!(
        "{:<24} {:>12} {:>11}   Existing systems",
        "Network Component", "rzen lines", "paper Zen"
    );
    let dir = crate::workspace_root().join("crates/net/src");
    let mut ok = true;
    for c in COMPONENTS {
        let mut lines = 0;
        for f in c.files {
            let path = dir.join(f);
            let src = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            lines += count_marked(&src, c.marker);
        }
        // Same order of magnitude as the paper (within 2x) counts as a
        // successful reproduction of the expressiveness claim.
        let comparable = lines > 0 && lines <= c.paper_zen * 2;
        ok &= comparable;
        println!(
            "{:<24} {:>12} {:>11}   {}{}",
            c.name,
            lines,
            c.paper_zen,
            c.existing,
            if comparable { "" } else { "   <-- OUT OF BAND" }
        );
    }
    println!(
        "\n{}",
        if ok {
            "all components within 2x of the paper's Zen line counts ✓"
        } else {
            "SOME COMPONENTS OUT OF BAND ✗"
        }
    );
    ok
}
