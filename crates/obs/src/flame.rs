//! Hand-rolled flamegraph SVG rendering — no dependencies, no scripts.
//!
//! Takes folded stacks (`a;b;c weight`, the rows of
//! [`crate::export::folded_spans`], drawn through
//! [`crate::profile::Profile::render`]) and renders a static, self-contained SVG in the classic
//! flamegraph layout: one rectangle per frame, width proportional to the
//! frame's inclusive weight, children stacked below their parent
//! (icicle orientation, root at the top). Every rectangle carries a
//! `<title>` element so hovering in a browser shows the frame name,
//! weight, and percentage — interactivity without JavaScript, in the
//! same spirit as the Chrome-trace exporter in [`crate::export`].

use std::collections::BTreeMap;
use std::hash::Hasher;

const WIDTH: f64 = 1200.0;
const FRAME_HEIGHT: f64 = 17.0;
const TITLE_HEIGHT: f64 = 28.0;
const MARGIN: f64 = 8.0;
/// Rectangles narrower than this get no inline label (the tooltip still
/// carries the full name).
const MIN_LABEL_WIDTH: f64 = 35.0;
/// Approximate glyph width at font-size 11, for label truncation.
const CHAR_WIDTH: f64 = 6.6;

/// One node of the merged frame tree. Children keyed by name for
/// deterministic left-to-right layout.
#[derive(Default)]
struct Node {
    value: u64,
    children: BTreeMap<String, Node>,
}

impl Node {
    fn insert(&mut self, frames: &[&str], value: u64) {
        self.value += value;
        if let Some((first, rest)) = frames.split_first() {
            self.children
                .entry((*first).to_string())
                .or_default()
                .insert(rest, value);
        }
    }

    fn depth(&self) -> usize {
        1 + self.children.values().map(Node::depth).max().unwrap_or(0)
    }
}

/// Render folded `(stack, weight)` rows as a standalone flamegraph SVG.
///
/// `title` labels the chart (e.g. `"CPU · 1234 µs of span wall time"`);
/// `unit` names the weight in tooltips (`"µs"`, `"bytes"`). An empty input
/// renders a valid SVG stating that no data was collected.
pub fn flamegraph_svg(title: &str, unit: &str, folded: &[(String, u64)]) -> String {
    let mut root = Node::default();
    for (stack, value) in folded {
        if *value == 0 {
            continue;
        }
        let frames: Vec<&str> = stack.split(';').collect();
        root.insert(&frames, *value);
    }

    // Root row itself is synthetic and not drawn; depth counts it.
    let rows = root.depth().saturating_sub(1).max(1);
    let height = TITLE_HEIGHT + rows as f64 * FRAME_HEIGHT + MARGIN;
    let mut svg = String::with_capacity(4096);
    svg.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w}\" height=\"{h}\" \
         viewBox=\"0 0 {w} {h}\" font-family=\"monospace\" font-size=\"11\">\n",
        w = WIDTH,
        h = height
    ));
    svg.push_str(&format!(
        "<rect x=\"0\" y=\"0\" width=\"{WIDTH}\" height=\"{height}\" fill=\"#f8f8f8\"/>\n"
    ));
    svg.push_str(&format!(
        "<text x=\"{}\" y=\"18\" font-size=\"14\">{}</text>\n",
        MARGIN,
        escape(title)
    ));

    if root.value == 0 {
        svg.push_str(&format!(
            "<text x=\"{}\" y=\"{}\">no {} collected</text>\n",
            MARGIN,
            TITLE_HEIGHT + FRAME_HEIGHT,
            escape(unit)
        ));
        svg.push_str("</svg>\n");
        return svg;
    }

    let scale = (WIDTH - 2.0 * MARGIN) / root.value as f64;
    let mut x = MARGIN;
    for (name, child) in &root.children {
        emit(
            &mut svg,
            name,
            child,
            x,
            TITLE_HEIGHT,
            scale,
            root.value,
            unit,
        );
        x += child.value as f64 * scale;
    }
    svg.push_str("</svg>\n");
    svg
}

#[allow(clippy::too_many_arguments)]
fn emit(
    svg: &mut String,
    name: &str,
    node: &Node,
    x: f64,
    y: f64,
    scale: f64,
    total: u64,
    unit: &str,
) {
    let width = node.value as f64 * scale;
    if width < 0.1 {
        return;
    }
    let pct = 100.0 * node.value as f64 / total as f64;
    svg.push_str(&format!(
        "<g><title>{} — {} {} ({:.1}%)</title>\
         <rect x=\"{:.2}\" y=\"{:.2}\" width=\"{:.2}\" height=\"{:.2}\" \
         fill=\"{}\" stroke=\"#f8f8f8\" stroke-width=\"0.5\"/>",
        escape(name),
        node.value,
        escape(unit),
        pct,
        x,
        y,
        width,
        FRAME_HEIGHT,
        color(name),
    ));
    if width >= MIN_LABEL_WIDTH {
        let max_chars = ((width - 6.0) / CHAR_WIDTH) as usize;
        let label: String = if name.chars().count() > max_chars {
            let kept: String = name.chars().take(max_chars.saturating_sub(2)).collect();
            format!("{kept}..")
        } else {
            name.to_string()
        };
        svg.push_str(&format!(
            "<text x=\"{:.2}\" y=\"{:.2}\">{}</text>",
            x + 3.0,
            y + FRAME_HEIGHT - 4.5,
            escape(&label)
        ));
    }
    svg.push_str("</g>\n");
    let mut cx = x;
    for (child_name, child) in &node.children {
        emit(
            svg,
            child_name,
            child,
            cx,
            y + FRAME_HEIGHT,
            scale,
            total,
            unit,
        );
        cx += child.value as f64 * scale;
    }
}

/// Deterministic warm color from the frame name, flamegraph-style.
fn color(name: &str) -> String {
    let mut hasher = crate::Fnv1a::default();
    hasher.write(name.as_bytes());
    let hash = hasher.finish();
    let r = 205 + (hash % 50) as u8;
    let g = 80 + ((hash >> 8) % 110) as u8;
    let b = ((hash >> 16) % 55) as u8;
    format!("rgb({r},{g},{b})")
}

fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_well_formed_standalone_svg() {
        let folded = vec![
            ("serve.job;engine.query;bdd.solve".to_string(), 70u64),
            ("serve.job;engine.query;sat.solve".to_string(), 25),
            ("serve.job;serve.drain".to_string(), 5),
        ];
        let svg = flamegraph_svg("CPU · 100 samples", "samples", &folded);
        assert!(svg.starts_with("<svg xmlns=\"http://www.w3.org/2000/svg\""));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains("bdd.solve"));
        assert!(svg.matches("<g>").count() == svg.matches("</g>").count());
        assert!(svg.contains("(70.0%)"), "tooltip percentage: {svg}");
        assert!(!svg.contains("<script"), "self-contained, no scripts");
    }

    #[test]
    fn empty_input_is_still_valid_svg() {
        let svg = flamegraph_svg("heap", "bytes", &[]);
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("no bytes collected"));
        assert!(svg.trim_end().ends_with("</svg>"));
    }

    #[test]
    fn frame_names_are_xml_escaped() {
        let folded = vec![("<untracked>".to_string(), 10u64)];
        let svg = flamegraph_svg("heap & more", "bytes", &folded);
        assert!(svg.contains("&lt;untracked&gt;"));
        assert!(svg.contains("heap &amp; more"));
        assert!(!svg.contains("<untracked>"));
    }
}
