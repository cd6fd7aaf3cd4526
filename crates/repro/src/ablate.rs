//! The three ablations DESIGN §3 and EXPERIMENTS.md cite for the paper's
//! §6 and §8 claims: variable-ordering analysis, eager folding, and
//! compiled vs. interpreted models. Each prints one CSV table with the
//! ablated configuration beside the default and their ratio.

use std::hint::black_box;

use rzen::{FindOptions, Zen, ZenFunction};
use rzen_net::gen::{random_acl, random_header};

use crate::{mean_ms, time_ms};

/// Timed runs per cell.
const REPS: usize = 10;

/// Equality of two w-bit values on the BDD backend, with and without the
/// interleaving analysis.
fn find_eq_pair(width: u32, analysis: bool) {
    rzen::reset_ctx();
    let opts = FindOptions {
        ordering_analysis: analysis,
        ..FindOptions::bdd()
    };
    match width {
        8 => {
            let f = ZenFunction::new(|p: Zen<(u8, u8)>| p.item1().eq(p.item2()));
            f.find(|_, out| out, &opts).unwrap();
        }
        16 => {
            let f = ZenFunction::new(|p: Zen<(u16, u16)>| p.item1().eq(p.item2()));
            f.find(|_, out| out, &opts).unwrap();
        }
        20 => {
            // 20 "bits" via u32 masked to 20 bits on both sides.
            let f = ZenFunction::new(|p: Zen<(u32, u32)>| {
                (p.item1() & 0xF_FFFFu32).eq(p.item2() & 0xF_FFFFu32)
            });
            f.find(|_, out| out, &opts).unwrap();
        }
        _ => unreachable!(),
    }
}

/// §6: "when two variables are compared for (in)equality, Zen ensures
/// their orderings will be interleaved, as any other ordering will result
/// in an exponential memory blowup." Interleaved cost is linear in the
/// width; sequential doubles per bit.
pub(crate) fn ordering() {
    println!("# Ablation (§6): variable-ordering analysis — BDD equality of two w-bit values");
    println!("bits,interleaved_ms,sequential_ms,ratio");
    find_eq_pair(8, true); // warm up: the cells below are microseconds
    for w in [8u32, 16, 20] {
        let on = mean_ms(REPS, || find_eq_pair(w, true));
        // The sequential order is exponential in w; skip the largest
        // width to keep the run finite.
        if w <= 16 {
            let off = mean_ms(REPS, || find_eq_pair(w, false));
            println!("{w},{on:.4},{off:.4},{:.1}", off / on);
        } else {
            println!("{w},{on:.4},-,-");
        }
    }
}

/// §6 "build efficient symbolic representations": eager constant folding
/// and algebraic simplification at node-construction time, on the
/// Fig. 10 ACL query through the SMT backend.
pub(crate) fn fold() {
    println!("# Ablation (§6): eager folding — SMT find on the last line of an n-line ACL");
    println!("lines,folding_on_ms,folding_off_ms,ratio");
    for n in [200usize, 800] {
        let acl = random_acl(n, 7);
        let last = acl.rules.len() as u16;
        let run = |folding: bool| {
            mean_ms(REPS, || {
                rzen::set_folding(folding);
                let model = acl.clone();
                let f = ZenFunction::new(move |h| model.matched_line(h));
                f.find(|_, line| line.eq(Zen::val(last)), &FindOptions::smt())
                    .unwrap();
                rzen::set_folding(true);
            })
        };
        let (on, off) = (run(true), run(false));
        println!("{n},{on:.2},{off:.2},{:.2}", off / on);
    }
}

/// §8 "Synthesizing implementations": 64 headers through an n-line ACL
/// model by `evaluate` (interpretation, rebuilding constants per call),
/// by `compile().call()` (the register VM), and by the hand-written
/// concrete matcher as the reference point.
pub(crate) fn compile() {
    println!("# Ablation (§8): compiled vs. interpreted — 64 headers through an n-line ACL");
    println!("lines,interpret_ms,compiled_vm_ms,native_ms,interpret_over_compiled");
    let headers: Vec<_> = (0..64).map(random_header).collect();
    // The compiled program holds ids into the expression context, so
    // these cells must not reset it between runs the way `mean_ms` does.
    let per_pass = |f: &dyn Fn(&rzen_net::headers::Header) -> u16| {
        let pass = || headers.iter().map(|h| f(h) as u32).sum::<u32>();
        black_box(pass());
        let ((), ms) = time_ms(|| {
            for _ in 0..REPS {
                black_box(pass());
            }
        });
        ms / REPS as f64
    };
    for n in [100usize, 1000] {
        rzen::reset_ctx();
        let acl = random_acl(n, 7);
        let model = acl.clone();
        let f = ZenFunction::new(move |h| model.matched_line(h));
        let compiled = f.compile(0);
        let interp = per_pass(&|h| f.evaluate(h));
        let vm = per_pass(&|h| compiled.call(h));
        let native = per_pass(&|h| acl.matched_line_concrete(h));
        println!("{n},{interp:.3},{vm:.3},{native:.4},{:.1}", interp / vm);
    }
    rzen::reset_ctx();
}
