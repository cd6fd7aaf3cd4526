//! Regenerate the paper's Fig. 10: verification time vs. model size.
//!
//! Left plot: "time to verify an ACL (a data plane analysis) […] find
//! inputs that match the last line, which requires analyzing the complete
//! ACL", for Zen-BDD, Zen-SMT, and the hand-optimized baseline (the
//! paper's Batfish line).
//!
//! Right plot: the same query against route maps (a control plane
//! analysis), for Zen-BDD and Zen-SMT ("Batfish currently does not
//! support verification of route maps").
//!
//! Emits CSV on stdout and into results/fig10_{acl,routemap}.csv.

use rzen::{FindOptions, Zen, ZenFunction};
use rzen_baselines::AclVerifier;
use rzen_net::gen::{random_acl, random_route_map};

use crate::{mean_ms, write_csv};

const ACL_SIZES: [usize; 7] = [1000, 2500, 5000, 7500, 10000, 12500, 15000];
const RM_SIZES: [usize; 5] = [20, 40, 60, 80, 100];

pub(crate) fn acl_series(reps: usize) {
    println!("# Fig. 10 (left): ACL verification — find a packet matching the last line");
    let header = "lines,zen_bdd_ms,zen_smt_ms,baseline_ms";
    println!("{header}");
    let mut rows = Vec::new();
    for &n in &ACL_SIZES {
        let acl = random_acl(n, 7);
        let last = acl.rules.len() as u16;

        let a = acl.clone();
        let bdd = mean_ms(reps, || {
            let model = a.clone();
            let f = ZenFunction::new(move |h| model.matched_line(h));
            let w = f.find(|_, line| line.eq(Zen::val(last)), &FindOptions::bdd());
            assert!(w.is_some());
        });

        let a = acl.clone();
        let smt = mean_ms(reps, || {
            let model = a.clone();
            let f = ZenFunction::new(move |h| model.matched_line(h));
            let w = f.find(|_, line| line.eq(Zen::val(last)), &FindOptions::smt());
            assert!(w.is_some());
        });

        let a = acl.clone();
        let base = mean_ms(reps, || {
            let mut v = AclVerifier::new(&a);
            assert!(v.find_first_match(last as usize - 1).is_some());
        });

        let row = format!("{n},{bdd:.2},{smt:.2},{base:.2}");
        println!("{row}");
        rows.push(row);
    }
    write_csv("fig10_acl.csv", header, &rows);
}

pub(crate) fn routemap_series(reps: usize) {
    println!("# Fig. 10 (right): route-map verification — find an announcement deciding at the last clause");
    let header = "clauses,zen_bdd_ms,zen_smt_ms";
    println!("{header}");
    let mut rows = Vec::new();
    for &n in &RM_SIZES {
        let rm = random_route_map(n, 3);
        let last = rm.clauses.len() as u16;

        let r = rm.clone();
        let bdd = mean_ms(reps, || {
            let model = r.clone();
            let f = ZenFunction::new(move |a| model.matched_clause(a));
            let w = f.find(
                |_, line| line.eq(Zen::val(last)),
                &FindOptions::bdd().with_list_bound(4),
            );
            assert!(w.is_some());
        });

        let r = rm.clone();
        let smt = mean_ms(reps, || {
            let model = r.clone();
            let f = ZenFunction::new(move |a| model.matched_clause(a));
            let w = f.find(
                |_, line| line.eq(Zen::val(last)),
                &FindOptions::smt().with_list_bound(4),
            );
            assert!(w.is_some());
        });

        let row = format!("{n},{bdd:.2},{smt:.2}");
        println!("{row}");
        rows.push(row);
    }
    write_csv("fig10_routemap.csv", header, &rows);
}
